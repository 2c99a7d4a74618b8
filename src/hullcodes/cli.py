"""Command-line interface.

Subcommands:

* construct -- build one code (family + (k, l) target, an explicit seed
  JSON, or one of the ternary specials) and report its hull.
* verify    -- recompute everything for a serialized code.
* enumerate -- sweep a family's full advertised (k, l) grid; each row
  is constructed and oracle-verified, never emitted from the range
  formulas alone.
* census    -- hull histogram of all ternary [4,2,3] MDS codes.
* selftest  -- run the built-in invariant suites.

Each command returns its exit code and its whole output, and main
writes that output once, after the verdict.  Exit codes: 0 success, 1
verification failure, 2 invalid input; a reader that closes stdout
early ends the output but never changes the exit code.

The argument parser is built once per process and reused by every main
call; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from .construct import (
    ConstructionError,
    TERNARY_KINDS,
    make_seed,
    reduce_hull,
    ternary_codes,
)
from .families import (
    FAMILIES,
    FamilyError,
    FamilyParams,
    build_family,
    construct_from_family,
    family_grid,
)
from . import selftest
from .grs import spec_from_dict, spec_to_dict
from .hull import code_from_grs, hull_report
from .oracle import (
    DEFAULT_BUDGET,
    BudgetError,
    OracleBudget,
    is_mds,
    min_distance,
    ternary_4_2_census,
)

# the random stream of the selftest suites
SELFTEST_SEED = 2024


def _budget(args) -> OracleBudget:
    """The oracle budgets of the flags, each OracleBudget's default
    unless given."""
    for value in (args.max_codewords, args.max_minor_k):
        if value < 0:
            raise ValueError(f"oracle budgets must be non-negative, got {value}")
    return OracleBudget(args.max_codewords, args.max_minor_k)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            pass  # the reader closed stdout: the output ends, the verdict stands


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _int_list(text: str | None) -> tuple | None:
    """The integers of a comma-separated flag value, None if not given."""
    if text is None:
        return None
    try:  # int("") fails too, so an empty item is refused
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated list of integers") from None


# the flags that only family mode reads: one per FamilyParams field
_FAMILY_FLAGS = tuple(field.name for field in dataclasses.fields(FamilyParams))


def _family_params(args) -> FamilyParams:
    values = {name: getattr(args, name) for name in _FAMILY_FLAGS}
    values["mu"] = _int_list(values["mu"])
    if values["variant"] is None:
        values["variant"] = "i"
    return FamilyParams(**values)


def _refuse_flags(args, names, mode: str) -> None:
    """Refuse a flag that the chosen mode never reads."""
    for name in names:
        if getattr(args, name) is not None:
            raise ConstructionError(f"--{name.replace('_', '-')} has no effect {mode}")


def _load_spec(path):
    """The code in a JSON file: a bare code or a payload with a "code" key."""
    with open(path) as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "code" in d:
        d = d["code"]
    return spec_from_dict(d)


def _verdict(code, budget: OracleBudget) -> tuple:
    """The code's hull report and its MDS verdict: is_mds, or None when
    that check exceeds both budgets."""
    report = hull_report(code)
    try:
        return report, is_mds(code, budget)
    except BudgetError:
        return report, None


def _payload(spec, budget: OracleBudget) -> tuple[dict, bool]:
    """The code's report plus whether its hull formulas agree and it is
    not refuted as MDS; callers with a target l check hull_dim too."""
    report, mds = _verdict(code_from_grs(spec), budget)
    payload = {
        "schema": 1,
        "code": spec_to_dict(spec),
        "report": report.to_dict(),
        "length": spec.length,
        "k": spec.k,
        "mds_verified": mds,
    }
    return payload, report.oracle_agrees and mds is not False


def cmd_construct(args) -> tuple[int, str]:
    budget = _budget(args)
    if args.extend and not args.seed_json:
        raise ConstructionError("--extend applies only to --seed-json")
    if args.ternary:
        _refuse_flags(args, ("k", "l", "alpha", "b", "seed_json", *_FAMILY_FLAGS), "with --ternary")
        code = ternary_codes(args.ternary, _int_list(args.v))
        report, mds = _verdict(code, budget)
        payload = {
            "schema": 1,
            "ternary": args.ternary,
            "generator": [list(r) for r in code.generator.rows],
            "report": report.to_dict(),
            "min_distance": min_distance(code, budget),
        }
        return (0 if report.oracle_agrees and mds is not False else 1), _dump(payload)

    _refuse_flags(args, ("v",), "without --ternary")
    if args.k is None or args.l is None:
        raise FamilyError("construct needs --k and --l")

    if args.seed_json:
        _refuse_flags(args, _FAMILY_FLAGS, "with --seed-json")
        seed = make_seed(_load_spec(args.seed_json))
        out = reduce_hull(
            seed, args.k, args.l, extend=args.extend, alpha=args.alpha, b=args.b
        )
    elif args.family:
        fs = build_family(_family_params(args))
        out = construct_from_family(fs, args.k, args.l, alpha=args.alpha, b=args.b)
    else:
        raise FamilyError("construct needs --family, --seed-json or --ternary")

    payload, ok = _payload(out, budget)
    payload["l"] = args.l
    return (0 if ok and payload["report"]["hull_dim"] == args.l else 1), _dump(payload)


def cmd_verify(args) -> tuple[int, str]:
    payload, ok = _payload(_load_spec(args.path), _budget(args))
    return (0 if ok else 1), _dump(payload)


_CSV_COLUMNS = (
    "family",
    "variant",
    "q",
    "n",
    "k",
    "l",
    "classification",
    "mds_verified",
    "hull_verified",
)


def _row(family: str, variant: str, code, budget: OracleBudget, l=None) -> dict:
    """One enumerate row; its hull is verified when the formulas agree
    and the dimension is l (the code's own hull dimension if l is None)."""
    report, mds = _verdict(code, budget)
    l = report.hull_dim if l is None else l
    return {
        "family": family,
        "variant": variant,
        "q": code.field.q,
        "n": code.n,
        "k": code.k,
        "l": l,
        "classification": report.classification,
        "mds_verified": mds,
        "hull_verified": report.hull_dim == l and report.oracle_agrees,
    }


def cmd_enumerate(args) -> tuple[int, str]:
    budget = _budget(args)
    if args.family is None and args.q == 3:
        # the only q = 3 MDS codes with known hulls: the explicit table
        _refuse_flags(args, [x for x in _FAMILY_FLAGS if x != "q"], "with enumerate --q 3")
        rows = [_row("ternary", kind, ternary_codes(kind), budget) for kind in TERNARY_KINDS]
    elif args.family is None:
        raise FamilyError("enumerate needs --family (or --q 3)")
    else:
        fs = build_family(_family_params(args))
        # raise the minor cap to the grid's largest k so every row gets a
        # definite MDS verdict (q^k is far past enumeration at q = r^2)
        budget = OracleBudget(budget.max_codewords, max(budget.max_minor_k, fs.k_max))
        rows = [
            _row(fs.params.family, fs.params.variant,
                 code_from_grs(construct_from_family(fs, k, l)), budget, l)
            for _, k, l in family_grid(fs)
        ]
    rows.sort(key=lambda r: (r["n"], r["k"], r["l"]))
    verdict = 0 if all(r["mds_verified"] is True and r["hull_verified"] for r in rows) else 1
    if args.format == "csv":
        lines = [",".join(str(r[c]) for c in _CSV_COLUMNS) for r in rows]
        return verdict, "\n".join([",".join(_CSV_COLUMNS), *lines])
    return verdict, _dump({"schema": 1, "rows": rows})


def cmd_census(args) -> tuple[int, str]:
    result = ternary_4_2_census(_budget(args))
    hist = result["hull_histogram"]
    return (0 if hist[1] == 0 and hist[2] >= 1 else 1), _dump({"schema": 1, **result})


def cmd_selftest(args) -> tuple[int, str]:
    return selftest.run(SELFTEST_SEED, _budget(args))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullcodes",
        description="MDS codes with prescribed Euclidean hull dimensions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_budget(p):
        p.add_argument("--max-codewords", type=int, default=DEFAULT_BUDGET.max_codewords)
        p.add_argument("--max-minor-k", type=int, default=DEFAULT_BUDGET.max_minor_k)

    # a family flag is an int unless listed here
    family_options = {
        "family": {"choices": FAMILIES},
        "variant": {},
        "mu": {"help": "comma-separated coset exponents"},
    }

    def add_family(p):
        for name in _FAMILY_FLAGS:
            p.add_argument(f"--{name}", **family_options.get(name, {"type": int}))

    pc = sub.add_parser("construct", help="build a single code")
    add_family(pc)
    add_budget(pc)
    pc.add_argument("--ternary", choices=TERNARY_KINDS, default=None)
    pc.add_argument("--v", help="comma-separated ternary multipliers")
    pc.add_argument("--seed-json", default=None)
    pc.add_argument("--extend", action="store_true",
                    help="extend a non-extended seed by one coordinate")
    pc.add_argument("--k", type=int, default=None)
    pc.add_argument("--l", type=int, default=None)
    pc.add_argument("--alpha", type=int, default=None)
    pc.add_argument("--b", type=int, default=None)
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="re-verify a serialized code")
    pv.add_argument("path")
    add_budget(pv)
    pv.add_argument("--output", default=None)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("enumerate", help="sweep a family's (k, l) grid")
    add_family(pe)
    add_budget(pe)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--output", default=None)
    pe.set_defaults(func=cmd_enumerate)

    pn = sub.add_parser("census", help="ternary [4,2,3] hull census")
    add_budget(pn)
    pn.add_argument("--output", default=None)
    pn.set_defaults(func=cmd_census)

    ps = sub.add_parser("selftest", help="run the invariant suites")
    add_budget(ps)
    ps.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        verdict, text = args.func(args)
        _emit(args, text)
        return verdict
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # every input error of the package (and json's) is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
