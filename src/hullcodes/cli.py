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

Exit codes: 0 success, 1 verification failure, 2 invalid input.

The argument parser is built once per process and reused by every main
call; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
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
from .oracle import BudgetError, OracleBudget, is_mds, min_distance, ternary_4_2_census

ENV_MAX_CODEWORDS = "HULLCODES_MAX_CODEWORDS"
ENV_MAX_MINOR_K = "HULLCODES_MAX_MINOR_K"


def _budget(args) -> OracleBudget:
    default = OracleBudget()
    max_cw = _budget_value(args.max_codewords, ENV_MAX_CODEWORDS, default.max_codewords)
    max_mk = _budget_value(args.max_minor_k, ENV_MAX_MINOR_K, default.max_minor_k)
    return OracleBudget(max_codewords=max_cw, max_minor_k=max_mk)


def _budget_value(flag, env: str, default: int) -> int:
    """The flag if given, else the environment variable, else the default."""
    value = flag if flag is not None else int(os.environ.get(env, default))
    if value < 0:
        raise ValueError(f"oracle budgets must be non-negative, got {value}")
    return value


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _int_list(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x != "")


# the flags that only family mode reads: one per FamilyParams field
_FAMILY_FLAGS = tuple(field.name for field in dataclasses.fields(FamilyParams))


def _family_params(args) -> FamilyParams:
    values = {name: getattr(args, name) for name in _FAMILY_FLAGS}
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


def _verified_payload(spec, budget: OracleBudget) -> tuple[dict, bool]:
    """The code's report plus whether its hull formulas agree and it is
    not refuted as MDS; callers with a target l check hull_dim too."""
    code = code_from_grs(spec)
    report = hull_report(code)
    try:
        mds = is_mds(code, budget)
    except BudgetError:
        mds = None
    payload = {
        "schema": 1,
        "code": spec_to_dict(spec),
        "report": report.to_dict(),
        "length": spec.length,
        "k": spec.k,
        "mds_verified": mds,
    }
    return payload, report.oracle_agrees and mds is not False


def cmd_construct(args) -> int:
    budget = _budget(args)
    if args.extend and not args.seed_json:
        raise ConstructionError("--extend applies only to --seed-json")
    if args.ternary:
        _refuse_flags(args, ("k", "l", "alpha", "b", "seed_json", *_FAMILY_FLAGS), "with --ternary")
        code = ternary_codes(args.ternary, args.v)
        report = hull_report(code)
        d = min_distance(code, budget)
        payload = {
            "schema": 1,
            "ternary": args.ternary,
            "generator": [list(r) for r in code.generator.rows],
            "report": report.to_dict(),
            "min_distance": d,
        }
        _emit(args, _dump(payload))
        # all four ternary codes are MDS
        return 0 if report.oracle_agrees and d == code.n - code.k + 1 else 1

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

    payload, ok = _verified_payload(out, budget)
    payload["l"] = args.l
    _emit(args, _dump(payload))
    return 0 if ok and payload["report"]["hull_dim"] == args.l else 1


def cmd_verify(args) -> int:
    spec = _load_spec(args.path)
    payload, ok = _verified_payload(spec, _budget(args))
    _emit(args, _dump(payload))
    return 0 if ok else 1


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


def _rows_to_output(args, rows: list[dict]) -> None:
    rows.sort(key=lambda r: (r["n"], r["k"], r["l"]))
    if args.format == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for r in rows:
            lines.append(",".join(str(r[c]) for c in _CSV_COLUMNS))
        _emit(args, "\n".join(lines))
    else:
        _emit(args, _dump({"schema": 1, "rows": rows}))


def cmd_enumerate(args) -> int:
    budget = _budget(args)
    rows: list[dict] = []
    if args.family is None and args.q == 3:
        # the only q = 3 MDS codes with known hulls: the explicit table
        _refuse_flags(args, [x for x in _FAMILY_FLAGS if x != "q"], "with enumerate --q 3")
        for kind in TERNARY_KINDS:
            code = ternary_codes(kind)
            report = hull_report(code)
            rows.append(
                {
                    "family": "ternary",
                    "variant": kind,
                    "q": 3,
                    "n": code.n,
                    "k": code.k,
                    "l": report.hull_dim,
                    "classification": report.classification,
                    "mds_verified": min_distance(code, budget)
                    == code.n - code.k + 1,
                    "hull_verified": report.oracle_agrees,
                }
            )
        _rows_to_output(args, rows)
        return 0 if all(r["mds_verified"] and r["hull_verified"] for r in rows) else 1
    if args.family is None:
        raise FamilyError("enumerate needs --family (or --q 3)")
    fs = build_family(_family_params(args))
    # raise the minor cap to the grid's largest k so every row gets a
    # definite MDS verdict (q^k is far past enumeration at q = r^2)
    budget = OracleBudget(budget.max_codewords, max(budget.max_minor_k, fs.k_max))
    all_ok = True
    for n, k, l in family_grid(fs):
        spec = construct_from_family(fs, k, l)
        payload, ok = _verified_payload(spec, budget)
        hull_ok = payload["report"]["hull_dim"] == l
        all_ok = all_ok and ok and hull_ok
        rows.append(
            {
                "family": fs.params.family,
                "variant": fs.params.variant,
                "q": spec.field.q,
                "n": n,
                "k": k,
                "l": l,
                "classification": payload["report"]["classification"],
                "mds_verified": payload["mds_verified"],
                "hull_verified": hull_ok and payload["report"]["oracle_agrees"],
            }
        )
    _rows_to_output(args, rows)
    return 0 if all_ok else 1


def cmd_census(args) -> int:
    budget = _budget(args)
    result = ternary_4_2_census(budget)
    _emit(args, _dump({"schema": 1, **result}))
    hist = result["hull_histogram"]
    return 0 if hist[1] == 0 and hist[2] >= 1 else 1


def cmd_selftest(args) -> int:
    return selftest.run(args.selftest_seed, _budget(args))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullcodes",
        description="MDS codes with prescribed Euclidean hull dimensions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_budget(p):
        p.add_argument("--max-codewords", type=int, default=None)
        p.add_argument("--max-minor-k", type=int, default=None)

    # a family flag is an int unless listed here
    family_options = {
        "family": {"choices": FAMILIES},
        "variant": {},
        "mu": {"type": _int_list, "help": "comma-separated coset exponents"},
    }

    def add_family(p):
        for name in _FAMILY_FLAGS:
            p.add_argument(f"--{name}", **family_options.get(name, {"type": int}))

    pc = sub.add_parser("construct", help="build a single code")
    add_family(pc)
    add_budget(pc)
    pc.add_argument("--ternary", choices=TERNARY_KINDS, default=None)
    pc.add_argument("--v", type=_int_list, help="comma-separated ternary multipliers")
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
    ps.add_argument("--selftest-seed", type=int, default=2024)
    ps.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # every input error of the package (and json's) is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
