"""The benchmark's three workloads.

Each workload turns a seed into inputs, times the program's calls on
them (closed loop, one client) and checks every answer.  The program is
called through its module attributes at call time, so the tracer's
wrappers see the benchmark's own calls too.  See README.md for why each
workload exists and what it is predicted to show.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from importlib import import_module
from time import perf_counter

# import_module, because the hullcodes package re-exports a function
# named grs that hides the grs module.
cli, construct, families, gf, grs, hull, oracle = (
    import_module(f"hullcodes.{name}")
    for name in ("cli", "construct", "families", "gf", "grs", "hull", "oracle")
)

import reference as ref


class CheckFailed(Exception):
    """An operation completed but its answer is wrong."""


class Clock:
    """Accumulates the time spent inside program calls made through it."""

    def __init__(self):
        self.elapsed = 0.0

    def call(self, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += perf_counter() - t0


class Op:
    """One operation: a group label for reports, a shape label and a callable taking a Clock.

    Ops of one shape do the same work on different seeded values, so
    their latencies are samples of one cost; every round of a workload
    holds the same shapes.
    """

    def __init__(self, group: str, shape: str, run):
        self.group = group
        self.shape = shape
        self.run = run


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _trim(fx):
    fx = list(fx)
    while fx and fx[-1] == 0:
        fx.pop()
    return fx


# --- family_sweep ---------------------------------------------------------

FAMILY_SEEDS = {
    "even_cosets/i": {"family": "even_cosets", "r": 7, "m": 3, "t": 4, "variant": "i"},
    "even_cosets/ii": {"family": "even_cosets", "r": 7, "m": 3, "t": 4, "variant": "ii"},
    "even_cosets/iii": {"family": "even_cosets", "r": 7, "m": 3, "t": 4, "variant": "iii"},
    "even_cosets/iv": {"family": "even_cosets", "r": 7, "m": 3, "t": 4, "variant": "iv"},
    "twisted_pair": {"family": "twisted_pair", "q": 11, "t": 5},
    "additive/ii": {"family": "additive", "p": 3, "s": 1, "e": 1, "variant": "ii"},
}

MAX_CODEWORDS = 10**6

# SHA-256 of the stdout of each fixed command on the seed code.  These
# outputs must stay byte-identical.
GOLDEN = {
    "enumerate --q 3": "035b8313dabd32f9b38e9d9c82e182ea6dee83edcef9bf6744ac008e506800d6",
    "census": "f7461cd6aad35c29bc87129e0c65091c2af1cf3931ac3ebba20ed2339876d785",
    "selftest": "7fb15731a2cdb582dedabdc7dd047be8e48cc9cd7db8f6affb592b11cd686a29",
}


def _budget_args(max_minor_k: int) -> list[str]:
    return ["--max-codewords", str(MAX_CODEWORDS), "--max-minor-k", str(max_minor_k)]


FIXED_COMMANDS = {
    "enumerate --q 3": ["enumerate", "--q", "3"] + _budget_args(5),
    "census": ["census"] + _budget_args(5),
    "selftest": ["selftest"] + _budget_args(5),
}


def run_cli(clock: Clock, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = clock.call(cli.main, argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


class FamilySweep:
    """CLI end to end: constructs over the family grids, plus three fixed commands.

    A round is one pass in a seeded order: the three fixed commands and,
    for every family and every k of its grid, one construct with a seeded
    l.  A construct's cost follows (family, k), not l (the minors referee
    examines C(n, k) minors either way), so every round costs about the
    same.  Each pass draws fresh l, alpha (and, for twisted_pair, omega)
    values.  The traced run takes every grid point instead.
    """

    name = "family_sweep"
    # Mid-way through the samples of the third-slowest of the 36 shapes
    # (even_cosets/iii k=6), away from the gaps between shapes' costs.
    tail_percentile = 93

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.families = []
        self.ref_fields = {}
        for group, params in FAMILY_SEEDS.items():
            fs = families.build_family(families.FamilyParams(**params))
            field = fs.seed.spec.field
            R = self._ref(field.to_dict())
            squares = {R.mul[x][x] for x in range(1, R.q)}
            self.families.append({
                "group": group,
                "argv": ["construct"] + [f"--{key}={val}" for key, val in params.items()],
                "grid": _grid_by_k(families.family_grid(fs)),
                "k_max": fs.k_max,
                "alphas": [x for x in range(2, R.q) if R.mul[x][x] != 1],
                "omegas": ([x for x in range(2, R.q) if x not in squares]
                           if params["family"] == "twisted_pair" else None),
            })

    def _ref(self, field_dict) -> ref.RefField:
        key = json.dumps(field_dict, sort_keys=True)
        if key not in self.ref_fields:
            self.ref_fields[key] = ref.RefField.from_dict(field_dict)
        return self.ref_fields[key]

    def construct_op(self, fam, k: int, l: int, alpha: int, omega) -> Op:
        argv = fam["argv"] + ["--k", str(k), "--l", str(l), "--alpha", str(alpha)]
        if omega is not None:
            argv += ["--omega", str(omega)]
        argv += _budget_args(fam["k_max"])

        def run(clock):
            rc, out, err = run_cli(clock, argv)
            _check(rc == 0, f"{' '.join(argv)}: exit code {rc}: {err.strip()}")
            payload = json.loads(out)
            report = payload["report"]
            _check(report["hull_dim"] == l, f"{argv}: hull_dim {report['hull_dim']} != l")
            _check(report["oracle_agrees"] is True, f"{argv}: hull oracle disagrees")
            _check(payload["mds_verified"] is True,
                   f"{argv}: mds_verified is {payload['mds_verified']}, not a verified pass")
            code = payload["code"]
            R = self._ref(code["field"])
            G = ref.grs_generator(R, code["a"], code["v"], code["k"], code["extended"])
            _check(code["k"] == k and k - ref.rank(R, ref.gram(R, G)) == l,
                   f"{argv}: reference Gram rank disagrees with l")

        return Op(fam["group"], f"{fam['group']} k={k}", run)

    @staticmethod
    def fixed_op(label: str) -> Op:
        argv = FIXED_COMMANDS[label]

        def run(clock):
            rc, out, err = run_cli(clock, argv)
            _check(rc == 0, f"{label}: exit code {rc}: {err.strip()}")
            digest = hashlib.sha256(out.encode()).hexdigest()
            _check(digest == GOLDEN[label], f"{label}: output digest {digest} differs from golden")

        return Op(label, label, run)

    def warmup(self) -> list[Op]:
        fam = self.families[3]  # even_cosets/iv: minors route, cheap at k = 4
        return [self.construct_op(fam, 4, 2, fam["alphas"][0], None)]

    def rounds(self):
        while True:
            yield self._pass(full=False)

    def _pass(self, full: bool) -> list[Op]:
        """The fixed commands and one construct per (family, k), or per grid point when full."""
        ops = [self.fixed_op(label) for label in FIXED_COMMANDS]
        for fam in self.families:
            for k, ls in fam["grid"].items():
                for l in ls if full else [self.rng.choice(ls)]:
                    omega = self.rng.choice(fam["omegas"]) if fam["omegas"] else None
                    ops.append(self.construct_op(fam, k, l, self.rng.choice(fam["alphas"]), omega))
        self.rng.shuffle(ops)
        return ops

    def trace_ops(self) -> list[Op]:
        return self._pass(full=True)


def _grid_by_k(grid) -> dict[int, list[int]]:
    """{k: [l, ...]} from family_grid's (label, k, l) triples."""
    out = {}
    for _, k, l in grid:
        out.setdefault(k, []).append(l)
    return out


# --- large_n_certify ------------------------------------------------------

# (p, k, m, l) of the ops of one round: m <= p // 2, and k >= 6 puts
# q^k past the codeword budget and k past the minor budget, so is_mds
# must refuse: the MDS referee is out of reach.  The shapes are fixed so
# that every round costs the same; the seed draws the rest of the input.
LARGE_SHAPES = ((59, 6, 29, 6), (61, 30, 30, 1), (67, 20, 33, 10), (71, 12, 35, 3), (73, 36, 36, 36))
WARMUP_SHAPE = (13, 6, 6, 3)
LARGE_BUDGET = oracle.OracleBudget(max_codewords=MAX_CODEWORDS, max_minor_k=5)


class LargeNCertify:
    """Library level over GF(p), p in LARGE_SHAPES, points = the whole field.

    One op: eval_set, make_seed, reduce_hull_grs, hull_report and
    hull_dim_oracle (both must equal l), the MDS referee (which must
    refuse on budget), and two hull_membership queries with their
    encodes: one message in the hull and one random message.  A round is
    one op per shape of LARGE_SHAPES, in a seeded order.
    """

    name = "large_n_certify"
    # Mid-way through the samples of the slowest of the 5 shapes.  A run
    # has about 20 ops, so only about 2 samples lie beyond it.
    tail_percentile = 90

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        primes = [p for p, *_ in LARGE_SHAPES + (WARMUP_SHAPE,)]
        self.fields = {p: gf.Field(p) for p in primes}
        self.ref_fields = {p: ref.RefField(p) for p in primes}
        self.counts = {"mds_skipped": 0, "mds_verified": 0}

    def make_op(self, rng: random.Random, shape) -> Op:
        p, k, m, l = shape
        a = rng.sample(range(p), p)
        c = rng.randrange(1, p)
        v = [c if rng.random() < 0.5 else p - c for _ in a]
        coeffs = [rng.randrange(p) for _ in range(l)]
        message = [rng.randrange(p) for _ in range(k)]
        F, R = self.fields[p], self.ref_fields[p]

        def run(clock):
            points = clock.call(grs.eval_set, F, a)
            # over the whole field every u_i is 1 / prod_{b != 0} b = -1
            _check(list(points.a) == a and all(u == p - 1 for u in points.u), f"GF({p}): eval_set u_i")
            seed = clock.call(construct.make_seed, clock.call(grs.grs, points, v, m))
            spec = clock.call(construct.reduce_hull_grs, seed, k, l)
            code = clock.call(hull.code_from_grs, spec)
            report = clock.call(hull.hull_report, code)
            oracle_dim = clock.call(oracle.hull_dim_oracle, code)
            _check(report.hull_dim == l and oracle_dim == l and report.oracle_agrees,
                   f"GF({p}) k={k} l={l}: hull_report {report.hull_dim}, oracle {oracle_dim}")
            try:
                mds = clock.call(oracle.is_mds, code, LARGE_BUDGET)
            except oracle.BudgetError:
                self.counts["mds_skipped"] += 1
            else:
                _check(mds is True, f"GF({p}) k={k}: is_mds returned {mds}")
                self.counts["mds_verified"] += 1

            G = ref.grs_generator(R, spec.points.a, spec.v, k, False)
            gram = ref.gram(R, G)
            hull_msgs = ref.nullspace(R, gram, k)
            _check(len(hull_msgs) == l, f"GF({p}) k={k} l={l}: reference hull dim {len(hull_msgs)}")
            for fx in (_trim(ref.combine(R, coeffs, hull_msgs)), _trim(message)):
                expected = all(R.dot(fx, col) == 0 for col in gram)
                word = clock.call(grs.encode, spec, fx)
                _check(word == ref.grs_encode(R, spec.points.a, spec.v, k, False, fx), f"GF({p}): encode")
                g = clock.call(hull.hull_membership, spec, fx)
                _check((g is not None) == expected,
                       f"GF({p}) k={k} l={l}: membership {g is not None} != {expected}")
                if g is not None:
                    _check(len(g) - 1 <= p - k - 1, f"GF({p}): witness degree {len(g) - 1}")
                    for ai, vi in zip(spec.points.a, spec.v):
                        lhs = R.mul[R.mul[vi][vi]][R.poly_eval(fx, ai)]
                        _check(lhs == R.neg[R.poly_eval(g, ai)], f"GF({p}): witness fails at {ai}")

        return Op(f"GF({p})", f"GF({p}) k={k} m={m} l={l}", run)

    def warmup(self) -> list[Op]:
        return [self.make_op(random.Random(0), WARMUP_SHAPE)]

    def _round(self) -> list[Op]:
        ops = [self.make_op(self.rng, shape) for shape in LARGE_SHAPES]
        self.rng.shuffle(ops)
        return ops

    def rounds(self):
        while True:
            yield self._round()

    def trace_ops(self) -> list[Op]:
        return self._round()


# --- small_codes ----------------------------------------------------------

SMALL_FIELDS = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2))
SMALL_MAX_CODEWORDS = 4096
SMALL_BUDGET = oracle.OracleBudget(max_codewords=SMALL_MAX_CODEWORDS, max_minor_k=5)
SMALL_TRACE_ROUNDS = 15


def small_shapes(q: int) -> list[tuple[int, int]]:
    """The [n, k] shapes of one round's code ops over GF(q)."""
    return [(n, k) for n in (4, 6, 9) for k in sorted({1, n // 2, n - 1})
            if q**k <= SMALL_MAX_CODEWORDS]


class SmallCodes:
    """Many tiny inputs: random codes over GF(2..9) and hull membership queries.

    A code op runs linear_code, hull_report, hull_dim_oracle, min_distance
    and is_mds on a random full-rank [n <= 9, k] code with q^k within the
    codeword budget, so enumeration runs and minors never do.  A
    membership op queries one of the GF(13)/GF(7) reduced codes of
    acceptance criterion 9.  A round, in a seeded order, is one code op
    per field and shape of small_shapes, and two membership ops per
    reduced code: a message drawn from its hull (when the hull is not
    zero) and a random message.  So every round has the same shapes and
    only the seeded entries differ.
    """

    name = "small_codes"
    # Within the samples of the slowest of the 68 shapes.
    tail_percentile = 99

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        fields = [gf.Field(p, m) for p, m in SMALL_FIELDS]
        self.fields = [(F, ref.RefField.from_dict(F.to_dict())) for F in fields]
        self.specs = [dict(self._membership_spec(spec), label=f"#{i}")
                      for i, spec in enumerate(_criterion9_specs())]

    @staticmethod
    def _membership_spec(spec):
        """A spec with its hull messages (reference) and all hull words (from hull_report's basis)."""
        R = ref.RefField(spec.field.p)
        a, v, k, ext = spec.points.a, spec.v, spec.k, spec.extended
        gram = ref.gram(R, ref.grs_generator(R, a, v, k, ext))
        hull_msgs = ref.nullspace(R, gram, k)
        basis = hull.hull_report(hull.code_from_grs(spec)).hull_basis
        words = ref.span(R, [list(r) for r in basis.rows], spec.length)
        if len(words) != R.q ** len(hull_msgs):
            raise CheckFailed(f"hull_report basis spans {len(words)} words, reference hull has dim {len(hull_msgs)}")
        return {"spec": spec, "R": R, "hull_msgs": hull_msgs, "words": words}

    def code_op(self, rng: random.Random, F, R, n: int, k: int) -> Op:
        q = R.q
        while True:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            if ref.rank(R, rows) == k:
                break
        hull_dim = k - ref.rank(R, ref.gram(R, rows))
        d = ref.min_distance(R, rows)

        def run(clock):
            code = clock.call(hull.linear_code, F, rows)
            report = clock.call(hull.hull_report, code)
            oracle_dim = clock.call(oracle.hull_dim_oracle, code)
            _check(report.hull_dim == oracle_dim == hull_dim and report.oracle_agrees,
                   f"GF({q}) [{n},{k}]: hull {report.hull_dim}, oracle {oracle_dim}, reference {hull_dim}")
            got = clock.call(oracle.min_distance, code, SMALL_BUDGET)
            _check(got == d, f"GF({q}) [{n},{k}]: min_distance {got} != reference {d}")
            mds = clock.call(oracle.is_mds, code, SMALL_BUDGET)
            _check(mds == (d == n - k + 1), f"GF({q}) [{n},{k}]: is_mds {mds} with d = {d}")

        return Op(f"code GF({q})", f"code GF({q}) [{n},{k}]", run)

    def membership_op(self, rng: random.Random, entry, from_hull: bool) -> Op:
        spec, R = entry["spec"], entry["R"]
        if from_hull and entry["hull_msgs"]:
            coeffs = [rng.randrange(R.q) for _ in entry["hull_msgs"]]
            fx = _trim(ref.combine(R, coeffs, entry["hull_msgs"]))
        else:
            fx = _trim(rng.randrange(R.q) for _ in range(spec.k))
        expected_word = ref.grs_encode(R, spec.points.a, spec.v, spec.k, spec.extended, fx)
        in_hull = tuple(expected_word) in entry["words"]

        def run(clock):
            word = clock.call(grs.encode, spec, fx)
            _check(word == expected_word, f"GF({R.q}) k={spec.k}: encode")
            g = clock.call(hull.hull_membership, spec, fx)
            _check((g is not None) == in_hull,
                   f"GF({R.q}) k={spec.k} ext={spec.extended}: membership of {fx} is {g is not None}")

        group = f"membership GF({R.q})"
        return Op(group, f"{group} {entry['label']} hull={from_hull}", run)

    def _round(self, rng: random.Random) -> list[Op]:
        ops = [self.code_op(rng, F, R, n, k) for F, R in self.fields for n, k in small_shapes(R.q)]
        ops += [self.membership_op(rng, entry, from_hull) for entry in self.specs for from_hull in (True, False)]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list[Op]:
        return self._round(random.Random(0))

    def rounds(self):
        while True:
            yield self._round(self.rng)

    def trace_ops(self) -> list[Op]:
        return [op for _ in range(SMALL_TRACE_ROUNDS) for op in self._round(self.rng)]


def _criterion9_specs():
    """The reduced GF(13) and GF(7) codes of acceptance criterion 9."""
    specs = []
    f13, f7 = gf.Field(13), gf.Field(7)
    seed13 = construct.make_seed(grs.grs(grs.eval_set(f13, range(13)), [1] * 13, 6))
    specs += [construct.reduce_hull_grs(seed13, k, l) for k, l in ((4, 2), (3, 0), (4, 4), (2, 1))]
    seed7 = construct.make_seed(grs.grs(grs.eval_set(f7, range(7)), [1] * 7, 3))
    specs += [construct.reduce_hull_grs(seed7, k, l) for k, l in ((3, 1), (3, 3), (2, 0))]
    eseed7 = construct.make_seed(grs.grs(grs.eval_set(f7, range(7)), [1] * 7, 4, extended=True))
    specs += [construct.reduce_hull_egrs(eseed7, k, l) for k, l in ((4, 2), (4, 4), (3, 2), (4, 0))]
    return specs


WORKLOADS = {w.name: w for w in (FamilySweep, LargeNCertify, SmallCodes)}
