"""The paper's invariants as checks, and the selftest suites built on them.

Each check takes the instances to examine and returns (examined, fault):
how many instances it looked at and a description of the first one that
breaks the invariant, or None.  The acceptance tests call the same
checks on their own instances, so every invariant has one
implementation.  SUITES fixes the instances `hullcodes selftest` runs.
The power-sums and certificates suites draw each field's instances
first, in the order of drawing them one at a time, and build that
field's evaluation sets with one eval_sets call; the power-sums check
takes them a field at a time too.  A check still stops at its first
fault, so the random stream differs from drawing one instance at a time
only after a suite fails.
"""

from __future__ import annotations

import itertools
import random

from .construct import choose_alpha, ternary_codes
from .gf import Field, factor_prime_power
from .grs import eval_set, eval_sets, generator_matrix, grs
from .hull import (
    HullError,
    certify,
    code_from_grs,
    hull_report,
    linear_code,
    verify_power_sums,
)
from .linalg import rank
from .oracle import DEFAULT_BUDGET, OracleBudget, hull_dim_oracle, min_distance


def _first_fault(instances, fault):
    """(instances examined, fault(x) of the first x it holds for, or None)."""
    examined = 0
    for x in instances:
        examined += 1
        bad = fault(x)
        if bad:
            return examined, bad
    return examined, None


def gram_is_zero(code) -> bool:
    """Whether G G^T = 0, i.e. the code is self-orthogonal."""
    G = code.generator.entries
    return not code.field.matmul_array(G, G.T).any()


# --- the checks ---


def power_sums(point_sets):
    """sum_i a_i^m u_i is 0 for m < n - 1 and 1 for m = n - 1.  Each run
    of consecutive sets of one field is checked by one
    verify_power_sums call."""

    def verdicts():
        for _, run in itertools.groupby(point_sets, key=lambda pts: pts.field):
            run = list(run)
            yield from zip(run, verify_power_sums(run))

    def fault(verdict):
        pts, ok = verdict
        if not ok:
            return f"power sums fail for q={pts.field.q}, a={list(pts.a)}"

    return _first_fault(verdicts(), fault)


def duality(points, v, ms, extended=False, perturb=True):
    """The dual of GRS_m(points, v) is GRS_{N-m}(points, v) for each m in
    ms, N the code length: their generators G and H have G H^T = 0, so
    the second code lies in the dual of the first, and rank G + rank H
    = N, so it fills that dual.  With perturb, scaling v_0 by an alpha
    with alpha^2 != 1 breaks this at the last m.  One instance per m,
    plus one for the perturbation."""
    field, N = points.field, points.n + extended
    kind = "extended GRS" if extended else "GRS"

    def holds(v, m):
        G, H = (generator_matrix(grs(points, v, k, extended)) for k in (m, N - m))
        return not field.matmul_array(G.entries, H.entries.T).any() and rank(G) + rank(H) == N

    def fault(m):
        if not holds(v, m):
            return f"dual of {kind}_{m} != {kind}_{N - m} for q={field.q}, n={points.n}"

    examined, bad = _first_fault(ms, fault)
    if bad or not perturb:
        return examined, bad
    v_bad = [field.mul(choose_alpha(field), v[0])] + list(v[1:])
    if holds(v_bad, ms[-1]):
        bad = f"perturbed {kind} duality holds for q={field.q}, n={points.n}"
    return examined + 1, bad


def hull_formulas(codes, budget=None):
    """The Gram-rank and stacked-rank hull dimensions agree on each code;
    given a budget, its minimum distance also meets the Singleton bound."""

    def fault(code):
        q, n, k = code.field.q, code.n, code.k
        report = hull_report(code)
        if report.hull_dim != hull_dim_oracle(code) or not report.oracle_agrees:
            return f"hull formulas disagree for q={q}, n={n}, k={k}"
        if budget is not None and (d := min_distance(code, budget)) > n - k + 1:
            return f"Singleton bound violated: d={d} for [{n},{k}]"

    return _first_fault(codes, fault)


def certificates(specs, expect=None):
    """A certificate of self-orthogonality exists for each (extended) GRS
    spec exactly when G G^T = 0; given expect, both sides equal it."""

    def fault(spec):
        cert = certify(spec) is not None
        gram = gram_is_zero(code_from_grs(spec))
        if cert != gram or (expect is not None and cert != expect):
            kind = "extended GRS" if spec.extended else "GRS"
            return (f"{kind} q={spec.field.q}, n={spec.n}, m={spec.k}: certificate "
                    f"{'found' if cert else 'absent'}, Gram {'zero' if gram else 'nonzero'}")

    return _first_fault(specs, fault)


def ternary_table(cases, budget=DEFAULT_BUDGET):
    """Each (kind, v, hull, d): ternary_codes(kind, v) has hull dimension
    hull by both formulas, and minimum distance d."""

    def fault(case):
        kind, v, hull, dist = case
        code = ternary_codes(kind, v)
        report = hull_report(code)
        d = min_distance(code, budget)
        if (report.hull_dim, d) != (hull, dist) or not report.oracle_agrees:
            return f"{kind}: got hull {report.hull_dim}, d {d}; expected {hull}, {dist}"

    return _first_fault(cases, fault)


# --- instances ---


def field_of_order(q: int) -> Field:
    return Field(*factor_prime_power(q))


def random_point_list(rng: random.Random, field: Field, n_max: int) -> list:
    """2 to min(q, n_max) random distinct elements."""
    return rng.sample(range(field.q), rng.randint(2, min(field.q, n_max)))


def random_code(rng: random.Random, field: Field, n_min: int, n_max: int):
    """A random k x n generator, n_min <= n <= n_max and 1 <= k < n, as a
    code, or None when it is not of full rank."""
    n = rng.randint(n_min, n_max)
    k = rng.randint(1, n - 1)
    rows = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
    try:
        return linear_code(field, rows)
    except HullError:
        return None


def subgroup_points(field: Field, n: int):
    """The n-th roots of unity and multipliers v_i^2 = n u_i (squares
    when (q - 1)/n is even): a constant-lambda GRS duality instance."""
    h = field.root_of_unity(n)
    points = eval_set(field, [field.pow(h, i) for i in range(n)])
    lam = field.scalar(n)
    return points, [field.sqrt(field.mul(lam, u)) for u in points.u]


# --- the selftest suites: generators of check results ---


def _power_sums_suite(rng, budget):
    fields = [field_of_order(q) for q in (5, 7, 9, 13, 25, 27, 49)]

    def drawn():
        for f in fields:
            yield from eval_sets(f, [random_point_list(rng, f, 10) for _ in range(5)])

    yield power_sums(drawn())


def _duality_suite(rng, budget):
    for q, n in ((7, 3), (13, 6), (25, 6)):
        yield duality(*subgroup_points(field_of_order(q), n), [n // 2])
    for q in (5, 13):
        points = eval_set(Field(q), range(q))
        yield duality(points, [1] * q, [(q + 1) // 2], extended=True, perturb=False)


def _oracle_suite(rng, budget):
    fields = [field_of_order(q) for q in (3, 5, 7, 9)]
    drawn = (random_code(rng, f, 3, 8) for f in fields for _ in range(10))
    yield hull_formulas((code for code in drawn if code is not None), budget)


def _certificates_suite(rng, budget):
    fields = [Field(7), Field(13)]

    def drawn():
        for f in fields:
            draws = []
            for _ in range(20):
                n = rng.randint(4, min(f.q, 9))
                m = rng.randint(1, n // 2)
                a = rng.sample(range(f.q), n)
                draws.append((a, [rng.randint(1, f.q - 1) for _ in range(n)], m))
            for points, (_, v, m) in zip(eval_sets(f, [a for a, _, _ in draws]), draws):
                yield grs(points, v, m)

    def planted():  # the full field with v = 1 has u_i = -1
        for f in fields:
            points, ones = eval_set(f, range(f.q)), [1] * f.q
            yield from (grs(points, ones, m) for m in range(1, f.q // 2 + 1))
            yield grs(points, ones, (f.q + 1) // 2, extended=True)

    yield certificates(drawn())
    yield certificates(planted(), expect=True)


TERNARY_TABLE = {"n2k1": (0, 2), "n3k1": (1, 3), "n4k1": (0, 4), "n4k2": (2, 3)}


def _ternary_suite(rng, budget):
    yield ternary_table(((kind, None, *hd) for kind, hd in TERNARY_TABLE.items()), budget)


# (name, detail reported on a pass, suite)
SUITES = [
    ("power-sums", "power-sum identity holds on random evaluation sets", _power_sums_suite),
    ("duality", "GRS/extended-GRS duality matches the closed forms", _duality_suite),
    ("oracle-equivalence", "Gram-rank and stacked-rank hull formulas agree", _oracle_suite),
    ("certificates", "certificate existence matches Gram self-orthogonality", _certificates_suite),
    ("ternary-table", "ternary golden table reproduced", _ternary_suite),
]


def run(seed: int, budget: OracleBudget) -> tuple[int, str]:
    """Run every suite in order: (0 if all pass, else 1; one line per
    suite and a summary line).  A suite fails at its first check that
    finds a fault or examined no instance.  The suites share one random
    stream seeded with seed."""
    rng = random.Random(seed)
    lines, failures = [], 0
    for name, detail, suite in SUITES:
        bad = next((bad or "examined no instance"
                    for examined, bad in suite(rng, budget) if bad or not examined), None)
        lines.append(f"{'ok' if bad is None else 'FAIL'}  {name}: {bad or detail}")
        failures += bad is not None
    lines.append(f"{failures} suite(s) failed" if failures else "all selftest suites passed")
    return (1 if failures else 0), "\n".join(lines)
