"""Acceptance criteria, one test per criterion.

Each test prints a single `[criterion N] PASS` line (visible with -s or
in captured output) so the gate can be read off directly.  Criteria 4
and 8 carry documented deviations: in both cases the literal parameter
set contains an impossibility (proven inside the test, not assumed),
and the test verifies everything achievable plus the impossibility
itself.
"""

import itertools
import random
import time

import pytest

from hullcodes.construct import (
    ConstructionError,
    choose_alpha,
    make_seed,
    reduce_hull_egrs,
    reduce_hull_grs,
)
from hullcodes.families import (
    FamilyError,
    FamilyParams,
    build_family,
    construct_from_family,
    family_grid,
)
from hullcodes.gf import Field
from hullcodes.grs import encode, eval_set, grs
from hullcodes.hull import code_from_grs, hull_membership, hull_report
from hullcodes.oracle import (
    OracleBudget,
    hull_dim_oracle,
    is_mds,
    min_distance,
    ternary_4_2_census,
)
from hullcodes.selftest import (
    certificates,
    duality,
    field_of_order,
    hull_formulas,
    power_sums,
    random_code,
    random_point_list,
    subgroup_points,
    ternary_table,
)


def test_criterion_1_ternary_golden_table():
    t0 = time.time()
    expected = [
        ("n2k1", 2, 0, 2),
        ("n3k1", 3, 1, 3),
        ("n4k1", 3, 0, 4),
        ("n4k2", 3, 2, 3),
    ]
    cases = [(kind, v, hull, dist) for kind, nv, hull, dist in expected
             for v in itertools.product((1, 2), repeat=nv)]
    assert ternary_table(cases) == (len(cases), None)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS: ternary hull dims (0,1,0,2), distances "
          f"(2,3,4,3) over all multiplier choices ({elapsed:.2f}s)")


def test_criterion_2_ternary_4_2_3_nonexistence():
    t0 = time.time()
    result = ternary_4_2_census()
    assert result["subspaces"] == 130
    assert result["hull_histogram"][1] == 0
    assert result["hull_histogram"][2] >= 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS: no ternary [4,2,3] code has hull dimension 1 "
          f"(census {result['hull_histogram']}, {elapsed:.2f}s)")


def test_criterion_3_grs_reduction_grids():
    t0 = time.time()
    budget = OracleBudget(max_codewords=13**6)
    # seed A: all points of GF(13), all-ones multipliers, m = 6
    f13 = Field(13)
    seed_a = make_seed(grs(eval_set(f13, range(13)), [1] * 13, 6))
    # seed B: the twisted-pair family at q = 11, t = 5 (m = 4)
    fs = build_family(FamilyParams("twisted_pair", "i", q=11, t=5))
    seed_b = fs.seed
    pairs = 0
    for seed, n in ((seed_a, 13), (seed_b, 10)):
        for k in range(1, seed.m + 1):
            for l in range(0, k + 1):
                spec = reduce_hull_grs(seed, k, l)
                code = code_from_grs(spec)
                assert hull_report(code).hull_dim == l, (n, k, l)
                assert hull_dim_oracle(code) == l
                assert min_distance(code, budget) == n - k + 1, (n, k, l)
                pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS: {pairs} (k, l) pairs across both seeds, "
          f"hull and distance exact ({elapsed:.2f}s)")


def test_criterion_4_egrs_reduction_grid():
    # The seed's evaluation points are all of GF(13), so the (x - b)
    # twist of the underlying theorem is unavailable (it assumes n < q).
    # Degree >= 2 twists are replaced by root-free polynomials and the
    # k = m - 1 cases reroute through the unextended-scaling argument,
    # which covers every pair except (k, l) = (6, 6).  That last pair is
    # not a construction gap: the exhaustive search below proves no
    # [14, 6] self-orthogonal extended GRS code on these points exists
    # at all.  See the decisions ledger.
    t0 = time.time()
    f = Field(13)
    pts = eval_set(f, range(13))
    seed = make_seed(grs(pts, [1] * 13, 7, extended=True))
    enum_budget = OracleBudget(max_codewords=13**6)
    minor_budget = OracleBudget(max_codewords=1, max_minor_k=7)
    pairs = 0
    for k in range(1, 8):
        for l in range(0, k + 1):
            if (k, l) == (6, 6):
                with pytest.raises(ConstructionError):
                    reduce_hull_egrs(seed, k, l)
                continue
            spec = reduce_hull_egrs(seed, k, l)
            code = code_from_grs(spec)
            assert code.n == 14
            assert hull_report(code).hull_dim == l, (k, l)
            if 13**k <= enum_budget.max_codewords:
                assert min_distance(code, enum_budget) == 13 - k + 2, (k, l)
            else:
                assert is_mds(code, minor_budget), (k, l)
            pairs += 1

    # nonexistence proof for (6, 6): hull dim 6 in a [14, 6] extended
    # GRS code means self-orthogonality, which (with u_i = -1 for all i)
    # requires a monic quadratic mu(x) = -lambda(x) whose 13 values are
    # all nonzero squares.  A monic quadratic takes (q+1)/2 = 7 distinct
    # values but GF(13) has only 6 nonzero squares, so none works;
    # confirm exhaustively rather than trusting the counting argument.
    witnesses = 0
    for c1 in range(13):
        for c0 in range(13):
            values = [f.add(f.add(f.mul(x, x), f.mul(c1, x)), c0) for x in range(13)]
            if all(v != 0 and f.is_square(v) for v in values):
                witnesses += 1
    assert witnesses == 0
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 4] PASS: {pairs} achievable (k, l) pairs verified on "
          f"the [14, k] grid; (6, 6) proven impossible by exhaustive search "
          f"over all 169 monic quadratics ({elapsed:.2f}s)")


def test_criterion_5_power_sum_identity():
    rng = random.Random(20260823)
    fields = [Field(p, m) for p, m in ((5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2))]
    drawn = (fields[i % len(fields)] for i in range(200))
    checked, bad = power_sums(eval_set(f, random_point_list(rng, f, 12)) for f in drawn)
    assert (checked, bad) == (200, None)
    print(f"\n[criterion 5] PASS: power-sum identity exact on {checked} "
          f"random evaluation sets over GF(5..49)")


def test_criterion_6_certificate_biconditionals():
    rng = random.Random(97)
    fields = [field_of_order(q) for q in (7, 13, 25)]

    def drawn():
        for field in fields:
            q = field.q
            for trial in range(100):
                n = rng.randint(4, min(q, 10))
                m = rng.randint(1, n // 2)
                a = rng.sample(range(q), n)
                if trial % 5 == 0 and n == q:
                    v = [1] * n  # planted positive: u_i = -1, lambda = -1
                else:
                    v = [rng.randint(1, q - 1) for _ in range(n)]
                pts = eval_set(field, a)
                yield grs(pts, v, m)
                yield grs(pts, v, rng.randint(1, (n + 1) // 2), extended=True)

    # planted extended positives at the 2m = n + 1 boundary, and a
    # one-coordinate perturbation of each that kills both sides
    planted, perturbed = [], []
    for f in fields:
        pts, m = eval_set(f, range(f.q)), (f.q + 1) // 2
        planted.append(grs(pts, [1] * f.q, m, extended=True))
        perturbed.append(grs(pts, [choose_alpha(f)] + [1] * (f.q - 1), m, extended=True))
    results = [certificates(drawn()), certificates(planted, True), certificates(perturbed, False)]
    assert results == [(600, None), (3, None), (3, None)]
    total = sum(examined for examined, _ in results)
    print(f"\n[criterion 6] PASS: certificate existence matches Gram "
          f"self-orthogonality on {total} instances, zero mismatches")


# frozen evaluation sets with -u_i all nonzero squares, found by
# exhaustive/randomized search (none exist over GF(13) for n in
# {7, 9, 11}, nor over GF(7) for n = 5)
_NEG_U_SQUARE_SETS = {
    7: (0, 1, 2, 3, 4, 5, 6),
    13: (0, 1, 2, 3, 8),
    25: (4, 6, 11, 12, 13, 18, 19, 20, 22, 23, 24),
}


def test_criterion_7_duality_corollaries():
    checked = 0
    for q in (7, 13, 25):
        field = field_of_order(q)
        # constant-lambda instances: subgroups of order n with (q-1)/n
        # even, so that n*u_i = h_i is always a square; breaking the
        # constant-lambda form must break duality
        for n in [d for d in range(2, 13) if (q - 1) % d == 0 and ((q - 1) // d) % 2 == 0]:
            examined, bad = duality(*subgroup_points(field, n), range(1, n // 2 + 1))
            assert (examined, bad) == (n // 2 + 1, None)
            checked += examined
        # extended duality: v_i^2 = -u_i on the frozen point sets
        pts = eval_set(field, _NEG_U_SQUARE_SETS[q])
        v = [field.sqrt(field.neg(u)) for u in pts.u]
        ms = range(1, (pts.n + 1) // 2 + 1)
        examined, bad = duality(pts, v, ms, extended=True)
        assert (examined, bad) == (len(ms) + 1, None)
        checked += examined
    print(f"\n[criterion 7] PASS: GRS/extended-GRS duality biconditionals "
          f"hold on {checked} instances over GF(7)/GF(13)/GF(25)")


def test_criterion_8_families_coverage():
    # The stated even_cosets parameters (r=7, m=4, t=3) are internally
    # inconsistent: with r = 7 and m = 4 only (r+1)/gcd(r+1, m) = 2
    # coset representatives exist, so t = 3 is unconstructible (and the
    # family refuses it below).  The transposed reading (r=7, m=3, t=4)
    # satisfies every invariant and is used for the coverage runs.
    t0 = time.time()
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "i", r=7, m=4, t=3))

    cases = [
        FamilyParams("even_cosets", "i", r=7, m=3, t=4),
        FamilyParams("even_cosets", "ii", r=7, m=3, t=4),
        FamilyParams("even_cosets", "iii", r=7, m=3, t=4),
        FamilyParams("even_cosets", "iv", r=7, m=3, t=4),
        FamilyParams("even_cosets", "i", r=5, m=4, t=1),
        FamilyParams("even_cosets", "ii", r=5, m=4, t=1),
        FamilyParams("even_cosets", "iii", r=5, m=4, t=1),
        FamilyParams("even_cosets", "iv", r=5, m=4, t=1),
        FamilyParams("odd_cosets", "i", r=5, m=3, t=1),
        FamilyParams("odd_cosets", "ii", r=5, m=3, t=1),
        FamilyParams("odd_cosets", "iii", r=5, m=3, t=1),
        FamilyParams("additive", "i", p=3, s=1, e=1),
        FamilyParams("additive", "ii", p=3, s=1, e=1),
        FamilyParams("twisted_pair", "i", q=7, t=3),
        FamilyParams("twisted_pair", "i", q=11, t=5),
    ]
    rows = 0
    for params in cases:
        fs = build_family(params)
        # every seed is certified (make_seed validated the certificate)
        assert fs.seed.certificate is not None
        budget = OracleBudget(max_minor_k=max(5, fs.k_max))
        for n, k, l in family_grid(fs):
            spec = construct_from_family(fs, k, l)
            code = code_from_grs(spec)
            assert hull_report(code).hull_dim == l, (params, k, l)
            assert hull_dim_oracle(code) == l
            assert is_mds(code, budget), (params, k, l)
            rows += 1

    # the documented exception case of variants iii/iv raises
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "iii", r=5, m=2, t=2))
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "iv", r=5, m=2, t=2))
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"\n[criterion 8] PASS: {len(cases)} family seeds certified, "
          f"{rows} grid points oracle-verified; literal (r=7, m=4, t=3) "
          f"rejected as violating the coset bound ({elapsed:.2f}s)")


def test_criterion_9_oracle_equivalence_and_membership():
    rng = random.Random(500)
    fields = [Field(2), Field(3), Field(5), Field(7), Field(2, 2), Field(3, 2)]

    def codes():
        accepted = 0
        while accepted < 500:
            code = random_code(rng, fields[accepted % len(fields)], 2, 9)
            if code is not None:
                accepted += 1
                yield code

    checked, bad = hull_formulas(codes())
    assert (checked, bad) == (500, None)

    # membership witnesses vs the hull basis, exhaustive over messages
    f13 = Field(13)
    f7 = Field(7)
    specs = []
    seed13 = make_seed(grs(eval_set(f13, range(13)), [1] * 13, 6))
    for k, l in ((4, 2), (3, 0), (4, 4), (2, 1)):
        specs.append(reduce_hull_grs(seed13, k, l))
    seed7 = make_seed(grs(eval_set(f7, range(7)), [1] * 7, 3))
    for k, l in ((3, 1), (3, 3), (2, 0)):
        specs.append(reduce_hull_grs(seed7, k, l))
    eseed7 = make_seed(grs(eval_set(f7, range(7)), [1] * 7, 4, extended=True))
    for k, l in ((4, 2), (4, 4), (3, 2), (4, 0)):
        specs.append(reduce_hull_egrs(eseed7, k, l))
    words_checked = 0
    for spec in specs:
        field = spec.field
        q, k = field.q, spec.k
        assert q**k <= 10**5
        code = code_from_grs(spec)
        report = hull_report(code)
        hull_words = set()
        for coeffs in itertools.product(range(q), repeat=report.hull_basis.nrows):
            w = [0] * code.n
            for c, row in zip(coeffs, report.hull_basis.rows):
                w = [field.add(x, field.mul(c, y)) for x, y in zip(w, row)]
            hull_words.add(tuple(w))
        assert len(hull_words) == q**report.hull_dim
        for msg in itertools.product(range(q), repeat=k):
            fx = list(msg)
            in_hull = tuple(encode(spec, fx)) in hull_words
            witness = hull_membership(spec, fx)
            assert (witness is not None) == in_hull, (spec.k, msg)
            words_checked += 1
    print(f"\n[criterion 9] PASS: hull formulas agree on {checked} random "
          f"codes; membership witnesses exact on {words_checked} codewords")
