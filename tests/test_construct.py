import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from hullcodes import construct, gf
from hullcodes.construct import (
    ConstructionError,
    SeedCode,
    choose_alpha,
    choose_b,
    make_seed,
    reduce_hull,
    reduce_hull_egrs,
    reduce_hull_egrs_from_grs,
    reduce_hull_grs,
    ternary_codes,
)
from hullcodes.gf import Field, FieldError
from hullcodes.grs import eval_set, grs
from hullcodes.hull import certify, code_from_grs, hull_report
from hullcodes.linalg import poly_eval_array
from hullcodes.oracle import OracleBudget, is_mds, min_distance

F13 = Field(13)


def _full_field_seed(q, m, extended=False):
    f = Field(*_pm(q))
    pts = eval_set(f, range(q))
    return make_seed(grs(pts, [1] * q, m, extended=extended))


def _pm(q):
    from hullcodes.gf import factor_prime_power

    return factor_prime_power(q)


def test_choose_alpha():
    assert choose_alpha(Field(5)) == 2
    assert choose_alpha(Field(2, 2)) == 2
    with pytest.raises(ConstructionError):
        choose_alpha(Field(3))
    with pytest.raises(ConstructionError):
        choose_alpha(Field(5), override=4)  # 4^2 = 16 = 1 mod 5
    assert choose_alpha(Field(5), override=3) == 3


def test_choose_b():
    f = Field(5)
    assert choose_b(f, eval_set(f, [1, 2])) == 0
    assert choose_b(f, eval_set(f, [0, 1, 2, 3])) == 4
    with pytest.raises(ConstructionError):
        choose_b(f, eval_set(f, range(5)))
    with pytest.raises(ConstructionError):
        choose_b(f, eval_set(f, [1, 2]), override=2)
    for b in (5, -1, 1000):
        with pytest.raises(FieldError):
            choose_b(f, eval_set(f, [1, 2]), override=b)


def test_make_seed_refuses_uncertified():
    pts = eval_set(F13, [1, 2, 3, 4])
    with pytest.raises(ConstructionError):
        make_seed(grs(pts, [1, 1, 1, 1], 2))


def test_reduce_hull_revalidates_the_seed_certificate():
    seed = _full_field_seed(13, 6)
    # v = 2 has lambda = 4 / u = -4 instead of -1: certified, but not for seed
    other = make_seed(grs(seed.spec.points, [2] * 13, 6))
    swapped = dataclasses.replace(seed, certificate=other.certificate)
    with pytest.raises(ConstructionError, match="seed certificate fails re-validation"):
        reduce_hull(swapped, 3, 1)
    assert reduce_hull(seed, 3, 1).k == 3

    # kind mismatch: the certificate of an extended seed on the same
    # points and multipliers, attached to the non-extended code
    small = eval_set(F13, [0, 1, 2, 3, 8])
    eseed = make_seed(grs(small, [F13.sqrt(F13.neg(u)) for u in small.u], 3, extended=True))
    plain = SeedCode(grs(small, eseed.spec.v, 3), eseed.certificate)
    with pytest.raises(ConstructionError, match="seed certificate fails re-validation"):
        reduce_hull(plain, 2, 1)

    # dimension mismatch: v_i^2 = lambda(a_i) u_i with deg lambda = 9
    # certifies dimension 1 on the 13 points of GF(13) but not dimension 3,
    # and a code built from the dimension-1 certificate has hull 1, not 3
    full = eval_set(F13, range(13))
    v = [5, 5, 5, 5, 5, 5, 5, 6, 3, 6, 2, 2, 3]
    assert certify(grs(full, v, 3)) is None
    cert_m1 = certify(grs(full, v, 1))
    assert len(cert_m1.lam) == 10
    with pytest.raises(ConstructionError, match="seed certificate fails re-validation"):
        reduce_hull(SeedCode(grs(full, v, 3), cert_m1), 3, 3)


def test_reduce_grs_identity_at_l_equals_k():
    seed = _full_field_seed(13, 6)
    spec = reduce_hull_grs(seed, 6, 6)
    assert spec.v == seed.spec.v  # s = 0: nothing scaled
    report = hull_report(code_from_grs(spec))
    assert report.hull_dim == 6
    assert report.classification == "almost-self-dual"


def test_reduce_grs_spec_examples():
    seed = _full_field_seed(13, 6)
    spec = reduce_hull_grs(seed, 4, 2)
    assert hull_report(code_from_grs(spec)).hull_dim == 2
    assert is_mds(code_from_grs(spec))
    spec = reduce_hull_grs(seed, 3, 0)
    report = hull_report(code_from_grs(spec))
    assert report.hull_dim == 0 and report.classification == "LCD"


def test_reduce_grs_alpha_invariance():
    seed = _full_field_seed(13, 6)
    for alpha in (2, 3, 5, 11):
        spec = reduce_hull_grs(seed, 5, 2, alpha=alpha)
        assert hull_report(code_from_grs(spec)).hull_dim == 2


def test_reduce_grs_range_checks():
    seed = _full_field_seed(13, 6)
    with pytest.raises(ConstructionError):
        reduce_hull_grs(seed, 7, 0)  # k > m
    with pytest.raises(ConstructionError):
        reduce_hull_grs(seed, 3, 4)  # l > k
    ext = _full_field_seed(13, 7, extended=True)
    with pytest.raises(ConstructionError):
        reduce_hull_grs(ext, 3, 1)  # wrong seed kind


def test_reduce_egrs_with_twist_polynomial():
    # n < q so the canonical (x - b)^(m-k) twist applies; the point set
    # was found by exhaustive search over GF(13) subsets with -u_i all
    # squares (none exist for n in {7, 9, 11})
    f = Field(13)
    pts = eval_set(f, [0, 1, 2, 3, 8])
    v = [f.sqrt(f.neg(u)) for u in pts.u]
    seed = make_seed(grs(pts, v, 3, extended=True))
    for k in range(1, 4):
        for l in range(0, k + 1):
            spec = reduce_hull_egrs(seed, k, l)
            report = hull_report(code_from_grs(spec))
            assert report.hull_dim == l, (k, l)
            assert is_mds(code_from_grs(spec), OracleBudget(max_minor_k=6))


def test_reduce_egrs_full_field_fallbacks():
    # n = q: no b exists; degree >= 2 twists use a root-free polynomial
    # and k = m - 1 reroutes through the unextended-scaling argument
    seed = _full_field_seed(13, 7, extended=True)
    for k in range(1, 8):
        for l in range(0, k + 1):
            if (k, l) == (6, 6):
                with pytest.raises(ConstructionError):
                    reduce_hull_egrs(seed, k, l)
                continue
            spec = reduce_hull_egrs(seed, k, l)
            assert hull_report(code_from_grs(spec)).hull_dim == l, (k, l)


def _first_root_free(f, degree):
    # the reference tries the monic candidates one by one, (c_{d-1}, ...,
    # c_0) in encoding order, and takes the first with no root
    everywhere = np.arange(f.q)
    for high_first in itertools.product(range(f.q), repeat=degree):
        values = poly_eval_array(f, list(reversed(high_first)) + [1], everywhere)
        if values.all():
            return values


@pytest.mark.parametrize("q", [9, 16, 25, 27, 49])
@pytest.mark.parametrize("degree", [2, 3])
def test_smallest_root_free_matches_one_candidate_at_a_time(q, degree, monkeypatch):
    # at the smaller _BLOCK values a step holds one or a few c_1 rows
    f = Field(*_pm(q))
    want = _first_root_free(f, degree)
    xs = np.array([3, 0, q - 1, 5, 3])
    for block in (1, 64, 1 << 16):
        monkeypatch.setattr(gf, "_BLOCK", block)
        got = construct._smallest_root_free(f, degree, xs)
        assert got.tolist() == want[xs].tolist(), block


@pytest.mark.parametrize("q, degree", [(7**4, 2), (7**4, 3), (3**8, 2)])
def test_smallest_root_free_at_a_large_field_stays_small(q, degree):
    # a step holds max(_BLOCK, q) entries, not q^2 (46 MB of int64 at
    # q = 7^4, 344 MB at 3^8)
    f = Field(*_pm(q))
    want = _first_root_free(f, degree)
    xs = np.arange(q)
    construct._smallest_root_free(f, degree, xs)  # the field's tables
    tracemalloc.start()
    try:
        got = construct._smallest_root_free(f, degree, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist()
    assert peak < 4 * 2**20, peak


def test_reduce_egrs_explicit_b_at_full_field_fails():
    seed = _full_field_seed(13, 7, extended=True)
    with pytest.raises(ConstructionError):
        reduce_hull_egrs(seed, 5, 2, b=3)  # 3 is an evaluation point


def test_extend_from_grs_seed():
    seed = _full_field_seed(13, 6)
    for k in range(1, 7):
        for l in range(0, k):
            spec = reduce_hull_egrs_from_grs(seed, k, l)
            assert spec.extended and spec.length == 14
            assert hull_report(code_from_grs(spec)).hull_dim == l, (k, l)
    with pytest.raises(ConstructionError):
        reduce_hull_egrs_from_grs(seed, 4, 4)  # l = k unreachable


def test_reduce_hull_rejects_b_without_twist():
    seed = _full_field_seed(13, 6)
    with pytest.raises(ConstructionError, match="no effect"):
        reduce_hull(seed, 4, 2, b=0)
    with pytest.raises(ConstructionError, match="no effect"):
        reduce_hull(seed, 4, 2, extend=True, b=0)
    f = Field(13)
    pts = eval_set(f, [0, 1, 2, 3, 8])
    ext = make_seed(grs(pts, [f.sqrt(f.neg(u)) for u in pts.u], 3, extended=True))
    with pytest.raises(ConstructionError, match="no effect"):
        reduce_hull(ext, 3, 1, b=5)  # k = m: no twist
    assert hull_report(code_from_grs(reduce_hull(ext, 2, 1, b=5))).hull_dim == 1
    with pytest.raises(FieldError):
        reduce_hull(ext, 2, 1, b=18)  # 18 = 5 mod 13, but not an element
    with pytest.raises(ConstructionError):
        reduce_hull(ext, 2, 1, extend=True)  # already extended


def test_reduction_rejects_small_fields():
    f = Field(3)
    pts = eval_set(f, range(3))
    # GRS_1 with v = (1,1,1): u_i = -1 = 2, v_i^2 = 1 = 2*2 -> lambda = 2
    seed = make_seed(grs(pts, [1, 1, 1], 1))
    with pytest.raises(ConstructionError):
        reduce_hull_grs(seed, 1, 0)


def test_ternary_codes_golden():
    expected = {
        "n2k1": (2, 1, 0, 2),
        "n3k1": (3, 1, 1, 3),
        "n4k1": (4, 1, 0, 4),
        "n4k2": (4, 2, 2, 3),
    }
    for kind, (n, k, hull, d) in expected.items():
        nv = 2 if kind == "n2k1" else 3
        for v in ([1] * nv, [2] * nv, [1, 2] + [1] * (nv - 2)):
            code = ternary_codes(kind, v)
            assert (code.n, code.k) == (n, k)
            assert hull_report(code).hull_dim == hull
            assert min_distance(code) == d


def test_ternary_codes_validation():
    with pytest.raises(ConstructionError):
        ternary_codes("n9k9", [1, 1])
    with pytest.raises(ConstructionError):
        ternary_codes("n2k1", [1, 1, 1])
    with pytest.raises(ConstructionError):
        ternary_codes("n3k1", [1, 0, 1])
    # a multiplier is an element of GF(3), not anything int() accepts
    for v in ([1.5, 1], [2.9, 1], ["2", 1], [3, 1], [-1, 1]):
        with pytest.raises(FieldError):
            ternary_codes("n2k1", v)

