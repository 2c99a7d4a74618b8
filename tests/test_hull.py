import copy
import dataclasses
import pickle
import random

import pytest

from hullcodes import hull, oracle
from hullcodes.gf import Field
from hullcodes.grs import encode, eval_set, grs
from hullcodes.hull import (
    Certificate,
    HullError,
    certify,
    check_certificate,
    classify,
    code_from_grs,
    hull_membership,
    hull_report,
    linear_code,
)
from hullcodes.linalg import Matrix, nullspace, poly_deg
from hullcodes.oracle import hull_dim_oracle
from hullcodes.selftest import gram_is_zero, random_code
from scalar_reference import poly_eval

F13 = Field(13)


def test_classify_precedence():
    assert classify(8, 4, 4) == "self-dual"
    assert classify(9, 4, 4) == "almost-self-dual"
    assert classify(10, 4, 4) == "self-orthogonal"
    assert classify(10, 7, 3) == "dual-containing"
    assert classify(10, 4, 0) == "LCD"
    assert classify(10, 4, 2) == "generic"


def test_hull_report_self_dual():
    # GF(13), full field, v = 1, extended with m = 7 is self-dual
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 7, extended=True)
    report = hull_report(code_from_grs(spec))
    assert report.hull_dim == 7
    assert report.classification == "self-dual"
    assert report.oracle_agrees
    assert report.gram_rank == 0
    d = report.to_dict()
    assert d == {
        "schema": 1,
        "hull_dim": 7,
        "classification": "self-dual",
        "oracle_agrees": True,
    }


def test_oracle_agrees_is_the_referee(monkeypatch):
    # hull_report's cross-check is oracle.hull_dim_oracle itself, not a
    # copy of its formula: a broken referee makes every report disagree
    assert hull.hull_dim_oracle is oracle.hull_dim_oracle
    code = code_from_grs(grs(eval_set(F13, range(13)), [1] * 13, 7, extended=True))
    assert hull_report(code).oracle_agrees
    monkeypatch.setattr(hull, "hull_dim_oracle", lambda c: oracle.hull_dim_oracle(c) + 1)
    report = hull_report(code)
    assert report.hull_dim == 7 and not report.oracle_agrees


def test_hull_basis_lies_in_both_code_and_dual():
    rng = random.Random(5)
    for _ in range(20):
        code = random_code(rng, F13, 3, 9)
        if code is None:
            continue
        report = hull_report(code)
        assert report.hull_dim == hull_dim_oracle(code)
        G = code.generator
        for row in report.hull_basis.rows:
            # basis row is orthogonal to every generator row
            prods = G.matmul(Matrix(F13, [row], ncols=code.n).transpose())
            assert all(x == 0 for r in prods.rows for x in r)


@pytest.mark.parametrize("p, m", [(13, 1), (3, 2), (2, 3)])
def test_coefficients_are_the_gram_null_space_built_on_first_read(p, m):
    """report.coefficients is linalg.nullspace of G G^T, built from the
    kept echelon form only when read: at Gram rank 0 (the whole field
    with v = 1, self-orthogonal), at a partial rank (that code and one
    more row: its Gram matrix is 0 but for the last row and column) and
    at full rank (an LCD code)."""
    f = Field(p, m)
    rng = random.Random(f.q)
    seed = code_from_grs(grs(eval_set(f, range(f.q)), [1] * f.q, f.q // 2))
    rows = [list(r) for r in seed.generator.rows]
    while True:
        extra = linear_code(f, rows + [[rng.randrange(f.q) for _ in range(f.q)]])
        if extra.k - hull_dim_oracle(extra) in (1, 2):
            break
    while True:
        lcd = random_code(rng, f, 4, 6)
        if lcd is not None and hull_dim_oracle(lcd) == 0 and lcd.k > 1:
            break
    ranks = []
    for code in (seed, extra, lcd):
        report = hull_report(code)
        assert "coefficients" not in vars(report)
        G = code.generator
        assert report.coefficients == nullspace(G.matmul(G.transpose()))
        assert report.coefficients.nrows == report.hull_dim == code.k - report.gram_rank
        ranks.append(report.gram_rank)
    assert ranks[0] == 0 < ranks[1] < extra.k and ranks[2] == lcd.k


def test_linear_code_rejects_rank_deficiency():
    with pytest.raises(HullError):
        linear_code(F13, [[1, 2, 3], [2, 4, 6]])


def test_certificate_full_field_seed():
    # v_i = 1 on all of GF(13): u_i = -1, so lambda = -1 (constant)
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 6)
    cert = certify(spec)
    assert cert is not None
    assert list(cert.lam) == [12]
    assert check_certificate(cert, spec)
    # and the Gram matrix really is zero
    assert gram_is_zero(code_from_grs(spec))


def test_certificate_rejects_non_self_orthogonal():
    pts = eval_set(F13, [1, 2, 3, 4, 5, 6])
    spec = grs(pts, [1] * 6, 3)
    cert = certify(spec)
    code = code_from_grs(spec)
    assert (cert is not None) == gram_is_zero(code)


def test_egrs_certificate_boundary():
    # extended self-dual: 2m = n + 1 forces lambda = -1 exactly
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 7, extended=True)
    cert = certify(spec)
    assert cert is not None and list(cert.lam) == [12]
    # a multiplier with the wrong square breaks it
    bad = [2] + [1] * 12  # 4 != -u_1 = 1
    assert certify(grs(pts, bad, 7, extended=True)) is None


def test_egrs_certificate_leading_coefficient_check():
    # non-extended self-orthogonal seed does not certify as extended
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 6, extended=True)
    cert = certify(spec)
    # lambda = -1 has degree 0 != n - 2m + 1 = 2
    assert cert is None


def test_check_certificate_rejects_bad_certificates():
    pts = eval_set(F13, range(13))
    ones, twos = [1] * 13, [2] * 13
    # the extended self-dual seed: lambda = -1, of degree n - 2m + 1 = 0
    spec = grs(pts, ones, 7, extended=True)
    cert = certify(spec)
    assert check_certificate(cert, spec)
    # the same lambda as a GRS_7 certificate needs degree <= n - 2m = -1
    assert not check_certificate(cert, grs(pts, ones, 7))
    # v = 2: lambda = 4 / u = -4 meets every value but leads with -4, not -1
    assert not check_certificate(Certificate((F13.neg(4),)), grs(pts, twos, 7, extended=True))
    # a certificate names no kind or dimension: the spec it is checked against does
    assert [f.name for f in dataclasses.fields(Certificate)] == ["lam"]
    with pytest.raises(TypeError):
        Certificate(cert.lam, "EGRS", 7)
    assert not check_certificate(cert, grs(pts, [2] + ones[1:], 7, extended=True))


def test_certificate_m_range_checks():
    # above n/2 (extended: (n+1)/2) the degree bound is negative, so no
    # lambda meets it
    pts = eval_set(F13, [1, 2, 3, 4])
    assert certify(grs(pts, [1] * 4, 3)) is None
    assert certify(grs(pts, [1] * 4, 4, extended=True)) is None


def test_hull_membership_witness():
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 6)
    # self-orthogonal: every codeword is in the hull
    for fx in ([1], [0, 1], [3, 0, 0, 1]):
        g = hull_membership(spec, fx)
        assert g is not None
        assert poly_deg(g) <= spec.n - spec.k - 1
        # witness interpolates v_i^2 f(a_i) / u_i
        f = spec.field
        for ai, vi, ui in zip(pts.a, spec.v, pts.u):
            lhs = f.mul(f.mul(vi, vi), poly_eval(f, fx, ai))
            assert f.mul(poly_eval(f, g, ai), ui) == lhs
    with pytest.raises(HullError):
        hull_membership(spec, [0] * 6 + [1])


def test_hull_membership_agrees_with_hull_basis():
    # a generic code: check witness existence matches actual membership
    from hullcodes.construct import make_seed, reduce_hull
    import itertools

    pts = eval_set(Field(7), range(7))
    seed = make_seed(grs(pts, [1] * 7, 3))
    spec = reduce_hull(seed, 3, 1)
    code = code_from_grs(spec)
    report = hull_report(code)
    assert report.hull_dim == 1
    hull_words = set()
    f = spec.field
    for coeffs in itertools.product(range(7), repeat=report.hull_basis.nrows):
        w = [0] * code.n
        for c, row in zip(coeffs, report.hull_basis.rows):
            w = [f.add(x, f.mul(c, y)) for x, y in zip(w, row)]
        hull_words.add(tuple(w))
    for msg in itertools.product(range(7), repeat=3):
        fx = list(msg)
        word = tuple(encode(spec, fx))
        witness = hull_membership(spec, fx)
        assert (witness is not None) == (word in hull_words)


def test_specs_and_codes_over_an_extension_field_pickle_and_copy():
    f = Field(7, 2)
    spec = grs(eval_set(f, range(1, 9)), [1] * 8, 3, extended=True)
    code = code_from_grs(spec)
    hull_report(code)  # fill the cached echelon form and hull dimension
    for copied in (pickle.loads(pickle.dumps((spec, code))), copy.deepcopy((spec, code))):
        spec2, code2 = copied
        assert spec2 == spec and code2 == code
        assert spec2.field == f and code2.field == f
        assert hull_report(code2) == hull_report(code)
