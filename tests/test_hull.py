import random

import pytest

from hullcodes import hull, oracle
from hullcodes.gf import Field
from hullcodes.grs import encode, eval_set, grs
from hullcodes.hull import (
    Certificate,
    HullError,
    certify_egrs_self_orthogonal,
    certify_grs_self_orthogonal,
    check_certificate,
    classify,
    code_from_grs,
    hull_membership,
    hull_report,
    linear_code,
)
from hullcodes.linalg import Matrix, poly_deg
from hullcodes.oracle import hull_dim_oracle
from hullcodes.selftest import gram_is_zero, random_code

F13 = Field(13)


def poly_eval(f, fx, x):
    """fx at x by scalar Horner steps: the reference for the array routes."""
    acc = 0
    for c in reversed(fx):
        acc = f.add(f.mul(acc, x), c)
    return acc


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


def test_linear_code_rejects_rank_deficiency():
    with pytest.raises(HullError):
        linear_code(F13, [[1, 2, 3], [2, 4, 6]])


def test_certificate_full_field_seed():
    # v_i = 1 on all of GF(13): u_i = -1, so lambda = -1 (constant)
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 6)
    cert = certify_grs_self_orthogonal(spec, 6)
    assert cert is not None
    assert list(cert.lam) == [12]
    assert check_certificate(cert, pts, spec.v)
    # and the Gram matrix really is zero
    assert gram_is_zero(code_from_grs(spec))


def test_certificate_rejects_non_self_orthogonal():
    pts = eval_set(F13, [1, 2, 3, 4, 5, 6])
    spec = grs(pts, [1] * 6, 3)
    cert = certify_grs_self_orthogonal(spec, 3)
    code = code_from_grs(spec)
    assert (cert is not None) == gram_is_zero(code)


def test_egrs_certificate_boundary():
    # extended self-dual: 2m = n + 1 forces lambda = -1 exactly
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 7, extended=True)
    cert = certify_egrs_self_orthogonal(spec, 7)
    assert cert is not None and list(cert.lam) == [12]
    # a multiplier with the wrong square breaks it
    bad = [2] + [1] * 12  # 4 != -u_1 = 1
    assert certify_egrs_self_orthogonal(grs(pts, bad, 7, extended=True), 7) is None


def test_egrs_certificate_leading_coefficient_check():
    # non-extended self-orthogonal seed does not certify as extended
    pts = eval_set(F13, range(13))
    spec = grs(pts, [1] * 13, 6, extended=True)
    cert = certify_egrs_self_orthogonal(spec, 6)
    # lambda = -1 has degree 0 != n - 2m + 1 = 2
    assert cert is None


def test_check_certificate_rejects_bad_certificates():
    pts = eval_set(F13, range(13))
    ones, twos = [1] * 13, [2] * 13
    # the extended self-dual seed: lambda = -1, of degree n - 2m + 1 = 0
    cert = certify_egrs_self_orthogonal(grs(pts, ones, 7, extended=True), 7)
    assert check_certificate(cert, pts, ones)
    # the same lambda as a GRS_7 certificate needs degree <= n - 2m = -1
    assert not check_certificate(Certificate(cert.lam, "grs", 7), pts, ones)
    # v = 2: lambda = 4 / u = -4 meets every value but leads with -4, not -1
    assert not check_certificate(Certificate((F13.neg(4),), "egrs", 7), pts, twos)
    assert not check_certificate(Certificate(cert.lam, "EGRS", 7), pts, ones)
    assert not check_certificate(cert, pts, [2] + ones[1:])


def test_certificate_m_range_checks():
    pts = eval_set(F13, [1, 2, 3, 4])
    spec = grs(pts, [1] * 4, 2)
    with pytest.raises(HullError):
        certify_grs_self_orthogonal(spec, 3)
    with pytest.raises(HullError):
        certify_egrs_self_orthogonal(spec, 4)


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
    from hullcodes.construct import make_seed, reduce_hull_grs
    import itertools

    pts = eval_set(Field(7), range(7))
    seed = make_seed(grs(pts, [1] * 7, 3))
    spec = reduce_hull_grs(seed, 3, 1)
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
