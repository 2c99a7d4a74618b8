"""Differential tests of the field and linear-algebra kernel against sympy.

sympy is a second, independent implementation: DomainMatrix over GF(p)
for rref, rank, nullspace, matmul and a Vandermonde solve that stands in
for interpolation, and galoistools for arithmetic in GF(p)[x]/(f).  The
array ops of Field are checked against its scalar ops, exhaustively up
to q = 49 and by sampling in GF(3^7) and GF(2^11).
"""

import functools
import itertools
import random

import numpy as np
import pytest
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_neg, gf_rem, gf_sub
from sympy.polys.matrices import DomainMatrix

from hullcodes.gf import Field
from hullcodes.linalg import Matrix, interpolate, nullspace, poly_eval, rank, rref

PRIMES = (2, 3, 13, 73, 1031)


def _dm(rows, shape, p):
    K = GF(p)
    return DomainMatrix([[K(x) for x in row] for row in rows], shape, K)


def _ints(dm, p):
    return [[int(x) % p for x in row] for row in dm.to_list()]


def _shapes(rng):
    """Random shapes plus the empty, 1 x 1 and 0-column corners."""
    yield from ((0, 3), (3, 0), (1, 1))
    for _ in range(12):
        yield rng.randint(1, 7), rng.randint(1, 7)


def _random_rows(rng, p, nrows, ncols):
    """Random entries; every third matrix is rank-deficient by construction."""
    if nrows > 1 and ncols and rng.random() < 1 / 3:
        r = rng.randint(0, min(nrows, ncols) - 1)
        left = [[rng.randrange(p) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(r)]
        return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                if r else [0] * ncols for row in left]
    return [[rng.randrange(p) if rng.random() < 0.8 else 0 for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_rank_nullspace_matmul_match_sympy(p):
    rng = random.Random(p)
    f = Field(p)
    for nrows, ncols in _shapes(rng):
        rows = _random_rows(rng, p, nrows, ncols)
        M, D = Matrix(f, rows, ncols=ncols), _dm(rows, (nrows, ncols), p)

        R, rk, pivots = rref(M)
        DR, dpivots = D.rref()
        assert [list(r) for r in R.rows] == _ints(DR, p)
        assert (rk, pivots) == (D.rank(), tuple(dpivots))
        assert rank(M) == rk

        N = nullspace(M)
        assert N.nrows == ncols - rk
        if N.nrows:
            DN = D.nullspace()
            ours = _dm(N.rows, (N.nrows, ncols), p).rref()[0]
            assert _ints(ours, p) == _ints(DN.rref()[0], p)

        inner = rng.randint(0, 5)
        B = [[rng.randrange(p) for _ in range(inner)] for _ in range(ncols)]
        got = M.matmul(Matrix(f, B, ncols=inner))
        want = D.matmul(_dm(B, (ncols, inner), p))
        assert [list(r) for r in got.rows] == _ints(want, p)


def _vandermonde_solve(p, xs, ys):
    n = len(xs)
    V = _dm([[pow(x, j, p) for j in range(n)] for x in xs], (n, n), p)
    c = [row[0] for row in _ints(V.lu_solve(_dm([[y] for y in ys], (n, 1), p)), p)]
    while c and c[-1] == 0:
        c.pop()
    return c


@pytest.mark.parametrize("p", PRIMES)
def test_interpolate_matches_a_vandermonde_solve(p):
    rng = random.Random(100 + p)
    f = Field(p)
    for _ in range(8):
        n = rng.randint(1, min(p, 12))
        xs = rng.sample(range(p), n)
        ys = [rng.randrange(p) for _ in xs]
        assert interpolate(f, zip(xs, ys)) == _vandermonde_solve(p, xs, ys)


def test_interpolate_through_the_whole_field():
    p = 73
    rng = random.Random(73)
    xs = rng.sample(range(p), p)
    ys = [rng.randrange(p) for _ in xs]
    assert interpolate(Field(p), zip(xs, ys)) == _vandermonde_solve(p, xs, ys)


def _poly(f, x):
    """x as a galoistools polynomial: coefficients high degree first."""
    return list(reversed(f.coeffs(x)))


def _element(f, poly):
    return f.from_coeffs(reversed([0] * (f.m - len(poly)) + poly))


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (7, 2), (3, 7), (2, 11)])
def test_extension_field_arithmetic_matches_galoistools(p, m):
    # GF(2^11): 1 + 1 = 0, so the Zech entry lands in the zero tail
    f = Field(p, m)
    modulus = list(reversed(f.modulus))
    assert gf_irreducible_p(modulus, p, ZZ)
    rng = random.Random(f.q)
    if f.q <= 49:
        pairs = list(itertools.product(range(f.q), repeat=2))
    else:
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(500)]
    # the Zech table's edge cases: a zero operand, and a sum that is zero
    for x in rng.sample(range(1, f.q), 3):
        minus_x = _element(f, gf_neg(_poly(f, x), p, ZZ))
        pairs += [(0, x), (x, 0), (0, 0), (x, minus_x)]
        assert f.add(x, minus_x) == 0
    for a, b in pairs:
        A, B = _poly(f, a), _poly(f, b)
        assert f.mul(a, b) == _element(f, gf_rem(gf_mul(A, B, p, ZZ), modulus, p, ZZ))
        assert f.add(a, b) == _element(f, gf_add(A, B, p, ZZ))
        assert f.sub(a, b) == _element(f, gf_sub(A, B, p, ZZ))
        assert f.neg(b) == _element(f, gf_neg(B, p, ZZ))


def _scalar_sum(f, xs):
    return functools.reduce(f.add, xs, 0)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (13, 1),
                                  (5, 2), (3, 3), (7, 2), (3, 7), (2, 11)])
def test_array_ops_match_scalar_ops(p, m):
    f = Field(p, m)
    if f.q <= 49:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    else:
        rng = np.random.default_rng(f.q)
        a, b = rng.integers(0, f.q, 20000), rng.integers(0, f.q, 20000)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.mul_array(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert f.add_array(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.sub_array(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    nonzero = a[a != 0]
    assert f.inv_array(nonzero).tolist() == [f.inv(x) for x in nonzero.tolist()]
    for chunk in np.array_split(a, 7):
        assert f.sum_array(chunk) == _scalar_sum(f, chunk.tolist())


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (7, 2), (3, 7)])
def test_extension_field_linear_algebra(p, m):
    """No sympy DomainMatrix over GF(p^m): matmul against the scalar ops,
    rref against the defining properties of a reduced echelon form, and
    interpolate against scalar evaluation at the nodes."""
    f = Field(p, m)
    rng = random.Random(f.q)
    for _ in range(10):
        xs = rng.sample(range(f.q), rng.randint(1, min(f.q, 30)))
        ys = [rng.randrange(f.q) for _ in xs]
        fx = interpolate(f, zip(xs, ys))
        assert len(fx) <= len(xs)
        assert [poly_eval(f, fx, x) for x in xs] == ys

        nrows, ncols, inner = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            rows.append(rows[0])  # rank-deficient
        M = Matrix(f, rows)
        B = [[rng.randrange(f.q) for _ in range(inner)] for _ in range(ncols)]
        want = [[_scalar_sum(f, [f.mul(x, B[t][j]) for t, x in enumerate(row)])
                 for j in range(inner)] for row in rows]
        assert [list(r) for r in M.matmul(Matrix(f, B)).rows] == want

        R, rk, pivots = rref(M)
        for i, c in enumerate(pivots):
            assert [r[c] for r in R.rows] == [int(i == j) for j in range(M.nrows)]
            assert all(x == 0 for x in R.rows[i][:c])
        assert all(x == 0 for r in R.rows[rk:] for x in r)
        assert rank(M.vstack(R)) == rk  # same row space
        assert rref(R)[0] == R
