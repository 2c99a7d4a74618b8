"""Differential tests of the field and linear-algebra kernel against sympy.

sympy is a second, independent implementation: DomainMatrix over GF(p)
for rref, rank, nullspace, matmul and a Vandermonde solve that stands in
for interpolation, and galoistools for arithmetic in GF(p)[x]/(f).  The
array ops of Field are checked against its scalar ops, exhaustively up
to q = 49 and by sampling in GF(3^7) and GF(2^11).
"""

import contextlib
import dataclasses
import functools
import gc
import io
import itertools
import math
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_neg, gf_rem, gf_sub
from sympy.polys.matrices import DomainMatrix

from hullcodes import cli, gf, selftest
from hullcodes.construct import make_seed, reduce_hull
from hullcodes.gf import MAX_Q, Field, is_prime
from hullcodes.grs import GrsError, GrsSpec, encode, eval_set, generator_matrix, grs
from hullcodes.hull import HullError, hull_membership, verify_power_sums
from hullcodes.linalg import (
    Matrix,
    interpolate,
    interpolate_batch,
    node_weights,
    nullspace,
    poly_eval_array,
    poly_trim,
    rank,
    rref,
    weighted_power_sums,
)
from scalar_reference import poly_eval

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


def _heavy_rows(rng, p, nrows, ncols):
    """Entries p - 1 with probability 0.6, the worst case for a product
    of two residues, and uniform otherwise."""
    return [[p - 1 if rng.random() < 0.6 else rng.randrange(p) for _ in range(ncols)]
            for _ in range(nrows)]


def _large_prime_matrices(rng, p):
    """(rows, ncols, rank the construction forces) at p = 65521."""
    for nrows, ncols in ((64, 64), (64, 96), (96, 64)):
        yield _heavy_rows(rng, p, nrows, ncols), ncols, min(nrows, ncols)
    yield [[p - 1] * 64 for _ in range(64)], 64, 1
    # rank 40 through repeated columns: every entry keeps its weight
    base = _heavy_rows(rng, p, 80, 40)
    cols = list(range(40)) + [rng.randrange(40) for _ in range(40)]
    rng.shuffle(cols)
    yield [[row[j] for j in cols] for row in base], 80, 40
    # rank 48 through repeated rows
    base = _heavy_rows(rng, p, 48, 72)
    rows = base + [rng.choice(base) for _ in range(24)]
    rng.shuffle(rows)
    yield rows, 72, 48


def test_delayed_reduction_at_the_largest_prime():
    """Over GF(p), rref defers the reduction mod p to the end of the
    elimination; at the largest prime <= MAX_Q, on matrices of at least
    64 x 64 full of p - 1, an overflow or an unreduced entry shows."""
    p = 65521
    assert is_prime(p) and not any(is_prime(x) for x in range(p + 1, MAX_Q + 1))
    rng = random.Random(p)
    f = Field(p)
    for rows, ncols, want_rank in _large_prime_matrices(rng, p):
        M, D = Matrix(f, rows, ncols=ncols), _dm(rows, (len(rows), ncols), p)
        R, rk, pivots = rref(M)
        DR, dpivots = D.rref()
        assert rk == want_rank == rank(M)
        assert pivots == tuple(dpivots)
        assert [list(r) for r in R.rows] == _ints(DR, p)
        N = nullspace(M)
        assert N.nrows == ncols - rk
        if N.nrows:
            assert not any(M.matmul(N.transpose()).array().ravel())
            ours = _dm(N.rows, (N.nrows, ncols), p).rref()[0]
            # sympy's null space of its own rref: the same space, less work
            assert _ints(ours, p) == _ints(DR.nullspace().rref()[0], p)


def _scalar_rref(f, rows):
    """Gauss-Jordan by the scalar ops, every column scanned: the
    reference for (R, rank, pivots)."""
    R, pivots = [list(row) for row in rows], []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = f.inv(R[r][c])
        R[r] = [f.mul(inv, x) for x in R[r]]
        for j in range(len(R)):
            if j != r and R[j][c]:
                coef = R[j][c]
                R[j] = [f.sub(x, f.mul(coef, y)) for x, y in zip(R[j], R[r])]
        pivots.append(c)
    return R, len(pivots), tuple(pivots)


def _trailing_zero_matrices(f, rng):
    """Zero matrices, and rank-deficient ones whose rows below the rank
    are zero before the last column: random products of rank r < rows,
    and a dead run of columns between two pivots."""
    for shape in ((1, 1), (3, 5), (5, 3), (4, 4)):
        yield [[0] * shape[1] for _ in range(shape[0])]
    for nrows, ncols in ((4, 6), (6, 4), (5, 5), (3, 8)):
        for r in range(1, min(nrows, ncols)):
            left = [[rng.randrange(f.q) for _ in range(r)] for _ in range(nrows)]
            right = [[rng.randrange(f.q) for _ in range(ncols)] for _ in range(r)]
            yield [[_scalar_sum(f, [f.mul(a, b) for a, b in zip(row, col)]) for col in zip(*right)]
                   for row in left]
    yield [[1] * 7, [1] * 6 + [2], [0] * 7]
    yield [[1, 0, 0, 0, 2], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]]


@pytest.mark.parametrize("p, m", [(5, 1), (13, 1), (65521, 1), (3, 2), (2, 4)])
def test_rref_stops_at_a_zero_trailing_block(p, m):
    # once the rows below the rank are zero (mod p over GF(p), where the
    # entries drift between pivots) the elimination stops; the output is
    # that of scanning every column
    f = Field(p, m)
    rng = random.Random(f.q)
    for rows in _trailing_zero_matrices(f, rng):
        want = _scalar_rref(f, rows)
        R, rk, pivots = rref(Matrix(f, rows))
        assert ([list(r) for r in R.rows], rk, pivots) == want, rows
    if m == 1 and p > 2:
        # the second row becomes [0, 1 - (p - 1)^2, 0], 0 mod p only
        R, rk, pivots = rref(Matrix(f, [[1, p - 1, 1], [p - 1, 1, p - 1]]))
        assert (rk, pivots, R.rows[1]) == (1, (0,), (0, 0, 0))


def _scalar_node_weights(f, xs):
    """(P, w) by scalar products: P = (x - x_1) ... (x - x_n) one factor
    at a time, and w_i = 1 / prod_{j != i} (x_i - x_j)."""
    P = [1]
    for x in xs:
        P = [f.sub(a, f.mul(x, b)) for a, b in zip([0] + P, P + [0])]
    w = []
    for xi in xs:
        prod = 1
        for xj in xs:
            if xj != xi:
                prod = f.mul(prod, f.sub(xi, xj))
        w.append(f.inv(prod))
    return P, w


@pytest.mark.parametrize("p, m", [(13, 1), (1031, 1), (65521, 1), (3, 2), (2, 5), (3, 4)])
def test_node_weights_match_a_scalar_product_loop(monkeypatch, p, m):
    # the product tree's levels split into blocks of pairs and of rows
    # of their outer products at the smaller _BLOCK values.  Each set is
    # taken alone and in batches that mix sets of 1, 2, odd and even
    # sizes and the whole field, so the shorter sets are padded to the
    # longest and the odd row counts of every level within each set
    f = Field(p, m)
    rng = random.Random(f.q)
    sizes = {1, 2, 3, f.q} | {2**j + e for j in range(2, 8) for e in (-1, 1)}
    point_sets = [rng.sample(range(f.q), n) for n in sorted(x for x in sizes if x <= min(f.q, 129))]
    want = [_scalar_node_weights(f, xs) for xs in point_sets]
    shuffled = rng.sample(range(len(point_sets)), len(point_sets))
    batches = [[i] for i in range(len(point_sets))] + [
        list(range(len(point_sets))),
        shuffled,
        [0, 1] * 2 + [len(point_sets) - 1],
        [i for i, xs in enumerate(point_sets) if len(xs) % 2],
    ]
    for block in (1, 64, 1 << 16):
        monkeypatch.setattr(gf, "_BLOCK", block)
        for batch in batches:
            got = node_weights(f, [np.array(point_sets[i]) for i in batch])
            assert len(got) == len(batch)
            for i, (P, w) in zip(batch, got):
                assert (P.tolist(), w.tolist()) == want[i], (len(point_sets[i]), batch, block)


def test_eval_set_memory_at_a_long_length():
    # the product tree holds at most n floor(sqrt(n)) entries per step,
    # 5.9 MB of int64 here, and a few such arrays at a time
    f = Field(65521)
    tracemalloc.start()
    try:
        points = eval_set(f, range(8192))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    # on range(n), u_i = 1 / (i! (n - 1 - i)! (-1)^(n - 1 - i))
    xs = (0, 1, 4095, 8191)
    fact = [1]
    for i in range(1, 8192):
        fact.append(fact[-1] * i % 65521)
    assert [points.u[i] for i in xs] == [
        pow(fact[i] * fact[8191 - i] * (-1) ** (8191 - i), -1, 65521) for i in xs
    ]
    assert points.P[-1] == 1 and points.P[0] == 0 and len(points.P) == 8193


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


def _slot_boundary(f):
    """N, N + 1 and 2N + 1, N the terms one value of the sum domain may
    hold before it is read back, where N is small (odd GF(p^m): 31 over
    GF(3^10), 255 over GF(3^7)); none where it is not."""
    N = f._held
    return (N, N + 1, 2 * N + 1) if N < 2**10 else ()


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


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (13, 1), (65521, 1), (3, 2), (5, 2), (7, 2),
                                  (3, 7), (2, 2), (2, 3), (2, 11)])
def test_product_enters_the_sum_domain_within_held(p, m):
    # a product as _product gives it reads back as mul_array's, on all
    # pairs up to q = 49 and on random pairs above, also broadcast as the
    # product tree takes it; and _held such products add in one value
    # with no slot past its bound
    f = Field(p, m)
    if f.q <= 49:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(f.q), np.arange(f.q)))
    else:
        rng = np.random.default_rng(f.q)
        a, b = rng.integers(0, f.q, 20000), rng.integers(0, f.q, 20000)
    assert np.array_equal(f._read_back(f._product(a, b)), f.mul_array(a, b))
    x, y = np.resize(a, (6, 1, 1)), np.resize(b, (1, 5, 7))
    assert np.array_equal(f._read_back(f._product(x, y)), f.mul_array(x, y))
    if p == 2 and m > 1:  # exclusive or adds any number of terms
        assert f._held == math.inf
    elif m == 1:  # one slot, a product up to (p - 1)^2
        assert int(f._product(p - 1, p - 1)) == (p - 1) ** 2
        assert f._held * (p - 1) ** 2 <= 2**63 - 1 < (f._held + 1) * (p - 1) ** 2
    else:  # m slots, each digit of a product up to p - 1
        assert f._held * (p - 1) <= 2 ** (63 // m) - 1 < (f._held + 1) * (p - 1)
        # q - 1 has every digit p - 1: its sums fill the slots to the brim
        top = f._product(f.q - 1, 1)
        for count in _slot_boundary(f):
            want = f.mul(f.scalar(count), f.q - 1)
            assert f._sum(np.full(count, top), 0) == want, count


@pytest.mark.parametrize("p, m", [(13, 1), (2, 11), (3, 2), (7, 2), (3, 7), (3, 10)])
def test_sum_array_along_an_axis_matches_scalar_sums(p, m):
    # GF(3^10) spreads its 10 digits 6 bits apart, so at most 31 entries
    # add at once: an axis of 300 takes ten chunks
    f = Field(p, m)
    A = np.random.default_rng(f.q).integers(0, f.q, (3, 300, 4))
    # q - 1 has every digit p - 1, so its sums fill the slots to the brim
    for B in (A, np.full((3, 300, 4), f.q - 1)):
        for axis in range(3):
            want = np.apply_along_axis(lambda line: _scalar_sum(f, line.tolist()), axis, B)
            assert np.array_equal(f.sum_array(B, axis=axis), want)
    for terms in _slot_boundary(f):
        B = np.full((2, terms), f.q - 1)
        assert f.sum_array(B, axis=1).tolist() == [_scalar_sum(f, [f.q - 1] * terms)] * 2, terms
    assert f.sum_array(A[:, :0], axis=1).tolist() == [[0] * 4] * 3


@pytest.mark.parametrize("p, m", [(2, 1), (13, 1), (1031, 1), (2, 6), (2, 11), (3, 2),
                                  (7, 2), (3, 7), (3, 10)])
def test_sum_log_products_matches_scalar_ops(p, m):
    # 70 products take three slot chunks over GF(3^10) (31 at a time);
    # a zero factor takes the log sentinel; at the slot boundary every
    # product is q - 1
    f = Field(p, m)
    rng = np.random.default_rng(f.q)
    logs = f.log_array(np.arange(f.q))
    # the sum of two logs, at most 4(q - 1), fits the dtype
    assert 2 * int(logs.max()) == 4 * (f.q - 1)
    assert logs.dtype.kind == "u" and np.iinfo(logs.dtype).max >= 4 * (f.q - 1)
    for terms, shape in ((1, (5,)), (2, (3, 4)), (70, (6, 7))):
        X, Y = rng.integers(0, f.q, (2, terms, *shape))
        X[:, 0] = 0
        # q - 1 has every digit p - 1, so its sums fill the slots to the brim
        X[:, -1], Y[:, -1] = f.q - 1, 1
        got = f.sum_log_products(f.log_array(X), f.log_array(Y))
        want = [
            _scalar_sum(f, [f.mul(x, y) for x, y in zip(xs, ys)])
            for xs, ys in zip(X.reshape(terms, -1).T.tolist(), Y.reshape(terms, -1).T.tolist())
        ]
        assert got.shape == shape and got.ravel().tolist() == want, terms
    for terms in _slot_boundary(f):
        got = f.sum_log_products(f.log_array(np.full((terms, 3), f.q - 1)),
                                 f.log_array(np.ones((terms, 3), dtype=np.int64)))
        assert got.tolist() == [_scalar_sum(f, [f.q - 1] * terms)] * 3, terms


@pytest.mark.parametrize("p, m", [(13, 1), (65521, 1), (7, 2), (3, 5), (2, 4)])
def test_sum_log_products_is_a_sum_of_array_products(monkeypatch, p, m):
    # stacks of 1, 2 and 7 terms, zeros among the factors, summed along
    # the first axis as mul_array and add_array sum them; again with
    # _held at 2 and 3, so that _sum reads back between runs of two
    # (7 terms take three rounds) and of three (runs of 3, 3 and 1).  A
    # held of 1 would leave _sum no two values to add: every field up to
    # MAX_Q holds at least 31
    f = Field(p, m)
    rng = np.random.default_rng(f.q + 1)
    cases = []
    for terms in (1, 2, 7):
        X, Y = rng.integers(0, f.q, (2, terms, 4, 5))
        X[0, 0], Y[-1, :, 1] = 0, 0
        want = f.mul_array(X[0], Y[0])
        for x, y in zip(X[1:], Y[1:]):
            want = f.add_array(want, f.mul_array(x, y))
        cases.append((f.log_array(X), f.log_array(Y), want))
    for held in (f._held, 2, 3):
        monkeypatch.setattr(f, "_held", held)
        for x, y, want in cases:
            assert np.array_equal(f.sum_log_products(x, y), want), (held, len(x))


@pytest.mark.parametrize("p, m", [(13, 1), (2, 11), (7, 2), (3, 7), (3, 10)])
def test_matmul_array_matches_scalar_products(monkeypatch, p, m):
    # K = 70 inner terms take three slot chunks over GF(3^10); 40 rows
    # of a 70 x 20 M take a row block each at _BLOCK = 1 and 64
    f = Field(p, m)
    rng = np.random.default_rng(f.q)
    cases = [(rng.integers(0, f.q, (rows, K)), rng.integers(0, f.q, (K, N)))
             for rows, K, N in ((40, 70, 20), (3, 1, 5), (2, 0, 3), (2, 4, 0), (0, 3, 2))]
    # products q - 1 (every digit p - 1) fill the slots to the brim
    for K in (70, *_slot_boundary(f)):
        cases.append((np.full((2, K), f.q - 1), np.ones((K, 3), dtype=np.int64)))
    for X, M in cases:
        rows, N = len(X), M.shape[1]
        want = [[_scalar_sum(f, [f.mul(a, b) for a, b in zip(row, col)]) for col in M.T.tolist()]
                for row in X.tolist()]
        for block in (1, 64, gf._BLOCK):
            monkeypatch.setattr(gf, "_BLOCK", block)
            got = f.matmul_array(X, M)
            assert got.shape == (rows, N) and got.tolist() == want, (X.shape, M.shape, block)
    # a stack of products, member by member as the single products above
    Xs, Ms = rng.integers(0, f.q, (3, 7, 5)), rng.integers(0, f.q, (3, 5, 4))
    want = [f.matmul_array(X, M).tolist() for X, M in zip(Xs, Ms)]
    for block in (1, 64, gf._BLOCK):
        monkeypatch.setattr(gf, "_BLOCK", block)
        assert f.matmul_array(Xs, Ms).tolist() == want, block


def test_a_matmul_array_step_stays_small():
    # a step holds max(_BLOCK, M.size) products: their indices, the
    # products and a few arrays the size of the step's output, so the
    # peak past the 4000 x 60 output is about three such arrays of int64
    # (1.6 MB), where one step of all 4000 rows would hold 115 MB
    f = Field(3, 7)
    rng = np.random.default_rng(7)
    X, M = rng.integers(0, f.q, (4000, 60)), rng.integers(0, f.q, (60, 60))
    tracemalloc.start()
    try:
        out = f.matmul_array(X, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 8 * max(gf._BLOCK, M.size), peak
    rows = [0, 1234, 3999]
    assert out[rows].tolist() == [[_scalar_sum(f, [f.mul(a, b) for a, b in zip(X[i].tolist(), col)])
                                   for col in M.T.tolist()] for i in rows]


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
        # no rows, and an empty inner dimension
        assert Matrix(f, [], ncols=M.nrows).matmul(M).rows == ()
        assert Matrix(f, [[]] * 2).matmul(Matrix(f, [], ncols=inner)) == Matrix(f, [[0] * inner] * 2)

        R, rk, pivots = rref(M)
        for i, c in enumerate(pivots):
            assert [r[c] for r in R.rows] == [int(i == j) for j in range(M.nrows)]
            assert all(x == 0 for x in R.rows[i][:c])
        assert all(x == 0 for r in R.rows[rk:] for x in r)
        assert rank(Matrix(f, np.vstack([M.entries, R.entries]))) == rk  # same row space
        assert rref(R)[0] == R


# --- the per-spec evaluation map against scalar references ---


def _scalar_generator(spec):
    f, k = spec.field, spec.k
    rows = [[f.mul(v, f.pow(a, j)) for a, v in zip(spec.points.a, spec.v)] for j in range(k)]
    if spec.extended:
        for j, row in enumerate(rows):
            row.append(int(j == k - 1))
    return rows


def _scalar_encode(spec, fx):
    f = spec.field
    word = [f.mul(v, poly_eval(f, fx, a)) for a, v in zip(spec.points.a, spec.v)]
    if spec.extended:
        word.append(fx[spec.k - 1] if len(fx) >= spec.k else 0)
    return word


def _lagrange(f, xs, ys):
    """Interpolant by the Lagrange formula, one scalar op at a time."""
    out = [0] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                # basis <- basis * (x - xj)
                basis = [f.sub(lo, f.mul(xj, hi)) for lo, hi in zip([0] + basis, basis + [0])]
                denom = f.mul(denom, f.sub(xi, xj))
        scale = f.mul(yi, f.inv(denom))
        out = [f.add(o, f.mul(scale, b)) for o, b in zip(out, basis)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _in_hull(spec, word):
    """A codeword lies in the hull iff it is orthogonal to every generator row."""
    f = spec.field
    return all(_scalar_sum(f, [f.mul(x, y) for x, y in zip(word, row)]) == 0
               for row in _scalar_generator(spec))


def _evaluation_map_specs():
    """(spec, l): GF(p), GF(p^m) and extended specs, with 0 among the
    points, k = 1 and k = n.  Specs reduced from a self-orthogonal seed
    come with their hull dimension l; random ones with None."""
    rng = random.Random(2004)
    specs = []
    for p, m in ((5, 1), (7, 1), (2, 2), (3, 2)):
        f = Field(p, m)
        full = eval_set(f, range(f.q))
        if f.q > 4:
            # v_i = g, not 1, so that v_i^2 != v_i on every coordinate
            seed = make_seed(grs(full, [f.generator] * f.q, (f.q - 1) // 2))
            specs += [(reduce_hull(seed, k, l), l) for k, l in ((2, 1), (2, 2), (1, 0))]
            specs.append((reduce_hull(seed, 2, 1, extend=True), 1))
            eseed = make_seed(grs(full, [1] * f.q, (f.q + 1) // 2, extended=True))
            specs += [(reduce_hull(eseed, k, l), l) for k, l in ((3, 2), (2, 1), (1, 1))]
        for n, k, extended in ((3, 1, False), (3, 3, False), (2, 3, True), (4, 2, True)):
            points = eval_set(f, [0] + rng.sample(range(1, f.q), n - 1))
            specs.append((grs(points, [rng.randrange(1, f.q) for _ in range(n)], k, extended), None))
    return specs


@pytest.mark.parametrize("spec, l", _evaluation_map_specs(), ids=lambda s: (
    f"GF{s.field.q}-n{s.n}-k{s.k}{'-ext' if s.extended else ''}" if isinstance(s, GrsSpec) else f"l{s}"))
def test_evaluation_map_matches_scalar_reference(spec, l):
    f, k = spec.field, spec.k
    assert [list(r) for r in generator_matrix(spec).rows] == _scalar_generator(spec)
    assert 0 in spec.points.a
    members = 0
    for msg in itertools.product(range(f.q), repeat=k):
        fx = list(msg)  # every length-k message, trailing zeros included
        word = encode(spec, fx)
        assert word == _scalar_encode(spec, fx)
        witness = hull_membership(spec, fx)
        in_hull = _in_hull(spec, word)
        assert (witness is not None) == in_hull, msg
        members += in_hull
        # the witness is the interpolant of v_i^2 f(a_i) / u_i
        values = [f.mul(f.mul(f.mul(v, v), poly_eval(f, fx, a)), f.inv(u))
                  for a, v, u in zip(spec.points.a, spec.v, spec.points.u)]
        assert witness in (None, _lagrange(f, spec.points.a, values))
        # a message shorter than k reads the same maps
        short = fx[:max((i + 1 for i, c in enumerate(fx) if c), default=0)]
        assert encode(spec, short) == word
        assert hull_membership(spec, short) == witness
    if l is not None:
        assert members == f.q**l
    with pytest.raises(GrsError):
        encode(spec, [0] * k + [1])
    with pytest.raises(HullError):
        hull_membership(spec, [0] * k + [1])


@pytest.mark.parametrize("p, m", [(13, 1), (1031, 1), (3, 2), (2, 11)])
def test_interpolate_batch_matches_row_by_row(p, m):
    f = Field(p, m)
    rng = random.Random(f.q)
    for rows in (0, 1, 5):
        n = rng.randint(1, min(f.q, 24))
        xs = rng.sample(range(f.q), n)
        Y = [[rng.randrange(f.q) for _ in range(n)] for _ in range(rows)]
        nodes = f.asarray(xs)
        Y_array = np.array(Y, dtype=np.int64).reshape(rows, n)
        out = interpolate_batch(f, nodes, Y_array, *node_weights(f, [nodes])[0])
        assert out.shape == (rows, n)
        for coeffs, ys in zip(out.tolist(), Y):
            assert poly_trim(coeffs) == interpolate(f, zip(xs, ys))


# blocks from one entry up to the default; 1024 splits the larger inputs
# into a few steps
@pytest.mark.parametrize("block", [1, 64, 1024, gf._BLOCK])
@pytest.mark.parametrize("p, m", [(1031, 1), (13, 1), (3, 2), (2, 5), (3, 4)])
def test_poly_eval_array_matches_scalar_horner(monkeypatch, block, p, m):
    # a small block splits the points, and the Vandermonde product over
    # GF(p^m), into many blocks
    monkeypatch.setattr(gf, "_BLOCK", block)
    f = Field(p, m)
    rng = random.Random(f.q + block)
    points = [rng.randrange(f.q) for _ in range(60)] + [0]
    for d in (0, 1, 2, 5, 17, 100):
        fx = [rng.randrange(f.q) for _ in range(d)]
        want = [poly_eval(f, fx, x) for x in points]
        assert poly_eval_array(f, fx, np.array(points)).tolist() == want
        grid = np.array(points[:60]).reshape(6, 10)
        assert poly_eval_array(f, fx, grid).tolist() == np.array(want[:60]).reshape(6, 10).tolist()
        scalar = poly_eval_array(f, fx, np.int64(points[7]))
        assert scalar.shape == () and int(scalar) == want[7]
        assert poly_eval_array(f, fx, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
        # a batch: row i of the coefficients at row i of the points
        batch = np.array([[rng.randrange(f.q) for _ in range(d)] for _ in range(4)]).reshape(4, d)
        at = np.array([rng.sample(points, 15) for _ in range(4)])
        each = [[poly_eval(f, row, x) for x in xs] for row, xs in zip(batch.tolist(), at.tolist())]
        assert poly_eval_array(f, batch, at).tolist() == each


# a step is sized by the polynomial's length, so here by d alone, and
# the points outnumber the entries a step holds at every block but 2^16
@pytest.mark.parametrize("block", [1, 64, 1024, gf._BLOCK])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_poly_eval_array_at_more_points_than_a_step_holds(monkeypatch, block, d):
    monkeypatch.setattr(gf, "_BLOCK", block)
    f = Field(3, 7)
    rng = random.Random(block + d)
    fx = [rng.randrange(f.q) for _ in range(d - 1)] + [rng.randrange(1, f.q)]
    out = poly_eval_array(f, fx, np.arange(f.q))
    assert out.tolist() == [poly_eval(f, fx, x) for x in range(f.q)]


def test_poly_eval_array_of_low_degree_at_a_whole_large_field_stays_small():
    # degree 2 at the 59049 points of GF(3^10): one step of every point
    # peaked at 14 MB; a step of max(_BLOCK, 3) entries stays near 3 MiB
    f = Field(3, 10)
    x = np.arange(f.q)
    fx = [5, 7, 1]
    tracemalloc.start()
    try:
        out = poly_eval_array(f, fx, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    sample = list(range(0, f.q, 997)) + [f.q - 1]
    assert out[sample].tolist() == [poly_eval(f, fx, int(xi)) for xi in sample]


# blocks from one entry up to the default; 1024 splits the larger inputs
# into a few steps
@pytest.mark.parametrize("block", [1, 64, 1024, gf._BLOCK])
def test_interpolate_batch_matches_a_vandermonde_solve_across_blocks(monkeypatch, block):
    monkeypatch.setattr(gf, "_BLOCK", block)
    p, n = 1031, 40
    f = Field(p)
    rng = random.Random(block)
    xs = rng.sample(range(p), n)
    Y = [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
    nodes = f.asarray(xs)
    out = interpolate_batch(f, nodes, np.array(Y), *node_weights(f, [nodes])[0])
    assert [poly_trim(row) for row in out.tolist()] == [_vandermonde_solve(p, xs, ys) for ys in Y]


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("p, m", [(3, 3), (2, 6)])
def test_interpolate_batch_across_blocks_over_extension_fields(monkeypatch, block, p, m):
    monkeypatch.setattr(gf, "_BLOCK", block)
    f = Field(p, m)
    rng = random.Random(f.q + block)
    xs = rng.sample(range(f.q), 25)
    Y = [[rng.randrange(f.q) for _ in xs] for _ in range(2)]
    nodes = f.asarray(xs)
    out = interpolate_batch(f, nodes, np.array(Y), *node_weights(f, [nodes])[0])
    for row, ys in zip(out.tolist(), Y):
        assert [poly_eval(f, row, x) for x in xs] == ys


@pytest.mark.parametrize("block", [1, 64, gf._BLOCK])
@pytest.mark.parametrize("p, m", [(1031, 1), (3, 4), (2, 7)])
def test_weighted_power_sums_match_scalar_sums(monkeypatch, block, p, m):
    # at the smaller blocks the nodes take many steps; verify_power_sums
    # reads the same sums of u, and a u_i changed anywhere fails it
    monkeypatch.setattr(gf, "_BLOCK", block)
    f = Field(p, m)
    rng = random.Random(f.q + block)
    xs = rng.sample(range(f.q), 70)
    C = [[rng.randrange(f.q) for _ in xs] for _ in range(2)]
    got = weighted_power_sums(f, np.array(xs), np.array(C))
    assert got.tolist() == [[_scalar_sum(f, [f.mul(c, f.pow(x, s)) for c, x in zip(row, xs)])
                             for s in range(len(xs))] for row in C]
    points = eval_set(f, xs)
    assert verify_power_sums([points]) == [True]
    for i in (0, 69):
        u = list(points.u)
        u[i] = f.add(u[i], 1)
        assert verify_power_sums([dataclasses.replace(points, u=tuple(u))]) == [False]


@pytest.mark.parametrize("p, m", [(13, 1), (3, 2), (2, 4)])
def test_power_sums_of_a_batch_are_each_sets_own(p, m):
    """verify_power_sums over sets of 1 to q points, about half with one
    u_i changed, gives each set's verdict from the scalar sums, and the
    power-sums check reports the first set that fails."""
    f = Field(p, m)
    rng = random.Random(f.q)
    sets, expected = [], []
    for n in (1, 2, f.q, *(rng.randint(1, f.q) for _ in range(6))):
        points = eval_set(f, rng.sample(range(f.q), n))
        if rng.random() < 0.5:
            u = list(points.u)
            i = rng.randrange(n)
            u[i] = f.add(u[i], rng.randrange(1, f.q))
            points = dataclasses.replace(points, u=tuple(u))
        sums = [_scalar_sum(f, [f.mul(u, f.pow(a, s)) for a, u in zip(points.a, points.u)])
                for s in range(n)]
        sets.append(points)
        expected.append(sums == [0] * (n - 1) + [1])
    assert verify_power_sums(sets) == expected == [verify_power_sums([s])[0] for s in sets]
    assert True in expected and False in expected
    first = expected.index(False)
    assert selftest.power_sums(sets) == (first + 1, f"power sums fail for q={f.q}, a={list(sets[first].a)}")
    with pytest.raises(HullError):
        verify_power_sums([sets[0], eval_set(Field(5), [1, 2])])


def _witness_map_by_interpolation(spec):
    """The witness map's definition: row j is the interpolant of
    v_i^2 a_i^j / u_i, all k rows as one batch."""
    f = spec.field
    a, v, u, P = (f.asarray(x) for x in (spec.points.a, spec.v, spec.points.u, spec.points.P))
    scale = f.mul_array(f.mul_array(v, v), f.inv_array(u))
    values = f.mul_array(f.pow_array(a, np.arange(spec.k)[:, None]), scale)
    return interpolate_batch(f, a, values, P, u)


@pytest.mark.parametrize("p, m", [(13, 1), (73, 1), (3, 2), (2, 4), (5, 2)])
def test_witness_map_matches_its_definition(p, m):
    f = Field(p, m)
    rng = random.Random(f.q)
    for extended in (False, True):
        n = min(f.q, 20)
        points = eval_set(f, rng.sample(range(f.q), n))
        v = [rng.randrange(1, f.q) for _ in range(n)]
        for k in sorted({1, 2, n // 2, n - 1, n} | ({n + 1} if extended else set())):
            spec = grs(points, v, k, extended)
            assert np.array_equal(spec.witness_map, _witness_map_by_interpolation(spec))


def test_witness_map_memory_is_linear_in_n():
    # an n x n int64 array would be 32 MB here; L itself is 2 x 2000
    f = Field(2003)
    spec = grs(eval_set(f, range(2000)), [1] * 2000, 2)
    tracemalloc.start()
    try:
        L = spec.witness_map
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.shape == (2, 2000)
    assert peak < 2 * 2**20, peak
    # row j interpolates v_i^2 a_i^j / u_i (here v_i = 1)
    xs = list(range(0, 2000, 97))
    g = L[1].tolist()
    assert [poly_eval(f, g, x) for x in xs] == [f.mul(x, f.inv(spec.points.u[x])) for x in xs]


def test_witness_map_is_built_once_per_spec_and_dies_with_it(monkeypatch):
    # the map starts from the spec's dual interpolant, so each build
    # makes one call, which records the spec's k
    built = []
    original = GrsSpec.dual_interpolant

    def counting(spec):
        built.append(spec.k)
        return original(spec)

    monkeypatch.setattr(GrsSpec, "dual_interpolant", counting)
    seed = make_seed(grs(eval_set(Field(13), range(13)), [1] * 13, 6))
    spec = reduce_hull(seed, 4, 2)
    built.clear()
    witnesses = [hull_membership(spec, fx) for fx in ([1], [0, 1], [3, 0, 2], [1, 2, 3, 4]) * 3]
    assert built == [4]
    assert witnesses == [hull_membership(spec, fx) for fx in ([1], [0, 1], [3, 0, 2], [1, 2, 3, 4]) * 3]
    assert built == [4]
    # an equal spec is a different object with its own map
    twin = reduce_hull(seed, 4, 2)
    assert twin == spec and hull_membership(twin, [1]) == witnesses[0]
    assert built == [4, 4]
    L = weakref.ref(spec.witness_map)
    del spec, witnesses
    gc.collect()
    assert L() is None


def test_cli_construct_never_builds_the_witness_map(monkeypatch, tmp_path):
    def refuse(spec):
        raise AssertionError("construct built the witness map")

    monkeypatch.setattr(GrsSpec, "witness_map", property(refuse))
    seed_json = pathlib.Path(__file__).parent / "golden" / "seed13.json"
    for argv in (
        f"construct --seed-json {seed_json} --k 4 --l 2",
        "construct --family odd_cosets --r 5 --m 3 --t 1 --variant ii --k 2 --l 1",
        f"construct --family twisted_pair --q 7 --t 3 --k 2 --l 1 --output {tmp_path}/c.json",
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv.split()) == 0
