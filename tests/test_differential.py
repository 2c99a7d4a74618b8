"""Differential tests of the field and linear-algebra kernel against sympy.

sympy is a second, independent implementation: DomainMatrix over GF(p)
for rref, rank, nullspace, matmul and a Vandermonde solve that stands in
for interpolation, and galoistools for arithmetic in GF(p)[x]/(f).  The
array ops of Field are checked against its scalar ops, exhaustively up
to q = 49 and by sampling in GF(3^7) and GF(2^11).
"""

import contextlib
import functools
import gc
import io
import itertools
import pathlib
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from sympy.polys.domains import GF, ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_neg, gf_rem, gf_sub
from sympy.polys.matrices import DomainMatrix

from hullcodes import cli
from hullcodes.construct import make_seed, reduce_hull
from hullcodes.gf import MAX_Q, Field, is_prime
from hullcodes.grs import GrsError, GrsSpec, encode, eval_set, generator_matrix, grs
from hullcodes.hull import HullError, hull_membership
from hullcodes.linalg import (
    Matrix,
    interpolate,
    interpolate_batch,
    node_weights,
    nullspace,
    poly_trim,
    rank,
    rref,
)

PRIMES = (2, 3, 13, 73, 1031)


def poly_eval(f, fx, x):
    """fx at x by scalar Horner steps: the reference for the array routes."""
    acc = 0
    for c in reversed(fx):
        acc = f.add(f.mul(acc, x), c)
    return acc


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
        # no rows, and an empty inner dimension
        assert Matrix(f, [], ncols=M.nrows).matmul(M).rows == ()
        assert Matrix(f, [[]] * 2).matmul(Matrix(f, [], ncols=inner)) == Matrix(f, [[0] * inner] * 2)

        R, rk, pivots = rref(M)
        for i, c in enumerate(pivots):
            assert [r[c] for r in R.rows] == [int(i == j) for j in range(M.nrows)]
            assert all(x == 0 for x in R.rows[i][:c])
        assert all(x == 0 for r in R.rows[rk:] for x in r)
        assert rank(M.vstack(R)) == rk  # same row space
        assert rref(R)[0] == R


# --- the per-spec evaluation map against scalar references ---


def _scalar_eval(f, fx, x):
    acc = 0
    for c in reversed(fx):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _scalar_generator(spec):
    f, k = spec.field, spec.k
    rows = [[f.mul(v, f.pow(a, j)) for a, v in zip(spec.points.a, spec.v)] for j in range(k)]
    if spec.extended:
        for j, row in enumerate(rows):
            row.append(int(j == k - 1))
    return rows


def _scalar_encode(spec, fx):
    f = spec.field
    word = [f.mul(v, _scalar_eval(f, fx, a)) for a, v in zip(spec.points.a, spec.v)]
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
        values = [f.mul(f.mul(f.mul(v, v), _scalar_eval(f, fx, a)), f.inv(u))
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
        out = interpolate_batch(f, nodes, Y_array, *node_weights(f, nodes))
        assert out.shape == (rows, n)
        for coeffs, ys in zip(out.tolist(), Y):
            assert poly_trim(coeffs) == interpolate(f, zip(xs, ys))


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
    assert [_scalar_eval(f, g, x) for x in xs] == [f.mul(x, f.inv(spec.points.u[x])) for x in xs]


def test_witness_map_is_built_once_per_spec_and_dies_with_it(monkeypatch):
    built = []
    original = GrsSpec.dual_interpolants

    def counting(spec, rows):
        built.append(rows)
        return original(spec, rows)

    monkeypatch.setattr(GrsSpec, "dual_interpolants", counting)
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
