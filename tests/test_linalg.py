import json
import random

import numpy as np
import pytest

from hullcodes.gf import Field, FieldError
from hullcodes.linalg import (
    LinalgError,
    Matrix,
    determinant,
    interpolate,
    nullspace,
    poly_deg,
    rank,
    rref,
)
from scalar_reference import poly_eval

F5 = Field(5)
F13 = Field(13)


def test_rref_and_rank():
    M = Matrix(F5, [[1, 2, 3], [2, 4, 1], [0, 0, 2]])
    R, rk, pivots = rref(M)
    assert rk == 2
    assert pivots == (0, 2)
    assert R.rows[0] == (1, 2, 0)
    assert R.rows[1] == (0, 0, 1)
    assert rank(Matrix(F5, [[int(i == j) for j in range(4)] for i in range(4)])) == 4


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(20):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        M = Matrix(F13, [[rng.randrange(13) for _ in range(nc)] for _ in range(nr)])
        N = nullspace(M)
        assert N.nrows == nc - rank(M)
        for row in N.rows:
            prod = M.matmul(Matrix(F13, [row], ncols=nc).transpose())
            assert all(x == 0 for r in prod.rows for x in r)


def test_determinant():
    assert determinant(Matrix(F5, [[2, 1], [3, 4]])) == (2 * 4 - 1 * 3) % 5
    assert determinant(Matrix(F5, [[1, 2], [2, 4]])) == 0
    # swap changes sign
    assert determinant(Matrix(F5, [[3, 4], [2, 1]])) == (-(2 * 4 - 3)) % 5
    with pytest.raises(LinalgError):
        determinant(Matrix(F5, [[1, 2, 3]]))


def test_poly_basics():
    f = F13
    a = [1, 2, 3]  # 3x^2 + 2x + 1
    b = [12, 1]  # x - 1
    assert poly_deg([]) == -1
    assert poly_deg(a) == 2 and poly_eval(f, a, 2) == 17 % 13
    assert poly_eval(f, b, 1) == 0


def test_interpolation():
    f = F13
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 8)
        xs = rng.sample(range(13), n)
        ys = [rng.randrange(13) for _ in range(n)]
        p = interpolate(f, list(zip(xs, ys)))
        assert poly_deg(p) <= n - 1
        for x, y in zip(xs, ys):
            assert poly_eval(f, p, x) == y
    with pytest.raises(LinalgError):
        interpolate(f, [(1, 2), (1, 3)])
    with pytest.raises(LinalgError):
        interpolate(f, [])


def test_empty_matrix_needs_ncols():
    with pytest.raises(LinalgError):
        Matrix(F5, [])
    with pytest.raises(LinalgError):
        Matrix(F5, [[1, 2], [3]])  # ragged
    M = Matrix(F5, [], ncols=3)
    assert M.nrows == 0 and M.ncols == 3
    assert rank(M) == 0
    # the nullspace of a full-rank square matrix is 0 x n, its transpose n x 0
    N = nullspace(Matrix(F5, [[1, 2, 3], [0, 1, 4], [0, 0, 2]]))
    assert N == M and N.rows == () and N.entries.shape == (0, 3)
    T = N.transpose()
    assert (T.nrows, T.ncols) == (3, 0) and T.rows == ((), (), ())
    assert T == Matrix(F5, [[], [], []]) != M
    assert rank(T) == 0 and nullspace(T).ncols == 0
    assert T.matmul(N) == Matrix(F5, np.zeros((3, 3), dtype=np.int64))


def test_malformed_entries_are_rejected():
    # entries that are sequences, or an array that is not 2-D
    for entries in ([[[1]]], [[1, 2], [3, [4]]], np.array([1, 2])):
        with pytest.raises(LinalgError):
            Matrix(F5, entries)


def test_entries_outside_the_field_are_rejected():
    with pytest.raises(FieldError):
        rref(Matrix(F13, [[1, 13], [2, 3]]))
    with pytest.raises(FieldError):
        rref(Matrix(F13, [[-1, 2]]))
    with pytest.raises(FieldError):
        interpolate(F13, [(1, 20), (2, 3)])
    with pytest.raises(FieldError):
        Matrix(F13, [[1, 2]]).matmul(Matrix(F13, [[14], [1]]))


def test_numpy_integer_entries_work():
    rows = [[1, 5, 7], [2, 10, 3]]
    M = Matrix(F13, rows)
    N = Matrix(F13, [[np.int64(x) for x in r] for r in rows])
    assert rref(N) == rref(M)
    assert N.matmul(N.transpose()) == M.matmul(M.transpose())
    same = [
        N,
        Matrix(F13, tuple(map(tuple, rows))),
        Matrix(F13, np.array(rows, dtype=np.int64)),
        Matrix(F13, np.array(rows, dtype=np.uint8)),
        Matrix(F13, (iter(r) for r in rows)),
    ]
    for X in same:
        assert X == M and hash(X) == hash(M)
    assert Matrix(F13, rows[:1]) != M != Matrix(Field(17), rows)
    # rows holds Python ints, ready for JSON
    assert M.rows == ((1, 5, 7), (2, 10, 3))
    assert all(type(x) is int for r in M.rows for x in r)
    assert json.loads(json.dumps(M.rows)) == rows
    # the matrix keeps its own read-only copy of the entries
    source = np.array(rows, dtype=np.int64)
    A = Matrix(F13, source)
    source[0, 0] = 9
    rows[0][0] = 9
    scratch = A.array()
    scratch[:] = 0
    assert A == M == Matrix(F13, [[1, 5, 7], [2, 10, 3]])
    assert not A.entries.flags.writeable
    with pytest.raises(ValueError):
        A.entries[0, 0] = 2
    points = [(1, 4), (3, 0), (8, 12)]
    as_numpy = [(np.int64(x), np.int32(y)) for x, y in points]
    assert interpolate(F13, as_numpy) == interpolate(F13, points)
