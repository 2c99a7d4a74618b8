"""Dense matrices and univariate polynomials over a finite field.

Everything is exact Gaussian elimination; there are no numerical
concerns, so pivoting just takes the first nonzero entry.  Polynomials
are lists of element encodings, constant term first, with no trailing
zeros (the zero polynomial is the empty list, of degree -1).

rref, nullspace, products (lincomb, which Matrix.matmul calls),
interpolation (interpolate_batch) and evaluation at many points
(poly_eval_array) run on whole int64 arrays.  Over GF(p), Gauss-Jordan
makes one fused integer multiply-subtract per pivot and reduces the
matrix mod p once, at the end (delayed reduction), and a product is
A @ B % p.  Over GF(p^m), m > 1, each pivot scales and updates the
matrix through the field's exp/log/Zech tables (see gf.py).  A batch of
interpolations takes O(n) array steps.  Each input is checked once, as
it is converted (Field.asarray): a Matrix is one read-only int64 array,
and Matrix.rows (Python ints) is built only when read, for output.
determinant and the polynomial helpers stay scalar.
"""

from __future__ import annotations

import numpy as np

from .gf import Field, FieldError


class LinalgError(ValueError):
    pass


class Matrix:
    """Immutable matrix over a Field: entries, one read-only int64 array."""

    __slots__ = ("field", "entries", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        if not isinstance(rows, np.ndarray):
            rows = [tuple(r) for r in rows]
            if any(len(r) != len(rows[0]) for r in rows):
                raise LinalgError("ragged rows")
            if not rows and ncols is None:
                raise LinalgError("empty matrix needs an explicit column count")
            rows = rows or np.zeros((0, ncols), dtype=np.int64)
        try:
            self.entries = field.asarray(rows)  # checked, and a copy
        except FieldError:
            raise
        except ValueError as exc:  # numpy's inhomogeneous shape error
            raise LinalgError(f"matrix entries are not a 2-D array: {exc}") from None
        if self.entries.ndim != 2:
            raise LinalgError(f"matrix entries are not a 2-D array: shape {self.entries.shape}")
        self.field = field
        self.entries.flags.writeable = False
        self.nrows, self.ncols = self.entries.shape

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of Python ints, for output."""
        return tuple(map(tuple, self.entries.tolist()))

    def array(self) -> np.ndarray:
        """A writable copy of the entries."""
        return self.entries.copy()

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.entries.T)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinalgError("dimension mismatch")
        return Matrix(self.field, lincomb(self.field, self.entries, other.entries))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and np.array_equal(self.entries, other.entries))

    def __hash__(self):
        return hash((self.field, self.entries.shape, self.entries.tobytes()))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over GF({self.field.q}))"


def rref(M: Matrix):
    """Reduced row echelon form: (R, rank, pivot_columns)."""
    A, r, pivots = _rref_array(M.field, M.array())
    return Matrix(M.field, A), r, pivots


def _rref_array(f: Field, A: np.ndarray):
    """rref of an int64 array of elements, which it overwrites; the
    result's entries are elements.

    Over GF(p) each pivot takes one fused multiply-subtract on plain
    integers, and the matrix is reduced mod p once, at the end (delayed
    reduction; Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Over
    GF(p^m), m > 1, each pivot scales and updates the matrix through the
    field's exp/log/Zech tables."""
    prime = f.m == 1
    pivots = []
    r = 0
    for c in range(A.shape[1]):
        if r == A.shape[0]:
            break
        # over GF(p) entries drift from their residues between pivots;
        # only the pivot column and the pivot row are reduced, so both
        # factors of every product below lie in 0..p-1
        coef = A[:, c] % f.p if prime else A[:, c].copy()
        nonzero = coef[r:].nonzero()[0]
        if nonzero.size == 0:
            continue
        i = r + nonzero[0]
        if i != r:
            A[r], A[i] = A[i], A[r].copy()
            coef[r], coef[i] = coef[i], coef[r]
        inv = f.inv(int(coef[r]))
        coef[r] = 0
        # row r is zero left of c, so only columns c.. change
        if prime:
            A[r, c:] = row = A[r, c:] % f.p * inv % f.p
            # |entry| < p + t (p-1)^2 after t pivots: below 2^49 for
            # p < 2^16 and t < 2^17 (no matrix with 2^34 entries fits in
            # memory), far inside int64
            A[:, c:] -= coef[:, None] * row
        else:
            A[r, c:] = row = f.mul_array(inv, A[r, c:])
            A[:, c:] = f.sub_array(A[:, c:], f.mul_array(coef[:, None], row))
        pivots.append(c)
        r += 1
    if prime:
        A %= f.p
    return A, r, tuple(pivots)


def rank(M: Matrix) -> int:
    return _rref_array(M.field, M.array())[1]


def nullspace(M: Matrix) -> Matrix:
    """Basis rows of {x : M x^T = 0}; row count = ncols - rank."""
    return Matrix(M.field, _null_basis(M.field, *_rref_array(M.field, M.array())))


def _null_basis(f: Field, R: np.ndarray, rk: int, pivots) -> np.ndarray:
    """Basis rows of {x : M x^T = 0} from the rref (R, rk, pivots) of M,
    an int64 array of ncols - rk rows; R is only read."""
    ncols = R.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    # row t: 1 at free column free[t], -R[i, free[t]] at pivot column i
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = f.sub_array(0, R[:rk, free]).T
    return basis


def dual_generator(G: Matrix) -> Matrix:
    """Full-row-rank generator of the Euclidean dual of the row space of G."""
    H = nullspace(G)
    if H.nrows != G.ncols - G.nrows:
        raise LinalgError("generator matrix is not full row rank")
    return H


def row_space_equal(A: Matrix, B: Matrix) -> bool:
    """Row spaces compared via their canonical RREFs."""
    (RA, ra, _), (RB, rb, _) = rref(A), rref(B)
    return np.array_equal(RA.entries[:ra], RB.entries[:rb])


def determinant(M: Matrix) -> int:
    """Scalar Gaussian elimination.  No route of the package calls it:
    it is the tests' reference, and it stays here because
    perfbench/tracing.py patches linalg.determinant by name."""
    if M.nrows != M.ncols:
        raise LinalgError("determinant of a non-square matrix")
    f = M.field
    rows = M.entries.tolist()
    det = 1
    for c in range(M.ncols):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = f.neg(det)
        det = f.mul(det, rows[c][c])
        inv = f.inv(rows[c][c])
        for i in range(c + 1, len(rows)):
            if rows[i][c] != 0:
                coef = f.mul(inv, rows[i][c])
                rows[i] = [f.sub(x, f.mul(coef, y)) for x, y in zip(rows[i], rows[c])]
    return det


# --- polynomials ---


def poly_trim(c) -> list[int]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_deg(fx) -> int:
    """Degree; -1 stands in for the zero polynomial."""
    return len(fx) - 1


def poly_coeff(fx, i: int) -> int:
    return fx[i] if 0 <= i < len(fx) else 0


def poly_eval_array(f: Field, fx, xs) -> np.ndarray:
    """fx at every entry of the array xs, one Horner step per coefficient."""
    acc = np.zeros(np.shape(xs), dtype=np.int64)
    for c in f.asarray(fx)[::-1]:
        acc = f.add_array(f.mul_array(acc, xs), c)
    return acc


def lincomb(f: Field, X, M) -> np.ndarray:
    """X M for a 2-D array M and a vector or 2-D array X: each row x of
    X gives sum_j x_j M[j].  The one field matrix product."""
    if f.m == 1:
        # exact in int64: (p - 1)^2 * len(x) < 2^48 for q <= MAX_Q
        return X @ M % f.p
    if X.ndim == 2:
        # row by row, so memory stays O(M.size)
        return np.array([lincomb(f, x, M) for x in X], dtype=np.int64).reshape(len(X), M.shape[1])
    return f.sum_array(f.mul_array(X[:, None], M), axis=0)


def node_weights(f: Field, xs) -> tuple[np.ndarray, np.ndarray]:
    """(P, w) for distinct nodes xs (an int64 array of elements).

    P holds the coefficients of P = prod_j (x - x_j), constant term
    first, and w_i = 1 / prod_{j != i} (x_i - x_j), which is 1 / P'(x_i).
    Both take O(n) array steps and O(n) memory.
    """
    n = len(xs)
    P = np.zeros(n + 1, dtype=np.int64)
    P[0] = 1
    for x in xs:
        # P <- (x - x_j) P; P's top entry is still 0
        P = f.sub_array(np.concatenate(([0], P[:-1])), f.mul_array(x, P))
    # P' = sum_j j P_j x^(j-1); the integer j is the element j % p
    dP = f.mul_array(np.arange(1, n + 1) % f.p, P[1:])
    return P, f.inv_array(poly_eval_array(f, dP, xs))


def interpolate_batch(f: Field, xs, Y, P, w) -> np.ndarray:
    """Untrimmed coefficient rows of the interpolants through
    (xs_i, Y[r, i]), one per row of Y: sum_i Y[r, i] w_i P(x) / (x - x_i)
    with P and w the node_weights of xs (Berrut and Trefethen, SIAM Rev.
    46(3), 2004).  The n synthetic divisions P / (x - x_i) do not depend
    on Y, so they run once, in lockstep, for the whole batch: O(n) array
    steps and O(n * rows) memory, never an n x n array."""
    C = f.mul_array(Y, w)
    out = np.zeros(C.shape, dtype=np.int64)
    quot = np.zeros(len(xs), dtype=np.int64)
    for j in range(len(xs), 0, -1):
        # quot_i = coefficient j-1 of P / (x - x_i)
        quot = f.add_array(P[j], f.mul_array(xs, quot))
        out[:, j - 1] = lincomb(f, quot, C.T)
    return out


def interpolate(f: Field, points) -> list[int]:
    """Unique polynomial of degree <= n-1 through n points with distinct
    x coordinates (interpolate_batch with one row)."""
    points = list(points)
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise LinalgError("duplicate interpolation nodes")
    if not points:
        raise LinalgError("no interpolation points")
    xs = f.asarray(xs)
    ys = f.asarray([y for _, y in points])
    return poly_trim(interpolate_batch(f, xs, ys[None], *node_weights(f, xs))[0].tolist())
