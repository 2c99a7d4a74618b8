"""Dense matrices and univariate polynomials over a finite field.

Everything is exact Gaussian elimination; there are no numerical
concerns, so pivoting just takes the first nonzero entry.  Polynomials
are lists of element encodings, constant term first, with no trailing
zeros (the zero polynomial is the empty list, of degree -1).

rref, nullspace, products (Matrix.matmul), interpolation
(interpolate_batch) and evaluation at many points (poly_eval_array) run
on whole int64 arrays.  Over GF(p), Gauss-Jordan makes one fused integer
multiply-subtract per pivot and reduces the matrix mod p once, at the
end (delayed reduction).  Over GF(p^m), m > 1, each pivot scales and
updates the matrix through the field's exp/log/Zech tables (see gf.py).
A product is Field.matmul_array: A @ B % p over GF(p), table lookups
summed a block of rows at a time over GF(p^m).  Evaluation is a product
with the Vandermonde matrix and interpolation one with the Vandermonde
and a Hankel matrix of the node polynomial; both build V's column blocks
from its first (baby steps and giant steps) and take the points, or the
Hankel columns, a block at a time.  On n points they hold O(n) entries
at a time, never an n x n array; over GF(p) that is O(sqrt(n)) array
steps, and over GF(p^m), whose products are formed as arrays, O(n) of
them.  Each input is checked once, as it is converted (Field.asarray): a
Matrix is one read-only int64 array, and Matrix.rows (Python ints) is
built only when read, for output.  determinant and the polynomial
helpers stay scalar.
"""

from __future__ import annotations

import math

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
        return Matrix(self.field, self.field.matmul_array(self.entries, other.entries))

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
    """fx at every entry of the array xs: V c, with V[i, s] = x_i^s and
    c the coefficients.

    Column block b of V is diag(x_i^(bB)) times the first block V_B, so
    V c = sum_b x_i^(bB) (V_B c_b), c_b the b-th run of B coefficients:
    one product V_B [c_0 ... c_{nb-1}] and one row sum, with B and nb
    about sqrt(len(fx)) (the baby-step giant-step split of Paterson and
    Stockmeyer, SIAM J. Comput. 2(1), 1973).  The points are taken a
    block at a time (_block_rows).  A constant, such as the certificate
    of a seed on the whole field, takes no powers."""
    runs, x = f.asarray(fx), np.ravel(xs)
    d = len(runs)
    if d <= 1:
        return np.full(np.shape(xs), runs[0] if d else 0, dtype=np.int64)
    B, nb = _split(d)
    # column b is c_b
    runs = np.concatenate([runs, np.zeros(B * nb - d, dtype=np.int64)]).reshape(nb, B).T
    exps = np.concatenate([np.arange(B), B * np.arange(nb)])
    out = np.empty(x.shape, dtype=np.int64)
    step = _block_rows(B + nb, max(len(x), d))
    for start in range(0, len(x), step):
        powers = _powers(f, x[start : start + step], exps)
        E = f.matmul_array(powers[:, :B], runs)
        out[start : start + step] = f.sum_array(f.mul_array(E, powers[:, B:]), axis=1)
    return out.reshape(np.shape(xs))


# the fewest entries a block of the Vandermonde and Hankel products may
# hold
_BLOCK = 1 << 10


def _block_rows(width: int, n: int) -> int:
    """Rows of width entries per block, about max(n / 2, _BLOCK) entries
    in all, so that a kernel on inputs of length n holds O(n) entries at
    a time."""
    return max(1, max(n // 2, _BLOCK) // max(width, 1))


def _split(d: int) -> tuple[int, int]:
    """(B, nb): d exponents as nb runs of B = ceil(sqrt(d)), d >= 1."""
    B = math.isqrt(d - 1) + 1
    return B, -(-d // B)


def _powers(f: Field, x, exps) -> np.ndarray:
    """len(x) x len(exps): x_i^e.  Taken as the transpose, so each array
    step runs along x, not along a row as short as 2 entries, and then
    laid out by rows."""
    return np.ascontiguousarray(f.pow_array(x, exps[:, None]).T)


def node_weights(f: Field, xs) -> tuple[np.ndarray, np.ndarray]:
    """(P, w) for distinct nodes xs (an int64 array of elements).

    P holds the coefficients of P = prod_j (x - x_j), constant term
    first, and w_i = 1 / prod_{j != i} (x_i - x_j), which is 1 / P'(x_i).
    P takes n array steps; P' at the nodes is one poly_eval_array.
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
    46(3), 2004).

    P(x) / (x - x_i) = sum_j x^j sum_s x_i^s P_(j+1+s), so the rows are
    (C V) Hk with C = Y w, V[i, s] = x_i^s as in poly_eval_array and the
    Hankel matrix Hk[s, j] = P_(j+1+s) (0 past P's top).  C V takes V's
    column blocks from its first, as poly_eval_array does, a block of
    nodes at a time (_block_rows), and adds up the blocks; Hk is read as
    windows of P, B columns at a time, with the terms that vanish past
    P's top left out."""
    rows, n = Y.shape
    B, nb = _split(n)
    # CV[r, b, t] = sum_i C[r, i] x_i^(bB) x_i^t, C = Y w, summed over
    # node blocks
    CV = np.zeros((rows, nb, B), dtype=np.int64)
    exps = np.concatenate([np.arange(B), B * np.arange(nb)])
    step = _block_rows(B + nb + rows * (nb + 1), Y.size)
    for start in range(0, n, step):
        powers = _powers(f, xs[start : start + step], exps)
        C = f.mul_array(Y[:, start : start + step], w[start : start + step])
        scaled = f.mul_array(C[:, None], powers[:, B:].T)
        terms = f.matmul_array(scaled.reshape(rows * nb, len(powers)), powers[:, :B])
        CV = f.add_array(CV, terms.reshape(CV.shape))
    CV = CV.reshape(rows, nb * B)[:, :n]
    # window row j is P_(j+1) .. P_(j+n), zero past P's top: column j of
    # Hk.  Its columns are taken B at a time, and from column start on
    # the terms s >= n - start vanish
    window = np.lib.stride_tricks.sliding_window_view(np.concatenate([P[1:], np.zeros(n - 1, dtype=np.int64)]), n)
    out = np.empty((n, rows), dtype=np.int64)
    for start in range(0, n, B):
        out[start : start + B] = f.matmul_array(window[start : start + B, : n - start], CV[:, : n - start].T)
    return out.T


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
