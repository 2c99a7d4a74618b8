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
summed a block of rows at a time over GF(p^m).  Elimination stops once
the rows below the pivots found are zero.  Evaluation is a product with
the Vandermonde matrix and interpolation one with the weighted power
sums C V and a Hankel matrix of the node polynomial P = prod_j (x - x_j);
both build V's column blocks from its first (baby steps and giant
steps) and take the points, or the Hankel columns, a block at a time.
P comes from a product tree of ceil(log2 n) levels, each a batch of
outer products of pairs and their skew sums, by one rule for every
field and level: the products enter the field's sum domain
(Field._product) and are summed there.  node_weights takes a batch of
point sets: their trees run through one pass of levels, the shorter
sets padded with the constant 1, and every P' is evaluated at its own
points by one poly_eval_array with a leading batch axis, so a batch
makes the array steps of one set.  On n points (for evaluation: a
polynomial of length n, at any number of points) every step of these
kernels holds at most max(gf._BLOCK, n floor(sqrt(n))) entries (in all
the sets of a batch, unless one entry per set already holds more),
never an n x n array: up to a few hundred points that is one step, and
past them O(sqrt(n)) steps.
Each input is checked once, as it is converted (Field.asarray): a
Matrix is one read-only int64 array, an array the field's ops made is
wrapped without a second check, and Matrix.rows (Python ints) is built
only when read, for output.  determinant and the polynomial helpers
stay scalar.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import gf
from .gf import Field, FieldError


class LinalgError(ValueError):
    pass


class Matrix:
    """Immutable matrix over a Field: entries, one read-only int64 array."""

    __slots__ = ("field", "entries", "nrows", "ncols")

    def __init__(self, field: Field, rows, ncols: int | None = None):
        if not isinstance(rows, np.ndarray):
            rows = [tuple(r) for r in rows]
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

    @classmethod
    def _wrap(cls, field: Field, array: np.ndarray) -> "Matrix":
        """A Matrix on a 2-D int64 array of elements that the field's ops
        made, taken as it is and made read-only: it came from checked
        arrays, so it is not checked again."""
        M = object.__new__(cls)
        array.flags.writeable = False
        M.field, M.entries = field, array
        M.nrows, M.ncols = array.shape
        return M

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of rows of Python ints, for output."""
        return tuple(map(tuple, self.entries.tolist()))

    def array(self) -> np.ndarray:
        """A writable copy of the entries."""
        return self.entries.copy()

    def transpose(self) -> "Matrix":
        return Matrix._wrap(self.field, self.entries.T)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinalgError("dimension mismatch")
        return Matrix._wrap(self.field, self.field.matmul_array(self.entries, other.entries))

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
    return Matrix._wrap(M.field, A), r, pivots


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
    (nrows, ncols), r, c = A.shape, 0, 0
    while r < nrows and c < ncols:
        # over GF(p) entries drift from their residues between pivots;
        # only the pivot column and the pivot row are reduced, so both
        # factors of every product below lie in 0..p-1
        coef = A[:, c] % f.p if prime else A[:, c].copy()
        nonzero = coef[r:].nonzero()[0]
        if nonzero.size == 0:
            # a column that is zero from row r down stays so, since those
            # rows change only by multiples of one of them: stop if every
            # column is, else go on at the next one that is not
            rest = A[r:, c + 1 :] % f.p if prime else A[r:, c + 1 :]
            if not np.count_nonzero(rest):
                break
            c += 1 + int(rest.any(axis=0).argmax())
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
        c += 1
    if prime:
        A %= f.p
    return A, r, tuple(pivots)


def rank(M: Matrix) -> int:
    return _rref_array(M.field, M.array())[1]


def nullspace(M: Matrix) -> Matrix:
    """Basis rows of {x : M x^T = 0}; row count = ncols - rank."""
    return Matrix._wrap(M.field, _null_basis(M.field, *_rref_array(M.field, M.array())))


def _null_basis(f: Field, R: np.ndarray, rk: int, pivots) -> np.ndarray:
    """The null basis of M from its rref (R, rk, pivots), an int64 array
    of ncols - rk rows; R is only read."""
    free, block = _null_pivot_block(f, R, rk, pivots)
    # row t: 1 at free column free[t], -R[i, free[t]] at pivot column i
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = block
    return basis


def _null_pivot_block(f: Field, R: np.ndarray, rk: int, pivots) -> tuple[np.ndarray, np.ndarray]:
    """(free, block) for the rref (R, rk, pivots) of M: the free columns,
    and the null basis of M on the pivot columns, -R[:rk, free]^T,
    (ncols - rk) x rk.  On the free columns the basis is the identity,
    so the two give all of it; R is only read."""
    free = np.ones(R.shape[1], dtype=bool)
    free[list(pivots)] = False
    free = free.nonzero()[0]
    # a transpose, so each column is contiguous: a product with the block
    # reads columns
    return free, f.sub_array(0, R[:rk].take(free, axis=1)).T


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
    c the coefficients.  Given a batch, fx of shape (b, d) and xs of b
    rows, row i of fx is evaluated at row i of xs.

    Column block b of V is diag(x_i^(bB)) times the first block V_B, so
    V c = sum_b x_i^(bB) (V_B c_b), c_b the b-th run of B coefficients:
    one product V_B [c_0 ... c_{nb-1}] and one row sum, with B and nb
    about sqrt(len(fx)) (the baby-step giant-step split of Paterson and
    Stockmeyer, SIAM J. Comput. 2(1), 1973).  A batch makes the same
    calls, each with a leading batch axis.  The points are taken a
    block at a time (_block_rows, in every member of the batch at once),
    sized by the length of fx: so a low-degree polynomial at many points
    takes several small steps, and one of degree about n at n points the
    steps of n.  A constant, such as the certificate of a seed on the
    whole field, takes no powers."""
    runs = f.asarray(fx)
    runs = runs if runs.ndim == 2 else runs[None]
    (b, d), x = runs.shape, np.reshape(xs, (len(runs), -1))
    if d <= 1:
        out = np.zeros(x.shape, dtype=np.int64)
        out += runs if d else 0
        return out.reshape(np.shape(xs))
    B, nb = _split(d)
    # column j of coeffs[i] is c_j of fx_i
    coeffs = np.zeros((b, nb * B), dtype=np.int64)
    coeffs[:, :d] = runs
    coeffs = coeffs.reshape(b, nb, B).swapaxes(1, 2)
    exps = np.array([*range(B), *range(0, B * nb, B)])[:, None]
    out = np.empty(x.shape, dtype=np.int64)
    step = _block_rows(b * (B + nb), d)
    for start in range(0, x.shape[1], step):
        # powers[i, j, e] = x[i, j]^e: taken with the points last, so
        # each array step runs along x, and then laid out by points
        powers = f.pow_array(x[:, None, start : start + step], exps)
        powers = np.ascontiguousarray(powers.swapaxes(1, 2))
        E = f.matmul_array(powers[..., :B], coeffs)
        out[:, start : start + step] = f._sum(f._product(E, powers[..., B:]), -1)
    return out.reshape(np.shape(xs))


def _block_entries(n: int) -> int:
    """The entries a step of a polynomial kernel on inputs of length n
    may hold: max(gf._BLOCK, n floor(sqrt(n))).  So inputs of a few
    hundred points take one step, and larger ones O(sqrt(n)) steps."""
    return max(gf._BLOCK, n * math.isqrt(n))


def _block_rows(width: int, n: int) -> int:
    """Rows of width entries per step (_block_entries(n) in all), at
    least one."""
    return max(1, _block_entries(n) // max(width, 1))


def _split(d: int) -> tuple[int, int]:
    """(B, nb): d exponents as nb runs of B = ceil(sqrt(d)), d >= 1."""
    B = math.isqrt(d - 1) + 1
    return B, -(-d // B)


def node_weights(f: Field, point_sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """(P, w) for each set of distinct nodes in point_sets, a nonempty
    list of int64 arrays of elements.

    P holds the coefficients of P = prod_j (x - x_j), constant term
    first, and w_i = 1 / prod_{j != i} (x_i - x_j), which is 1 / P'(x_i).
    The sets are padded to the longest, n nodes: every set's tree runs
    in one pass of levels (_node_polynomials), and every P' is evaluated
    at its own nodes by one poly_eval_array with a batch axis, where the
    values past a set's nodes are dropped.  So a batch costs about as
    many array steps as one set, and as much array work as its count
    times n.
    """
    sizes = [len(nodes) for nodes in point_sets]
    n = max(sizes)
    # live[i, j]: whether row i of the padded batch holds a node at j
    live = np.arange(n) < np.array(sizes)[:, None]
    xs = np.zeros(live.shape, dtype=np.int64)
    xs[live] = np.concatenate(point_sets)
    P = _node_polynomials(f, xs, live)
    # P' = sum_j j P_j x^(j-1); the integer j is the element j % p
    values = poly_eval_array(f, f.mul_array(np.arange(1, n + 1) % f.p, P[:, 1:]), xs)
    values[~live] = 1  # past a set's nodes, where no weight is taken
    w = f.inv_array(values)
    return [(P[i, : k + 1], w[i, :k]) for i, k in enumerate(sizes)]


def _node_polynomials(f: Field, xs: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Row i holds the coefficients of prod_j (x - x_j) over the nodes of
    row i of xs, the entries where row i of live is True (a prefix of
    the row), then zeros: b x (n + 1) for xs of shape (b, n).

    Each set's product tree (the subproduct tree of von zur Gathen and
    Gerhard, Modern Computer Algebra, 3rd ed., 2013, Sec. 10.1) starts
    from the factors x - x_j, rows of width 4 holding a polynomial of
    degree below w = 2, and each level (_tree_level) multiplies its
    polynomials in pairs, so n nodes take ceil(log2 n) levels.  A
    shorter set is padded with the constant 1 to n factors, so at each
    level every set holds as many rows, and a level whose count of rows
    is odd gives each set one more constant 1, the pad.  So all the
    sets run through each level at once, and no pair spans two sets."""
    b, n = xs.shape
    rows = _padded(b, n, 4)
    rows[:, :n, 0] = np.where(live, f.sub_array(0, xs), 1)
    rows[:, :n, 1] = live
    w, limit = 2, _block_entries(n)
    while rows.shape[1] > 1:
        rows, w = _tree_level(f, rows, w, limit), 2 * w - 1
    return rows[:, 0, : n + 1]


def _padded(b: int, count: int, width: int) -> np.ndarray:
    """Zeros for b sets of count rows of the given width, and one more
    row per set, the constant 1, when count is odd and above 1: the pad
    that gives every set of the next level an even count of rows."""
    pad = count > 1 and count % 2
    out = np.zeros((b, count + pad, width), dtype=np.int64)
    if pad:
        out[:, count, 0] = 1
    return out


def _tree_level(f: Field, rows: np.ndarray, w: int, limit: int) -> np.ndarray:
    """For each set of rows (b sets of an even count, rows[i]), the
    products of its rows 2j and 2j + 1, and the pad (_padded).  A row
    holds a polynomial of degree below w and then at least w zeros; so
    do the rows returned, of width 2w - 1.

    The products of a pair are the outer product of its rows, and the
    product polynomial its skew sums: coefficient s sums the entries
    (t, s - t).  With the second row's first r zeros, row t of a block
    of r rows of that outer product, read flat in rows of w + r - 1
    entries, is shifted right by t, so the skew sums are column sums.
    A step takes a block of pairs of every set and r rows of their outer
    products, at most limit entries unless one pair per set holds more.
    The outer products are values of the field's sum domain
    (Field._product), and their column sums are taken there
    (Field._sum)."""
    b, pairs = len(rows), rows.shape[1] // 2
    r = min(w, max(1, limit // (2 * w * b)))
    step = max(1, limit // (b * r * (w + r)))
    out = _padded(b, pairs, 4 * w - 2)
    A, B = rows[:, 0::2, :w], rows[:, 1::2, None, : w + r]
    products = out[:, :pairs, : 2 * w - 1]
    for start in range(0, pairs, step):
        for t in range(0, w, r):
            part = A[:, start : start + step, t : t + r]
            m, rr = part.shape[1:]
            outer = f._product(part[..., None], B[:, start : start + step])
            skew = outer.reshape(b, m, -1)[..., : rr * (w + r - 1)].reshape(b, m, rr, w + r - 1)
            # coefficients t .. t + w + r - 2 of the block's products,
            # all 0 past 2w - 2
            block = products[:, start : start + step, t : t + w + r - 1]
            sums = f._sum(skew, 2)[..., : block.shape[-1]]
            block[...] = sums if t == 0 else f.add_array(block, sums)
    return out


def weighted_power_sums(f: Field, xs, C) -> np.ndarray:
    """C V: row r holds sum_i C[r, i] x_i^s for s < n = len(xs), with
    V[i, s] = x_i^s as in poly_eval_array.

    C V takes V's column blocks from its first, as poly_eval_array does:
    CV[r, b, t] = sum_i C[r, i] x_i^(bB) x_i^t, a block of nodes at a
    time (_block_rows), and the blocks add up.  So it makes O(sqrt(n))
    array steps, not n."""
    rows, n = C.shape
    B, nb = _split(n)
    exps = np.array([*range(B), *range(0, B * nb, B)])[:, None]
    step = _block_rows(B + nb + rows * (nb + 1), n)
    for start in range(0, n, step):
        # powers[e, i] = x_i^e, as in poly_eval_array
        powers = f.pow_array(xs[start : start + step], exps)
        scaled = f.mul_array(C[:, None, start : start + step], powers[B:])
        terms = f.matmul_array(scaled.reshape(rows * nb, powers.shape[1]), powers[:B].T)
        CV = terms if start == 0 else f.add_array(CV, terms)
    return CV.reshape(rows, nb * B)[:, :n]


def interpolate_batch(f: Field, xs, Y, P, w) -> np.ndarray:
    """Untrimmed coefficient rows of the interpolants through
    (xs_i, Y[r, i]), one per row of Y: sum_i Y[r, i] w_i P(x) / (x - x_i)
    with P and w the node_weights of xs (Berrut and Trefethen, SIAM Rev.
    46(3), 2004).

    P(x) / (x - x_i) = sum_j x^j sum_s x_i^s P_(j+1+s), so the rows are
    (C V) Hk with C = Y w, C V the weighted power sums and the Hankel
    matrix Hk[s, j] = P_(j+1+s) (0 past P's top).  Hk is read as
    windows of P, B columns at a time, with the terms that vanish past
    P's top left out."""
    rows, n = Y.shape
    CV = weighted_power_sums(f, xs, f.mul_array(Y, w))
    # window row j is P_(j+1) .. P_(j+n), zero past P's top: column j of
    # Hk.  Its columns are taken a block at a time, and from column
    # start on the terms s >= n - start vanish
    tail = np.concatenate([P[1:], np.zeros(n - 1, dtype=np.int64)])
    out = np.empty((n, rows), dtype=np.int64)
    step = _block_rows(n, n)
    for start in range(0, n, step):
        cols = min(step, n - start)
        window = as_strided(tail[start:], (cols, n - start), 2 * tail.strides, writeable=False)
        out[start : start + cols] = f.matmul_array(window, CV[:, : n - start].T)
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
    return poly_trim(interpolate_batch(f, xs, ys[None], *node_weights(f, [xs])[0])[0].tolist())
