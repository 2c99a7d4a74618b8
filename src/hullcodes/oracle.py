"""Brute-force verification oracles, independent of the constructions.

Nothing here knows about GRS structure or certificates, and the module
imports only gf and linalg, never the modules it referees: minimum
distance comes from enumerating codewords, MDS checks fall back to
checking every k x k minor, and the hull dimension is n - rank([G; H])
with H a dual generator, the one copy of that formula (hull_report
takes its cross-check from hull_dim_oracle).  That rank comes from the
first block step of eliminating [G; H]: H is the identity on the free
columns of G's echelon form, so clearing G's free columns against it
leaves one k x k block to eliminate (see hull_dim_oracle), and no Gram
matrix is formed.  These are the referees
for everything the constructive modules claim.  LinearCode, the plain
code they take, lives here for that reason.

A LinearCode is immutable, so it keeps what the referees derive from
it alone, each computed on first use: the rref of G (read-only), which
hull.linear_code's full-rank check, the dual basis and the minor check
share; the stacked hull dimension; and the minimum distance, whose
budget min_distance checks on every call.  So a code's referee work
runs once.  The referees stay independent: a result belongs to one
code object (there is no process-wide or value-keyed cache, so two
equal codes each do their own work), an exception is never kept (a
failing check fails on every call), and hull_report's Gram route reads
none of these results, so its hull dimension comes from G G^T alone.

Both brute-force checks run on the field's array ops (gf.py), with one
route for every field up to MAX_Q.  The minor check reduces G once to
the systematic form [I | A]; the code is MDS iff every square
submatrix of A is nonsingular (MacWilliams and Sloane, Ch. 11 Sec. 4;
Roth and Seroussi, IEEE Trans. Inf. Theory 31(6), 1985).  It builds
the i x i minors of A level by level, each from the level below by a
Laplace expansion, and stops at the first level that holds a zero, so a
zero entry of A ends it at level 1.  Beside the two levels it holds, a
step works on blocks of at most _BLOCK minors.  Enumeration covers one
projective representative per 1-dimensional message subspace (first
nonzero message digit normalized to 1), which reaches all nonzero
weights with (q^k - 1)/(q - 1) codewords.  It keeps span tables, as
minimum-distance searches do (Grassl, 2006): the words of
span(G[k - s:]) for each s whose q^s words fit in _CHUNK, each level
built from the one below.  A lead row whose free rows one table covers
gets each word with one addition; above the largest table, the high
free rows give offsets, each added to that table.  So every word array
has at most _CHUNK rows, and the tables together fewer than
2 _CHUNK.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field
from .linalg import LinalgError, Matrix, _null_pivot_block, _rref_array


@dataclass(frozen=True)
class LinearCode:
    """The row space of a full-row-rank generator over a field; it keeps
    its echelon form, stacked hull dimension and minimum distance once
    computed (see the module docstring)."""

    field: Field
    generator: Matrix

    @property
    def n(self) -> int:
        return self.generator.ncols

    @property
    def k(self) -> int:
        return self.generator.nrows

    @cached_property
    def echelon(self) -> tuple[np.ndarray, int, tuple]:
        """(R, rank, pivots), the rref of the generator, R read-only."""
        R, rk, pivots = _rref_array(self.field, self.generator.array())
        R.flags.writeable = False
        return R, rk, pivots

    @cached_property
    def _stacked_hull_dim(self) -> int:
        """n - rank([G; H]), H the null basis of G (a dual generator),
        by the first block step of eliminating [G; H] (see hull_dim_oracle)."""
        f, (R, rk, pivots) = self.field, self.echelon
        if rk != self.k:
            raise LinalgError("generator matrix is not full row rank")
        # H, the null basis of G, is the identity on the free columns and
        # H_piv on the pivot columns
        free, H_piv = _null_pivot_block(f, R, rk, pivots)
        G = self.generator.entries
        # G - G[:, free] H, on the pivot columns; its free columns are 0
        block = f.sub_array(G[:, list(pivots)], f.matmul_array(G[:, free], H_piv))
        return self.k - _rref_array(f, block)[1]

    @cached_property
    def _min_distance(self) -> int:
        return _enumerated_min_distance(self)


class BudgetError(RuntimeError):
    """The requested brute-force check exceeds the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_codewords: int = 10**6
    max_minor_k: int = 5


DEFAULT_BUDGET = OracleBudget()

# words per array of the codeword walk: the largest span table, and the
# offsets times the table a step adds; bounds the (words, n) int64 arrays
_CHUNK = 1 << 12

# minors per block of a level; bounds the arrays a level step holds
# beside the two levels
_BLOCK = 1 << 15


def min_distance(code: LinearCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum distance by exhaustive enumeration.  Every call
    checks the budget; the enumeration runs once per code."""
    q, k = code.field.q, code.k
    if q**k > budget.max_codewords:
        raise BudgetError(
            f"enumerating q^k = {q}^{k} codewords exceeds the budget of "
            f"{budget.max_codewords}"
        )
    return code._min_distance


def _enumerated_min_distance(code: LinearCode) -> int:
    f = code.field
    q = f.q
    k, n = code.k, code.n
    G = code.generator.entries
    # tables[s] is span(G[k - s:]), q^s words: the next row's q multiples
    # added to the level below (level 0, the zero word, is left implicit)
    tables = [None]
    scalars = np.arange(q)[:, None]
    while len(tables) < k and q ** len(tables) <= _CHUNK:
        multiples = f.mul_array(scalars, G[k - len(tables)])
        if len(tables) > 1:
            multiples = f.add_array(multiples[:, None], tables[-1]).reshape(-1, n)
        tables.append(multiples)
    best = n
    for j in range(k):
        # messages with digits 0..j-1 zero and digit j equal to 1: the
        # low free rows come from a table, the high ones from an offset
        s = min(k - 1 - j, len(tables) - 1)
        high = G[j + 1 : k - s]
        total = q ** len(high)
        step = _CHUNK // q**s
        for start in range(0, total, step):
            rem = np.arange(start, min(start + step, total))
            offsets = G[j]
            for row in high:
                rem, digit = np.divmod(rem, q)
                offsets = f.add_array(offsets, f.mul_array(digit[:, None], row))
            words = f.add_array(offsets[..., None, :], tables[s]) if s else offsets
            best = min(best, int(np.count_nonzero(words, axis=-1).min()))
            if best == 1:
                return 1
    return best


def is_mds(code: LinearCode, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Whether d = n - k + 1, by enumeration when affordable and by
    checking that every k x k minor of G is nonzero otherwise."""
    q, k, n = code.field.q, code.k, code.n
    if q**k <= budget.max_codewords:
        return min_distance(code, budget) == n - k + 1
    if k <= budget.max_minor_k:
        return _all_minors_nonzero(code)
    raise BudgetError(
        f"MDS check for q = {q}, [n, k] = [{n}, {k}] exceeds both the "
        f"codeword budget ({budget.max_codewords}) and the minor budget "
        f"(k <= {budget.max_minor_k})"
    )


def _all_minors_nonzero(code: LinearCode) -> bool:
    """Whether every k x k minor of G is nonzero.

    G is reduced once to [I | A].  If the pivots are not the first k
    columns, the minor on those columns is zero.  Otherwise the k x k
    minor of [I | A] on the columns S of I and T of A is, up to sign,
    the minor of A on the rows outside S and the columns T, and every
    square minor of A arises so: the check is that every square
    submatrix of A is nonsingular."""
    f, k = code.field, code.k
    R, _, pivots = code.echelon
    if pivots != tuple(range(k)):
        return False
    A = R[:, k:]
    # transposing keeps every square minor; rows are the shorter side
    levels = _minor_levels(f, A.T if len(A) > A.shape[1] else A)
    return all(level is not None for level in levels)


def _minor_levels(f: Field, A: np.ndarray):
    """The levels of square minors of A (rows <= columns), up to the
    first that holds a zero, which is given as None.

    Level 1 is A, and level i holds every i x i minor at [rank of its
    row subset, rank of its column subset], built from level i - 1 by
    _minors_level, so a consumer that stops at None computes no level
    above the first failing one."""
    if not A.all():
        yield None
        return
    yield A
    nrows, ncols = A.shape
    binom = _binomials(ncols)
    # signed[j % 2] is (-1)^j A, the signs of the Laplace expansion
    signed = np.stack([A, f.sub_array(0, A)])
    below = A
    for i in range(2, nrows + 1):
        below = _minors_level(f, signed, below, i, binom)
        yield below
        if below is None:
            return


def _minors_level(f: Field, signed: np.ndarray, below: np.ndarray, i: int, binom):
    """Every i x i minor of A = signed[0] from the (i - 1) x (i - 1)
    minors below, or None at the first block that holds a zero.

    Laplace expansion along the first row r of the row subset R:
    det[R, C] = sum_j (-1)^j A[r, c_j] det[R - r, C - c_j].  Column
    subsets are taken _BLOCK // (C(nrows, i) + i) at a time, so every
    array the step holds beside the two levels has at most _BLOCK
    entries."""
    _, nrows, ncols = signed.shape
    rows = np.array(list(itertools.combinations(range(nrows), i)), dtype=np.intp)
    first = signed[:, rows[:, 0]]
    rest = _subset_rank(rows[:, 1:], nrows, binom)[:, None]
    # the smallest dtype that holds every element
    out = np.empty((len(rows), binom[ncols, i]), dtype=np.min_scalar_type(f.q - 1))
    subsets = itertools.combinations(range(ncols), i)
    block = max(1, _BLOCK // (len(rows) + i))
    for start in range(0, out.shape[1], block):
        cols = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, block)),
            dtype=np.intp,
        ).reshape(-1, i)
        # rank of C - c_j: c_t sits at position t before j and t - 1 after
        tail = ncols - 1 - cols
        before = binom[tail, i - 1 - np.arange(i)]
        after = binom[tail, i - np.arange(i)]
        drop = (
            binom[ncols, i - 1] - 1
            - (np.cumsum(before, axis=1) - before)
            - (np.cumsum(after[:, ::-1], axis=1)[:, ::-1] - after)
        )
        det = f.mul_array(first[0][:, cols[:, 0]], below[rest, drop[:, 0]])
        for j in range(1, i):
            term = f.mul_array(first[j % 2][:, cols[:, j]], below[rest, drop[:, j]])
            det = f.add_array(det, term)
        if not det.all():
            return None
        out[:, start : start + len(cols)] = det
    return out


def _binomials(n: int) -> np.ndarray:
    """C(a, b) at [a, b] for 0 <= a, b <= n (0 when b > a)."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, n + 1):
        table[a, 1:] = table[a - 1, 1:] + table[a - 1, :-1]
    return table


def _subset_rank(S: np.ndarray, n: int, binom) -> np.ndarray:
    """Lexicographic rank of each sorted row of S among the
    S.shape[1]-subsets of range(n): C(n, t) - 1 - sum_j C(n-1-s_j, t-j)."""
    t = S.shape[1]
    return binom[n, t] - 1 - binom[n - 1 - S, t - np.arange(t)].sum(axis=1)


def hull_dim_oracle(code: LinearCode) -> int:
    """dim(C intersect C-dual) as n - rank([G; H]), bypassing the Gram
    matrix route used by hull_report; computed once per code.

    H, the null basis of G, is the identity on the free columns of G's
    echelon form.  So subtracting G[:, free] H from G clears G's free
    columns without changing the row space of [G; H], and then
    rank [G; H] = (n - k) + rank of the k x k block left on the pivot
    columns: the hull dimension is k minus that rank.  This is the first
    block step of eliminating [G; H] (Dumas, Giorgi and Pernet, ACM TOMS
    35(3), 2008).  Of H it builds only the pivot columns, (n - k) x k,
    never the whole (n - k) x n basis, and it forms no Gram matrix."""
    return code._stacked_hull_dim


def ternary_4_2_census(budget: OracleBudget = DEFAULT_BUDGET):
    """Hull-dimension histogram over all ternary [4, 2, 3] codes.

    Enumerates every 2-dimensional subspace of GF(3)^4 via canonical
    RREF matrices (there are 130), keeps those with minimum distance 3,
    and tallies their hull dimensions by hull_dim_oracle.  The histogram
    has no codes with hull dimension 1.
    """
    f = Field(3)
    histogram = {0: 0, 1: 0, 2: 0}
    total = 0
    mds_total = 0
    for p1, p2 in itertools.combinations(range(4), 2):
        slots = [(0, c) for c in range(p1 + 1, 4) if c != p2]
        slots += [(1, c) for c in range(p2 + 1, 4)]
        for entries in itertools.product(range(3), repeat=len(slots)):
            rows = [[0] * 4 for _ in range(2)]
            rows[0][p1] = 1
            rows[1][p2] = 1
            for (r, c), val in zip(slots, entries):
                rows[r][c] = val
            total += 1
            code = LinearCode(f, Matrix(f, rows))
            if min_distance(code, budget) != 3:
                continue
            mds_total += 1
            histogram[hull_dim_oracle(code)] += 1
    if total != 130:  # the Gaussian binomial [4 choose 2]_3
        raise RuntimeError(f"census enumerated {total} subspaces, expected 130")
    return {"subspaces": total, "mds": mds_total, "hull_histogram": histogram}
