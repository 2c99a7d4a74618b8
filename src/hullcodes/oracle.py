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
code object (no result is kept process-wide or by value, so two equal
codes each do their own work; the one process-wide cache holds index
arrays keyed by a shape, see below), an exception is never kept (a
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
step works on blocks of at most _BLOCK Laplace terms (i per minor), or
of one column subset's terms where they are more.  A block gathers both factors of all its terms at once through two flat
index arrays, one into the logs of (A, -A) and one into the logs of the
level below, so it is two takes, one table lookup at the sum of the
logs and one field sum along the term axis (Field.sum_log_products).
The index arrays depend on the shape alone: a level that fits one block
takes them from a bounded cache of plans, and a larger one builds its
blocks as it goes.
Enumeration covers one
projective representative per 1-dimensional message subspace (first
nonzero message digit normalized to 1), which reaches all nonzero
weights with (q^k - 1)/(q - 1) codewords.  It keeps one span table, as
minimum-distance searches do (Grassl, 2006): the words of
span(G[k - top:]) for the largest top < k whose q^top words fit in
_TABLE, built a row at a time, each row's q multiples added to the
table so far as the outer index.  So for every s <= top the words of
span(G[k - s:]) are the table's first q^s, and its first word is the
zero word.  The table is stored word-last, (n, q^top), so counting a
word's matches adds whole rows of the table, not the n entries of a
short last axis, which numpy reduces slowly.  A lead row whose s free
rows the table covers makes one offset, and above the table the high
free rows give offsets; each offset o meets every word t of the prefix
span(G[k - s:]).  That is a subspace, so the words o + t have the
weights n - #{i : t_i = o_i}: one comparison, no field addition, per
word.  The offsets come _CHUNK // q^s at a time, so a step compares at
most _CHUNK words (n bools each), and the table holds at most _TABLE
words of n int64.  _TABLE is well below _CHUNK: a larger table costs
more to build (and its temporaries are allocated fresh) than the walk
saves by taking fewer offsets.
The ternary census enumerates the same projective messages for all 130
of its codes at once: one product of the 4 messages with the stacked
generators gives every code's minimum distance (_min_distances), after
one check of the codeword budget, and hull_dim_oracle counts the hulls
of the MDS ones.
"""

from __future__ import annotations

import functools
import itertools
import math
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

# words per array of the codeword walk: the offsets of a step times the
# table they meet; bounds the (words, n) arrays a step holds
_CHUNK = 1 << 12

# words of the walk's span table (at most _CHUNK; chosen by timing the
# walk's inputs in the benchmark's workloads, see the module docstring)
_TABLE = 1 << 10

# minors per block of a level; bounds the arrays a level step holds
# beside the two levels
_BLOCK = 1 << 15

# level plans the cache keeps (see _cached_plan)
_PLANS = 64


def min_distance(code: LinearCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum distance by exhaustive enumeration.  Every call
    checks the budget; the enumeration runs once per code."""
    _check_codewords(code.field.q, code.k, budget)
    return code._min_distance


def _check_codewords(q: int, k: int, budget: OracleBudget) -> None:
    """BudgetError unless the q^k codewords of a code of dimension k fit
    the budget."""
    if q**k > budget.max_codewords:
        raise BudgetError(
            f"enumerating q^k = {q}^{k} codewords exceeds the budget of "
            f"{budget.max_codewords}"
        )


def _enumerated_min_distance(code: LinearCode) -> int:
    f = code.field
    q = f.q
    k, n = code.k, code.n
    G = code.generator.entries
    # table is span(G[k - top:]) word-last, (n, q^top): each next row's q
    # multiples, as the outer index, added to the table so far, so
    # span(G[k - s:]) is its prefix of q^s words for every s <= top, and
    # its first word is the zero word
    table = np.zeros((n, 1), dtype=np.int64)
    top = 0
    scalars = np.arange(q)
    while top + 1 < k and q ** (top + 1) <= min(_TABLE, _CHUNK):
        multiples = f.mul_array(G[k - 1 - top][:, None], scalars)
        table = f.add_array(multiples[:, :, None], table[:, None]).reshape(n, -1) if top else multiples
        top += 1
    # a count of matching coordinates is at most n
    count = np.min_scalar_type(n)
    best = n
    for j in range(k):
        # messages with digits 0..j-1 zero and digit j equal to 1: the
        # low free rows come from the table, the high ones from an offset
        s = min(k - 1 - j, top)
        high = G[j + 1 : k - s]
        total = q ** len(high)
        step = _CHUNK // q**s
        for start in range(0, total, step):
            rem = np.arange(start, min(start + step, total))
            offsets = G[j]
            for row in high:
                rem, digit = np.divmod(rem, q)
                offsets = f.add_array(offsets, f.mul_array(digit[:, None], row))
            # o + t has weight n - #{i : t_i = -o_i}; the table's prefix is
            # a subspace, so as t runs over it so does -t, and the words
            # o + t have the weights n - #{i : t_i = o_i}: a comparison
            # in place of an addition, counted over the coordinate axis,
            # which adds whole rows of words
            matches = (table[:, : q**s] == offsets[..., None]).sum(axis=-2, dtype=count)
            best = min(best, n - int(matches.max()))
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
    # logs[j % 2] holds the logs of (-1)^j A, the signs of the Laplace
    # expansion
    logs = f.log_array(np.stack([A, f.sub_array(0, A)]))
    below = A
    for i in range(2, len(A) + 1):
        below = _minors_level(f, logs, below, i)
        yield below
        if below is None:
            return


def _minors_level(f: Field, logs: np.ndarray, below: np.ndarray, i: int):
    """Every i x i minor of A from the (i - 1) x (i - 1) minors below, or
    None at the first block that holds a zero; logs[j % 2] holds the
    logs of (-1)^j A.

    Laplace expansion along the first row r of the row subset R:
    det[R, C] = sum_j (-1)^j A[r, c_j] det[R - r, C - c_j].  A block of
    _level_plan gathers both factors of all its terms at once from the
    logs of (A, -A) and of the level below, so a block is two takes, one
    lookup at their sum and one field sum along the term axis
    (Field.sum_log_products)."""
    _, nrows, ncols = logs.shape
    below = f.log_array(below)
    # the smallest dtype that holds every element
    out = np.empty((math.comb(nrows, i), math.comb(ncols, i)), dtype=np.min_scalar_type(f.q - 1))
    start = 0
    for ix, iy in _level_plan(nrows, ncols, i):
        det = f.sum_log_products(logs.take(ix), below.take(iy))
        if not det.all():
            return None
        out[:, start : start + det.shape[1]] = det
        start += det.shape[1]
    return out


def _level_plan(nrows, ncols, i):
    """The blocks (ix, iy) of level i of the minors of an nrows x ncols
    matrix, each a run of the column subsets C: ix[j, R, C] indexes the
    raveled logs of (A, -A) at sign j % 2, the first row r of R and c_j,
    and iy[j, R, C] the raveled level below at the ranks of R - r and of
    C - c_j.  A block holds at most _BLOCK terms (i per minor) unless
    one column subset's i C(nrows, i) terms exceed it.  The arrays depend
    on the shape alone, so a level that fits one block takes them from a
    bounded cache (_cached_plan); a larger one streams its blocks."""
    step = max(1, _BLOCK // (i * math.comb(nrows, i)))
    if math.comb(ncols, i) <= step:
        return _cached_plan(nrows, ncols, i, _BLOCK)
    return _plan(nrows, ncols, i, step)


@functools.lru_cache(maxsize=_PLANS)
def _cached_plan(nrows, ncols, i, block):
    """_level_plan of a level that fits one block of the given size,
    read-only.  It holds index arrays, never results: ix and iy hold
    i C(nrows, i) C(ncols, i) <= block intp entries each.  So a plan
    takes at most 0.53 MB at _BLOCK = 2^15, and the cache, which keeps
    _PLANS, at most 34 MB; the 42 levels of a pass of the benchmark's
    family_sweep take 0.79 MB."""
    ((ix, iy),) = _plan(nrows, ncols, i, block)
    ix.flags.writeable = iy.flags.writeable = False
    return ((ix, iy),)


def _plan(nrows, ncols, i, step):
    """_level_plan's blocks, the column subsets step at a time."""
    binom = _binomials(ncols, nrows)
    rows = _subsets(nrows, i, np.arange(binom[nrows, i]), binom)
    # the row parts of the indices, (i, rows) and (rows,): (A, -A)[j % 2, r]
    # and the rank of R - r
    x_rows = ((np.arange(i) % 2 * nrows)[:, None] + rows[:, 0]) * ncols
    y_rows = _subset_rank(rows[:, 1:], nrows, binom) * binom[ncols, i - 1]
    # the column subsets are unranked _BLOCK // i at a time, not a block
    # at a time, so a level of many rows does not repeat the searches
    for cols, drop in _column_blocks(ncols, i, max(step, _BLOCK // i), binom):
        for start in range(0, len(cols), step):
            x_cols, y_cols = cols[start : start + step].T, drop[start : start + step].T
            yield x_rows[..., None] + x_cols[:, None], y_rows[:, None] + y_cols[:, None]


def _column_blocks(ncols, i, step, binom):
    """(cols, drop) for the i-subsets C of range(ncols), step at a time:
    each row of cols a subset, and drop[:, j] the rank of C - c_j."""
    total = binom[ncols, i]
    for start in range(0, total, step):
        cols = _subsets(ncols, i, np.arange(start, min(start + step, total)), binom)
        # rank of C - c_j: c_t sits at position t before j and t - 1 after
        tail = ncols - 1 - cols
        before = binom[tail, i - 1 - np.arange(i)]
        after = binom[tail, i - np.arange(i)]
        drop = (
            binom[ncols, i - 1] - 1
            - (np.cumsum(before, axis=1) - before)
            - (np.cumsum(after[:, ::-1], axis=1)[:, ::-1] - after)
        )
        yield cols, drop


@functools.lru_cache(maxsize=4)
def _binomials(n: int, t: int) -> np.ndarray:
    """C(a, b) at [a, b] for 0 <= a <= n and 0 <= b <= t (0 when b > a),
    read-only; the last four tables are kept, one per shape of A.  An
    entry of 2^62 or more is held at 2^62 - 1, so no sum of two overflows
    and each column stays sorted (_subsets searches it); no level that
    fits in memory reads one."""
    table = np.zeros((n + 1, t + 1), dtype=np.int64)
    table[:, 0] = 1
    for a in range(1, n + 1):
        table[a, 1:] = np.minimum(table[a - 1, 1:] + table[a - 1, :-1], (1 << 62) - 1)
    table.flags.writeable = False
    return table


def _subsets(n: int, t: int, ranks: np.ndarray, binom) -> np.ndarray:
    """The t-subsets of range(n) of the given lexicographic ranks, one
    sorted row each: the inverse of _subset_rank.  With lo one past
    element j - 1, C(n - lo, t - j) - C(n - c, t - j) subsets put an
    element below c at position j, and they come first; so element j is
    the largest c for which that count is at most the rank left, and the
    rank then drops by it.  One search per element, for all ranks at
    once.  Complementing reverses lexicographic order, so a subset of
    more than n / 2 elements is the complement of the (n - t)-subset of
    rank C(n, t) - 1 - r, which takes fewer searches."""
    if 2 * t > n:
        rest = _subsets(n, n - t, binom[n, t] - 1 - ranks, binom)
        keep = np.ones((len(ranks), n), dtype=bool)
        keep[np.arange(len(ranks))[:, None], rest] = False
        return np.nonzero(keep)[1].reshape(len(ranks), t)
    out = np.empty((len(ranks), t), dtype=np.intp)
    lo, rank = 0, ranks.copy()
    for j in range(t):
        ahead = binom[n - lo, t - j]
        # the smallest a = n - c with C(a, t - j) >= ahead - rank
        a = np.searchsorted(binom[:, t - j], ahead - rank)
        out[:, j] = n - a
        rank -= ahead - binom[a, t - j]
        lo = n - a + 1
    return out


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
    and tallies their hull dimensions by hull_dim_oracle.  The distances
    of all 130 codes come from one product (_min_distances), after one
    check of the codeword budget.  The histogram has no codes with hull
    dimension 1.
    """
    f = Field(3)
    generators = _ternary_4_2_generators()
    _check_codewords(f.q, generators.shape[1], budget)
    if len(generators) != 130:  # the Gaussian binomial [4 choose 2]_3
        raise RuntimeError(f"census enumerated {len(generators)} subspaces, expected 130")
    histogram = {0: 0, 1: 0, 2: 0}
    mds = generators[_min_distances(f, generators) == 3]
    for G in mds:
        histogram[hull_dim_oracle(LinearCode(f, Matrix(f, G)))] += 1
    return {"subspaces": len(generators), "mds": len(mds), "hull_histogram": histogram}


def _ternary_4_2_generators() -> np.ndarray:
    """The canonical RREF generator of every 2-dimensional subspace of
    GF(3)^4, one block of them per pair of pivot columns: (count, 2, 4)."""
    blocks = []
    for p1, p2 in itertools.combinations(range(4), 2):
        # the entries right of each pivot that are not in a pivot column
        slots = [(0, c) for c in range(p1 + 1, 4) if c != p2]
        slots += [(1, c) for c in range(p2 + 1, 4)]
        block = np.zeros((3 ** len(slots), 2, 4), dtype=np.int64)
        block[:, 0, p1] = block[:, 1, p2] = 1
        values = np.array(list(itertools.product(range(3), repeat=len(slots))), dtype=np.int64)
        for j, (r, c) in enumerate(slots):
            block[:, r, c] = values[:, j]
        blocks.append(block)
    return np.concatenate(blocks)


def _min_distances(f: Field, generators: np.ndarray) -> np.ndarray:
    """The minimum distance of the code of each full-rank k x n
    generator in the stack (b, k, n): the least weight of m G over the
    (q^k - 1)/(q - 1) projective messages m (first nonzero digit 1),
    which reach every nonzero weight, as in _enumerated_min_distance;
    one product for the whole stack."""
    b, k, _ = generators.shape
    messages = [m for m in itertools.product(range(f.q), repeat=k) if next(filter(None, m), 0) == 1]
    stack = np.broadcast_to(np.array(messages, dtype=np.int64), (b, len(messages), k))
    return np.count_nonzero(f.matmul_array(stack, generators), axis=-1).min(axis=-1)
