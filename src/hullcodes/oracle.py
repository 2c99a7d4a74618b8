"""Brute-force verification oracles, independent of the constructions.

Nothing here knows about GRS structure or certificates, and the module
imports only gf and linalg, never the modules it referees: minimum
distance comes from enumerating codewords, MDS checks fall back to
checking every k x k minor, and the hull dimension is n - rank([G; H])
with H a dual generator, the one copy of that formula (hull_report
takes its cross-check from hull_dim_oracle).  These are the referees
for everything the constructive modules claim.  LinearCode, the plain
code they take, lives here for that reason.

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
weights with (q^k - 1)/(q - 1) codewords, _CHUNK at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import Field
from .linalg import Matrix, _rref_array, dual_generator, rank


@dataclass(frozen=True)
class LinearCode:
    """The row space of a full-row-rank generator over a field."""

    field: Field
    generator: Matrix

    @property
    def n(self) -> int:
        return self.generator.ncols

    @property
    def k(self) -> int:
        return self.generator.nrows


class BudgetError(RuntimeError):
    """The requested brute-force check exceeds the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_codewords: int = 10**6
    max_minor_k: int = 5


DEFAULT_BUDGET = OracleBudget()

# codewords per enumeration step; bounds the (chunk, n) int64 arrays
_CHUNK = 1 << 12

# minors per block of a level; bounds the arrays a level step holds
# beside the two levels
_BLOCK = 1 << 15


def min_distance(code: LinearCode, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum distance by exhaustive enumeration."""
    f = code.field
    q = f.q
    k, n = code.k, code.n
    if q**k > budget.max_codewords:
        raise BudgetError(
            f"enumerating q^k = {q}^{k} codewords exceeds the budget of "
            f"{budget.max_codewords}"
        )
    G = code.generator.entries
    best = n
    for j in range(k):
        # messages with digits 0..j-1 zero and digit j equal to 1
        lead = G[j]
        free = G[j + 1 :]
        nfree = free.shape[0]
        total = q**nfree
        for start in range(0, total, _CHUNK):
            rem = np.arange(start, min(start + _CHUNK, total))
            words = lead
            for row in free:
                rem, digit = np.divmod(rem, q)
                words = f.add_array(words, f.mul_array(digit[:, None], row))
            weights = np.count_nonzero(words, axis=-1)
            best = min(best, int(weights.min()))
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
    R, _, pivots = _rref_array(f, code.generator.array())
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
    matrix route used by hull_report."""
    G = code.generator
    return code.n - rank(G.vstack(dual_generator(G)))


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
