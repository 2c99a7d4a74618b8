"""Brute-force verification oracles, independent of the constructions.

Nothing here knows about GRS structure or certificates: minimum
distance comes from enumerating codewords, MDS checks fall back to
checking every k x k minor, and the hull dimension is recomputed from
the stacked generator/dual-generator rank.  These are the referees for
everything the constructive modules claim.

Both brute-force checks run on the field's array ops (gf.py), with one
route for every field up to MAX_Q.  The minor check eliminates batches
of column subsets at once, stopping at the first batch that holds a
singular minor.  Enumeration covers one projective representative per
1-dimensional message subspace (first nonzero message digit normalized
to 1), which reaches all nonzero weights with (q^k - 1)/(q - 1)
codewords, _CHUNK at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import Field
from .hull import LinearCode, hull_report
from .linalg import Matrix, determinant, dual_generator, rank


class BudgetError(RuntimeError):
    """The requested brute-force check exceeds the configured budget."""


@dataclass(frozen=True)
class OracleBudget:
    max_codewords: int = 10**6
    max_minor_k: int = 5


DEFAULT_BUDGET = OracleBudget()

# codewords per enumeration step; bounds the (chunk, n) int64 arrays
_CHUNK = 1 << 12

# column subsets per batched elimination; bounds the (batch, k, k) arrays
_MINOR_BATCH = 1024


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
    G = code.generator.array()
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

    Column subsets are taken in chunks of _MINOR_BATCH and eliminated
    together on the field's array ops."""
    k = code.k
    subsets = itertools.combinations(range(code.n), k)
    G = code.generator.array()
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, _MINOR_BATCH)),
            dtype=np.intp,
        ).reshape(-1, k)
        if not len(chunk):
            return True
        # M[b] is the transpose of the k x k submatrix of G on the
        # columns chunk[b]; the two are singular together
        M = G.T[chunk]
        if not _all_nonsingular(M, code.field):
            return False


def _all_nonsingular(M, f) -> bool:
    """Whether every matrix in the (batch, k, k) stack M is nonsingular
    over the field f.

    Division-free elimination: row_i <- -M[c,c] * row_i + M[i,c] * row_c
    scales each determinant by a nonzero factor, so it keeps the
    verdict without an inverse.  M is overwritten."""
    batch, k, _ = M.shape
    every = np.arange(batch)
    for c in range(k):
        nonzero = M[:, c:, c] != 0
        if not nonzero.any(axis=1).all():
            return False
        pivot = c + nonzero.argmax(axis=1)
        pivot_row = M[every, pivot].copy()
        M[every, pivot] = M[:, c]
        # negating the pivot, not the product, keeps the large op an add
        minus_lead = f.sub_array(0, pivot_row[:, c, None, None])
        M[:, c + 1 :, c + 1 :] = f.add_array(
            f.mul_array(minus_lead, M[:, c + 1 :, c + 1 :]),
            f.mul_array(M[:, c + 1 :, c, None], pivot_row[:, None, c + 1 :]),
        )
    return True


def _all_minors_nonzero_by_determinant(code: LinearCode) -> bool:
    """One determinant per k-subset of columns: the reference the
    batched route is tested against."""
    f = code.field
    cols = list(zip(*code.generator.rows))
    for subset in itertools.combinations(range(code.n), code.k):
        sub = Matrix(f, zip(*(cols[c] for c in subset)), ncols=code.k)
        if determinant(sub) == 0:
            return False
    return True


def hull_dim_oracle(code: LinearCode) -> int:
    """dim(C intersect C-dual) as n - rank([G; H]), bypassing the Gram
    matrix route used by hull_report."""
    G = code.generator
    return code.n - rank(G.vstack(dual_generator(G)))


def ternary_4_2_census(budget: OracleBudget = DEFAULT_BUDGET):
    """Hull-dimension histogram over all ternary [4, 2, 3] codes.

    Enumerates every 2-dimensional subspace of GF(3)^4 via canonical
    RREF matrices (there are 130), keeps those with minimum distance 3,
    and tallies hull dimensions.  The histogram has no codes with hull
    dimension 1.
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
            histogram[hull_report(code).hull_dim] += 1
    if total != 130:  # the Gaussian binomial [4 choose 2]_3
        raise RuntimeError(f"census enumerated {total} subspaces, expected 130")
    return {"subspaces": total, "mds": mds_total, "hull_histogram": histogram}
