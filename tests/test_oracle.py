import ast
import itertools
import math
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from sympy import Matrix as SympyMatrix

from hullcodes import hull, linalg, oracle
from hullcodes.construct import make_seed, reduce_hull, ternary_codes
from hullcodes.gf import Field, factor_prime_power
from hullcodes.grs import encode, eval_set, grs
from hullcodes.hull import code_from_grs, hull_membership, hull_report, linear_code
from hullcodes.linalg import LinalgError, Matrix, determinant, rank
from hullcodes.oracle import (
    BudgetError,
    LinearCode,
    OracleBudget,
    hull_dim_oracle,
    is_mds,
    min_distance,
    ternary_4_2_census,
)


def test_min_distance_known_codes():
    assert min_distance(ternary_codes("n2k1", [1, 1])) == 2
    assert min_distance(ternary_codes("n4k1", [1, 2, 1])) == 4
    # GRS [6,2] over GF(7) has d = 5
    f = Field(7)
    spec = grs(eval_set(f, [1, 2, 3, 4, 5, 6]), [1] * 6, 2)
    assert min_distance(code_from_grs(spec)) == 5


def test_min_distance_repetition_code():
    f = Field(5)
    code = linear_code(f, [[1, 1, 1, 1]])
    assert min_distance(code) == 4
    code2 = linear_code(f, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert min_distance(code2) == 2


def _scalar_min_distance(code):
    """Smallest weight over one message per 1-dimensional subspace
    (first nonzero digit 1), with the scalar field ops."""
    f = code.field
    best = code.n
    for j in range(code.k):
        for tail in itertools.product(range(f.q), repeat=code.k - 1 - j):
            word = [0] * code.n
            for digit, row in zip((0,) * j + (1,) + tail, code.generator.rows):
                word = [f.add(w, f.mul(digit, x)) for w, x in zip(word, row)]
            best = min(best, sum(1 for x in word if x))
    return best


@pytest.mark.parametrize("p, m, k", [(3, 2, 3), (7, 2, 2), (1031, 1, 2)])
def test_min_distance_matches_scalar_enumeration(p, m, k):
    f = Field(p, m)
    rng = random.Random(f.q)
    budget = OracleBudget(max_codewords=f.q**k)
    at_bound = set()
    for _ in range(8):
        n = rng.randint(k, 7)
        # sparse rows give some codes below the Singleton bound
        rows = [[rng.randrange(1, f.q) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(k)]
        if rank(Matrix(f, rows)) != k:
            continue
        code = linear_code(f, rows)
        d = min_distance(code, budget)
        assert d == _scalar_min_distance(code)
        at_bound.add(d == n - k + 1)
    assert at_bound == {True, False}


def test_min_distance_memory_is_bounded():
    # q^k = 531441 codewords, enumerated _CHUNK at a time
    f = Field(3, 2)
    rng = random.Random(9)
    while True:
        rows = [[rng.randrange(9) for _ in range(8)] for _ in range(6)]
        if rank(Matrix(f, rows)) == 6:
            break
    code = linear_code(f, rows)
    tracemalloc.start()
    try:
        min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_min_distance_memory_is_bounded_on_long_codes():
    # at n = 40 every word array is (at most _CHUNK, 40) int64
    f = Field(13)
    rng = random.Random(40)
    while True:
        rows = [[rng.randrange(13) for _ in range(40)] for _ in range(5)]
        if rank(Matrix(f, rows)) == 5:
            break
    code = linear_code(f, rows)
    tracemalloc.start()
    try:
        min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * oracle._CHUNK * code.n * 8


def _weight_one_code(f, rng, n, k):
    """An [n, k] code holding a unit vector as the word of a message
    (1, u) with every digit of u nonzero, so d = 1 and the walk meets
    that word only at lead row 0, after its high-row offsets."""
    while True:
        rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k - 1)]
        first = [0] * n
        first[rng.randrange(n)] = 1
        for row in rows:
            u = rng.randrange(1, f.q)
            first = [f.sub(x, f.mul(u, y)) for x, y in zip(first, row)]
        if rank(Matrix(f, [first, *rows])) == k:
            return linear_code(f, [first, *rows])


# [n, k] shapes of the construct and selftest walks, walked at every
# table bound but only at chunks that keep their offset loops short
WALK_SHAPES = {7: (8, 6), 49: (14, 3)}


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 25, 49])
def test_walk_matches_scalar_enumeration_at_every_chunk_size(q, monkeypatch):
    """_CHUNK = 1 leaves no table, so every free row is a high row; 3 and
    16 give partial tables beside high rows; at 100 the high-row
    messages cross chunk boundaries and small codes fit whole.  The
    table bound is set apart from it: at 1 no table is kept, at q one
    table of q words, and below q^2 no second level.  Over GF(25) and
    GF(49) the offsets and tables are Zech-table sums, matched word by
    word against each other."""
    f = Field(*factor_prime_power(q))
    rng = random.Random(q)
    at_bound = set()
    cases = []
    for k in range(1, 6 if q < 25 else 4):
        if k < q:
            mds = _random_code(f, rng, rng.randint(k, q), k, grs_like=True)
        else:
            # [k + 1, k] with an all-nonzero parity column
            mds = linear_code(f, [[int(i == j) for j in range(k)] + [1] for i in range(k)])
        codes = [
            mds,
            _random_code(f, rng, k + 3, k, grs_like=False),
            _weight_one_code(f, rng, k + 3, k),
        ]
        cases += [(code, (1, 3, 16, 100)) for code in codes]
    if q in WALK_SHAPES:
        n, k = WALK_SHAPES[q]
        cases.append((_random_code(f, rng, n, k, grs_like=n <= q), (100, oracle._CHUNK)))
    for code, chunks in cases:
        expected = _scalar_min_distance(code)
        at_bound.add(expected == code.n - code.k + 1)
        for chunk in chunks:
            # tables are bounded by min(_TABLE, _CHUNK): one bound of each
            # class, the largest, so a bound past the chunk is tried too
            bounds = {min(t, chunk): t for t in sorted({1, q, q * q - 1, oracle._TABLE})}
            for table in bounds.values():
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                monkeypatch.setattr(oracle, "_TABLE", table)
                assert oracle._enumerated_min_distance(code) == expected, (code.k, chunk, table)
    assert at_bound == {True, False}


@pytest.mark.parametrize("q", sorted(WALK_SHAPES))
def test_walk_memory_is_bounded_by_its_tables_and_one_step(q):
    """The walk holds one span table, at most _TABLE words of n int64,
    and builds it a row at a time with temporaries of a few times its
    size; a step compares at most _CHUNK words as n bools.  So at the
    construct and selftest shapes, whose tables hold 343 and 49 words,
    it peaks below 3 _TABLE int64 words plus _CHUNK bool words."""
    f = Field(*factor_prime_power(q))
    n, k = WALK_SHAPES[q]
    code = _random_code(f, random.Random(q), n, k, grs_like=n <= q)
    oracle._enumerated_min_distance(code)  # the field's tables, built once
    tracemalloc.start()
    try:
        oracle._enumerated_min_distance(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (3 * oracle._TABLE * 8 + oracle._CHUNK) * n


def test_min_distance_budget():
    f = Field(13)
    spec = grs(eval_set(f, range(13)), [1] * 13, 6)
    code = code_from_grs(spec)
    with pytest.raises(BudgetError):
        min_distance(code, OracleBudget(max_codewords=10**5))
    # raising the cap makes it affordable
    d = min_distance(code, OracleBudget(max_codewords=13**6))
    assert d == 13 - 6 + 1
    # the code keeps its distance, but every call checks its own budget
    with pytest.raises(BudgetError):
        min_distance(code, OracleBudget(max_codewords=10**5))


def test_is_mds_enumeration_and_minors():
    f = Field(13)
    seed = make_seed(grs(eval_set(f, range(13)), [1] * 13, 6))
    spec = reduce_hull(seed, 3, 1)
    code = code_from_grs(spec)
    assert is_mds(code)  # q^3 affordable
    # minor route: forbid enumeration
    tight = OracleBudget(max_codewords=1, max_minor_k=3)
    assert is_mds(code, tight)
    with pytest.raises(BudgetError):
        is_mds(code, OracleBudget(max_codewords=1, max_minor_k=2))


def test_is_mds_rejects_repeated_columns():
    f = Field(3)
    code = linear_code(f, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert not is_mds(code)
    assert not is_mds(code, OracleBudget(max_codewords=1, max_minor_k=2))


def _random_code(f, rng, n, k, grs_like, twin=False):
    """A random [n, k] code; grs_like gives a (possibly scaled) Vandermonde
    generator on distinct points, which is MDS, and twin makes column 1
    a multiple of column 0, which is not (needs k < n)."""
    q = f.q
    while True:
        if grs_like:
            points = rng.sample(range(q), n)
            v = [rng.randrange(1, q) for _ in range(n)]
            rows = [[f.mul(vi, f.pow(a, r)) for a, vi in zip(points, v)] for r in range(k)]
        else:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if twin:
            for row in rows:
                row[1] = f.mul(f.generator, row[0])
        if rank(Matrix(f, rows)) == k:
            return linear_code(f, rows)


def _levels_computed(monkeypatch):
    """The list of levels i >= 2 that _minors_level is asked for, filled
    as the check runs."""
    seen = []
    real = oracle._minors_level

    def counting(f, logs, below, i):
        seen.append(i)
        return real(f, logs, below, i)

    monkeypatch.setattr(oracle, "_minors_level", counting)
    return seen


def _cauchy(f, rng, k, r):
    """A k x r Cauchy matrix 1 / (x_i - y_j) on k + r distinct points,
    which has no singular square submatrix."""
    pts = rng.sample(range(f.q), k + r)
    return [[f.inv(f.sub(x, y)) for y in pts[k:]] for x in pts[:k]]


def _minor(f, A, R, C):
    return determinant(Matrix(f, [[A[a][b] for b in C] for a in R]))


def _all_minors_nonzero_by_determinant(code):
    """One determinant per k-subset of columns: the reference the
    level route is tested against."""
    f = code.field
    cols = list(zip(*code.generator.rows))
    for subset in itertools.combinations(range(code.n), code.k):
        sub = Matrix(f, zip(*(cols[c] for c in subset)), ncols=code.k)
        if determinant(sub) == 0:
            return False
    return True


def _first_singular_size(f, A):
    """The size of the smallest singular square submatrix of A, or None,
    by one determinant per submatrix."""
    k, r = len(A), len(A[0])
    for i in range(1, min(k, r) + 1):
        for R in itertools.combinations(range(k), i):
            if any(_minor(f, A, R, C) == 0 for C in itertools.combinations(range(r), i)):
                return i
    return None


def _planted(f, rng, k, r, level):
    """A k x r matrix whose smallest singular square submatrix is
    level x level: a Cauchy matrix with one entry moved so that one such
    minor is zero (needs k + r <= q)."""
    while True:
        A = _cauchy(f, rng, k, r)
        R, C = sorted(rng.sample(range(k), level)), sorted(rng.sample(range(r), level))
        a, b = R[0], C[0]
        # the minor is affine in A[a][b]: rest + A[a][b] * cofactor
        A[a][b] = 0
        rest = _minor(f, A, R, C)
        A[a][b] = 1
        cofactor = f.sub(_minor(f, A, R, C), rest)
        A[a][b] = f.neg(f.mul(rest, f.inv(cofactor)))
        if _first_singular_size(f, A) == level:
            return A


def _systematic_code(f, rng, A):
    """The code with generator T [I | A] for a random invertible T, so
    that rref(G) gives back [I | A]."""
    k = len(A)
    rows = [[int(i == j) for j in range(k)] + list(a) for i, a in enumerate(A)]
    while True:
        T = Matrix(f, [[rng.randrange(f.q) for _ in range(k)] for _ in range(k)])
        if rank(T) == k:
            return linear_code(f, T.matmul(Matrix(f, rows)).rows)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 49, 1031, 2187])
def test_batched_minors_match_determinant_loop(q, monkeypatch):
    p, m = factor_prime_power(q)
    f = Field(p, m)
    rng = random.Random(q)
    verdicts = []

    def check(code):
        fast = oracle._all_minors_nonzero(code)
        assert fast == _all_minors_nonzero_by_determinant(code)
        verdicts.append(fast)

    for trial in range(40):
        n = rng.randint(2, min(8, q + 1))
        # the first trials pin the edge cases k = 1, k = n - 1 and k = n
        k = (1, n - 1, n)[trial % 3] if trial < 9 else rng.randint(1, n)
        # in large fields random codes are almost always MDS
        twin = q > 49 and trial % 3 == 1 and k < n
        check(_random_code(f, rng, n, k, grs_like=n <= q and trial % 3 == 0, twin=twin))
    # the first k columns are dependent: a zero first column at k = 1,
    # twin columns 0 and 1 at k = 2
    n = min(q + 1, 6)
    for k in (1, 2):
        code = _random_code(f, rng, n, k, grs_like=n <= q)
        rows = [list(row) for row in code.generator.rows]
        rows[0][1] = 1  # keeps rank k once column 0 is cleared or twinned
        for row in rows:
            row[0] = 0 if k == 1 else f.mul(f.generator, row[1])
        check(linear_code(f, rows))
        assert verdicts[-1] is False
    # non-MDS codes whose smallest singular minor of A is 1, 2 or 3 wide
    seen = _levels_computed(monkeypatch)
    size = min(q // 2, 4)  # k + r <= q points for the Cauchy matrix
    for level in range(1, min(size, 3) + 1):
        for k, r in ((size, min(q - size, 5)), (size, size)):
            seen.clear()
            check(_systematic_code(f, rng, _planted(f, rng, k, r, level)))
            assert verdicts[-1] is False
            assert seen == list(range(2, level + 1))
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p, k, r", [(5, 2, 3), (7, 3, 4), (13, 4, 5), (13, 3, 3)])
def test_minor_levels_match_sympy(p, k, r):
    """Every level against sympy's determinant of every square
    submatrix, on Cauchy matrices (no zero minor) and random ones."""
    f = Field(p)
    rng = random.Random(p * k * r)
    for trial in range(6):
        if trial % 2:
            A = [[rng.randrange(1, p) for _ in range(r)] for _ in range(k)]
        else:
            A = _cauchy(f, rng, k, r)
        levels = list(oracle._minor_levels(f, f.asarray(A)))
        for i, level in enumerate(levels, 1):
            expected = [
                [int(SympyMatrix([[A[a][b] for b in C] for a in R]).det()) % p
                 for C in itertools.combinations(range(r), i)]
                for R in itertools.combinations(range(k), i)
            ]
            if level is None:
                assert any(0 in row for row in expected)
            else:
                assert level.tolist() == expected
        # the levels end at the first zero or at i = k
        assert levels[-1] is None or len(levels) == k
        assert all(level is not None for level in levels[:-1])


def _projective_line_code(f, n, twin=None):
    """[n, 2] code over f whose columns are distinct projective points,
    except that column twin[1], if given, is a multiple of column twin[0]."""
    cols = ([(1, x) for x in range(f.q)] + [(0, 1)])[:n]
    if twin:
        i, j = twin
        cols[j] = tuple(f.mul(f.generator, x) for x in cols[i])
    return linear_code(f, [list(r) for r in zip(*cols)])


def test_minors_exit_at_first_failing_level(monkeypatch):
    f = Field(2, 6)
    n = 65
    seen = _levels_computed(monkeypatch)
    # subset (20, 21) is number 1090 of C(65, 2) = 2080 in lexicographic
    # order, and the only singular minor
    code = _projective_line_code(f, n, (20, 21))
    subsets = list(itertools.combinations(range(n), 2))
    cols = list(zip(*code.generator.rows))
    singular = [
        i for i, (a, b) in enumerate(subsets)
        if f.sub(f.mul(cols[a][0], cols[b][1]), f.mul(cols[a][1], cols[b][0])) == 0
    ]
    assert singular == [1090]
    assert not _all_minors_nonzero_by_determinant(code)
    assert not oracle._all_minors_nonzero(code)
    # both columns lie in A and no entry of A is zero: level 2 fails
    assert seen == [2]
    seen.clear()
    assert oracle._all_minors_nonzero(_projective_line_code(f, n))
    assert seen == [2]
    # at k = 6 twin columns of A end the check at level 2 of 6
    spec = grs(eval_set(f, range(1, 30)), [1] * 29, 6)
    rows = [list(row) for row in code_from_grs(spec).generator.rows]
    for row in rows:
        row[21] = f.mul(f.generator, row[20])
    seen.clear()
    assert not oracle._all_minors_nonzero(linear_code(f, rows))
    assert seen == [2]


def test_minors_in_large_prime_field():
    f = Field(1031)
    minors_only = OracleBudget(max_codewords=1, max_minor_k=2)
    # column 3 is twice column 2
    twin = linear_code(f, [[1, 1, 1, 2], [0, 1, 2, 4]])
    assert not is_mds(twin, minors_only)
    assert not _all_minors_nonzero_by_determinant(twin)
    mds = linear_code(f, [[1, 1, 1, 0], [0, 1, 2, 1]])
    assert is_mds(mds, minors_only)
    assert _all_minors_nonzero_by_determinant(mds)


def test_minors_decide_gf529_24_12():
    # 2.7 million 12 x 12 minors of G, all nonzero
    f = Field(23, 2)
    spec = grs(eval_set(f, range(1, 25)), [1] * 24, 12)
    code = code_from_grs(spec)
    budget = OracleBudget(max_minor_k=12)
    assert is_mds(code, budget)
    # a scaled twin of column 22 in place of column 23
    rows = [list(row) for row in code.generator.rows]
    for row in rows:
        row[23] = f.mul(f.generator, row[22])
    assert not is_mds(linear_code(f, rows), budget)


@pytest.mark.parametrize("n, t", [(1, 1), (5, 2), (9, 4), (12, 12), (20, 6)])
def test_subsets_unrank_in_lexicographic_order(n, t):
    binom = oracle._binomials(n, t)
    want = [list(c) for c in itertools.combinations(range(n), t)]
    got = oracle._subsets(n, t, np.arange(len(want)), binom)
    assert got.tolist() == want
    assert oracle._subset_rank(got, n, binom).tolist() == list(range(len(want)))


def test_subsets_of_a_wide_shape_read_held_binomials():
    # C(181, 90) is past int64: such entries are held at 2^62 - 1, so the
    # columns _subsets searches stay sorted
    binom = oracle._binomials(181, 180)
    assert (np.diff(binom, axis=0) >= 0).all() and binom.max() == (1 << 62) - 1
    assert binom[181, 179] == math.comb(181, 179)
    for n in (180, 181):
        want = [list(c) for c in itertools.combinations(range(n), 180)]
        assert oracle._subsets(n, 180, np.arange(len(want)), binom).tolist() == want


def _blocks_per_level(monkeypatch):
    """The list of block counts of the levels the minor check builds,
    filled as the check runs."""
    counts = []
    real = oracle._level_plan

    def counting(nrows, ncols, i):
        blocks = list(real(nrows, ncols, i))
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(oracle, "_level_plan", counting)
    return counts


@pytest.mark.parametrize("q", [2, 9, 49, 1031])
def test_minors_in_many_blocks_match_determinant_loop(q, monkeypatch):
    """At _BLOCK = 1 every column subset is a block of its own, at 7 a
    few share one, and at 64 small levels fit one block."""
    p, m = factor_prime_power(q)
    f = Field(p, m)
    rng = random.Random(q)
    counts = _blocks_per_level(monkeypatch)
    codes = []
    for trial in range(12):
        n = rng.randint(3, min(8, q + 1))
        k = rng.randint(2, n - 1)
        twin = q > 49 and trial % 3 == 1
        codes.append(_random_code(f, rng, n, k, grs_like=n <= q and trial % 3 == 0, twin=twin))
    if q >= 9:
        # the smallest singular minor of A is 2 or 3 wide
        codes += [_systematic_code(f, rng, _planted(f, rng, 4, min(q - 4, 5), level))
                  for level in (2, 3)]
    verdicts = []
    for code in codes:
        expected = _all_minors_nonzero_by_determinant(code)
        verdicts.append(expected)
        for block in (1, 7, 64):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            counts.clear()
            assert oracle._all_minors_nonzero(code) == expected, block
            if block == 1:
                # one block per column subset of each level (A's longer
                # side is max(k, n - k))
                ncols = max(code.k, code.n - code.k)
                assert counts == [math.comb(ncols, i) for i in range(2, len(counts) + 2)]
    assert True in verdicts and False in verdicts


def test_one_shape_at_two_block_sizes(monkeypatch):
    """A level that fits one block at _BLOCK = 64 is cached; at 7 the
    same shape streams in several blocks, so the cached plan is not
    used, and back at 64 the cached plan is."""
    f = Field(13)
    rng = random.Random(35)
    # A is 3 x 5: level 2 has 3 row and 10 column subsets, 2 x 3 = 6
    # terms per column subset, and level 3 one row and 10 column subsets,
    # 3 terms each.  A block holds at most _BLOCK terms: at 64 each level
    # is one block (60 and 30 terms); at 7 level 2 takes one column
    # subset per block (10 blocks) and level 3 two (5 blocks)
    code = _systematic_code(f, rng, _cauchy(f, rng, 3, 5))
    counts = _blocks_per_level(monkeypatch)
    oracle._cached_plan.cache_clear()
    for block, expected in ((64, [1, 1]), (7, [10, 5]), (64, [1, 1])):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        counts.clear()
        assert oracle._all_minors_nonzero(code)
        assert counts == expected, block
    info = oracle._cached_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    # a zero in the last column subset of level 2 fails in its block
    A = [row[3:] for row in code.echelon[0].tolist()]
    A[2][4] = f.mul(A[1][4], f.mul(A[2][3], f.inv(A[1][3])))
    planted = _systematic_code(f, rng, A)
    for block in (64, 7, 1):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert not oracle._all_minors_nonzero(planted)


def test_plan_cache_holds_its_stated_bound():
    """The largest plans that fit one block have one row subset, i = nrows
    rows, and nrows + 1 column subsets, so nrows (nrows + 1) terms <=
    _BLOCK; the cache keeps _PLANS of them, each under 0.53 MB."""
    oracle._cached_plan.cache_clear()
    oracle._binomials.cache_clear()
    r = math.isqrt(oracle._BLOCK) - 1
    shapes = [(i, i + 1, i) for i in range(r, r - oracle._PLANS - 1, -1)]
    assert oracle._BLOCK // r >= r + 1 and oracle._BLOCK // (r + 1) < r + 2
    tracemalloc.start()
    try:
        for shape in shapes:
            blocks = oracle._level_plan(*shape)
            assert len(blocks) == 1 and not any(a.flags.writeable for a in blocks[0])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert oracle._cached_plan.cache_info().currsize == oracle._PLANS
    # the binomial tables kept beside the plans: four of 182 x 181 int64
    tables = 4 * (r + 2) * (r + 1) * 8
    assert held < oracle._PLANS * 0.53e6 + tables
    oracle._cached_plan.cache_clear()


def test_minors_memory_is_bounded():
    # GF(49) [30, 6]: C(30, 6) = 593,775 minors
    f = Field(7, 2)
    code = code_from_grs(grs(eval_set(f, range(1, 31)), [1] * 30, 6))
    tracemalloc.start()
    try:
        assert oracle._all_minors_nonzero(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_hull_dim_oracle_self_dual_and_lcd():
    f = Field(13)
    pts = eval_set(f, range(13))
    sd = code_from_grs(grs(pts, [1] * 13, 7, extended=True))
    assert hull_dim_oracle(sd) == 7
    seed = make_seed(grs(pts, [1] * 13, 6))
    lcd = code_from_grs(reduce_hull(seed, 4, 0))
    assert hull_dim_oracle(lcd) == 0


def _stacked_reference(code):
    """n - rank([G; H]) with H the identity on the free columns and
    oracle._null_pivot_block's block on the pivot columns, by one
    elimination of the whole n x n stack: the referee's definition."""
    f, (R, rk, pivots) = code.field, code.echelon
    free, block = oracle._null_pivot_block(f, R, rk, pivots)
    H = np.zeros((len(free), code.n), dtype=np.int64)
    H[np.arange(len(free)), free] = 1
    H[:, list(pivots)] = block
    return code.n - rank(Matrix(f, np.vstack([code.generator.entries, H])))


def _full_rank_codes(f, rng, n):
    """Seeded random [n, k] codes for every k in 1..n-1; for k <= n - 2 a
    second one has a zero column and a repeated one, which move the
    pivots."""
    for k in range(1, n):
        for planted in (False, True)[: 1 + (k <= n - 2)]:
            while True:
                rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
                if planted:
                    for row in rows:
                        row[0], row[3] = 0, row[2]
                if rank(Matrix(f, rows)) == k:
                    yield linear_code(f, rows)
                    break


@pytest.mark.parametrize("flip", [False, True], ids=["null-basis", "flipped-pivot-block"])
def test_stacked_referee_is_n_minus_rank_of_the_stack(monkeypatch, flip):
    # with the sign of H's pivot block flipped, H is no dual generator and
    # n - rank([G; H]) is no hull dimension, yet the referee must still
    # agree with it: it eliminates [G; H] and computes no Gram rank
    if flip:
        original = oracle._null_pivot_block

        def flipped(f, R, rk, pivots):
            free, block = original(f, R, rk, pivots)
            return free, f.sub_array(0, block)

        monkeypatch.setattr(oracle, "_null_pivot_block", flipped)
    differs = 0
    for p, m in ((5, 1), (13, 1), (3, 2), (7, 2)):
        f = Field(p, m)
        rng = random.Random(f.q)
        for code in _full_rank_codes(f, rng, 8):
            assert hull_dim_oracle(code) == _stacked_reference(code)
            differs += hull_dim_oracle(code) != hull_report(code).hull_dim
    assert differs > 0 if flip else differs == 0


def test_referee_and_witness_on_a_long_code_stay_small():
    # GF(65521) [2048, 64]: one elimination of the 2048 x 2048 stack
    # [G; H] held 65 MB; the k x k block step builds only H's pivot
    # columns, 1984 x 64
    f = Field(65521)
    spec = grs(eval_set(f, range(2048)), [1] * 2048, 64)
    code = code_from_grs(spec)
    message = [1, 2, 3]
    tracemalloc.start()
    try:
        dim = hull_dim_oracle(code)
        witness = hull_membership(spec, message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak
    assert dim == hull_report(code).hull_dim
    word = Matrix(f, [encode(spec, message)])
    in_hull = not word.matmul(code.generator.transpose()).entries.any()
    assert (witness is not None) == in_hull


def test_referee_on_a_very_long_code_reads_only_the_pivot_block():
    # GF(65521) [20000, 2] from its generator: the whole null basis would
    # be 19998 x 20000 int64, 3.2 GB; its pivot block is 19998 x 2
    f = Field(65521)
    n = 20000
    code = linear_code(f, [[1] * n, list(range(n))])
    tracemalloc.start()
    try:
        dim = hull_dim_oracle(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    # the Gram matrix [[n, s1], [s1, s2]] of power sums decides the hull
    s1, s2 = n * (n - 1) // 2, (n - 1) * n * (2 * n - 1) // 6
    gram = Matrix(f, [[n % f.p, s1 % f.p], [s1 % f.p, s2 % f.p]])
    assert dim == 2 - rank(gram)


def test_a_code_runs_each_referee_once(monkeypatch):
    # one code op of the small_codes benchmark workload: G, G G^T and
    # the k x k block of [G; H] are eliminated once each, the codewords
    # enumerated once
    calls = {"rref": 0, "enumerate": 0}
    real_rref, real_enumerate = linalg._rref_array, oracle._enumerated_min_distance

    def counting_rref(f, A):
        calls["rref"] += 1
        return real_rref(f, A)

    def counting_enumerate(code):
        calls["enumerate"] += 1
        return real_enumerate(code)

    monkeypatch.setattr(linalg, "_rref_array", counting_rref)
    monkeypatch.setattr(oracle, "_rref_array", counting_rref)
    monkeypatch.setattr(hull, "_rref_array", counting_rref)
    monkeypatch.setattr(oracle, "_enumerated_min_distance", counting_enumerate)
    f = Field(3, 2)
    rows = [[1, 0, 0, 1, 2, 3], [0, 1, 0, 4, 5, 6], [0, 0, 1, 7, 8, 2]]
    codes = []
    # an equal code keeps nothing of the first: it does all the work again
    for _ in range(2):
        calls.update(rref=0, enumerate=0)
        code = linear_code(f, rows)
        report = hull_report(code)
        assert hull_dim_oracle(code) == hull_dim_oracle(code) == report.hull_dim
        d = min_distance(code)
        assert is_mds(code) == (d == code.n - code.k + 1)
        assert calls == {"rref": 3, "enumerate": 1}
        codes.append(code)
    assert codes[0] == codes[1] and codes[0] is not codes[1]
    # the minor route reads the kept echelon form
    oracle._all_minors_nonzero(code)
    assert calls == {"rref": 3, "enumerate": 1}


def test_kept_echelon_is_read_only_and_errors_are_not_kept():
    f = Field(13)
    code = linear_code(f, [[1, 2, 3], [2, 1, 4]])
    R, rk, pivots = code.echelon
    assert (rk, pivots) == (2, (0, 1)) and code.echelon[0] is R
    assert not R.flags.writeable
    with pytest.raises(ValueError):
        R[0, 0] = 2
    # linear_code refuses this generator; built directly, the referee
    # raises on every call
    deficient = LinearCode(f, Matrix(f, [[1, 2, 3], [2, 4, 6]]))
    for _ in range(2):
        with pytest.raises(LinalgError):
            hull_dim_oracle(deficient)


def test_oracle_imports_only_gf_and_linalg():
    # the referees import nothing they referee
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hullcodes")):
            package.add(node.module)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("hullcodes") for a in node.names)
    assert package == {"gf", "linalg"}


def test_census_counts_with_the_referee(monkeypatch):
    calls = []
    real = oracle.hull_dim_oracle

    def counting(code):
        calls.append(code)
        return real(code)

    monkeypatch.setattr(oracle, "hull_dim_oracle", counting)
    assert ternary_4_2_census()["hull_histogram"] == {0: 0, 1: 0, 2: 8}
    assert len(calls) == 8


def test_census_distances_are_those_of_min_distance():
    # the census takes all 130 distances from one product; the codeword
    # walk of min_distance, code by code, must give the same ones
    f = Field(3)
    generators = oracle._ternary_4_2_generators()
    assert generators.shape == (130, 2, 4)
    # 130 distinct canonical echelon forms, so 130 distinct subspaces
    assert len({G.tobytes() for G in generators}) == 130
    assert all(rank(Matrix(f, G)) == 2 for G in generators)
    distances = oracle._min_distances(f, generators)
    assert distances.tolist() == [min_distance(LinearCode(f, Matrix(f, G))) for G in generators]
    assert sorted(set(distances.tolist())) == [1, 2, 3]


def test_ternary_census():
    result = ternary_4_2_census()
    assert result["subspaces"] == 130
    hist = result["hull_histogram"]
    assert hist[1] == 0
    assert hist[2] >= 1
    assert sum(hist.values()) == result["mds"]
    # every ternary [4,2,3] MDS code is monomially equivalent to the
    # self-dual tetracode, so the census is concentrated at hull 2
    assert result["mds"] == 8 and hist[2] == 8
