import itertools
import random
import tracemalloc

import pytest

from hullcodes import oracle
from hullcodes.construct import make_seed, reduce_hull_grs, ternary_codes
from hullcodes.gf import Field, factor_prime_power
from hullcodes.grs import eval_set, grs
from hullcodes.hull import code_from_grs, linear_code
from hullcodes.linalg import Matrix, rank
from hullcodes.oracle import (
    BudgetError,
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


def test_min_distance_budget():
    f = Field(13)
    spec = grs(eval_set(f, range(13)), [1] * 13, 6)
    with pytest.raises(BudgetError):
        min_distance(code_from_grs(spec), OracleBudget(max_codewords=10**5))
    # raising the cap makes it affordable
    d = min_distance(code_from_grs(spec), OracleBudget(max_codewords=13**6))
    assert d == 13 - 6 + 1


def test_is_mds_enumeration_and_minors():
    f = Field(13)
    seed = make_seed(grs(eval_set(f, range(13)), [1] * 13, 6))
    spec = reduce_hull_grs(seed, 3, 1)
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


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9, 49, 1031, 2187])
def test_batched_minors_match_determinant_loop(q):
    p, m = factor_prime_power(q)
    f = Field(p, m)
    rng = random.Random(q)
    verdicts = []
    for trial in range(40):
        n = rng.randint(1, min(8, q + 1))
        # the first trials pin the edge cases k = 1 and k = n
        k = (1, n)[trial % 2] if trial < 8 else rng.randint(1, n)
        # in large fields random codes are almost always MDS
        twin = q > 49 and trial % 3 == 1 and k < n
        code = _random_code(f, rng, n, k, grs_like=n <= q and trial % 3 == 0, twin=twin)
        fast = oracle._all_minors_nonzero(code)
        assert fast == oracle._all_minors_nonzero_by_determinant(code)
        verdicts.append(fast)
    assert True in verdicts and False in verdicts


def _projective_line_code(f, n, twin=None):
    """[n, 2] code over f whose columns are distinct projective points,
    except that column twin[1], if given, is a multiple of column twin[0]."""
    cols = ([(1, x) for x in range(f.q)] + [(0, 1)])[:n]
    if twin:
        i, j = twin
        cols[j] = tuple(f.mul(f.generator, x) for x in cols[i])
    return linear_code(f, [list(r) for r in zip(*cols)])


def test_batched_minors_exit_in_later_chunk(monkeypatch):
    # GF(64), n = 65: C(65, 2) = 2080 subsets, three chunks of 1024
    f = Field(2, 6)
    n = 65
    assert oracle._MINOR_BATCH == 1024
    chunks = []
    batched = oracle._all_nonsingular

    def counting(M, *tables):
        chunks.append(len(M))
        return batched(M, *tables)

    monkeypatch.setattr(oracle, "_all_nonsingular", counting)
    # subset (20, 21) is number 1090 in lexicographic order: chunk two
    code = _projective_line_code(f, n, (20, 21))
    subsets = list(itertools.combinations(range(n), 2))
    cols = list(zip(*code.generator.rows))
    singular = [
        i for i, (a, b) in enumerate(subsets)
        if f.sub(f.mul(cols[a][0], cols[b][1]), f.mul(cols[a][1], cols[b][0])) == 0
    ]
    assert singular == [1090]
    assert not oracle._all_minors_nonzero_by_determinant(code)
    assert not oracle._all_minors_nonzero(code)
    assert chunks == [1024, 1024]
    chunks.clear()
    mds = _projective_line_code(f, n)
    assert oracle._all_minors_nonzero(mds)
    assert chunks == [1024, 1024, 32]


def test_minors_batched_in_large_prime_field(monkeypatch):
    f = Field(1031)
    batches = []
    batched = oracle._all_nonsingular

    def counting(M, *args):
        batches.append(len(M))
        return batched(M, *args)

    monkeypatch.setattr(oracle, "_all_nonsingular", counting)
    minors_only = OracleBudget(max_codewords=1, max_minor_k=2)
    # column 3 is twice column 2
    assert not is_mds(linear_code(f, [[1, 1, 1, 2], [0, 1, 2, 4]]), minors_only)
    assert is_mds(linear_code(f, [[1, 1, 1, 0], [0, 1, 2, 1]]), minors_only)
    assert batches == [6, 6]


def test_hull_dim_oracle_self_dual_and_lcd():
    f = Field(13)
    pts = eval_set(f, range(13))
    sd = code_from_grs(grs(pts, [1] * 13, 7, extended=True))
    assert hull_dim_oracle(sd) == 7
    seed = make_seed(grs(pts, [1] * 13, 6))
    lcd = code_from_grs(reduce_hull_grs(seed, 4, 0))
    assert hull_dim_oracle(lcd) == 0


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
