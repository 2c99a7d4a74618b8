import ast
import itertools
import pathlib
import random
import tracemalloc

import pytest
from sympy import Matrix as SympyMatrix

from hullcodes import oracle
from hullcodes.construct import make_seed, reduce_hull_grs, ternary_codes
from hullcodes.gf import Field, factor_prime_power
from hullcodes.grs import eval_set, grs
from hullcodes.hull import code_from_grs, linear_code
from hullcodes.linalg import Matrix, determinant, rank
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


def _levels_computed(monkeypatch):
    """The list of levels i >= 2 that _minors_level is asked for, filled
    as the check runs."""
    seen = []
    real = oracle._minors_level

    def counting(f, signed, below, i, binom):
        seen.append(i)
        return real(f, signed, below, i, binom)

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
    lcd = code_from_grs(reduce_hull_grs(seed, 4, 0))
    assert hull_dim_oracle(lcd) == 0


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
