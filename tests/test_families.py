import dataclasses

import pytest

from hullcodes.construct import ConstructionError, reduce_hull, unreachable
from hullcodes import families
from hullcodes.families import (
    FAMILY_TABLE,
    FamilyError,
    FamilyParams,
    build_family,
    construct_from_family,
    family_grid,
)
from hullcodes.gf import Field, factor_prime_power
from hullcodes.hull import code_from_grs, hull_report
from hullcodes.oracle import OracleBudget, is_mds


def _check_grid(fs, sample_only=False):
    """Construct every advertised (k, l) and verify hull + MDS."""
    grid = list(family_grid(fs))
    budget = OracleBudget(max_minor_k=max(5, fs.k_max))
    if sample_only:
        grid = grid[:: max(1, len(grid) // 6)]
    for n, k, l in grid:
        spec = construct_from_family(fs, k, l)
        assert spec.length == n
        report = hull_report(code_from_grs(spec))
        assert report.hull_dim == l, (fs.params, k, l, report.hull_dim)
        assert report.oracle_agrees
        assert is_mds(code_from_grs(spec), budget)
    return grid


def test_even_cosets_variant_i_self_dual_seed():
    fs = build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=4))
    assert fs.seed.m == 6 and fs.code_length == 12
    report = hull_report(code_from_grs(fs.seed.spec))
    assert report.classification == "self-dual"
    _check_grid(fs, sample_only=True)


def test_even_cosets_variant_iv_extended_self_dual():
    fs = build_family(FamilyParams("even_cosets", "iv", r=7, m=2, t=1))
    assert fs.code_length == 4  # n = 2, +0 point, + infinity
    report = hull_report(code_from_grs(fs.seed.spec))
    assert report.classification == "self-dual"
    _check_grid(fs)


def test_even_cosets_exception_case():
    # t even, m even, r = 1 mod 4 is excluded for variants iii/iv
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "iii", r=5, m=2, t=2))
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "iv", r=5, m=2, t=2))
    # but variant i at the same parameters is fine ((q-1)/m = 12 even)
    fs = build_family(FamilyParams("even_cosets", "i", r=5, m=2, t=2))
    assert fs.code_length == 4


def test_even_cosets_invariant_checks():
    with pytest.raises(FamilyError):  # n odd
        build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=3))
    with pytest.raises(FamilyError):  # m does not divide q - 1
        build_family(FamilyParams("even_cosets", "i", r=7, m=5, t=2))
    with pytest.raises(FamilyError):  # t beyond the coset count
        build_family(FamilyParams("even_cosets", "i", r=7, m=4, t=3))
    with pytest.raises(FamilyError):  # (q-1)/m odd for variant i
        build_family(FamilyParams("even_cosets", "i", r=5, m=8, t=1))
    with pytest.raises(FamilyError, match="base field size r must be odd"):
        build_family(FamilyParams("even_cosets", "i", r=4, m=3, t=1))


def test_even_cosets_mu_override():
    params = FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(0, 1, 2, 3))
    fs = build_family(params)
    assert hull_report(code_from_grs(fs.seed.spec)).classification == "self-dual"
    with pytest.raises(FamilyError):  # same coset twice: 0 and 8 = r+1
        build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(0, 1, 2, 8)))
    with pytest.raises(FamilyError):  # not increasing
        build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(2, 1, 0, 3)))
    with pytest.raises(FamilyError, match="need exactly 4 coset exponents, got 2"):
        build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(0, 1)))


def test_odd_cosets_variants():
    base = dict(r=5, m=3, t=1)
    fs1 = build_family(FamilyParams("odd_cosets", "i", **base))
    assert hull_report(code_from_grs(fs1.seed.spec)).classification == "almost-self-dual"
    assert [nkl for nkl in family_grid(fs1)] == [(3, 1, 0), (3, 1, 1)]
    _check_grid(fs1)

    fs2 = build_family(FamilyParams("odd_cosets", "ii", **base))
    assert fs2.seed.spec.extended
    assert hull_report(code_from_grs(fs2.seed.spec)).classification == "self-dual"
    _check_grid(fs2)

    fs3 = build_family(FamilyParams("odd_cosets", "iii", **base))
    assert fs3.code_length == 5 and fs3.extend
    assert all(l <= k - 1 for _, k, l in family_grid(fs3))
    assert hull_report(code_from_grs(fs3.seed.spec)).classification == "self-dual"
    _check_grid(fs3)


def _greedy_mu(field, beta, r, m, t, step):
    """The smallest exponents 0 <= mu_1 < ... < mu_t, a multiple of step
    apart, in distinct cosets of the m-th roots of unity, one greedy
    candidate at a time (None if there are fewer than t)."""
    chosen = []
    for cand in range(0, r + 1, step):
        if all(field.pow(field.pow(beta, cand - prev), m) != 1 for prev in chosen):
            chosen.append(cand)
            if len(chosen) == t:
                return tuple(chosen)
    return None


def test_default_mu_is_the_greedy_choice():
    checked = 0
    for r in (3, 5, 7, 9, 11, 13, 25):
        q = r * r
        for m in (m for m in range(1, 25) if (q - 1) % m == 0):
            for odd in (False, True):
                for t in range(1, r + 2):
                    if t * m % 2 != odd:
                        continue
                    params = FamilyParams("odd_cosets" if odd else "even_cosets", r=r, m=m, t=t)
                    try:
                        field, _, mu, _ = families._coset_set(params, odd)
                    except FamilyError as exc:
                        assert "out of range" in str(exc)
                        field = Field(*factor_prime_power(r * r))
                        beta = field.root_of_unity(r + 1)
                        assert _greedy_mu(field, beta, r, m, t, 1 + odd) is None, params
                        continue
                    beta = field.root_of_unity(r + 1)
                    assert mu == _greedy_mu(field, beta, r, m, t, 1 + odd), params
                    checked += 1
    assert checked > 300


def test_odd_cosets_rejects_even_n_and_odd_mu():
    with pytest.raises(FamilyError):
        build_family(FamilyParams("odd_cosets", "i", r=5, m=4, t=1))
    with pytest.raises(FamilyError):
        build_family(FamilyParams("odd_cosets", "i", r=5, m=3, t=1, mu=(1,)))


def test_additive_variants():
    fs1 = build_family(FamilyParams("additive", "i", p=3, s=1, e=1))
    assert fs1.code_length == 9 and fs1.seed.m == 4
    assert hull_report(code_from_grs(fs1.seed.spec)).classification == "almost-self-dual"
    _check_grid(fs1, sample_only=True)

    fs2 = build_family(FamilyParams("additive", "ii", p=3, s=1, e=1))
    assert fs2.code_length == 10 and fs2.seed.m == 5
    # n = q = 9: the (m-1, m-1) = (4, 4) pair is the one pair off the grid
    grid = {(k, l) for _, k, l in family_grid(fs2)}
    assert {(k, l) for k in range(1, 6) for l in range(k + 1)} - grid == {(4, 4)}
    assert "exhaust the field" in unreachable(fs2.seed.spec, 4, 4)
    with pytest.raises(FamilyError, match="exhaust the field"):
        construct_from_family(fs2, 4, 4)
    _check_grid(fs2, sample_only=True)


def test_additive_larger_field():
    fs = build_family(FamilyParams("additive", "i", p=3, s=2, e=1))
    assert fs.seed.spec.field.q == 81 and fs.code_length == 9
    assert hull_report(code_from_grs(fs.seed.spec)).classification == "almost-self-dual"


def test_additive_invariants():
    with pytest.raises(FamilyError):
        build_family(FamilyParams("additive", "i", p=3, s=1, e=2))  # e > s
    with pytest.raises(FamilyError):
        build_family(FamilyParams("additive", "i", p=2, s=1, e=1))  # even p


def test_twisted_pair_q7():
    fs = build_family(FamilyParams("twisted_pair", "i", q=7, t=3))
    assert fs.code_length == 6 and fs.k_max == 2
    # frozen reference: alpha = 2 (order 3), omega = 3 (smallest non-square)
    assert fs.seed.spec.points.a == (2, 4, 1, 6, 5, 3)
    grid = _check_grid(fs)
    assert grid == [(6, 1, 0), (6, 1, 1), (6, 2, 0), (6, 2, 1), (6, 2, 2)]


def test_twisted_pair_q11():
    fs = build_family(FamilyParams("twisted_pair", "i", q=11, t=5))
    assert fs.seed.m == 4
    _check_grid(fs, sample_only=True)


def test_twisted_pair_omega_override():
    fs = build_family(FamilyParams("twisted_pair", "i", q=7, t=3, omega=5))
    assert hull_report(code_from_grs(fs.seed.spec)).hull_dim == fs.seed.m
    with pytest.raises(FamilyError):
        build_family(FamilyParams("twisted_pair", "i", q=7, t=3, omega=2))  # square


def test_twisted_pair_invariants():
    with pytest.raises(FamilyError):
        build_family(FamilyParams("twisted_pair", "i", q=13, t=3))  # q = 1 mod 4
    with pytest.raises(FamilyError):
        build_family(FamilyParams("twisted_pair", "i", q=7, t=2))  # even t
    with pytest.raises(FamilyError):
        build_family(FamilyParams("twisted_pair", "i", q=7, t=5))  # t does not divide q-1


def test_unknown_family_and_variant():
    with pytest.raises(FamilyError):
        build_family(FamilyParams("mystery", "i", q=7, t=3))
    with pytest.raises(FamilyError):
        build_family(FamilyParams("even_cosets", "v", r=7, m=3, t=4))


@pytest.mark.parametrize(
    "params, message",
    [
        (FamilyParams("additive", p=3, s=1, e=1, r=7), "additive does not read r"),
        (FamilyParams("twisted_pair", q=7, t=3, mu=(1, 2), p=7), "twisted_pair does not read mu, p"),
        (FamilyParams("even_cosets", r=7, m=3, t=4, omega=3), "even_cosets does not read omega"),
        (FamilyParams("odd_cosets", r=5, m=3, t=1, p=5, s=1, e=1), "odd_cosets does not read p, s, e"),
        # a missing parameter keeps its message, and wins over a foreign one
        (FamilyParams("additive", p=3, s=1, q=9), "additive needs p, s and e"),
        (FamilyParams("even_cosets", r=7, m=3), "even_cosets needs r, m and t"),
        (FamilyParams("odd_cosets", m=3, t=1), "odd_cosets needs r, m and t"),
        (FamilyParams("twisted_pair", t=3), "twisted_pair needs q and t"),
    ],
)
def test_family_parameters_are_required_and_read(params, message):
    with pytest.raises(FamilyError, match=f"^{message}$"):
        build_family(params)


def test_table_parameters_are_family_params_fields():
    fields = {field.name for field in dataclasses.fields(FamilyParams)}
    for name, (_, variants, required, optional) in FAMILY_TABLE.items():
        assert "i" in variants, name  # FamilyParams' default variant
        assert set(required) | set(optional) <= fields - {"family", "variant"}, name


@pytest.mark.parametrize("name", sorted(FAMILY_TABLE))
def test_variant_refusal_lists_the_familys_variants(name):
    _, variants, required, _ = FAMILY_TABLE[name]
    # checked before the builder runs, so the parameter values do not matter
    params = FamilyParams(name, "v", **dict.fromkeys(required, 1))
    with pytest.raises(FamilyError, match=f"^{name} has variants {', '.join(variants)}, not 'v'$"):
        build_family(params)


def test_out_of_range_targets():
    seeds = [
        FamilyParams("twisted_pair", "i", q=7, t=3),
        FamilyParams("odd_cosets", "iii", r=5, m=3, t=1),  # l <= k - 1
        FamilyParams("even_cosets", "ii", r=5, m=4, t=1),  # l <= k - 1
        FamilyParams("additive", "ii", p=3, s=1, e=1),  # (4, 4) excluded
    ]
    for params in seeds:
        fs = build_family(params)
        grid = set(family_grid(fs))
        for k in range(fs.k_max + 2):
            for l in range(-1, k + 2):
                if (fs.code_length, k, l) in grid:
                    assert construct_from_family(fs, k, l).k == k
                    continue
                with pytest.raises(FamilyError, match=rf"^\(k, l\) = \({k}, {l}\) is off this seed's grid: ") as exc:
                    construct_from_family(fs, k, l)
                if k > fs.k_max:
                    assert str(exc.value).endswith(f"k = {k} exceeds this seed's k_max = {fs.k_max}")
                    continue
                # below k_max the grid is reduce_hull's own refusal rule
                with pytest.raises(ConstructionError) as refusal:
                    reduce_hull(fs.seed, k, l, extend=fs.extend)
                assert str(exc.value).endswith(f"grid: {refusal.value}")


def test_odd_cosets_variant_i_needs_three_points():
    with pytest.raises(FamilyError, match=r"variant i .*n = t\*m"):
        build_family(FamilyParams("odd_cosets", "i", r=5, m=1, t=1))


# --- the seed cache ---


def test_equal_params_give_the_same_seed_object():
    first = build_family(FamilyParams("even_cosets", "iv", r=7, m=3, t=4))
    assert build_family(FamilyParams("even_cosets", "iv", r=7, m=3, t=4)) is first
    assert build_family.cache_info().hits == 1
    assert build_family(FamilyParams("even_cosets", "iii", r=7, m=3, t=4)) is not first


def test_a_list_mu_and_a_tuple_mu_give_the_same_seed():
    as_list = FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=[0, 1, 2, 3])
    assert as_list.mu == (0, 1, 2, 3) and all(type(x) is int for x in as_list.mu)
    assert as_list == FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(0, 1, 2, 3))
    fs = build_family(as_list)
    assert build_family(FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=(0, 1, 2, 3))) is fs
    with pytest.raises(FamilyError, match="mu must be integers"):
        FamilyParams("even_cosets", "i", r=7, m=3, t=4, mu=["a"])


def test_the_default_omega_and_the_same_omega_given_share_one_seed():
    fs = build_family(FamilyParams("twisted_pair", "i", q=7, t=3))
    assert fs.params.omega == 3  # the smallest non-square of GF(7) from 2 on
    assert build_family(FamilyParams("twisted_pair", "i", q=7, t=3, omega=3)) is fs
    assert build_family(FamilyParams("twisted_pair", "i", q=7, t=3, omega=5)) is not fs


@pytest.mark.parametrize(
    "params",
    [
        FamilyParams("even_cosets", "i", r=7, m=4, t=3),  # m does not divide q - 1
        FamilyParams("twisted_pair", "i", q=7, t=3, omega=2),  # a square
        FamilyParams("additive", p=3, s=1, e=1, r=7),  # a parameter it does not read
    ],
)
def test_invalid_params_raise_on_every_call(params):
    for _ in range(3):
        with pytest.raises(FamilyError):
            build_family(params)
    assert build_family.cache_info().currsize == 0


def test_the_seed_cache_has_the_field_table_bound():
    from hullcodes import gf

    assert build_family.cache_info().maxsize == gf.TABLE_CACHE_SIZE
