"""Property test of the paper's main claim: every advertised (k, l) of a
certified family seed gives an MDS code whose hull dimension is l."""

import functools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hullcodes.construct import ConstructionError, reduce_hull
from hullcodes.families import FamilyError, FamilyParams, build_family, family_grid
from hullcodes.hull import code_from_grs, hull_report
from hullcodes.oracle import OracleBudget, is_mds

# small enough that the minors referee stays fast
MAX_LENGTH = 14

_params = st.one_of(
    st.builds(
        FamilyParams,
        family=st.just("even_cosets"),
        variant=st.sampled_from(("i", "ii", "iii", "iv")),
        r=st.sampled_from((3, 5, 7)),
        m=st.sampled_from((1, 2, 3, 4, 6, 8)),
        t=st.integers(1, 4),
    ),
    st.builds(
        FamilyParams,
        family=st.just("odd_cosets"),
        variant=st.sampled_from(("i", "ii", "iii")),
        r=st.sampled_from((3, 5, 7)),
        m=st.sampled_from((1, 3, 5)),
        t=st.integers(1, 3),
    ),
    st.builds(
        FamilyParams,
        family=st.just("additive"),
        variant=st.sampled_from(("i", "ii")),
        p=st.just(3),
        s=st.integers(1, 2),
        e=st.just(1),
    ),
    st.builds(
        FamilyParams,
        family=st.just("twisted_pair"),
        q=st.sampled_from((7, 11, 19, 23)),
        t=st.sampled_from((3, 5, 7, 9, 11)),
    ),
)


@functools.lru_cache(maxsize=None)
def _family(params):
    try:
        return build_family(params)
    except FamilyError:
        return None


@st.composite
def _cases(draw):
    params = draw(_params)
    fs = _family(params)
    assume(fs is not None and fs.code_length <= MAX_LENGTH and fs.k_max >= 1)
    _, k, l = draw(st.sampled_from(list(family_grid(fs))))
    return params, k, l


# n = q = 9 with an extended seed of dimension m = 5: (m-1, m-1) is the
# one pair no root-free linear twist reaches, so it is not advertised
@example(case=(FamilyParams("additive", "ii", p=3, s=1, e=1), 4, 4))
@settings(max_examples=25, deadline=None)
@given(case=_cases())
def test_reduction_gives_mds_code_with_hull_dimension_l(case):
    params, k, l = case
    fs = _family(params)
    grid = set(family_grid(fs))
    # the grid up to k_max is exactly what reduce_hull reaches
    for k_off in range(1, fs.k_max + 1):
        for l_off in range(k_off + 1):
            if (fs.code_length, k_off, l_off) not in grid:
                with pytest.raises(ConstructionError):
                    reduce_hull(fs.seed, k_off, l_off, extend=fs.extend)
    if (fs.code_length, k, l) not in grid:
        return
    spec = reduce_hull(fs.seed, k, l, extend=fs.extend)
    code = code_from_grs(spec)
    report = hull_report(code)
    assert spec.length == fs.code_length
    assert report.hull_dim == l
    assert report.oracle_agrees
    assert is_mds(code, OracleBudget(max_minor_k=fs.k_max))
