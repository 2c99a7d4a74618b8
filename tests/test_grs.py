import numpy as np
import pytest

from hullcodes.gf import Field, FieldError
from hullcodes.grs import (
    EvaluationSet,
    GrsError,
    encode,
    eval_set,
    generator_matrix,
    grs,
    spec_from_dict,
    spec_to_dict,
)

F5 = Field(5)
F13 = Field(13)


def test_eval_set_u_values():
    # frozen by hand: a = (0, 1, 2) over GF(5)
    # u_1 = ((0-1)(0-2))^-1 = 2^-1 = 3; u_2 = ((1-0)(1-2))^-1 = (-1)^-1 = 4
    # u_3 = ((2-0)(2-1))^-1 = 2^-1 = 3
    pts = eval_set(F5, [0, 1, 2])
    assert pts.u == (3, 4, 3)


def test_eval_set_full_field_wilson():
    # over the whole field, prod_{j != i}(a_i - a_j) = prod of all nonzero
    # elements = -1, so every u_i = -1
    for f in (F5, F13):
        pts = eval_set(f, range(f.q))
        assert set(pts.u) == {f.q - 1}


def test_eval_set_validation():
    with pytest.raises(GrsError):
        eval_set(F5, [])
    with pytest.raises(GrsError):
        eval_set(F5, [1, 1, 2])
    with pytest.raises(GrsError):
        eval_set(F5, range(6))
    assert eval_set(F5, [3]).u == (1,)


def test_grs_validation():
    pts = eval_set(F5, [0, 1, 2, 3])
    with pytest.raises(GrsError):
        grs(pts, [1, 1, 1], 2)  # wrong multiplier count
    with pytest.raises(GrsError):
        grs(pts, [1, 0, 1, 1], 2)  # zero multiplier
    with pytest.raises(GrsError):
        grs(pts, [1, 1, 1, 1], 5)  # k > n
    assert grs(pts, [1, 1, 1, 1], 5, extended=True).length == 5


def test_points_and_multipliers_must_be_integers():
    # int() would truncate 0.9 to 0 and parse "1": neither is an element
    with pytest.raises(FieldError):
        eval_set(F13, [0.9, 1.5, 2])
    pts = eval_set(F13, range(13))
    with pytest.raises(FieldError):
        grs(pts, [1.9] * 13, 6)
    with pytest.raises(FieldError):
        grs(pts, ["1"] * 13, 6)
    assert eval_set(F13, np.arange(3)).a == eval_set(F13, [0, np.int64(1), 2]).a == (0, 1, 2)
    spec = grs(pts, np.ones(13, dtype=np.int64), 6)
    assert spec.v == (1,) * 13 and all(type(x) is int for x in spec.v + spec.points.a)


def test_generator_matrix_and_encode():
    pts = eval_set(F13, [1, 2, 3, 4, 5])
    spec = grs(pts, [1, 2, 1, 1, 3], 3)
    G = generator_matrix(spec)
    assert (G.nrows, G.ncols) == (3, 5)
    # row r is (v_i a_i^r)
    assert G.rows[0] == (1, 2, 1, 1, 3)
    assert G.rows[2] == tuple(F13.mul(v, F13.pow(a, 2)) for a, v in zip(pts.a, spec.v))
    # encode matches the matrix action
    fx = [2, 0, 1]  # x^2 + 2
    word = encode(spec, fx)
    assert word == [F13.mul(v, F13.add(F13.pow(a, 2), 2)) for a, v in zip(pts.a, spec.v)]


def test_extended_generator_matrix():
    pts = eval_set(F13, [0, 1, 2])
    spec = grs(pts, [1, 1, 1], 2, extended=True)
    G = generator_matrix(spec)
    assert G.ncols == 4
    assert [row[-1] for row in G.rows] == [0, 1]
    word = encode(spec, [5, 7])
    assert word[-1] == 7  # coefficient of x^(k-1)


def test_spec_serialization_round_trip():
    pts = eval_set(Field(7, 2), [3, 8, 14, 20])
    spec = grs(pts, [1, 5, 2, 6], 2, extended=True)
    d = spec_to_dict(spec)
    assert d["schema"] == 1
    back = spec_from_dict(d)
    assert back == spec


def test_point_arrays_are_read_only_copies_of_the_tuples():
    for f in (F13, Field(3, 2)):
        pts = eval_set(f, [5, 0, 3, 7])
        spec = grs(pts, [1, 2, 4, 8], 2)
        for arr, tup in ((pts.a_array, pts.a), (pts.u_array, pts.u), (pts.P_array, pts.P), (spec.v_array, spec.v)):
            assert arr.dtype == np.int64 and arr.tolist() == list(tup)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        # built once, then kept
        assert pts.a_array is pts.a_array and spec.v_array is spec.v_array


def test_a_hand_built_evaluation_set_is_checked_when_read():
    # the dataclass takes any tuples; the arrays are checked as they are
    # built, so a non-element fails there
    for bad in ((0, 13), (0, -1), (0, True), (0, 1.5)):
        pts = EvaluationSet(F13, bad, (12, 1), (0, 12, 1))
        with pytest.raises(FieldError):
            pts.a_array
    pts = EvaluationSet(F13, (0, 1), (12, 13), (0, 12, 1))
    with pytest.raises(FieldError):
        pts.u_array
    pts = EvaluationSet(F13, (0, 1), (12, 1), (0, 12, 14))
    with pytest.raises(FieldError):
        pts.P_array
