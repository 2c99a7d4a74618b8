import numpy as np
import pytest

from hullcodes.gf import MAX_Q, Field, FieldError, default_modulus, factor_prime_power, is_prime


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(27) == (3, 3)
    with pytest.raises(FieldError):
        factor_prime_power(12)


def test_field_size_is_capped_before_construction():
    assert MAX_Q >= 1031  # the largest field the tests and benchmark use
    with pytest.raises(FieldError, match="MAX_Q"):
        factor_prime_power(2 * MAX_Q)
    with pytest.raises(FieldError, match="MAX_Q"):
        Field(65537)  # prime, but above the cap
    with pytest.raises(FieldError, match="MAX_Q"):
        Field(2, 10**12)


def test_default_modulus_is_smallest_irreducible():
    # x^2 + 1 is the smallest monic irreducible quadratic over GF(7)
    assert default_modulus(7, 2) == (1, 0, 1)
    # over GF(3): x^2 + 1 again (x^2, x^2+x, ... all have roots or factor)
    assert default_modulus(3, 2) == (1, 0, 1)
    # GF(2): x^2 + x + 1 is the only irreducible quadratic
    assert default_modulus(2, 2) == (1, 1, 1)


def test_prime_field_arithmetic():
    f = Field(13)
    assert f.add(7, 9) == 3
    assert f.sub(3, 7) == 9
    assert f.mul(5, 8) == 1
    assert f.inv(5) == 8
    assert f.pow(2, 12) == 1
    assert f.neg(0) == 0
    with pytest.raises(FieldError):
        f.inv(0)
    with pytest.raises(FieldError):
        f.mul(13, 1)


def test_generator_is_canonical():
    # 2 generates GF(13)^* and GF(5)^*; these are frozen reference values
    assert Field(13).generator == 2
    assert Field(5).generator == 2
    # GF(7): 2 has order 3, so the generator is 3
    assert Field(7).generator == 3


def test_extension_field_gf49():
    f = Field(7, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1
    # i = enc 7 is the image of x; i^2 = -1 = 6
    i = 7
    assert f.mul(i, i) == 6
    assert f.add(i, 1) == 8
    # additive structure is componentwise mod 7
    assert f.add(8, 8) == f.from_coeffs([2, 2])
    # every nonzero element has order dividing 48
    for x in range(1, f.q):
        assert f.pow(x, 48) == 1


def test_element_encoding_round_trip():
    f = Field(3, 3)
    for x in range(f.q):
        assert f.from_coeffs(f.coeffs(x)) == x
    assert f.scalar(5) == 2


def test_is_square_counts():
    for q, p, m in ((13, 13, 1), (27, 3, 3), (49, 7, 2)):
        f = Field(p, m)
        squares = [x for x in range(1, q) if f.is_square(x)]
        assert len(squares) == (q - 1) // 2
    # characteristic 2: everything is a square
    f2 = Field(2, 3)
    assert all(f2.is_square(x) for x in range(8))


def test_sqrt_is_canonical_and_correct():
    f = Field(13)
    for x in range(13):
        if f.is_square(x):
            y = f.sqrt(x)
            assert f.mul(y, y) == x
            assert y <= f.neg(y)
    with pytest.raises(FieldError):
        f.sqrt(2)  # 2 is not a QR mod 13
    # char 2: sqrt is the q/2 power
    f4 = Field(2, 2)
    for x in range(4):
        y = f4.sqrt(x)
        assert f4.mul(y, y) == x


def test_root_of_unity():
    f = Field(13)
    w = f.root_of_unity(4)
    assert w == 8  # g = 2, 2^3 = 8, order 4
    assert f.pow(w, 4) == 1 and f.pow(w, 2) != 1
    with pytest.raises(FieldError):
        f.root_of_unity(5)


def test_field_equality_and_serialization():
    f = Field(5, 2)
    g = Field.from_dict(f.to_dict())
    assert f == g and hash(f) == hash(g)
    assert f != Field(5)
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(5, 2, modulus=[1, 0, 0, 1])  # wrong degree
    with pytest.raises(FieldError):
        Field(5, 2, modulus=[4, 0, 1])  # x^2 + 4 = (x-1)(x+1)


def test_every_scalar_op_rejects_non_elements():
    # add, neg and sub used to return a wrong element for these
    with pytest.raises(FieldError):
        Field(7, 2).add(-1, 0)
    with pytest.raises(FieldError):
        Field(7).add(50, 0)
    with pytest.raises(FieldError):
        Field(7).neg(50)
    with pytest.raises(FieldError):
        Field(7, 2).sub(3, -2)
    for f in (Field(7), Field(7, 2)):
        for bad in (-1, f.q, 2.0, "1", None):
            for op in (f.add, f.sub, f.mul):
                with pytest.raises(FieldError):
                    op(bad, 1)
                with pytest.raises(FieldError):
                    op(1, bad)
            for op in (f.neg, f.inv, lambda x: f.pow(x, 2)):
                with pytest.raises(FieldError):
                    op(bad)


def test_scalar_ops_accept_numpy_integers_and_bools():
    # the fast check is only a shortcut: the accepted values are unchanged
    f = Field(7, 2)
    x, y = np.int64(10), np.uint16(33)
    assert f.add(x, y) == f.add(10, 33) and f.sub(x, y) == f.sub(10, 33)
    assert f.mul(x, y) == f.mul(10, 33) and f.neg(x) == f.neg(10)
    assert f.inv(x) == f.inv(10) and f.pow(x, 3) == f.pow(10, 3)
    assert f.add(True, 0) == 1 and f.mul(True, 5) == 5
