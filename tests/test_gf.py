import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from hullcodes import gf
from hullcodes.gf import (
    MAX_Q,
    TABLE_CACHE_SIZE,
    Field,
    FieldError,
    default_modulus,
    factor_prime_power,
    is_prime,
)


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


def test_encoding_helpers_return_ints_for_numpy_integers():
    f = Field(7, 2)
    digits = f.coeffs(np.int64(10))
    assert digits == [3, 1] and all(type(c) is int for c in digits)
    for got, want in ((f.from_coeffs([np.int64(3), 1]), 10), (f.from_coeffs(np.array([3, 1])), 10),
                      (f.scalar(np.int64(9)), 2), (f.scalar(np.uint8(9)), 2), (f.scalar(-3), 4)):
        assert got == want and type(got) is int
    with pytest.raises(TypeError):
        f.scalar(2.0)
    with pytest.raises(TypeError):
        f.from_coeffs([1.5])


def test_from_coeffs_refuses_more_than_m_coefficients():
    f = Field(3, 2)
    assert f.from_coeffs([1, 1]) == 4 and f.from_coeffs([2]) == 2
    for cs in ([1, 1, 1], [0, 0, 0], np.array([1, 0, 2, 1])):
        with pytest.raises(FieldError):
            f.from_coeffs(cs)


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


def test_scalar_ops_accept_numpy_integers_and_refuse_bools():
    # the fast check is only a shortcut: the accepted values are unchanged
    f = Field(7, 2)
    x, y = np.int64(10), np.uint16(33)
    assert f.add(x, y) == f.add(10, 33) and f.sub(x, y) == f.sub(10, 33)
    assert f.mul(x, y) == f.mul(10, 33) and f.neg(x) == f.neg(10)
    assert f.inv(x) == f.inv(10) and f.pow(x, 3) == f.pow(10, 3)
    # a bool is not an element, as asarray already held for bool arrays
    for field in (Field(5), Field(7, 2)):
        for bad in (True, False, np.True_):
            for op in (field.add, field.sub, field.mul):
                with pytest.raises(FieldError):
                    op(bad, 1)
                with pytest.raises(FieldError):
                    op(1, bad)
            for op in (field.neg, field.inv, lambda x: field.pow(x, 2)):
                with pytest.raises(FieldError):
                    op(bad)


def test_asarray_names_the_first_bad_entry():
    f = Field(5)
    with pytest.raises(FieldError, match=r"^True is not an element of GF\(5\)$"):
        f.asarray([True])
    with pytest.raises(FieldError, match=r"^7 is not an element"):
        f.asarray([[1, 2], [7, 9]])


def test_asarray_refuses_a_bool_among_ints():
    # numpy reads [True, 1] as the int64 array [1 1]; a bool is refused
    # wherever it sits, and an int array is taken by its dtype alone
    from hullcodes.grs import eval_set, grs

    for f in (Field(7), Field(3, 2)):
        for bad in ([True, 1], (1, False), [1, np.True_], [[1, 2], [3, True]], [np.array([1, 2]), [True, 3]]):
            with pytest.raises(FieldError, match=r"^(True|False|np\.True_) is not an element"):
                f.asarray(bad)
        assert f.asarray(np.array([True, 1]).astype(np.int64)).tolist() == [1, 1]
        assert f.asarray([np.int64(1), 2]).tolist() == [1, 2]
        with pytest.raises(FieldError):
            eval_set(f, [True, 2])
        with pytest.raises(FieldError):
            grs(eval_set(f, [1, 2]), [True, 3], 1)


def _scalar_powers(p, modulus, g):
    """g^0, ..., g^(q-2) by the scalar recurrence g^i = g^(i-1) * g, each
    product a digit-list product reduced by the modulus."""
    m = len(modulus) - 1
    g = [g // p**j % p for j in range(m)]
    top = max(j for j, c in enumerate(g) if c)
    cur, out = [1] + [0] * (m - 1), []
    for _ in range(p**m - 1):
        out.append(sum(c * p**j for j, c in enumerate(cur)))
        prod, shifted = [0] * m, cur
        for j in range(top + 1):
            if g[j]:
                prod = [(a + g[j] * b) % p for a, b in zip(prod, shifted)]
            # times x: shift up one digit and reduce x^m by the modulus
            lead = shifted[-1]
            shifted = [(a - lead * c) % p for a, c in zip([0] + shifted[:-1], modulus)]
        cur = prod
    return out


@pytest.mark.parametrize("p, m", [(2, 2), (3, 2), (7, 2), (3, 7), (2, 11), (2, 16)])
def test_tables_match_scalar_recurrence(p, m):
    f = Field(p, m)
    n = f.q - 1
    Z = 2 * n
    period = _scalar_powers(p, f.modulus, f.generator)
    exp = period + period + [0] * (Z + 1)
    log = [Z] * f.q
    for i, a in enumerate(period):
        log[a] = i
    # zech[log b - log a + Z]: log b - Z when a = 0 (index < n), 0 when
    # b = 0 (index > 3n), else log(1 + g^d) with d the index - Z
    one_plus = [log[a - a % p + (a + 1) % p] for a in period]
    zech = [i - Z if i < n else 0 if i > 3 * n else one_plus[(i - Z) % n]
            for i in range(2 * Z + 1)]
    assert f._exp_array.tolist() == exp
    assert f._log_array.tolist() == log
    assert f._zech_array.tolist() == zech


# --- the generator search against a scalar reference ---


def _prime_powers(limit):
    return [(q, *factor_prime_power(q)) for q in range(2, limit + 1)
            if len(gf.prime_factors(q)) == 1]


def _raw_mul(p, modulus, a, b):
    """a * b by a digit-list polynomial product reduced by the modulus."""
    m = len(modulus) - 1
    da = [a // p**j % p for j in range(m)]
    db = [b // p**j % p for j in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * m - 2, m - 1, -1):
        lead, prod[top] = prod[top], 0
        for j in range(m):
            prod[top - m + j] = (prod[top - m + j] - lead * modulus[j]) % p
    return sum(c * p**j for j, c in enumerate(prod[:m]))


def _raw_pow(p, modulus, x, e):
    r = 1
    while e:
        if e & 1:
            r = _raw_mul(p, modulus, r, x)
        x = _raw_mul(p, modulus, x, x)
        e >>= 1
    return r


def _scalar_generator(p, m, modulus):
    """The smallest x whose (q - 1)/f-th power is not 1 for any prime f
    dividing q - 1, one scalar power at a time."""
    q = p**m
    if q == 2:
        return 1
    checks = [(q - 1) // f for f in gf.prime_factors(q - 1)]
    return next(x for x in range(2, q)
                if all(_raw_pow(p, modulus, x, e) != 1 for e in checks))


def test_generator_search_matches_scalar_reference():
    def search(p, m, modulus):
        return gf._field_tables.__wrapped__(p, m, modulus)[0]

    for q, p, m in _prime_powers(1024):
        modulus = default_modulus(p, m)
        assert search(p, m, modulus) == _scalar_generator(p, m, modulus), q
    # a second modulus of each of a few extension fields
    for p, m, modulus in ((7, 2, (3, 1, 1)), (2, 4, (1, 0, 0, 1, 1)), (3, 3, (1, 2, 0, 1))):
        assert search(p, m, modulus) == _scalar_generator(p, m, modulus)
    # the large fields the suite and CI build, and two whose searches
    # reject many candidates: 38 for GF(37^3), 36 for GF(63361)
    for p, m in ((2, 13), (3, 7), (3, 10), (2, 16), (4099, 1), (65521, 1), (37, 3), (63361, 1)):
        modulus = default_modulus(p, m)
        assert search(p, m, modulus) == _scalar_generator(p, m, modulus), (p, m)


# --- the tables shared between fields with one key ---


def test_fields_with_one_key_share_read_only_tables():
    f, g = Field(7, 2), Field(7, 2, modulus=[1, 0, 1])
    assert f == g and f is not g
    assert f._exp_array is g._exp_array and np.shares_memory(f._exp, g._exp_array)
    for table in (f._exp_array, f._log_array, f._zech_array):
        with pytest.raises(ValueError):
            table[1] = 0
    for view in (f._exp, f._log, f._zech):
        with pytest.raises(TypeError):
            view[1] = 0
    assert f.mul(7, 7) == 6 and g.add(7, 1) == 8


@pytest.mark.parametrize("p, m", [(7, 1), (7, 2), (2, 16)])
def test_scalar_ops_read_the_arrays_themselves(p, m):
    f = Field(p, m)
    assert not any(isinstance(t, tuple) for t in gf._field_tables(p, m, f.modulus))
    pairs = [(f._exp, f._exp_array), (f._log, f._log_array)]
    if m == 1:
        assert f._zech is None and f._zech_array is None
    else:
        pairs.append((f._zech, f._zech_array))
    for view, array in pairs:
        assert np.shares_memory(view, array) and view.readonly


@pytest.mark.parametrize("p, m", [(7, 1), (7, 2), (2, 16)])
def test_scalar_ops_return_ints(p, m):
    f = Field(p, m)
    a, b = f.q - 2, f.q // 3
    results = [f.add(a, b), f.sub(a, b), f.neg(a), f.mul(a, b), f.inv(a), f.pow(a, 5),
               f.pow(0, 0), f.sqrt(f.mul(a, a)), f.root_of_unity(f.q - 1), f.generator]
    assert all(type(x) is int for x in results)
    # numpy integers take the checked branch and still give ints
    a, b = np.int64(a), np.uint16(b)
    results = [f.add(a, b), f.add(1, b), f.sub(a, b), f.neg(a), f.mul(a, b), f.inv(a), f.pow(a, 5)]
    assert all(type(x) is int for x in results)


def test_fields_pickle_and_copy_by_their_key():
    for f in (Field(7), Field(7, 2), Field(7, 2, modulus=[3, 1, 1])):
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
            assert g == f and g.modulus == f.modulus
            assert np.shares_memory(g._exp, f._exp_array)  # rebuilt from the cache
            assert [g.mul(x, 10 % f.q) for x in range(f.q)] == [f.mul(x, 10 % f.q) for x in range(f.q)]


def test_a_cold_table_entry_holds_one_copy():
    # exp and zech have 4(q - 1) + 1 entries of int64, log q of int64 and
    # logs q of uint32, and terms is exp itself: 4.75 MiB for GF(2^16),
    # where a second copy as tuples of ints held 20 MB
    modulus = default_modulus(2, 16)
    tracemalloc.start()
    try:
        tables = gf._field_tables.__wrapped__(2, 16, modulus)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tables[0] == Field(2, 16).generator
    assert held <= 6 * 2**20


def test_another_modulus_gives_other_tables():
    f, h = Field(7, 2), Field(7, 2, modulus=[3, 1, 1])  # x^2 + x + 3
    assert f != h
    assert f._exp != h._exp and not np.array_equal(f._log_array, h._log_array)
    # x is a root of x^2 + x + 3, so x * x = -x - 3
    assert h.mul(7, 7) == h.from_coeffs([-3, -1])


def test_checks_still_run_once_fields_are_cached():
    Field(7, 2), Field(2, 4), Field(3)
    with pytest.raises(FieldError, match="reducible"):
        Field(7, 2, modulus=[6, 0, 1])  # x^2 - 1
    with pytest.raises(FieldError, match="monic"):
        Field(7, 2, modulus=[1, 0, 2])
    with pytest.raises(FieldError, match="not prime"):
        Field(6)
    with pytest.raises(FieldError, match="MAX_Q"):
        Field(2, 17)
    with pytest.raises(FieldError, match="degree"):
        Field(7, 0)


def test_table_cache_is_bounded():
    assert gf._field_tables.cache_info().maxsize == TABLE_CACHE_SIZE
    primes = [p for p in range(2, 1000) if is_prime(p)][: TABLE_CACHE_SIZE + 4]
    for p in primes:
        assert Field(p).q == p
    assert gf._field_tables.cache_info().currsize <= TABLE_CACHE_SIZE


def test_modulus_verdicts_are_cached_and_bounded():
    assert gf._irreducible_modulus.cache_info().maxsize == TABLE_CACHE_SIZE
    # a reducible modulus raises on every call, its verdict cached or not
    for _ in range(3):
        with pytest.raises(FieldError, match="reducible"):
            Field(5, 2, modulus=[4, 0, 1])  # x^2 - 1
    primes = [p for p in range(3, 1000) if is_prime(p)][: TABLE_CACHE_SIZE + 4]
    for p in primes:
        assert Field(p, 1, modulus=[1, 1]).modulus == (1, 1)
    assert gf._irreducible_modulus.cache_info().currsize <= TABLE_CACHE_SIZE


def test_cached_tables_equal_fresh_ones():
    for q, p, m in _prime_powers(256):
        f = Field(p, m)
        g, exp, log, zech, log_minus_one, spread, logs, terms = gf._field_tables.__wrapped__(p, m, f.modulus)
        assert (f.generator, f._log_minus_one) == (g, log_minus_one), q
        tables = ((f._exp_array, exp), (f._log_array, log), (f._zech_array, zech), (f._spread_array, spread),
                  (f._logs, logs), (f._terms, terms))
        for mine, fresh in tables:
            assert (mine is None and fresh is None) or np.array_equal(mine, fresh), q
