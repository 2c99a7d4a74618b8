"""Finite fields GF(p^m) with a canonical integer element encoding.

Elements are plain Python ints in range(q).  The encoding is the
polynomial-basis one: an element with coefficients (c_0, ..., c_{m-1}),
constant term first, is encoded as sum(c_i * p**i).  Thus enc(0) = 0,
enc(1) = 1, and for prime fields the encoding is just the residue.

All arithmetic lives on the Field object and runs on one set of O(q)
tables against a fixed primitive element g, the smallest one: exp, log
and, for m > 1, Zech logarithms.  exp holds two periods of the
antilog table followed by a zero tail, and log[0] points at the start
of that tail, so exp[log a + log b] is a * b with no branch for zero.
The Zech table makes an extension-field sum one more lookup:
a + b = exp[log a + zech[log b - log a + Z]], Z = log 0 (Huber, IEEE
Trans. Inf. Theory 36(3), 1990; the layouts follow GF-Complete, Plank,
Greenan and Miller, FAST 2013).  Prime fields add with % p.  Fields
above MAX_Q elements are refused before any table is built.

The tables depend only on (p, m, modulus).  They are built once per
process for each such key, kept in a small bounded cache, and shared
read-only by every Field with that key; each Field still checks its
parameters before it takes them from the cache (the verdict on an
explicit modulus is kept in a cache of the same size).  They are kept as
tuples for the scalar ops (add, mul, inv, ...) and as int64 numpy
arrays for the same ops on whole arrays of encodings (mul_array,
add_array, sub_array, inv_array, pow_array and sum_array, which also
sums along one axis), which the linear algebra, the GRS evaluation maps
and the oracle are built on.  The array ops
trust their inputs; asarray is the one check, made once per input array
where it enters, and it raises FieldError for any entry that is not an
element, as the scalar ops do per element.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


MAX_Q = 2**16
# Fields whose tables the cache keeps; a GF(2^16) entry holds about 20 MB.
TABLE_CACHE_SIZE = 16


class FieldError(ValueError):
    """Invalid field parameters or an illegal field operation."""


def _check_size(p: int, m: int) -> None:
    # m is bounded first so that p**m stays cheap to compute
    if p > 1 and (m >= MAX_Q.bit_length() or p**m > MAX_Q):
        raise FieldError(f"field size {p}^{m} is larger than MAX_Q = {MAX_Q}")


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^m with p prime, or raise."""
    _check_size(q, 1)
    fs = prime_factors(q)
    if len(fs) != 1:
        raise FieldError(f"{q} is not a prime power")
    p = fs[0]
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


# --- polynomial arithmetic over GF(p), used only for field construction ---
# Polynomials are tuples of residues mod p, constant term first.


def _gfp_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _gfp_mod(a, mod, p):
    """Remainder of a modulo the monic polynomial mod."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for j in range(d):
                a[shift + j] = (a[shift + j] - lead * mod[j]) % p
        a.pop()
    return _gfp_trim(a)


def _gfp_is_irreducible(poly, p):
    """Trial division of a monic polynomial by all lower-degree monic polys."""
    d = len(poly) - 1
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = tail + (1,)
            if not _gfp_mod(poly, divisor, p):
                return False
    return True


# the verdict on each explicit modulus Field is given, kept per (modulus, p)
_irreducible_modulus = functools.lru_cache(maxsize=TABLE_CACHE_SIZE)(_gfp_is_irreducible)


@functools.cache
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, coefficients compared
    lexicographically as (c_{m-1}, ..., c_0)."""
    for high_first in itertools.product(range(p), repeat=m):
        poly = tuple(reversed(high_first)) + (1,)
        if _gfp_is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


def _times_matrix(c, p: int, modulus) -> np.ndarray:
    """The m x m matrix of multiplication by c, whose digits are given:
    row j holds the digits of c * x^j, so the digits of a * c are
    digits(a) @ it % p."""
    low = np.array(modulus[:-1], dtype=np.int64)
    rows = [np.array(c, dtype=np.int64)]
    for _ in range(1, len(low)):
        # times x: shift up one digit and reduce x^m by the modulus
        prev = rows[-1]
        rows.append((np.concatenate([[0], prev[:-1]]) - prev[-1] * low) % p)
    return np.stack(rows)


def _find_generator(p: int, m: int, modulus) -> int:
    """The smallest primitive element: the first x with x^(n/f) != 1 for
    every prime f dividing n = q - 1.

    Candidates are tested a block at a time, all exponents at once, by
    square-and-multiply on arrays of digits (for m = 1, modular powers).
    """
    q = p**m
    n = q - 1
    if n == 1:
        return 1
    exps = [n // f for f in prime_factors(n)]
    # x^0 .. x^(2m-2) from _times_matrix, and mul[i*m + j] = x^(i+j), so
    # the digits of a * b are the flattened outer(a, b) @ mul % p (its
    # sums stay below m^2 p^3 < 2^49)
    unit = np.eye(m, dtype=np.int64)
    x_pows = np.concatenate([unit, _times_matrix(unit[-1], p, modulus)[1:]])
    mul = x_pows[np.arange(m)[:, None] + np.arange(m)].reshape(m * m, m)

    def times(a, b):
        return (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], m * m) @ mul % p

    place = p ** np.arange(m)
    # a prime-subfield element has order dividing p - 1 < n, so an
    # extension field's search starts at x = p
    start, size = (2 if m == 1 else p), 8
    while start < q:
        xs = range(start, min(start + size, q))
        base = np.array([[x // p**i % p for i in range(m)] for x in xs])
        # power[e, i]: the digits of xs[i] ** (the low j bits of exps[e])
        power = np.zeros((len(exps), len(xs), m), dtype=np.int64)
        power[..., 0] = 1
        for j in range(max(exps).bit_length()):
            odd = np.array([e >> j & 1 for e in exps], dtype=bool)
            power[odd] = times(power[odd], base)
            base = times(base, base)
        for x, encs in zip(xs, (power @ place).T.tolist()):
            if 1 not in encs:
                return x
        start, size = start + size, 2 * size
    raise FieldError("no primitive element found")  # pragma: no cover


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _field_tables(p: int, m: int, modulus: tuple) -> tuple:
    """(generator, exp, log, zech, exp_array, log_array, zech_array,
    log(-1)) of GF(p^m) mod modulus: the tables as tuples and as
    read-only int64 arrays, with zech, zech_array and log(-1) None when
    m = 1.  The caller has checked the key.

    With n = q - 1 and Z = log[0] = 2n, exp is two periods of g^i and
    then a zero tail up to index 2Z, so exp[Z + s] = 0 for every s in
    0..Z.  zech[log b - log a + Z] is the s with a + b = exp[log a + s]:
    log(1 + g^d), d = log b - log a, when a and b are nonzero (Z if
    1 + g^d = 0); log b - Z when a = 0; and 0 when b = 0.  When both
    are 0 the index is Z and any entry gives exp[Z + s] = 0.
    """
    g = _find_generator(p, m, modulus)
    q = p**m
    n = q - 1
    Z = 2 * n
    # digits of g^(k..2k-1) = digits of g^(0..k-1) times the matrix of
    # g^k: log2(n) array steps
    digits = np.zeros((n, m), dtype=np.int64)
    digits[0, 0] = 1
    k, gk = 1, _times_matrix([g // p**j % p for j in range(m)], p, modulus)
    while k < n:
        digits[k : 2 * k] = digits[: min(k, n - k)] @ gk % p
        k, gk = 2 * k, gk @ gk % p
    period = digits @ p ** np.arange(m)
    exp = np.concatenate([period, period, np.zeros(Z + 1, dtype=np.int64)])
    log = np.empty(q, dtype=np.int64)
    log[0] = Z
    log[period] = np.arange(n)
    cycle = tuple(period.tolist())
    zech = log_minus_one = None
    if m > 1:
        # 1 + g^d differs from g^d only in the constant digit
        one_plus = log[period - period % p + (period + 1) % p]
        zech = one_plus[(np.arange(2 * Z + 1) - Z) % n]
        zech[:n] = np.arange(n) - Z
        zech[-n:] = 0
        zech.flags.writeable = False
        log_minus_one = int(log[p - 1])
    exp.flags.writeable = log.flags.writeable = False
    return (
        g,
        cycle + cycle + (0,) * (Z + 1),
        tuple(log.tolist()),
        None if zech is None else tuple(zech.tolist()),
        exp,
        log,
        zech,
        log_minus_one,
    )


class Field:
    """The finite field GF(p^m); elements are ints in range(p**m)."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        _check_size(p, m)
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            self.modulus = default_modulus(p, m)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree m")
            if not _irreducible_modulus(modulus, p):
                raise FieldError(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        (
            self.generator,
            self._exp,
            self._log,
            self._zech,
            self._exp_array,
            self._log_array,
            self._zech_array,
            self._log_minus_one,
        ) = _field_tables(p, m, self.modulus)
        self._zero_log = 2 * (self.q - 1)

    # -- element encoding --

    def coeffs(self, x: int) -> list[int]:
        """Polynomial-basis coefficients of x, constant term first."""
        if not (type(x) is int and 0 <= x < self.q):
            self._check(x)
        out = []
        for _ in range(self.m):
            x, c = divmod(x, self.p)
            out.append(c)
        return out

    def from_coeffs(self, cs) -> int:
        enc = 0
        for c in reversed(list(cs)):
            enc = enc * self.p + c % self.p
        return enc

    def scalar(self, n: int) -> int:
        """Embed an integer via the prime subfield."""
        return n % self.p

    def _check(self, *xs):
        for x in xs:
            if not _is_element(x, self.q):
                raise FieldError(f"{x!r} is not an element of GF({self.q})")

    # -- arithmetic --

    # A plain int in range(q) passes the inline test; anything else goes
    # through _check, so every op accepts exactly the elements.
    def add(self, a: int, b: int) -> int:
        if not (type(a) is int and type(b) is int and 0 <= a < self.q and 0 <= b < self.q):
            self._check(a, b)
        if self.m == 1:
            return (a + b) % self.p
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la + self._zero_log]]

    def neg(self, a: int) -> int:
        if not (type(a) is int and 0 <= a < self.q):
            self._check(a)
        if self.m == 1:
            return -a % self.p
        return self._exp[self._log[a] + self._log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not (type(a) is int and type(b) is int and 0 <= a < self.q and 0 <= b < self.q):
            self._check(a, b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not (type(a) is int and 0 <= a < self.q):
            self._check(a)
        if a == 0:
            raise FieldError("inversion of zero")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, x: int, e: int) -> int:
        if not (type(x) is int and 0 <= x < self.q):
            self._check(x)
        if x == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("negative power of zero")
        return self._exp[self._log[x] * e % (self.q - 1)]

    def is_square(self, x: int) -> bool:
        """Whether x is a square; 0 counts as a square, and in
        characteristic 2 every element is one."""
        self._check(x)
        if x == 0 or self.p == 2:
            return True
        return self._log[x] % 2 == 0

    def sqrt(self, x: int) -> int:
        """Canonical square root: of the two roots +-y, the one with the
        smaller encoding."""
        if not self.is_square(x):
            raise FieldError(f"{x} is not a square in GF({self.q})")
        if x == 0:
            return 0
        if self.p == 2:
            return self.pow(x, self.q // 2)
        y = self._exp[self._log[x] // 2]
        return min(y, self.neg(y))

    def root_of_unity(self, d: int) -> int:
        """generator^((q-1)/d); has multiplicative order exactly d."""
        if d < 1 or (self.q - 1) % d != 0:
            raise FieldError(f"{d} does not divide q-1 = {self.q - 1}")
        return self._exp[(self.q - 1) // d % (self.q - 1)]

    # -- arithmetic on int64 arrays of encodings --

    def asarray(self, x) -> np.ndarray:
        """x as a new int64 array; FieldError unless every entry is an element."""
        a = np.asarray(x)
        if a.size == 0:
            return a.astype(np.int64)
        if a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= self.q:
            entries = a.ravel().tolist()
            bad = next((v for v in entries if not _is_element(v, self.q)), x)
            raise FieldError(f"{bad!r} is not an element of GF({self.q})")
        return a.astype(np.int64)

    def mul_array(self, a, b):
        log = self._log_array
        return self._exp_array[log[a] + log[b]]

    def add_array(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        log = self._log_array
        la = log[a]
        return self._exp_array[la + self._zech_array[log[b] - la + self._zero_log]]

    def sub_array(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self.add_array(a, self._exp_array[self._log_array[b] + self._log_minus_one])

    def inv_array(self, a):
        if np.any(a == 0):
            raise FieldError("inversion of zero")
        return self._exp_array[self.q - 1 - self._log_array[a]]

    def pow_array(self, a, e):
        """a ** e, broadcast, for integers e >= 0 (0 ** 0 is 1)."""
        idx = np.where((a == 0) & (e > 0), self._zero_log, self._log_array[a] * e % (self.q - 1))
        return self._exp_array[idx]

    def sum_array(self, a, axis=None):
        """Field sum of all entries of a (an int), or of a along one axis
        (an array)."""
        if axis is None:
            return int(self.sum_array(np.ravel(a), 0))
        if self.m == 1:
            return a.sum(axis) % self.p
        a = np.moveaxis(a, axis, 0) if axis else a
        # zero rows up to a power of two, then pairwise halving
        pad = (1 << (len(a) - 1).bit_length()) - len(a) if len(a) else 1
        a = np.concatenate([a, np.zeros((pad,) + a.shape[1:], dtype=np.int64)])
        while len(a) > 1:
            half = len(a) // 2
            a = self.add_array(a[:half], a[half:])
        return a[0]

    # -- identity / serialization --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(GF({self.q}))"

    def to_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        if not (
            isinstance(d, dict)
            and {"p", "m", "modulus"} <= d.keys()
            and is_int_list([d["p"], d["m"]])
            and (d["modulus"] is None or is_int_list(d["modulus"]))
        ):
            raise FieldError(
                "field must be an object with integer p and m and a modulus "
                "that is a list of integers or null"
            )
        return cls(d["p"], d["m"], d["modulus"])


def _is_element(x, q: int) -> bool:
    # bool is an int subclass; numpy.bool_ is not a numpy.integer
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < q


def is_int_list(x) -> bool:
    """Whether x, read from JSON, is a list of integers."""
    return isinstance(x, list) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in x
    )
