"""Finite fields GF(p^m) with a canonical integer element encoding.

Elements are plain Python ints in range(q).  The encoding is the
polynomial-basis one: an element with coefficients (c_0, ..., c_{m-1}),
constant term first, is encoded as sum(c_i * p**i).  Thus enc(0) = 0,
enc(1) = 1, and for prime fields the encoding is just the residue.

All arithmetic lives on the Field object and runs on one set of O(q)
tables against a fixed generator g: exp, log and, for m > 1, Zech
logarithms.  g is the smallest nonzero element whose powers
x^1 .. x^(q-2) never return to 1, found by the tables' own doubling
(_powers): each candidate's powers are built as the exp table is, and
the first candidate to reach q - 1 of them gives the tables.  exp
holds two periods of the antilog table followed by a zero tail, and
log[0] points at the start of that tail, so exp[log a + log b] is
a * b with no branch for zero.  The Zech table makes an extension-field
sum one more lookup: a + b = exp[log a + zech[log b - log a + Z]],
Z = log 0 (Huber, IEEE Trans. Inf. Theory 36(3), 1990; the layouts
follow GF-Complete, Plank, Greenan and Miller, FAST 2013).  Prime fields
add with % p.  Fields above MAX_Q elements are refused before any table
is built.

The tables depend only on (p, m, modulus).  They are built once per
process for each such key, kept in a small bounded cache, and shared
read-only by every Field with that key; each Field still checks its
parameters before it takes them from the cache (the verdict on an
explicit modulus is kept in a cache of the same size).  Each table is
one read-only numpy array.  The ops on whole arrays of encodings
(mul_array, add_array, sub_array, inv_array, pow_array, sum_array, which
also sums along one axis, matmul_array, the matrix product, and
sum_log_products, a sum of products given by the logs of their
factors), which the linear algebra, the GRS evaluation maps and the
oracle are built on, index the arrays; the scalar ops (add, mul, inv,
...) index memoryviews of the same buffers, which give Python ints
without a copy.

The array sums (sum_array, matmul_array over GF(p^m) and
sum_log_products) share one sum domain, which skips the Zech table as
the encoding's digits add mod p.  Over GF(2^m) a value is an encoding,
added by bitwise exclusive or (as add_array and sub_array add); it
holds any number of terms and is its own sum.  Otherwise a value is a
plain integer added by np.add: an element enters as its spread
encoding, digit i moved to bit i * (63 // m) (over GF(p), the element
itself), and a value is read back by taking each slot mod p.  A product
enters as Field._product gives it: over GF(p) the plain integer
product, at most (p - 1)^2, and otherwise one lookup at the sum of its
factors' logs, in exp or, over odd GF(p^m), in spread o exp, each slot
at most p - 1.  A value holds _held such terms before a slot could
overflow: (2^63 - 1) // (p - 1)^2 over GF(p), (2^(63 // m) - 1) //
(p - 1) over odd GF(p^m).  Field._sum adds along an axis within that
bound; sum_log_products sums its products along the first axis by it.
The scalar ops
keep the Zech route, so the tests that check the array ops against
them compare two routes.

A memoryview does not pickle, so a Field pickles as its key and is
rebuilt, checks and all.  The array ops trust their inputs; asarray is
the one check, made once per input array where it enters, and it raises
FieldError for any entry that is not an element, a bool among ints
included, as the scalar ops do per element.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np


MAX_Q = 2**16
# Fields whose tables the cache keeps; a GF(2^16) entry holds about 5.0 MB,
# and the largest, GF(251^2), about 7.3 MB.
TABLE_CACHE_SIZE = 16
# The fewest entries an array step may hold: a block of matmul_array's
# products, a step of the polynomial kernels (linalg._block_entries) and
# of construct's root-free search.
_BLOCK = 1 << 16


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


def _powers(x: int, p: int, modulus, digits, period) -> bool:
    """Whether none of x^1 .. x^(n-1) is 1, n = len(period), writing the
    digits and encodings of x^0 .. x^(n-1) to digits and period, whose
    first entries already hold x^0 = 1.  The digits of x^(k..2k-1) are
    those of x^(0..k-1) times the matrix of x^k: log2(n) array steps,
    stopped at the first whose new powers hold 1."""
    n, m = digits.shape
    weights = p ** np.arange(m)
    k, xk = 1, _times_matrix([x // p**j % p for j in range(m)], p, modulus)
    while k < n:
        digits[k : 2 * k] = digits[: min(k, n - k)] @ xk % p
        period[k : 2 * k] = digits[k : 2 * k] @ weights
        if (period[k : 2 * k] == 1).any():
            return False
        k, xk = 2 * k, xk @ xk % p
    return True


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _field_tables(p: int, m: int, modulus: tuple) -> tuple:
    """(generator, exp, log, zech, log(-1), spread, logs, terms) of
    GF(p^m) mod modulus: the tables as read-only arrays, with zech and
    log(-1) None when m = 1 and spread None unless m > 1 and p is odd.
    logs is log in the smallest unsigned dtype that holds 4(q - 1), the
    largest sum of two logs, and terms maps such a sum to the product in
    the sum domain: exp itself, or spread[exp], one int64 per entry of
    exp.  The caller has checked the key.

    The generator g is the smallest nonzero element whose powers
    g^1 .. g^(q-2) never return to 1.  Each candidate's powers are built
    by the doubling of _powers, which drops it at the first step that
    finds a power 1, and the powers of the first candidate to reach
    q - 1 of them give the tables.

    With n = q - 1 and Z = log[0] = 2n, exp is two periods of g^i and
    then a zero tail up to index 2Z, so exp[Z + s] = 0 for every s in
    0..Z.  zech[log b - log a + Z] is the s with a + b = exp[log a + s]:
    log(1 + g^d), d = log b - log a, when a and b are nonzero (Z if
    1 + g^d = 0); log b - Z when a = 0; and 0 when b = 0.  When both
    are 0 the index is Z and any entry gives exp[Z + s] = 0.
    """
    q = p**m
    n = q - 1
    Z = 2 * n
    digits = np.zeros((n, m), dtype=np.int64)
    digits[0, 0] = 1
    period = np.ones(n, dtype=np.int64)
    # a prime-subfield element has order dividing p - 1 < n, so an
    # extension field's search starts at p
    g = next(x for x in range(1 if m == 1 else p, q) if _powers(x, p, modulus, digits, period))
    exp = np.concatenate([period, period, np.zeros(Z + 1, dtype=np.int64)])
    log = np.empty(q, dtype=np.int64)
    log[0] = Z
    log[period] = np.arange(n)
    zech = log_minus_one = None
    if m > 1:
        # 1 + g^d differs from g^d only in the constant digit
        one_plus = log[period - period % p + (period + 1) % p]
        zech = one_plus[(np.arange(2 * Z + 1) - Z) % n]
        zech[:n] = np.arange(n) - Z
        zech[-n:] = 0
        zech.flags.writeable = False
        log_minus_one = int(log[p - 1])
    spread = None
    if m > 1 and p > 2:
        # digit i of each element moved to bit i * (63 // m)
        digits = np.arange(q)[:, None] // p ** np.arange(m) % p
        spread = digits @ (1 << (63 // m) * np.arange(m))
        spread.flags.writeable = False
    exp.flags.writeable = log.flags.writeable = False
    logs = log.astype(np.min_scalar_type(4 * n))
    terms = exp if spread is None else spread[exp]
    logs.flags.writeable = terms.flags.writeable = False
    return g, exp, log, zech, log_minus_one, spread, logs, terms


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
        (self.generator, exp, log, zech, self._log_minus_one, self._spread_array, self._logs,
         self._terms) = _field_tables(p, m, self.modulus)
        self._exp_array, self._log_array, self._zech_array = exp, log, zech
        # the scalar ops index the same buffers; an item is a Python int
        self._exp, self._log = memoryview(exp), memoryview(log)
        self._zech = None if zech is None else memoryview(zech)
        self._zero_log = 2 * (self.q - 1)
        # the sum domain (see the module docstring): its add, the slots
        # of a plain integer value (digit i at bit i * width), and the
        # products (_product) a value may hold before it is read back,
        # each at most (p - 1)^2 over GF(p) and p - 1 per slot otherwise
        xor = p == 2 and m > 1
        self._sum_add = np.bitwise_xor if xor else np.add
        self._spread_width = 63 // m
        self._spread_mask = (1 << self._spread_width) - 1
        self._held = math.inf if xor else self._spread_mask // (p - 1) ** (2 if m == 1 else 1)

    # -- element encoding --

    def coeffs(self, x: int) -> list[int]:
        """Polynomial-basis coefficients of x, constant term first."""
        if not (type(x) is int and 0 <= x < self.q):
            self._check(x)
            x = int(x)
        out = []
        for _ in range(self.m):
            x, c = divmod(x, self.p)
            out.append(c)
        return out

    def from_coeffs(self, cs) -> int:
        enc = 0
        for c in reversed(list(cs)):
            enc = enc * self.p + operator.index(c) % self.p
        return enc

    def scalar(self, n: int) -> int:
        """Embed an integer via the prime subfield."""
        return operator.index(n) % self.p

    def _check(self, *xs):
        for x in xs:
            if not _is_element(x, self.q):
                raise FieldError(f"{x!r} is not an element of GF({self.q})")

    # -- arithmetic --

    # A plain int in range(q) passes the inline test; anything else goes
    # through _check, so every op accepts exactly the elements; add and
    # neg then take it as an int, so every op returns an int.
    def add(self, a: int, b: int) -> int:
        if not (type(a) is int and type(b) is int and 0 <= a < self.q and 0 <= b < self.q):
            self._check(a, b)
            a, b = int(a), int(b)
        if self.m == 1:
            return (a + b) % self.p
        la = self._log[a]
        return self._exp[la + self._zech[self._log[b] - la + self._zero_log]]

    def neg(self, a: int) -> int:
        if not (type(a) is int and 0 <= a < self.q):
            self._check(a)
            a = int(a)
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
        out = a.astype(np.int64) if a.dtype.kind in "iu" else None
        # one bound checks both ends: a negative entry reads as a large
        # unsigned one.  numpy reads a bool among ints as 0 or 1, so the
        # types of a sequence's entries are read too; an array's dtype
        # tells alone
        array = isinstance(x, np.ndarray)
        if (
            out is None or out.view(np.uint64).max() >= self.q
            or not array and not _BOOLS.isdisjoint(map(type, _entries(x, a.ndim)))
        ):
            entries = a.ravel().tolist() if array else _entries(x, a.ndim)
            bad = next((v for v in entries if not _is_element(v, self.q)), x)
            raise FieldError(f"{bad!r} is not an element of GF({self.q})")
        return out

    def mul_array(self, a, b):
        log = self._log_array
        return self._exp_array[log[a] + log[b]]

    def add_array(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)  # the digits add mod 2
        log = self._log_array
        la = log[a]
        return self._exp_array[la + self._zech_array[log[b] - la + self._zero_log]]

    def sub_array(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self.add_array(a, self._exp_array[self._log_array[b] + self._log_minus_one])

    def inv_array(self, a):
        if np.any(a == 0):
            raise FieldError("inversion of zero")
        return self._exp_array[self.q - 1 - self._log_array[a]]

    def pow_array(self, a, e):
        """a ** e, broadcast, for integers e >= 0 (0 ** 0 is 1)."""
        idx = np.asarray(self._log_array[a] * e)
        idx %= self.q - 1
        np.copyto(idx, self._zero_log, where=(a == 0) & (e > 0))
        return self._exp_array[idx]

    def log_array(self, a):
        """The logs of a's entries, for sum_log_products, in an unsigned
        dtype that holds the sum of two; the log of 0 is a sentinel that
        takes every product with 0 to 0."""
        return self._logs[a]

    def sum_log_products(self, x, y):
        """sum_t x[t] y[t], the field sums along axis 0 of the products
        whose factors' logs (log_array's) x and y hold, broadcast: each
        product is one lookup at the sum of the logs, and the products
        are summed by _sum.  The logs are added as intp, the lookup's
        own index type, which is faster than a lookup at a small dtype."""
        return self._sum(self._terms[np.add(x, y, dtype=np.intp)], 0)

    def sum_array(self, a, axis=None):
        """Field sum of all entries of a (an int), or of a along one axis
        (an array)."""
        if axis is None:
            return int(self.sum_array(np.ravel(a), 0))
        if a.shape[axis] <= 1:  # no sum to take
            return a.sum(axis)
        return self._sum(self._lift(a), axis)

    def matmul_array(self, X, M):
        """X M for a 2-D array M and a vector or 2-D array X of elements:
        each row x of X gives sum_j x_j M[j].  Or a stack of b such
        products, X of shape (b, r, k) and M of shape (b, k, c), for the
        b products X[i] M[i].  Over GF(p), one integer product reduced
        once.  Over GF(p^m), the products of a block of X's rows at a
        time (in every member of a stack), at most max(_BLOCK, M.size)
        of them, each one lookup from the logs of X and of M (M's taken
        once), and their sums along the inner axis (_sum)."""
        if self.m == 1:
            # exact in int64: (p - 1)^2 * k < 2^48 for q <= MAX_Q
            return X @ M % self.p
        if X.ndim == 1:
            return self.matmul_array(X[None], M)[0]
        # the logs of M^T in C order, so that whatever M's order each
        # block's products lie rows x columns x inner terms, summed along
        # their contiguous last axis; a stack's get an axis for the rows
        if M.ndim == 2:
            logMT = np.ascontiguousarray(self._log_array[M.T])
        else:
            logMT = np.ascontiguousarray(self._log_array[M.swapaxes(1, 2)])[:, None]
        step = max(1, _BLOCK // max(M.size, 1))
        out = np.empty(X.shape[:-1] + M.shape[-1:], dtype=np.int64)
        for start in range(0, X.shape[-2], step):
            products = self._terms[self._log_array[X[..., start : start + step, None, :]] + logMT]
            out[..., start : start + step, :] = self._sum(products, -1)
        return out

    def _product(self, x, y):
        """The products of the elements x and y, broadcast, as values of
        the sum domain: the plain integer product over GF(p), else one
        _terms lookup at the sum of their logs, as mul_array takes."""
        if self.m == 1:
            return x * y
        log = self._log_array
        return self._terms[log[x] + log[y]]

    def _lift(self, a):
        """The elements a as values of the sum domain."""
        return a if self._spread_array is None else self._spread_array[a]

    def _sum(self, s, axis):
        """The field sums along axis of s, values of the sum domain: runs
        of at most _held of them are added and read back, and the run
        sums, lifted again, are summed the same way while more than one
        run is left."""
        while s.shape[axis] > self._held:
            runs = np.arange(0, s.shape[axis], self._held)
            s = self._lift(self._read_back(self._sum_add.reduceat(s, runs, axis)))
        return self._read_back(self._sum_add.reduce(s, axis))

    def _read_back(self, s):
        """The elements that the values s of the sum domain hold: s
        itself under exclusive or, else the slots of s, each mod p."""
        if self._sum_add is np.bitwise_xor:
            return s
        if self.m == 1:  # one 63-bit slot, which the mask leaves as it is
            return s % self.p
        # a digit at a time, in place: two arrays the size of s are live
        out = s & self._spread_mask
        out %= self.p
        for i in range(1, self.m):
            digit = s >> i * self._spread_width
            digit &= self._spread_mask
            digit %= self.p
            digit *= self.p**i
            out += digit
        return out

    # -- identity / serialization --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # the memoryviews do not pickle: rebuild from the key
        return type(self), (self.p, self.m, self.modulus)

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


_BOOLS = frozenset((bool, np.bool_))


def _entries(x, ndim: int):
    """The entries of x, nested ndim deep, as one iterable."""
    if ndim == 0:
        return (x,)
    for _ in range(ndim - 1):
        x = itertools.chain.from_iterable(x)
    return x


def _is_element(x, q: int) -> bool:
    # bool is an int subclass; numpy.bool_ is not a numpy.integer
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < q


def is_int_list(x) -> bool:
    """Whether x, read from JSON, is a list of integers."""
    return isinstance(x, list) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in x
    )
