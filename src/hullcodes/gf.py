"""Finite fields GF(p^m) with a canonical integer element encoding.

Elements are plain Python ints in range(q).  The encoding is the
polynomial-basis one: an element with coefficients (c_0, ..., c_{m-1}),
constant term first, is encoded as sum(c_i * p**i).  Thus enc(0) = 0,
enc(1) = 1, and for prime fields the encoding is just the residue.

All arithmetic lives on the Field object.  The multiplicative structure
is table-driven: the field precomputes antilog/log tables against a
fixed primitive element, so mul, inv, pow, is_square, sqrt and
root_of_unity are O(1) lookups.  This is comfortable at the desk scale
this package targets; fields above MAX_Q elements are refused before any
table is built.

The same arithmetic also runs on whole int64 numpy arrays of encodings
(mul_array, add_array, sub_array, inv_array, sum_array), which is what
the linear algebra is built on.  Their tables are O(q) and built on
first use: a log table whose entry for 0 points into a zero tail of a
doubled exp table, so a product is one gather with no mask for zero,
and sums go through base-p digits (plain % p in a prime field).  The
array ops trust their inputs; asarray is the one check, made once per
input array where it enters, and it raises FieldError for any entry
that is not an element, as the scalar ops do per element.
"""

from __future__ import annotations

import itertools

import numpy as np


MAX_Q = 2**16


class FieldError(ValueError):
    """Invalid field parameters or an illegal field operation."""


def _check_size(p: int, m: int) -> None:
    # m is bounded first so that p**m stays cheap to compute
    if p > 1 and (m >= MAX_Q.bit_length() or p**m > MAX_Q):
        raise FieldError(f"field size {p}^{m} is larger than MAX_Q = {MAX_Q}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


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


def _gfp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gfp_trim(out)


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


def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, coefficients compared
    lexicographically as (c_{m-1}, ..., c_0)."""
    for high_first in itertools.product(range(p), repeat=m):
        poly = tuple(reversed(high_first)) + (1,)
        if _gfp_is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {m} over GF({p})")


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
            if not _gfp_is_irreducible(modulus, p):
                raise FieldError(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        self.generator = self._find_generator()
        self._build_tables()
        self._array_tables = None
        self._np_tables = None

    # -- element encoding --

    def coeffs(self, x: int) -> list[int]:
        """Polynomial-basis coefficients of x, constant term first."""
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

    def elements(self) -> list[int]:
        """All q elements in increasing encoding order."""
        return list(range(self.q))

    def scalar(self, n: int) -> int:
        """Embed an integer via the prime subfield."""
        return n % self.p

    def _check(self, x):
        if not _is_element(x, self.q):
            raise FieldError(f"{x!r} is not an element of GF({self.q})")

    # -- construction helpers --

    def _raw_mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        prod = _gfp_mul(tuple(self.coeffs(a)), tuple(self.coeffs(b)), self.p)
        return self.from_coeffs(_gfp_mod(prod, self.modulus, self.p))

    def _raw_pow(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._raw_mul(r, x)
            x = self._raw_mul(x, x)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        order = self.q - 1
        checks = [order // f for f in prime_factors(order)]
        for x in range(2, self.q):
            if all(self._raw_pow(x, e) != 1 for e in checks):
                return x
        raise FieldError("no primitive element found")  # pragma: no cover

    def _build_tables(self):
        self._exp = [0] * (self.q - 1)
        self._log = [None] * self.q
        acc = 1
        for i in range(self.q - 1):
            self._exp[i] = acc
            self._log[acc] = i
            acc = self._raw_mul(acc, self.generator)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out, mult = 0, 1
        for _ in range(self.m):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            out += (ca + cb) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        p = self.p
        out, mult = 0, 1
        for _ in range(self.m):
            a, ca = divmod(a, p)
            out += -ca % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("inversion of zero")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, x: int, e: int) -> int:
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
        """x as an int64 array; FieldError unless every entry is an element."""
        a = np.asarray(x)
        if a.size == 0:
            return a.astype(np.int64)
        if a.dtype.kind not in "iu" or a.min() < 0 or a.max() >= self.q:
            entries = a.ravel().tolist()
            bad = next((v for v in entries if not _is_element(v, self.q)), x)
            raise FieldError(f"{bad!r} is not an element of GF({self.q})")
        return a.astype(np.int64)

    def _arrays(self):
        """(exp, log, digit weights) as int64 arrays, built on first use.

        exp holds two periods of the antilog table followed by a zero
        tail, and log[0] points at the start of that tail, so
        exp[log[a] + log[b]] is a * b for every a and b, zero included.
        """
        if self._array_tables is None:
            n = self.q - 1
            period = np.array(self._exp, dtype=np.int64)
            exp = np.concatenate([period, period, np.zeros(2 * n + 1, dtype=np.int64)])
            log = np.array([2 * n] + self._log[1:], dtype=np.int64)
            weights = self.p ** np.arange(self.m, dtype=np.int64)
            self._array_tables = (exp, log, weights)
        return self._array_tables

    def _digits(self, a):
        """Base-p digits of a along a new last axis."""
        return a[..., None] // self._arrays()[2] % self.p

    def _undigits(self, d):
        return (d % self.p) @ self._arrays()[2]

    def mul_array(self, a, b):
        exp, log, _ = self._arrays()
        return exp[log[a] + log[b]]

    def add_array(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return self._undigits(self._digits(a) + self._digits(b))

    def sub_array(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self._undigits(self._digits(a) - self._digits(b))

    def inv_array(self, a):
        exp, log, _ = self._arrays()
        if np.any(a == 0):
            raise FieldError("inversion of zero")
        return exp[-log[a] % (self.q - 1)]

    def sum_array(self, a) -> int:
        """Field sum of all entries of a."""
        if self.m == 1:
            return int(a.sum()) % self.p
        return int(self._undigits(self._digits(a).reshape(-1, self.m).sum(0)))

    # -- vectorized operation tables (used by the brute-force oracle) --

    NP_TABLE_CAP = 1024

    def np_tables(self):
        """(add, mul) lookup tables as q x q numpy arrays, or None when q
        is too large to tabulate."""
        if self.q > self.NP_TABLE_CAP:
            return None
        if self._np_tables is None:
            q, p = self.q, self.p
            if self.m == 1:
                idx = np.arange(q, dtype=np.int64)
                add = (idx[:, None] + idx[None, :]) % p
            else:
                digits = np.zeros((q, self.m), dtype=np.int64)
                x = np.arange(q)
                for i in range(self.m):
                    digits[:, i] = x % p
                    x //= p
                sums = (digits[:, None, :] + digits[None, :, :]) % p
                weights = p ** np.arange(self.m)
                add = sums @ weights
            logs = np.array([0] + [self._log[x] for x in range(1, q)])
            exps = np.array(self._exp)
            mul = exps[(logs[:, None] + logs[None, :]) % (q - 1)]
            mul[0, :] = 0
            mul[:, 0] = 0
            self._np_tables = (add.astype(np.int16), mul.astype(np.int16))
        return self._np_tables

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
    return isinstance(x, (int, np.integer)) and 0 <= x < q


def is_int_list(x) -> bool:
    """Whether x, read from JSON, is a list of integers."""
    return isinstance(x, list) and all(
        isinstance(c, int) and not isinstance(c, bool) for c in x
    )
