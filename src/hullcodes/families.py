"""Seed families of self-orthogonal (extended) GRS codes over GF(r^2).

Four parametric families of evaluation sets whose u_i values are (up to
an explicit constant) quadratic residues, so that multipliers v_i with
the required v_i^2 exist:

* even_cosets  -- points alpha^c * beta^(mu_j) over t cosets of the
  group of m-th roots of unity, n = t*m even; variants (i)-(iv) give a
  self-dual seed, its extension, and two variants with the point 0
  appended.
* odd_cosets   -- same coset structure with n = t*m odd and all mu_j
  even; almost self-dual, extended self-dual, and 0-appended self-dual
  variants.
* additive     -- points alpha_k * beta + alpha_j over an e-dimensional
  GF(p)-subspace S of the subfield GF(r), n = p^(2e); almost self-dual
  and extended self-dual variants.
* twisted_pair -- points (alpha^i) and (omega * alpha^i) for a
  primitive t-th root alpha and a non-square omega, q = 3 mod 4, t odd;
  self-orthogonal up to dimension t - 1.

FAMILY_TABLE states each family once: its builder, its variants and the
FamilyParams fields it requires and may read.  build_family checks a
FamilyParams against that row before the builder runs.

build_family keeps the seeds it built in a process-wide cache keyed on
the frozen FamilyParams (mu is normalised to a tuple of ints, so it
hashes), bounded like the field tables by gf.TABLE_CACHE_SIZE.  So the
points, multipliers and certificate of a family seed are built and
certified once per process, not once per construct; twisted_pair
resolves its default omega first, so an omitted omega and the same
omega given share one seed.  A cached seed holds its field (and so the
field's tables), its O(n) point arrays and, once a membership query
has read it, the seed spec's witness map.  An exception is never cached:
invalid parameters raise FamilyError on every call.  What still runs on
every construct is reduce_hull's re-validation of the certificate
(check_certificate) and the referees (hull_report, hull_dim_oracle,
is_mds), which cache nothing across codes.

Quadratic-residue facts are never assumed: every family recomputes the
relevant products and checks squareness at runtime, so an invalid
parameter choice (or the documented exception case of even_cosets
(iii)/(iv)) surfaces as a FamilyError rather than a bad seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

from .construct import SeedCode, make_seed, reduce_hull, unreachable
from .gf import TABLE_CACHE_SIZE, Field, factor_prime_power
from .grs import GrsSpec, eval_set, grs


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class FamilyParams:
    family: str
    variant: str = "i"
    r: int | None = None
    m: int | None = None
    t: int | None = None
    mu: tuple | None = None
    p: int | None = None
    s: int | None = None
    e: int | None = None
    q: int | None = None
    omega: int | None = None

    def __post_init__(self):
        # a tuple of ints, so that equal parameters hash alike
        if self.mu is not None:
            try:
                mu = tuple(int(x) for x in self.mu)
            except (TypeError, ValueError):
                raise FamilyError(f"coset exponents mu must be integers, got {self.mu!r}") from None
            object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class FamilySeed:
    """A certified seed plus its advertised range of dimensions.

    The reachable codes are [code_length, k] for every (k, l) with
    k <= k_max that reduce_hull reaches from the seed, as
    construct.unreachable states.  extend adds the infinity coordinate
    to a non-extended seed.
    """

    params: FamilyParams
    seed: SeedCode
    k_max: int
    extend: bool = False

    @property
    def code_length(self) -> int:
        return self.seed.spec.length + self.extend


def _multipliers(field: Field, c, u, label: str) -> tuple:
    """Multipliers v_i = sqrt(c_i u_i) for the factors c and the u_i of
    the points.  label names c_i u_i in the error, with {i} for the
    1-based index."""
    v = []
    for i, (ci, ui) in enumerate(zip(c, u), 1):
        x = field.mul(ci, ui)
        if x == 0 or not field.is_square(x):
            raise FamilyError(
                f"{label.format(i=i)} = {x} is not a nonzero square in GF({field.q}); "
                "the quadratic-residue condition fails for these parameters"
            )
        v.append(field.sqrt(x))
    return tuple(v)


def _sign_multipliers(field: Field, u, negate: bool) -> tuple:
    """Multipliers v_i with v_i^2 = -u_i (negate) or u_i."""
    sign = field.neg(1) if negate else 1
    return _multipliers(field, [sign] * len(u), u, "-u_{i}" if negate else "u_{i}")


def _same_coset(field: Field, beta: int, m: int, a: int, b: int) -> bool:
    """Whether beta^a and beta^b lie in one coset of the m-th roots of unity."""
    return field.pow(field.pow(beta, a - b), m) == 1


def _validate_mu(field: Field, beta: int, m: int, mu, even_only: bool) -> tuple:
    mu = tuple(mu)
    if list(mu) != sorted(set(mu)):
        raise FamilyError("coset exponents mu must be strictly increasing")
    if even_only and any(x % 2 for x in mu):
        raise FamilyError("coset exponents mu must all be even")
    for i, a in enumerate(mu):
        for b in mu[:i]:
            if _same_coset(field, beta, m, a, b):
                raise FamilyError(
                    f"exponents {b} and {a} give the same coset of the "
                    "m-th roots of unity"
                )
    return mu


def _coset_set(params: FamilyParams, odd: bool):
    """(GF(r^2), r, mu, points) of the coset families: the points
    alpha^c * beta^(mu_j) over t cosets of the m-th roots of unity, with
    n = t*m odd and every mu_j even when odd is set, else n even."""
    r, m, t = params.r, params.m, params.t
    p, mr = factor_prime_power(r)
    if p == 2:
        raise FamilyError("base field size r must be odd")
    field = Field(p, 2 * mr)
    q = field.q
    if m < 1 or (q - 1) % m != 0:
        raise FamilyError(f"m = {m} must divide q - 1 = {q - 1}")
    step = 2 if odd else 1  # of the coset exponents
    tmax = (r + 1) // (step * math.gcd(r + 1, m))
    if not 1 <= t <= tmax:
        raise FamilyError(f"t = {t} out of range 1..{tmax} for r = {r}, m = {m}")
    n = t * m
    if n % 2 != odd:
        raise FamilyError(f"n = t*m = {n} must be {'odd' if odd else 'even'}")

    alpha = field.root_of_unity(m)
    beta = field.root_of_unity(r + 1)
    # beta^a and beta^b share a coset iff (r + 1) / gcd(r + 1, m) divides
    # a - b, so t <= tmax makes the default 0, step, ..., (t - 1)step
    # distinct cosets: the smallest exponents there are
    mu = range(0, step * t, step) if params.mu is None else params.mu
    mu = _validate_mu(field, beta, m, mu, even_only=odd)
    if len(mu) != t:
        raise FamilyError(f"need exactly {t} coset exponents, got {len(mu)}")
    a = []
    for mj in mu:
        bm = field.pow(beta, mj)
        for c in range(1, m + 1):
            a.append(field.mul(field.pow(alpha, c), bm))
    return field, r, mu, a


def family_even_cosets(params: FamilyParams) -> FamilySeed:
    """Coset family with n = t*m even (four variants)."""
    field, r, mu, a = _coset_set(params, odd=False)
    q, m, t, n = field.q, params.m, params.t, len(a)
    variant = params.variant
    if variant in ("i", "ii") and ((q - 1) // m) % 2:
        raise FamilyError(f"(q-1)/m = {(q - 1) // m} must be even for variant {variant}")
    if variant in ("iii", "iv") and t % 2 == 0 and m % 2 == 0 and r % 4 == 1:
        raise FamilyError(
            "even_cosets (iii)/(iv) exclude t even, m even, r = 1 mod 4"
        )

    if variant in ("i", "ii"):
        points = eval_set(field, a)
        g = field.generator
        exponent = ((r + 1) // 2 * (t - 1) - m * sum(mu)) % (q - 1)
        lam_inv = field.inv(field.pow(g, exponent))
        v = _multipliers(field, [lam_inv] * n, points.u, "lambda^-1 * u_{i}")
        seed = make_seed(grs(points, v, n // 2, extended=False))
        if variant == "i":
            return FamilySeed(params, seed, n // 2)
        return FamilySeed(params, seed, (n - 1) // 2, extend=True)

    # variants iii/iv: append the point 0 and use the (n+1)-point u_i
    points = eval_set(field, a + [0])
    v = _sign_multipliers(field, points.u, negate=variant == "iv")
    if variant == "iii":
        return FamilySeed(params, make_seed(grs(points, v, n // 2)), n // 2)
    seed = make_seed(grs(points, v, (n + 2) // 2, extended=True))
    return FamilySeed(params, seed, (n + 2) // 2)


def family_odd_cosets(params: FamilyParams) -> FamilySeed:
    """Coset family with n = t*m odd and even exponents (three variants)."""
    field, _, _, a = _coset_set(params, odd=True)
    n = len(a)
    variant = params.variant
    if variant == "i" and n < 3:
        raise FamilyError(f"odd_cosets variant i needs n = t*m >= 3, got n = {n}")
    # variant iii appends 0: a self-dual non-extended seed on n+1 points
    points = eval_set(field, a + [0] if variant == "iii" else a)
    v = _sign_multipliers(field, points.u, negate=variant != "i")
    if variant == "i":
        return FamilySeed(params, make_seed(grs(points, v, (n - 1) // 2)), (n - 1) // 2)
    seed = make_seed(grs(points, v, (n + 1) // 2, extended=variant == "ii"))
    return FamilySeed(params, seed, (n + 1) // 2, extend=variant == "iii")


def family_additive(params: FamilyParams) -> FamilySeed:
    """Additive family over GF(p^2s): points alpha_k*beta + alpha_j for
    alpha_k, alpha_j in an e-dimensional GF(p)-subspace of GF(p^s)."""
    p, s, e = params.p, params.s, params.e
    if p == 2 or s < 1:
        raise FamilyError("additive family needs an odd prime p and s >= 1")
    if not 1 <= e <= s:
        raise FamilyError(f"subspace dimension e = {e} out of range 1..{s}")
    field = Field(p, 2 * s)
    r = p**s
    n = p ** (2 * e)

    subfield = [x for x in range(field.q) if field.pow(x, r) == x]
    basis: list[int] = []
    span = {0}
    for x in subfield:
        if x not in span:
            basis.append(x)
            span = {
                field.add(y, field.mul(c, x)) for y in span for c in range(p)
            }
            if len(basis) == e:
                break
    if len(basis) < e:  # pragma: no cover
        raise FamilyError(f"could not build an {e}-dimensional subspace of GF({r})")
    S = sorted(span)
    beta = field.root_of_unity(r + 1)
    if field.pow(beta, r) == beta:  # beta must lie outside GF(r)
        raise FamilyError("root of unity of order r+1 unexpectedly lies in GF(r)")

    a = [field.add(field.mul(ak, beta), aj) for aj in S for ak in S]
    points = eval_set(field, a)
    v = _sign_multipliers(field, points.u, negate=params.variant == "ii")
    if params.variant == "i":
        return FamilySeed(params, make_seed(grs(points, v, (n - 1) // 2)), (n - 1) // 2)
    seed = make_seed(grs(points, v, (n + 1) // 2, extended=True))
    return FamilySeed(params, seed, (n + 1) // 2)


def family_twisted_pair(params: FamilyParams) -> FamilySeed:
    """Points (alpha^i, omega*alpha^i) for q = 3 mod 4 and odd t | q-1."""
    pq, mq = factor_prime_power(params.q)
    field = Field(pq, mq)
    q, t = field.q, params.t
    if q % 4 != 3:
        raise FamilyError(f"twisted_pair needs q = 3 mod 4, got q = {q}")
    if t % 2 == 0 or t < 1 or (q - 1) % t != 0:
        raise FamilyError(f"t = {t} must be odd and divide q - 1 = {q - 1}")

    omega = params.omega
    if omega is None:  # the default and the same omega given share one cached seed
        omega = next(x for x in range(2, q) if not field.is_square(x))
        return build_family(dataclasses.replace(params, omega=omega))
    if omega == 0 or field.is_square(omega):
        raise FamilyError(f"omega = {omega} must be a non-square")

    alpha = field.root_of_unity(t)
    a = [field.pow(alpha, i) for i in range(1, t + 1)]
    a += [field.mul(omega, x) for x in a]
    points = eval_set(field, a)

    # cross-check the closed form of u_i against the direct product
    tc = field.scalar(t)
    wt = field.pow(omega, t)
    base = field.mul(tc, field.sub(1, wt))
    if base == 0:  # t | q-1 rules this out, but never divide blindly
        raise FamilyError("degenerate parameters: t(1 - omega^t) = 0")
    for i in range(1, t + 1):
        prod = field.mul(base, field.pow(alpha, -i))
        if field.inv(prod) != points.u[i - 1]:
            raise FamilyError(f"closed-form u_{i} disagrees with the direct product")
        prod2 = field.mul(prod, field.neg(field.pow(omega, t - 1)))
        if field.inv(prod2) != points.u[t + i - 1]:
            raise FamilyError(
                f"closed-form u_{t + i} disagrees with the direct product"
            )

    # lambda(x) = t(1 - omega^t) x; v_i^2 = lambda(a_i) u_i
    lam = [field.mul(base, ai) for ai in points.a]
    v = _multipliers(field, lam, points.u, "lambda(a_{i})u_{i}")
    seed = make_seed(grs(points, v, t - 1, extended=False))
    return FamilySeed(params, seed, t - 1)


# family -> (builder, variants, required parameters, optional parameters)
FAMILY_TABLE = {
    "even_cosets": (family_even_cosets, ("i", "ii", "iii", "iv"), ("r", "m", "t"), ("mu",)),
    "odd_cosets": (family_odd_cosets, ("i", "ii", "iii"), ("r", "m", "t"), ("mu",)),
    "additive": (family_additive, ("i", "ii"), ("p", "s", "e"), ()),
    "twisted_pair": (family_twisted_pair, ("i",), ("q", "t"), ("omega",)),
}
FAMILIES = tuple(FAMILY_TABLE)


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def build_family(params: FamilyParams) -> FamilySeed:
    """The certified seed of params, built once per process (see the
    module docstring); FamilyError if params are invalid."""
    name = params.family
    if name not in FAMILY_TABLE:
        raise FamilyError(f"unknown family {name!r}; expected one of {FAMILIES}")
    builder, variants, required, optional = FAMILY_TABLE[name]
    if any(getattr(params, x) is None for x in required):
        raise FamilyError(f"{name} needs {', '.join(required[:-1])} and {required[-1]}")
    read = {"family", "variant", *required, *optional}
    unread = [x for x, value in vars(params).items() if x not in read and value is not None]
    if unread:
        raise FamilyError(f"{name} does not read {', '.join(unread)}")
    if params.variant not in variants:
        raise FamilyError(f"{name} has variants {', '.join(variants)}, not {params.variant!r}")
    return builder(params)


def _off_grid(fs: FamilySeed, k: int, l: int) -> str | None:
    if k > fs.k_max:
        return f"k = {k} exceeds this seed's k_max = {fs.k_max}"
    return unreachable(fs.seed.spec, k, l, fs.extend)


def family_grid(fs: FamilySeed):
    """All advertised (n, k, l) triples reachable from this seed."""
    for k in range(1, fs.k_max + 1):
        for l in range(k + 1):
            if _off_grid(fs, k, l) is None:
                yield fs.code_length, k, l


def construct_from_family(fs: FamilySeed, k: int, l: int, alpha: int | None = None, b: int | None = None) -> GrsSpec:
    reason = _off_grid(fs, k, l)
    if reason is not None:
        raise FamilyError(f"(k, l) = ({k}, {l}) is off this seed's grid: {reason}")
    return reduce_hull(fs.seed, k, l, extend=fs.extend, alpha=alpha, b=b)
