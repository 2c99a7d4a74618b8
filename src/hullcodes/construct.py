"""Hull-dimension reductions from self-orthogonal seed codes.

Given a self-orthogonal (extended) GRS seed of dimension m, reduce_hull
outputs an MDS code of any dimension k <= m with any prescribed
hull dimension l <= k, by scaling the first s = k - l multipliers with
a fixed alpha (alpha != 0, alpha^2 != 1) and, in the extended case,
twisting all multipliers by pi(a_i) for a monic degree-(m-k) polynomial
pi with no roots among the evaluation points.

The canonical pi is (x - b)^(m-k) for the smallest unused field element
b.  When the evaluation points exhaust the field no such b exists; any
monic root-free pi of the right degree works in the argument, so we
fall back to a product of irreducible quadratics/cubics when m-k >= 2.
For m - k = 1 no root-free monic linear polynomial exists, and the
target l = k is then genuinely unreachable; the
remaining targets l <= k-1 go through the pi-free route below.
unreachable states every (k, l) that reduce_hull refuses, this one
included, and the family grids (families.py) are read from it.

A self-orthogonal *non-extended* seed also yields extended codes of
length n+1: with s = k - 1 - l scaled multipliers the infinity
coordinate forces the top message coefficient to vanish on the hull,
which costs exactly one dimension (hence l <= k - 1).  This is the
route behind length-(n+1) codes built from even-length self-dual GRS
seeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import gf
from .gf import Field
from .grs import EvaluationSet, GrsSpec, grs
from .hull import Certificate, LinearCode, certify, check_certificate, linear_code
from .linalg import poly_eval_array


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class SeedCode:
    spec: GrsSpec
    certificate: Certificate

    @property
    def m(self) -> int:
        return self.spec.k


def make_seed(spec: GrsSpec) -> SeedCode:
    """Certify a (possibly extended) GRS code of dimension m = spec.k as
    self-orthogonal.

    The certificate is found by interpolation and the construction
    refuses codes that fail the degree criterion.
    """
    cert = certify(spec)
    if cert is None:
        kind = "extended GRS" if spec.extended else "GRS"
        raise ConstructionError(
            f"{kind} code of dimension {spec.k} on {spec.n} points is not "
            "self-orthogonal (no certificate polynomial)"
        )
    return SeedCode(spec, cert)


def choose_alpha(field: Field, override: int | None = None) -> int:
    """Smallest-encoding alpha with alpha != 0 and alpha^2 != 1."""
    if override is not None:
        if override == 0 or field.mul(override, override) == 1:
            raise ConstructionError(f"alpha={override} has alpha^2 = 1 or alpha = 0")
        return override
    for x in range(2, field.q):
        if field.mul(x, x) != 1:
            return x
    raise ConstructionError(f"no valid alpha in GF({field.q}) (need q > 3)")


def choose_b(field: Field, points: EvaluationSet, override: int | None = None) -> int:
    """Smallest-encoding field element not among the evaluation points,
    or the override: FieldError unless it is an element,
    ConstructionError if it is a point."""
    used = set(points.a)
    if override is not None:
        field.asarray(override)
        if override in used:
            raise ConstructionError(f"b={override} is an evaluation point")
        return override
    for x in range(field.q):
        if x not in used:
            return x
    raise ConstructionError(
        "evaluation points exhaust the field (construction needs n < q)"
    )


def _rootless_twist(field: Field, xs: np.ndarray, degree: int) -> np.ndarray:
    """pi(x) at each x in xs for a monic pi of the given degree with no
    root in the field: a power of the smallest root-free quadratic, times
    the smallest root-free cubic when degree is odd."""
    odd = degree % 2
    values = field.pow_array(_smallest_root_free(field, 2, xs), (degree - 3 * odd) // 2)
    return field.mul_array(values, _smallest_root_free(field, 3, xs)) if odd else values


def _smallest_root_free(field: Field, degree: int, xs: np.ndarray) -> np.ndarray:
    # the values at xs of the smallest monic polynomial of the degree, by
    # (c_{d-1}, ..., c_0) in encoding order, with no root in the field;
    # for degree 2 and 3 that is the smallest irreducible one.  For each
    # choice of the higher coefficients the candidates (c_1, c_0) are
    # taken max(1, _BLOCK // q) rows of c_1 at a time, q entries a row:
    # g + c_0 has no root iff -c_0 is no value of g.  So a step holds
    # O(max(_BLOCK, q)) entries, and q <= 256 takes one step.
    q = field.q
    x = np.arange(q)
    neg = field.sub_array(0, x)
    rows = max(1, gf._BLOCK // q)
    for high in itertools.product(range(q), repeat=degree - 2):
        top = poly_eval_array(field, [0, 0, *reversed(high), 1], x)
        for start in range(0, q, rows):
            c1 = x[start : start + rows]
            # row i at every x: x^d + ... + c_2 x^2 + c1[i] x
            g = field.add_array(top, field.mul_array(c1[:, None], x))
            hit = np.zeros(g.shape, dtype=bool)
            hit[np.arange(len(c1))[:, None], g] = True
            root_free = ~hit[:, neg]
            if root_free.any():
                i, c0 = divmod(int(root_free.argmax()), q)
                return field.add_array(g[i, xs], c0)
    raise ConstructionError(  # pragma: no cover
        f"no root-free monic polynomial of degree {degree} over GF({field.q})"
    )


def unreachable(spec: GrsSpec, k: int, l: int, extend: bool = False) -> str | None:
    """Why reduce_hull cannot reach dimension k and hull dimension l from
    a certified seed on spec with the default twist, or None if it can.
    This is every (k, l) refusal of reduce_hull."""
    field, m = spec.field, spec.k
    if field.q <= 3:
        return "reduction requires q > 3"
    if not 0 <= l <= k <= m:
        return f"need 0 <= l <= k <= m, got l={l}, k={k}, m={m}"
    if k < 1:
        return "target dimension k must be >= 1"
    if extend and spec.extended:
        return "extend needs a non-extended seed"
    if extend and l == k:
        return "extending a non-extended seed reaches only 0 <= l <= k-1"
    if spec.extended and spec.n == field.q and l == k == m - 1:
        return (
            "hull dimension l = k is unreachable for k = m - 1 when "
            "the evaluation points exhaust the field (n = q)"
        )
    return None


def reduce_hull(
    seed: SeedCode,
    k: int,
    l: int,
    *,
    extend: bool = False,
    alpha: int | None = None,
    b: int | None = None,
) -> GrsSpec:
    """MDS code of dimension k with hull dimension exactly l from a
    self-orthogonal seed of dimension m >= k.

    extend adds the infinity coordinate to a non-extended seed (then
    l <= k - 1); the output is extended when the seed is or when extend
    is set.  unreachable states which (k, l) are refused.  b picks the
    (x - b)^(m-k) twist of an extended seed with k < m and is rejected
    anywhere else.
    """
    spec, m = seed.spec, seed.m
    field, points = spec.field, spec.points
    reason = unreachable(spec, k, l, extend)
    if reason is not None:
        raise ConstructionError(reason)
    twist = spec.extended and k < m
    if b is not None and not twist:
        raise ConstructionError(
            f"b = {b} has no effect: the (x - b)^(m-k) twist applies only to "
            "an extended seed with k < m"
        )
    if not check_certificate(seed.certificate, spec):
        raise ConstructionError("seed certificate fails re-validation")

    s = k - 1 - l if extend else k - l
    pi = None  # the twist's values pi(a_i)
    if twist:
        xs = points.a_array
        if b is not None or spec.n < field.q:
            pi = field.pow_array(field.sub_array(xs, choose_b(field, points, b)), m - k)
        elif m - k >= 2:
            # the points exhaust the field: no (x - b) twist exists
            pi = _rootless_twist(field, xs, m - k)
        else:
            # pi-free route (l < k): the infinity coordinate absorbs one
            # hull dimension, so retarget s accordingly
            s = k - 1 - l
    v = spec.v_array.copy()
    v[:s] = field.mul_array(choose_alpha(field, alpha), v[:s])
    if pi is not None:
        v = field.mul_array(v, pi)
    return grs(points, v.tolist(), k, extended=spec.extended or extend)


def reduce_hull_grs(seed: SeedCode, k: int, l: int, alpha: int | None = None) -> GrsSpec:
    """reduce_hull for a non-extended seed: an [n, k] code."""
    if seed.spec.extended:
        raise ConstructionError("reduce_hull_grs needs a non-extended seed")
    return reduce_hull(seed, k, l, alpha=alpha)


def reduce_hull_egrs(
    seed: SeedCode,
    k: int,
    l: int,
    alpha: int | None = None,
    b: int | None = None,
) -> GrsSpec:
    """reduce_hull for an extended seed: an [n+1, k] code."""
    if not seed.spec.extended:
        raise ConstructionError("reduce_hull_egrs needs an extended seed")
    return reduce_hull(seed, k, l, alpha=alpha, b=b)


def reduce_hull_egrs_from_grs(
    seed: SeedCode, k: int, l: int, alpha: int | None = None
) -> GrsSpec:
    """reduce_hull with extend on a non-extended seed: an [n+1, k] code
    with 0 <= l <= k-1."""
    if seed.spec.extended:
        raise ConstructionError("reduce_hull_egrs_from_grs needs a non-extended seed")
    return reduce_hull(seed, k, l, extend=True, alpha=alpha)


# --- the explicit ternary codes (q = 3 is excluded by the reductions) ---

# kind -> generator rows for all-ones multipliers; multiplier j scales
# column j of the first three (both columns of n2k1)
_TERNARY_ROWS = {
    "n2k1": ((1, 1),),
    "n3k1": ((1, 1, 1),),
    "n4k1": ((1, 1, 1, 1),),
    "n4k2": ((1, 1, 1, 0), (0, 1, 2, 1)),
}
TERNARY_KINDS = tuple(_TERNARY_ROWS)


def ternary_codes(kind: str, v=None) -> LinearCode:
    """The four explicit 3-ary MDS codes: [2,1,2], [3,1,3], [4,1,4] and
    [4,2,3], with hull dimensions 0, 1, 0 and 2.  v defaults to all
    ones; FieldError unless each multiplier is an element of GF(3)."""
    field = Field(3)
    if kind not in _TERNARY_ROWS:
        raise ConstructionError(f"unknown ternary code kind {kind!r}")
    rows = np.array(_TERNARY_ROWS[kind])
    size = min(rows.shape[1], 3)
    v = np.ones(size, dtype=np.int64) if v is None else field.asarray(v)
    if v.shape != (size,):
        raise ConstructionError(f"{kind} takes {size} multipliers, got {v.size}")
    if not v.all():
        raise ConstructionError("multipliers must be nonzero elements of GF(3)")
    rows[:, :size] = field.mul_array(rows[:, :size], v)
    return linear_code(field, rows.tolist())
