"""(Extended) generalized Reed-Solomon codes.

A GrsSpec is the data (a, v, k, extended): distinct evaluation points
a_i, nonzero column multipliers v_i, dimension k.  The codewords are
(v_1 f(a_1), ..., v_n f(a_n)) for deg f < k, with the coefficient of
x^(k-1) appended as an extra coordinate in the extended case.

Alongside each evaluation set we keep the node polynomial
P = prod_j (x - a_j) and the derived quantities
u_i = prod_{j != i} (a_i - a_j)^(-1) = 1 / P'(a_i) (linalg.node_weights),
which tie a GRS code to its dual in everything downstream (certificates,
hull membership, duality); every interpolation over the points reuses
both.

Each spec keeps its evaluation map, int64 arrays of O(kn) memory, in
its own attributes, so the map lives and dies with the spec: G = V diag(v)
(V[j, i] = a_i^j, plus the extended column) on the first encode or
generator_matrix call, and L, whose row j interpolates v_i^2 a_i^j / u_i,
on the first hull_membership query.  encode(f) is f G and the hull
witness of f is f L.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field, is_int_list
from .linalg import Matrix, interpolate_batch, lincomb, node_weights, poly_deg


class GrsError(ValueError):
    pass


@dataclass(frozen=True)
class EvaluationSet:
    field: Field
    a: tuple
    u: tuple
    # the node polynomial prod_j (x - a_j), constant term first; fixed by a
    P: tuple = dataclasses.field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.a)


def eval_set(field: Field, a) -> EvaluationSet:
    """Evaluation points plus their u_i values.

    u_i is the inverse of prod_{j != i} (a_i - a_j); for a single point
    the empty product gives u_1 = 1.
    """
    a = tuple(a)
    if not a:
        raise GrsError("empty evaluation set")
    if len(a) > field.q:
        raise GrsError(f"{len(a)} points cannot be distinct in GF({field.q})")
    # FieldError for any point that is not an element, a float included
    xs = field.asarray(a)
    a = tuple(xs.tolist())
    if len(set(a)) != len(a):
        raise GrsError("evaluation points must be pairwise distinct")
    P, u = node_weights(field, xs)
    return EvaluationSet(field, a, tuple(u.tolist()), tuple(P.tolist()))


@dataclass(frozen=True)
class GrsSpec:
    points: EvaluationSet
    v: tuple
    k: int
    extended: bool = False

    @cached_property
    def generator_array(self) -> np.ndarray:
        """G, k x length: row j is (v_i a_i^j), then [j = k-1] if extended."""
        f = self.field
        a, v = f.asarray(self.points.a), f.asarray(self.v)
        G = f.mul_array(f.pow_array(a, np.arange(self.k)[:, None]), v)
        if self.extended:
            G = np.hstack([G, np.arange(self.k)[:, None] == self.k - 1])
        return G

    def dual_interpolants(self, rows: int) -> np.ndarray:
        """rows x n: row j holds the coefficients of the
        interpolant of v_i^2 a_i^j / u_i (row 0 is the certificate
        polynomial of hull.py)."""
        f = self.field
        a, v, u, P = (f.asarray(x) for x in (self.points.a, self.v, self.points.u, self.points.P))
        scale = f.mul_array(f.mul_array(v, v), f.inv_array(u))
        values = f.mul_array(f.pow_array(a, np.arange(rows)[:, None]), scale)
        return interpolate_batch(f, a, values, P, u)

    # L = dual_interpolants(k), built on first use and then kept
    witness_map = cached_property(lambda self: self.dual_interpolants(self.k))

    @property
    def field(self) -> Field:
        return self.points.field

    @property
    def n(self) -> int:
        """Number of evaluation points (code length minus the extension)."""
        return self.points.n

    @property
    def length(self) -> int:
        return self.n + 1 if self.extended else self.n


def grs(points: EvaluationSet, v, k: int, extended: bool = False) -> GrsSpec:
    v = tuple(v)
    if len(v) != points.n:
        raise GrsError("multiplier count does not match evaluation set")
    v = tuple(points.field.asarray(v).tolist())
    if any(x == 0 for x in v):
        raise GrsError("multipliers must be nonzero")
    kmax = points.n + 1 if extended else points.n
    if not 1 <= k <= kmax:
        raise GrsError(f"dimension {k} out of range 1..{kmax}")
    return GrsSpec(points, v, k, extended)


def generator_matrix(spec: GrsSpec) -> Matrix:
    """The k x n (or k x (n+1)) Vandermonde-with-multipliers generator."""
    return Matrix(spec.field, spec.generator_array)


def encode(spec: GrsSpec, fx) -> list[int]:
    """Codeword of the message polynomial fx (deg < k): fx G."""
    if poly_deg(fx) > spec.k - 1:
        raise GrsError(f"message degree {poly_deg(fx)} >= dimension {spec.k}")
    f = spec.field
    return lincomb(f, f.asarray(fx), spec.generator_array[: len(fx)]).tolist()


# --- serialization (elements as their integer encodings) ---


def spec_to_dict(spec: GrsSpec) -> dict:
    return {
        "schema": 1,
        "field": spec.field.to_dict(),
        "a": list(spec.points.a),
        "v": list(spec.v),
        "k": spec.k,
        "extended": spec.extended,
    }


def spec_from_dict(d: dict) -> GrsSpec:
    if not isinstance(d, dict):
        raise GrsError("a code must be a JSON object")
    if d.get("schema") != 1:
        raise GrsError(f"unsupported code schema {d.get('schema')!r}, expected 1")
    if not (
        {"field", "a", "v", "k"} <= d.keys()
        and is_int_list(d["a"])
        and is_int_list(d["v"])
        and is_int_list([d["k"]])
        and isinstance(d.get("extended", False), bool)
    ):
        raise GrsError(
            "a code needs a field, integer lists a and v, an integer k "
            "and an optional boolean extended"
        )
    field = Field.from_dict(d["field"])
    points = eval_set(field, d["a"])
    return grs(points, d["v"], d["k"], d.get("extended", False))
