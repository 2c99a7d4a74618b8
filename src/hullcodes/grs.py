"""(Extended) generalized Reed-Solomon codes.

A GrsSpec is the data (a, v, k, extended): distinct evaluation points
a_i, nonzero column multipliers v_i, dimension k.  The codewords are
(v_1 f(a_1), ..., v_n f(a_n)) for deg f < k, with the coefficient of
x^(k-1) appended as an extra coordinate in the extended case.

Alongside each evaluation set we keep the node polynomial
P = prod_j (x - a_j), from a product tree, and the derived quantities
u_i = prod_{j != i} (a_i - a_j)^(-1) = 1 / P'(a_i) (linalg.node_weights),
which tie a GRS code to its dual in everything downstream (certificates,
hull membership, duality); every interpolation over the points reuses
both.  eval_sets builds many evaluation sets of one field at once: each
list of points is checked as eval_set checks it, and all their P and u
come from one batch of node_weights.  eval_set is eval_sets on a batch
of one.  The tuples a, u, P and a spec's v are the public, hashable
identity and the serialized form; the array kernels read each as one
read-only int64 array (a_array, u_array, P_array, v_array).  eval_set
and grs keep the arrays they checked (Field.asarray) or computed; on a
hand-built EvaluationSet or GrsSpec each array is converted and checked
on first use, then kept.

Each spec keeps its evaluation map, int64 arrays of O(kn) memory, in
its own attributes, so the map lives and dies with the spec: G = V diag(v)
(V[j, i] = a_i^j, plus the extended column) on the first encode or
generator_matrix call, and L on the first hull_membership query.  Row j
of L takes the values v_i^2 a_i^j / u_i at the points; it is
x^j lam mod P, lam the interpolant of v_i^2 / u_i (the certificate
polynomial), so after lam each row is one shift and one subtraction.
encode(f) is f G and the hull witness of f is f L.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field, is_int_list
from .linalg import Matrix, interpolate_batch, node_weights, poly_deg


class GrsError(ValueError):
    pass


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _keep(obj, **arrays) -> None:
    """Fill obj's cached array properties with arrays already checked,
    or computed by the field's ops, so they are not checked again."""
    vars(obj).update((name, _frozen(array)) for name, array in arrays.items())


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

    @cached_property
    def a_array(self) -> np.ndarray:
        return _frozen(self.field.asarray(self.a))

    @cached_property
    def u_array(self) -> np.ndarray:
        return _frozen(self.field.asarray(self.u))

    @cached_property
    def P_array(self) -> np.ndarray:
        return _frozen(self.field.asarray(self.P))


def eval_set(field: Field, a) -> EvaluationSet:
    """Evaluation points plus their u_i values: eval_sets(field, [a])[0].

    u_i is the inverse of prod_{j != i} (a_i - a_j); for a single point
    the empty product gives u_1 = 1.
    """
    return eval_sets(field, [a])[0]


def eval_sets(field: Field, point_lists) -> list[EvaluationSet]:
    """eval_set of each list of points, in order.  Each list is checked
    as eval_set checks it, and then every set's P and u come from one
    batch of node_weights, so the sets share its array steps."""
    checked = [_points(field, a) for a in point_lists]
    if not checked:
        return []
    out = []
    for (a, xs), (P, u) in zip(checked, node_weights(field, [xs for _, xs in checked])):
        points = EvaluationSet(field, a, tuple(u.tolist()), tuple(P.tolist()))
        _keep(points, a_array=xs, u_array=u, P_array=P)
        out.append(points)
    return out


def _points(field: Field, a) -> tuple[tuple, np.ndarray]:
    """The points a, nonempty, elements and pairwise distinct, as a
    tuple of ints and as a checked int64 array."""
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
    return a, xs


@dataclass(frozen=True)
class GrsSpec:
    points: EvaluationSet
    v: tuple
    k: int
    extended: bool = False

    @cached_property
    def v_array(self) -> np.ndarray:
        return _frozen(self.field.asarray(self.v))

    @cached_property
    def generator_array(self) -> np.ndarray:
        """G, k x length: row j is (v_i a_i^j), then [j = k-1] if extended."""
        f = self.field
        G = f.mul_array(f.pow_array(self.points.a_array, np.arange(self.k)[:, None]), self.v_array)
        if self.extended:
            G = np.hstack([G, np.arange(self.k)[:, None] == self.k - 1])
        return _frozen(G)

    def dual_interpolant(self) -> np.ndarray:
        """The n coefficients of the interpolant of v_i^2 / u_i: the
        certificate polynomial of hull.py."""
        f, points, v = self.field, self.points, self.v_array
        values = f.mul_array(f.mul_array(v, v), f.inv_array(points.u_array))
        return interpolate_batch(f, points.a_array, values[None], points.P_array, points.u_array)[0]

    @cached_property
    def witness_map(self) -> np.ndarray:
        """L, k x n: row j interpolates v_i^2 a_i^j / u_i, so it is
        x^j lam mod P, lam the dual interpolant and P the node
        polynomial; each row is the one before shifted up once, less its
        top coefficient times P.  Built on first use and then kept."""
        f, n = self.field, self.n
        P = self.points.P_array[:n]  # P is monic of degree n
        L = np.empty((self.k, n), dtype=np.int64)
        L[0] = self.dual_interpolant()
        for j in range(1, self.k):
            shifted = np.concatenate(([0], L[j - 1, :-1]))
            L[j] = f.sub_array(shifted, f.mul_array(L[j - 1, -1], P))
        return L

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
    v_array = points.field.asarray(v)
    if not v_array.all():
        raise GrsError("multipliers must be nonzero")
    kmax = points.n + 1 if extended else points.n
    if not 1 <= k <= kmax:
        raise GrsError(f"dimension {k} out of range 1..{kmax}")
    spec = GrsSpec(points, tuple(v_array.tolist()), k, extended)
    _keep(spec, v_array=v_array)
    return spec


def generator_matrix(spec: GrsSpec) -> Matrix:
    """The k x n (or k x (n+1)) Vandermonde-with-multipliers generator."""
    return Matrix._wrap(spec.field, spec.generator_array)


def encode(spec: GrsSpec, fx) -> list[int]:
    """Codeword of the message polynomial fx (deg < k): fx G."""
    if poly_deg(fx) > spec.k - 1:
        raise GrsError(f"message degree {poly_deg(fx)} >= dimension {spec.k}")
    f = spec.field
    return f.matmul_array(f.asarray(fx), spec.generator_array[: len(fx)]).tolist()


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
