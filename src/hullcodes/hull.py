"""Euclidean hulls of linear codes and self-orthogonality certificates.

The hull of a code C with generator G is C intersect C-dual.  Since G
has full row rank, a codeword x*G lies in the hull iff x*(G*G^T) = 0,
so dim Hull = k - rank(Gram), and a hull basis is N G for N a null
basis of Gram.  hull_report eliminates the Gram matrix once and keeps
its echelon form; HullReport builds N from it, and N G, only when read.
Every report is cross-checked against the referee
oracle.hull_dim_oracle, which computes n - rank([G; H]) with H a dual
generator.  LinearCode is the referees' plain code type, re-exported
here.

Self-orthogonality of (extended) GRS codes is decided by a certificate
polynomial: the unique interpolant of the values v_i^2 / u_i.  The code
GRS_m(a, v) is self-orthogonal iff that interpolant has degree at most
n - 2m; GRS_m(a, v, oo) iff it has degree exactly n - 2m + 1 with
leading coefficient -1 (for 2m = n + 1 this degenerates to the constant
-1, i.e. v_i^2 = -u_i).  Degree inspection is a complete decision
procedure because the interpolant of degree <= n - 1 is unique.  A
Certificate holds lam alone: the kind and m are those of the spec it is
checked against, so it cannot vouch for a code of another kind or
dimension.  For m above n/2 ((n+1)/2 extended) the degree bound is
negative, so such a spec has no certificate.

encode(f) lies in the hull iff the interpolant g of v_i^2 f(a_i) / u_i
has degree <= n - k - 1 (extended: <= n - k and f_{k-1} = -g_{n-k}).  g
is linear in f, so hull_membership reads it off as f L from the spec's
witness map L (grs.py), built on the first query and kept with the
spec; row j of L is x^j lam mod P, so L takes one interpolation, that
of the certificate polynomial lam.  check_certificate, which guards
every reduction, never reads L: it evaluates lam at every point itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import Field
from .linalg import (
    Matrix,
    _null_basis,
    _rref_array,
    poly_coeff,
    poly_deg,
    poly_eval_array,
    poly_trim,
    weighted_power_sums,
)
from .grs import EvaluationSet, GrsSpec, generator_matrix
from .oracle import LinearCode, hull_dim_oracle

LCD = "LCD"
SELF_ORTHOGONAL = "self-orthogonal"
DUAL_CONTAINING = "dual-containing"
SELF_DUAL = "self-dual"
ALMOST_SELF_DUAL = "almost-self-dual"
GENERIC = "generic"


class HullError(ValueError):
    pass


def linear_code(field: Field, rows) -> LinearCode:
    code = LinearCode(field, Matrix(field, rows))
    if code.echelon[1] != code.k or code.k < 1:
        raise HullError("generator matrix must be full row rank, k >= 1")
    return code


def code_from_grs(spec: GrsSpec) -> LinearCode:
    return LinearCode(spec.field, generator_matrix(spec))


@dataclass(frozen=True)
class HullReport:
    hull_dim: int
    gram_rank: int
    classification: str
    oracle_agrees: bool
    # (R, rank, pivots): the rref of the Gram matrix, R a Matrix
    gram_echelon: tuple
    generator: Matrix

    @cached_property
    def coefficients(self) -> Matrix:
        """A null basis of the Gram matrix, built on first read from its
        echelon form: only hull_basis reads it."""
        f = self.generator.field
        R, rk, pivots = self.gram_echelon
        return Matrix._wrap(f, _null_basis(f, R.entries, rk, pivots))

    @cached_property
    def hull_basis(self) -> Matrix:
        """coefficients * generator, a basis of the hull, built on first
        read: no CLI output prints it."""
        return self.coefficients.matmul(self.generator)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "hull_dim": self.hull_dim,
            "classification": self.classification,
            "oracle_agrees": self.oracle_agrees,
        }


def classify(n: int, k: int, hull_dim: int) -> str:
    if hull_dim == k:
        if 2 * k == n:
            return SELF_DUAL
        if n == 2 * k + 1:
            return ALMOST_SELF_DUAL
        return SELF_ORTHOGONAL
    if hull_dim == n - k:
        return DUAL_CONTAINING
    if hull_dim == 0:
        return LCD
    return GENERIC


def hull_report(code: LinearCode) -> HullReport:
    f, G = code.field, code.generator
    # G^T as a C-ordered copy: numpy's integer product reads it faster
    gram = f.matmul_array(G.entries, G.entries.T.copy())
    R, rk, pivots = _rref_array(f, gram)
    hull_dim = code.k - rk
    return HullReport(
        hull_dim=hull_dim,
        gram_rank=rk,
        classification=classify(code.n, code.k, hull_dim),
        oracle_agrees=hull_dim_oracle(code) == hull_dim,
        gram_echelon=(Matrix._wrap(f, R), rk, pivots),
        generator=G,
    )


# --- certificates (self-orthogonality of GRS / extended GRS) ---


@dataclass(frozen=True)
class Certificate:
    lam: tuple  # kind and m are the certified spec's own


def _degree_rule(spec: GrsSpec, lam) -> bool:
    """Whether lam meets the degree criterion above for spec's code: of
    dimension m = spec.k, extended or not as spec.extended says."""
    if not spec.extended:
        return poly_deg(lam) <= spec.n - 2 * spec.k
    top = spec.n - 2 * spec.k + 1
    return poly_deg(lam) == top and poly_coeff(lam, top) == spec.field.neg(1)


def certify(spec: GrsSpec) -> Certificate | None:
    """Certificate that spec's code (dimension spec.k, extended or not)
    is self-orthogonal, or None."""
    lam = poly_trim(spec.dual_interpolant().tolist())
    return Certificate(tuple(lam)) if _degree_rule(spec, lam) else None


# other names of certify, kept because perfbench/tracing.py's SPANS names
# them
certify_grs_self_orthogonal = certify_egrs_self_orthogonal = certify


def check_certificate(cert: Certificate, spec: GrsSpec) -> bool:
    """Re-validate a certificate against the seed spec it vouches for."""
    f, points = spec.field, spec.points
    if not _degree_rule(spec, cert.lam):
        return False
    v = spec.v_array
    lam_u = f.mul_array(poly_eval_array(f, cert.lam, points.a_array), points.u_array)
    return bool(np.array_equal(lam_u, f.mul_array(v, v)))


# --- hull membership witnesses ---


def hull_membership(spec: GrsSpec, fx) -> list[int] | None:
    """Witness polynomial g for membership of encode(fx) in the hull.

    Non-extended: g with deg(g) <= n-k-1 and v_i^2 f(a_i) = u_i g(a_i).
    Extended: deg(g) <= n-k, the same value conditions, and the
    coefficient condition f_{k-1} = -g_{n-k}.  Returns None when the
    codeword is not in the hull.
    """
    if poly_deg(fx) > spec.k - 1:
        raise HullError(f"message degree {poly_deg(fx)} >= dimension {spec.k}")
    f = spec.field
    n, k = spec.n, spec.k
    g = poly_trim(f.matmul_array(f.asarray(fx), spec.witness_map[: len(fx)]).tolist())
    if not spec.extended:
        return g if poly_deg(g) <= n - k - 1 else None
    if poly_deg(g) <= n - k and poly_coeff(fx, k - 1) == f.neg(poly_coeff(g, n - k)):
        return g
    return None


def verify_power_sums(point_sets: list[EvaluationSet]) -> list[bool]:
    """For each evaluation set of a non-empty list, all of one field:
    whether sum_i a_i^m u_i is 0 for 0 <= m <= n-2 and 1 for m = n-1.

    The sums come from one linalg.weighted_power_sums product, in
    O(sqrt(N)) array steps for N points in all: its nodes are every
    set's points in turn, and row i of its block-diagonal weights holds
    set i's u on set i's points and 0 elsewhere, so row i of the product
    holds set i's power sums.  One set is a batch of one."""
    f = point_sets[0].field
    if any(points.field != f for points in point_sets):
        raise HullError("verify_power_sums takes evaluation sets of one field")
    n = np.array([points.n for points in point_sets])
    xs = np.concatenate([points.a_array for points in point_sets])
    C = np.zeros((len(n), len(xs)), dtype=np.int64)
    for row, points, end in zip(C, point_sets, np.cumsum(n)):
        row[end - points.n : end] = points.u_array
    sums = weighted_power_sums(f, xs, C)
    # row i holds set i's sums at m < n_i: 0, but 1 at m = n_i - 1
    m, n = np.arange(len(xs)), n[:, None]
    return ((sums == (m == n - 1)) | (m >= n)).all(axis=1).tolist()
