"""Euclidean hulls of linear codes and self-orthogonality certificates.

The hull of a code C with generator G is C intersect C-dual.  Since G
has full row rank, a codeword x*G lies in the hull iff x*(G*G^T) = 0,
so dim Hull = k - rank(Gram).  Every report is cross-checked against
the referee oracle.hull_dim_oracle, which computes n - rank([G; H]) with
H a dual generator.  LinearCode is the referees' plain code type,
re-exported here.

Self-orthogonality of (extended) GRS codes is decided by a certificate
polynomial: the unique interpolant of the values v_i^2 / u_i.  The code
GRS_m(a, v) is self-orthogonal iff that interpolant has degree at most
n - 2m; GRS_m(a, v, oo) iff it has degree exactly n - 2m + 1 with
leading coefficient -1 (for 2m = n + 1 this degenerates to the constant
-1, i.e. v_i^2 = -u_i).  Degree inspection is a complete decision
procedure because the interpolant of degree <= n - 1 is unique.

encode(f) lies in the hull iff the interpolant g of v_i^2 f(a_i) / u_i
has degree <= n - k - 1 (extended: <= n - k and f_{k-1} = -g_{n-k}).  g
is linear in f, so hull_membership reads it off as f L from the spec's
witness map L (grs.py), built on the first query and kept with the
spec.  check_certificate, which guards every reduction, never reads L:
it evaluates lam at every point itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field
from .linalg import (
    Matrix,
    lincomb,
    nullspace,
    poly_coeff,
    poly_deg,
    poly_eval_array,
    poly_trim,
    rank,
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
    G = Matrix(field, rows)
    if rank(G) != G.nrows or G.nrows < 1:
        raise HullError("generator matrix must be full row rank, k >= 1")
    return LinearCode(field, G)


def code_from_grs(spec: GrsSpec) -> LinearCode:
    return LinearCode(spec.field, generator_matrix(spec))


@dataclass(frozen=True)
class HullReport:
    hull_dim: int
    hull_basis: Matrix
    gram_rank: int
    classification: str
    oracle_agrees: bool

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
    G = code.generator
    gram = G.matmul(G.transpose())
    coeff = nullspace(gram)
    hull_dim = coeff.nrows
    return HullReport(
        hull_dim=hull_dim,
        hull_basis=coeff.matmul(G),
        gram_rank=code.k - hull_dim,
        classification=classify(code.n, code.k, hull_dim),
        oracle_agrees=hull_dim_oracle(code) == hull_dim,
    )


# --- certificates (self-orthogonality of GRS / extended GRS) ---


@dataclass(frozen=True)
class Certificate:
    lam: tuple
    kind: str  # "grs" or "egrs"
    m: int


def _degree_rule(field: Field, kind: str, lam, n: int, m: int) -> bool:
    """Whether lam meets the degree criterion above as a certificate of
    kind "grs" or "egrs" (else False) for a length-n seed of dimension m."""
    if kind == "grs":
        return poly_deg(lam) <= n - 2 * m
    top = n - 2 * m + 1
    return kind == "egrs" and poly_deg(lam) == top and poly_coeff(lam, top) == field.neg(1)


def _certify(spec: GrsSpec, m: int, kind: str, m_max: int) -> Certificate | None:
    if not 1 <= m <= m_max:
        raise HullError(f"seed dimension {m} out of range 1..{m_max}")
    lam = poly_trim(spec.dual_interpolants(1)[0].tolist())
    if _degree_rule(spec.field, kind, lam, spec.n, m):
        return Certificate(tuple(lam), kind, m)
    return None


def certify_grs_self_orthogonal(spec: GrsSpec, m: int) -> Certificate | None:
    """Certificate that GRS_m(a, v) is self-orthogonal, or None."""
    return _certify(spec, m, "grs", spec.n // 2)


def certify_egrs_self_orthogonal(spec: GrsSpec, m: int) -> Certificate | None:
    """Certificate that GRS_m(a, v, oo) is self-orthogonal, or None."""
    return _certify(spec, m, "egrs", (spec.n + 1) // 2)


def certify(spec: GrsSpec) -> Certificate | None:
    """Certificate that spec's code (dimension spec.k, extended or not)
    is self-orthogonal, or None."""
    if spec.extended:
        return certify_egrs_self_orthogonal(spec, spec.k)
    return certify_grs_self_orthogonal(spec, spec.k)


def check_certificate(cert: Certificate, points: EvaluationSet, v) -> bool:
    """Re-validate a certificate against an evaluation set and multipliers."""
    f = points.field
    if not _degree_rule(f, cert.kind, cert.lam, points.n, cert.m):
        return False
    v = f.asarray(v)
    lam_u = f.mul_array(poly_eval_array(f, cert.lam, f.asarray(points.a)), f.asarray(points.u))
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
    g = poly_trim(lincomb(f, f.asarray(fx), spec.witness_map[: len(fx)]).tolist())
    if not spec.extended:
        return g if poly_deg(g) <= n - k - 1 else None
    if poly_deg(g) <= n - k and poly_coeff(fx, k - 1) == f.neg(poly_coeff(g, n - k)):
        return g
    return None


def verify_power_sums(points: EvaluationSet) -> bool:
    """sum_i a_i^m u_i is 0 for 0 <= m <= n-2 and 1 for m = n-1."""
    f = points.field
    a, terms = f.asarray(points.a), f.asarray(points.u)
    for m in range(points.n):  # terms = a_i^m u_i: O(n) memory
        if f.sum_array(terms) != (1 if m == points.n - 1 else 0):
            return False
        terms = f.mul_array(terms, a)
    return True
