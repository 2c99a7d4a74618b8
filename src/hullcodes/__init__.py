"""MDS codes with Euclidean hulls of prescribed dimension.

Constructs q-ary MDS (extended) generalized Reed-Solomon codes whose
hull C intersect C-dual has any chosen dimension, starting from
self-orthogonal seed codes, with independent brute-force oracles for
every claim.
"""

from .gf import Field, FieldError
from .linalg import Matrix, interpolate, rank, rref
from .grs import EvaluationSet, GrsError, GrsSpec, encode, eval_set, eval_sets, generator_matrix, grs
from .hull import (
    Certificate,
    HullError,
    HullReport,
    LinearCode,
    certify,
    code_from_grs,
    hull_membership,
    hull_report,
    linear_code,
    verify_power_sums,
)
from .construct import (
    ConstructionError,
    SeedCode,
    choose_alpha,
    choose_b,
    make_seed,
    reduce_hull,
    ternary_codes,
)
from .families import FamilyError, FamilyParams, FamilySeed, build_family, construct_from_family, family_grid
from .oracle import BudgetError, OracleBudget, hull_dim_oracle, is_mds, min_distance, ternary_4_2_census

__version__ = "0.1.0"
