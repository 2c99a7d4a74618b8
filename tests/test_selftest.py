"""Mutation checks for the shared invariant checks in hullcodes.selftest.

Each case breaks the computation one check guards and runs that check's
selftest suite alone: the check must report a counterexample and the
CLI must exit 1, so the acceptance criteria that call the same checks
cannot pass vacuously.
"""

import dataclasses

import numpy as np
import pytest

from hullcodes import oracle, selftest
from hullcodes.cli import main
from hullcodes.construct import choose_alpha
from hullcodes.grs import eval_sets, grs
from hullcodes.linalg import Matrix


def _later_members_scaled(field, point_lists):
    """eval_sets, with every u_i of each set after the first doubled: a
    batch whose first member is right, so only a check of the later
    members can fail."""
    first, *rest = eval_sets(field, point_lists)
    return [first] + [dataclasses.replace(points, u=tuple(field.mul(2, u) for u in points.u))
                      for points in rest]


def _zero_generator(spec):
    """An all-zero generator of the right shape: its codes are
    orthogonal, so the orthogonality half of the duality check passes
    them and the rank half must fail them."""
    return Matrix(spec.field, np.zeros((spec.k, spec.length), dtype=np.int64))


def _first_multiplier_scaled(points, v, k, extended=False):
    """grs with v_0 scaled by choose_alpha: its codes have full rank, so
    the rank half of the duality check passes them and the
    orthogonality half must fail them."""
    field = points.field
    return grs(points, [field.mul(choose_alpha(field), v[0]), *v[1:]], k, extended)


# (suite, "module.function" to replace, replacement)
MUTANTS = [
    ("power-sums", "selftest.verify_power_sums", lambda point_sets: [False] * len(point_sets)),
    ("power-sums", "selftest.eval_sets", _later_members_scaled),
    ("duality", "selftest.generator_matrix", _zero_generator),
    ("duality", "selftest.grs", _first_multiplier_scaled),
    ("oracle-equivalence", "selftest.hull_dim_oracle", lambda code: oracle.hull_dim_oracle(code) + 1),
    ("oracle-equivalence", "selftest.min_distance", lambda code, budget: code.n - code.k + 2),
    # selftest reaches these through hull.certify
    ("certificates", "hull.certify_grs_self_orthogonal", lambda spec: None),
    ("certificates", "hull.certify_egrs_self_orthogonal", lambda spec: None),
    ("ternary-table", "selftest.min_distance", lambda code, budget: oracle.min_distance(code, budget) + 1),
]


@pytest.mark.parametrize(
    "suite, target, mutant", MUTANTS, ids=[f"{s}-{t.split('.')[1]}" for s, t, _ in MUTANTS]
)
def test_selftest_detects_injected_failure(suite, target, mutant, monkeypatch, capsys):
    monkeypatch.setattr(selftest, "SUITES", [s for s in selftest.SUITES if s[0] == suite])
    monkeypatch.setattr(f"hullcodes.{target}", mutant)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"FAIL  {suite}: ")
    assert out[1:] == ["1 suite(s) failed"]


@pytest.mark.parametrize("target, mutant", [("generator_matrix", _zero_generator),
                                            ("grs", _first_multiplier_scaled)],
                         ids=["zero-generator", "scaled-multiplier"])
def test_duality_mutant_fails_the_first_instance(target, mutant, monkeypatch):
    """Each duality mutant fails the check's first instance, not only its
    perturbation: the zero generator (orthogonal codes) through the rank
    half, the scaled multiplier (full-rank codes) through the
    orthogonality half."""
    monkeypatch.setattr(selftest, target, mutant)
    points, v = selftest.subgroup_points(selftest.field_of_order(7), 3)
    examined, bad = selftest.duality(points, v, [1])
    assert examined == 1 and bad.startswith("dual of GRS_1 != GRS_2 ")
