"""Mutation checks for the shared invariant checks in hullcodes.selftest.

Each case breaks the computation one check guards and runs that check's
selftest suite alone: the check must report a counterexample and the
CLI must exit 1, so the acceptance criteria that call the same checks
cannot pass vacuously.
"""

import dataclasses

import pytest

from hullcodes import oracle, selftest
from hullcodes.cli import main
from hullcodes.grs import eval_sets


def _later_members_scaled(field, point_lists):
    """eval_sets, with every u_i of each set after the first doubled: a
    batch whose first member is right, so only a check of the later
    members can fail."""
    first, *rest = eval_sets(field, point_lists)
    return [first] + [dataclasses.replace(points, u=tuple(field.mul(2, u) for u in points.u))
                      for points in rest]


# (suite, "module.function" to replace, replacement)
MUTANTS = [
    ("power-sums", "selftest.verify_power_sums", lambda points: False),
    ("power-sums", "selftest.eval_sets", _later_members_scaled),
    ("duality", "selftest.dual_generator", lambda G: G),
    ("duality", "selftest.row_space_equal", lambda A, B: True),
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
