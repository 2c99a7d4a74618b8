"""Mutation checks for the shared invariant checks in hullcodes.selftest.

Each case breaks the computation one check guards and runs that check's
selftest suite alone: the check must report a counterexample and the
CLI must exit 1, so the acceptance criteria that call the same checks
cannot pass vacuously.
"""

import pytest

from hullcodes import oracle, selftest
from hullcodes.cli import main

# (suite, "module.function" to replace, replacement)
MUTANTS = [
    ("power-sums", "selftest.verify_power_sums", lambda points: False),
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
