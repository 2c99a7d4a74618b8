"""Mutation checks for the shared invariant checks in hullcodes.selftest.

Each case breaks the computation one check guards and runs that check's
selftest suite alone: the check must report a counterexample and the
CLI must exit 1, so the acceptance criteria that call the same checks
cannot pass vacuously.
"""

import pytest

from hullcodes import oracle, selftest
from hullcodes.cli import main

MUTANTS = [
    ("power-sums", "verify_power_sums", lambda points: False),
    ("duality", "dual_generator", lambda G: G),
    ("duality", "row_space_equal", lambda A, B: True),
    ("oracle-equivalence", "hull_dim_oracle", lambda code: oracle.hull_dim_oracle(code) + 1),
    ("oracle-equivalence", "min_distance", lambda code, budget: code.n - code.k + 2),
    ("certificates", "certify_grs_self_orthogonal", lambda spec, m: None),
    ("certificates", "certify_egrs_self_orthogonal", lambda spec, m: None),
    ("ternary-table", "min_distance", lambda code, budget: oracle.min_distance(code, budget) + 1),
]


@pytest.mark.parametrize("suite, target, mutant", MUTANTS, ids=[f"{s}-{t}" for s, t, _ in MUTANTS])
def test_selftest_detects_injected_failure(suite, target, mutant, monkeypatch, capsys):
    monkeypatch.setattr(selftest, "SUITES", [s for s in selftest.SUITES if s[0] == suite])
    monkeypatch.setattr(selftest, target, mutant)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"FAIL  {suite}: ")
    assert out[1:] == ["1 suite(s) failed"]
