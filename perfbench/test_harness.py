"""Self-checks of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads = run._import_program()
import tracing  # noqa: E402  (needs the program on sys.path first)

from hullcodes import cli, gf, oracle  # noqa: E402

hull = sys.modules["hullcodes.hull"]

ROOT = Path(__file__).resolve().parent.parent


def _run_all(ops):
    runner = run.Runner(workloads)
    for op in ops:
        runner.run(op)
    return runner


def _family_smoke_ops(wl):
    ops = [wl.fixed_op(label) for label in workloads.FIXED_COMMANDS]
    for fam in wl.families:
        for k in sorted({min(fam["grid"]), 4} & fam["grid"].keys()):
            omega = fam["omegas"][0] if fam["omegas"] else None
            ops.append(wl.construct_op(fam, k, fam["grid"][k][-1], fam["alphas"][-1], omega))
    return ops


def _snapshot():
    owners = tracing.hullcodes_modules() + [gf.Field]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_restores_every_original():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.leftover_wrappers()
            assert cli.main is not before[(id(cli), "main")]
            raise RuntimeError("an op crashed while traced")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracing.leftover_wrappers() == []


def test_tracer_sees_nested_calls_and_routes():
    wl = workloads.SmallCodes(7)
    ops = wl.warmup()
    with tracing.Tracer() as tracer:
        runner = _run_all(ops)
    assert runner.failed == 0
    m = tracer.metrics()
    code_ops = sum(len(workloads.small_shapes(R.q)) for _, R in wl.fields)
    assert m["oracle.mds_by_enumeration"] == code_ops and m["oracle.mds_by_minors"] == 0
    assert m["linalg.rref.calls"] > 0 and m["gf.mul.calls"] > 0
    assert m["hull.hull_membership.calls"] == 2 * len(wl.specs)
    assert all(v >= 0 for v in m.values())


def test_traced_counts_repeat_within_a_process():
    def counts(seed):
        wl = workloads.WORKLOADS["family_sweep"](seed)
        ops = _family_smoke_ops(wl)
        large = workloads.LargeNCertify(seed)
        ops += large.warmup()
        with tracing.Tracer() as tracer:
            assert _run_all(ops).failed == 0
        return {k: v for k, v in tracer.metrics().items() if not k.endswith("_s")}

    first = counts(3)
    assert first == counts(3)
    assert first["oracle.mds_by_minors"] > 0 and first["oracle.mds_skipped"] == 1


def test_traced_runs_of_one_seed_give_identical_counts():
    def traced(seed):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small_codes", "--seed", str(seed),
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    first = traced(11)
    assert first == traced(11)
    assert first["gf.mul.calls"] > 0 and first["oracle.min_distance.codewords"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_passes_its_checks(name):
    wl = workloads.WORKLOADS[name](5)
    if name == "family_sweep":
        ops = _family_smoke_ops(wl)
    elif name == "large_n_certify":
        rng = random.Random(5)
        ops = wl.warmup() + [wl.make_op(rng, workloads.LARGE_SHAPES[0])]
    else:
        rounds = wl.rounds()
        ops = [op for _ in range(2) for op in next(rounds)]
    runner = _run_all(ops)
    assert runner.failed == 0, runner.errors
    assert runner.attempted == len(ops)
    if name == "large_n_certify":
        assert wl.counts == {"mds_skipped": len(ops), "mds_verified": 0}


def test_checks_reject_wrong_min_distance(monkeypatch):
    wl = workloads.SmallCodes(2)
    F, R = wl.fields[1]
    op = wl.code_op(random.Random(2), F, R, 6, 3)
    real = oracle.min_distance
    monkeypatch.setattr(oracle, "min_distance", lambda code, budget: real(code, budget) + 1)
    assert _run_all([op]).failed == 1


def test_checks_reject_missing_membership_witness(monkeypatch):
    wl = workloads.SmallCodes(2)
    rng = random.Random(0)
    ops = [wl.membership_op(rng, entry, from_hull) for entry in wl.specs for from_hull in (True, False)]
    monkeypatch.setattr(hull, "hull_membership", lambda spec, fx: None)
    assert _run_all(ops).failed > 0


def test_checks_reject_golden_mismatch_and_skipped_mds(monkeypatch):
    wl = workloads.FamilySweep(1)
    fam = dict(wl.families[3], k_max=1)  # minors budget below k: MDS check skipped
    monkeypatch.setitem(workloads.GOLDEN, "census", "0" * 64)
    runner = _run_all([wl.fixed_op("census"), wl.construct_op(fam, 5, 2, fam["alphas"][0], None)])
    assert runner.failed == 2


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_codes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_definition():
    value, beyond = run.tail([float(i) for i in range(101)], 90)
    assert (value, beyond) == (90.0, 10)


def test_rounds_repeat_their_shapes():
    for name in ("large_n_certify", "small_codes"):
        rounds = workloads.WORKLOADS[name](4).rounds()
        first, second = next(rounds), next(rounds)
        assert sorted(op.shape for op in first) == sorted(op.shape for op in second)
    wl = workloads.FamilySweep(4)
    shapes = [op.shape for op in wl._pass(full=False)]
    assert len(shapes) == len(set(shapes))
    assert set(shapes) == {op.shape for op in wl.trace_ops()}


def test_ops_per_s_uses_the_median_of_each_shape():
    assert run.ops_per_s({"a": [1.0, 9.0, 2.0], "b": [3.0]}) == 2 / 5


def test_blocks_are_scaled_to_the_reference_speed():
    runner = run.Runner(workloads)
    runner.block = [("a", 0.3), ("b", 0.6)]
    runner.close_block(run.REF_NOMINAL_S, 3 * run.REF_NOMINAL_S)  # host at half speed
    assert runner.latencies == pytest.approx([0.15, 0.3]) and runner.raw_latencies == [0.3, 0.6]
    assert runner.by_shape["b"] == pytest.approx([0.3]) and runner.block == []
