"""hullcodes benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
With --trace 0 it prints the end-to-end metrics of one timed run; with
--trace 1 it runs a fixed, seed-determined list of ops once untraced and
once traced, and prints the per-layer metrics.  The last line of stdout
is the JSON result; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUDGET_ENV = ("HULLCODES_MAX_CODEWORDS", "HULLCODES_MAX_MINOR_K")
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120
MAX_ERRORS_SHOWN = 5
# Reference kernel: REF_REPEATS Gauss-Jordan eliminations of a fixed
# 28 x 28 matrix over GF(59) with reference.py's tables, which share no
# code with the program.  REF_NOMINAL_S is what it takes at the speed
# the reported times are scaled to, about the fastest a shared 2-vCPU
# Xeon VM runs it.
REF_REPEATS = 5
REF_NOMINAL_S = 0.008
# The runner samples the reference kernel after every BLOCK_S seconds
# of program time, at the latest, and at the end of every round.
BLOCK_S = 0.2


def _import_program():
    # One process, one thread: keep native libraries single-threaded too.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # The runner passes every oracle budget explicitly.
    for var in BUDGET_ENV:
        os.environ.pop(var, None)
    if not (SRC / "hullcodes" / "__init__.py").is_file():
        raise SystemExit(f"error: no hullcodes sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hullcodes

    if not Path(hullcodes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported hullcodes from {hullcodes.__file__}, not {SRC}")
    import workloads

    return workloads


class Speedometer:
    """Times the reference kernel: the host's current speed."""

    def __init__(self):
        import reference

        rng = random.Random(59)
        self.field = reference.RefField(59)
        self.rows = [[rng.randrange(59) for _ in range(28)] for _ in range(28)]
        self.echelon = reference.echelon
        self.samples = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            t0 = perf_counter()
            for _ in range(REF_REPEATS):
                self.echelon(self.field, self.rows)
            elapsed = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed


class Runner:
    """Runs ops, recording latencies (per op shape too) and failures.

    Latencies wait in a block until close_block scales them to the
    reference speed by the kernel times taken just before and just
    after the block.
    """

    def __init__(self, workloads):
        self.wl = workloads
        self.latencies = []
        self.raw_latencies = []
        self.by_shape = {}
        self.raw_by_shape = {}
        self.block = []
        self.block_s = 0.0
        self.program_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op) -> None:
        clock = self.wl.Clock()
        self.attempted += 1
        try:
            op.run(clock)
        except self.wl.CheckFailed as exc:
            self._fail(f"{op.group}: {exc}")
        except Exception:  # a crashing op is a failed op; keep measuring
            self._fail(f"{op.group}: {traceback.format_exc()}")
        else:
            self.block.append((op.shape, clock.elapsed))
        self.block_s += clock.elapsed
        self.program_s += clock.elapsed

    def close_block(self, ref_before: float, ref_after: float) -> None:
        scale = 2 * REF_NOMINAL_S / (ref_before + ref_after)
        for shape, elapsed in self.block:
            self.raw_latencies.append(elapsed)
            self.latencies.append(elapsed * scale)
            self.by_shape.setdefault(shape, []).append(elapsed * scale)
            self.raw_by_shape.setdefault(shape, []).append(elapsed)
        self.block, self.block_s = [], 0.0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)
            print(f"op failed: {message}", file=sys.stderr)


def ops_per_s(by_shape: dict) -> float:
    """Verified ops per second of a round in which every op takes the
    median latency of its shape."""
    if not by_shape:
        return 0.0
    return len(by_shape) / sum(statistics.median(v) for v in by_shape.values())


def build(workloads, name: str, seed: int):
    """Construct the workload and run its untimed warm-up."""
    wl = workloads.WORKLOADS[name](seed)
    warm = Runner(workloads)
    for op in wl.warmup():
        warm.run(op)
    if warm.failed:
        raise SystemExit(f"error: warm-up failed: {warm.errors}")
    for key in getattr(wl, "counts", {}):
        wl.counts[key] = 0
    return wl


def setup_sample(args, speed: Speedometer) -> tuple[float, float]:
    """Seconds from starting a fresh runner to its first timed op, as
    measured and scaled to the reference speed."""
    ref_before = speed.sample()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise SystemExit(f"error: set-up run failed with exit code {child.returncode}")
    return elapsed, elapsed * 2 * REF_NOMINAL_S / (ref_before + speed.sample())


def tail(latencies, percentile: int):
    """(value, samples beyond): the latency at a fixed percentile,
    interpolated between order statistics, and the count above it."""
    if len(latencies) < 2:
        return latencies[0], 0
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(x > value for x in latencies)


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_hullcodes_lines": sum(len(p.read_text().splitlines())
                                   for p in sorted((SRC / "hullcodes").glob("*.py"))),
        "claim": None,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def timed_run(args, workloads):
    speed = Speedometer()
    speed.sample()  # warm-up
    raw_setups, setups = zip(*(setup_sample(args, speed) for _ in range(SETUP_REPEATS)))
    wl = build(workloads, args.workload, args.seed)
    runner = Runner(workloads)
    start = perf_counter()
    rounds = 0

    def close_block(ref_before: float) -> float:
        ref_after = speed.sample()
        runner.close_block(ref_before, ref_after)
        return ref_after

    ref = speed.sample()
    for ops in wl.rounds():
        gc.collect()  # every round starts from the same collector state
        t0 = perf_counter()
        for op in ops:
            runner.run(op)
            if runner.block_s >= BLOCK_S:
                ref = close_block(ref)
        if runner.block:
            ref = close_block(ref)
        rounds += 1
        now = perf_counter()
        # start another round only if it should end within the run
        if now - start + (now - t0) > args.seconds:
            break
    wall = perf_counter() - start
    ok = runner.attempted - runner.failed
    lat = runner.latencies or [float("nan")]
    raw = runner.raw_latencies or [float("nan")]
    tail_s, beyond = tail(lat, wl.tail_percentile)
    metrics = {
        "ops_per_s": (ops_per_s(runner.by_shape), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (ok / runner.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    meta = metadata(args)
    meta.update({
        "rounds": rounds,
        "shape_median_ms": {shape: statistics.median(v) * 1e3 for shape, v in sorted(runner.by_shape.items())},
        "wall_s": wall,
        "program_s": runner.program_s,
        "samples": len(runner.latencies),
        "op_tail_percentile": wl.tail_percentile,
        "op_tail_samples_beyond": beyond,
        "fail_frac": runner.failed / runner.attempted,
        "setup_samples_s": setups,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_median_s": statistics.median(speed.samples),
        "ref_samples": len(speed.samples),
        "raw": {
            "ops_per_s": ops_per_s(runner.raw_by_shape),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw, wl.tail_percentile)[0] * 1e3,
            "setup_s": statistics.median(raw_setups),
        },
        "counts": getattr(wl, "counts", {}),
        "errors": runner.errors,
    })
    return runner.attempted, runner.failed, metrics, meta


def traced_run(args, workloads):
    import tracing

    wl = build(workloads, args.workload, args.seed)
    ops = wl.trace_ops()
    plain = Runner(workloads)
    for op in ops:
        plain.run(op)
    traced = Runner(workloads)
    minors_by_group = {}
    with tracing.Tracer() as tracer:
        for op in ops:
            before = tracer.minors_examined
            traced.run(op)
            minors_by_group[op.group] = minors_by_group.get(op.group, 0) + tracer.minors_examined - before
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        raise SystemExit(f"error: tracer left wrappers installed: {leftovers}")
    layer = tracer.metrics()
    metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in layer.items()}
    metrics["trace_overhead_frac"] = (traced.program_s / plain.program_s - 1, "ratio")
    meta = metadata(args)
    meta.update({
        "ops": len(ops),
        "untraced_program_s": plain.program_s,
        "traced_program_s": traced.program_s,
        "self_share": {name: s / traced.program_s for name, s in
                       sorted(tracer.self_s.items(), key=lambda kv: -kv[1])},
        "minors_examined_by_group": {g: n for g, n in sorted(minors_by_group.items()) if n},
        "errors": plain.errors + traced.errors,
    })
    return plain.attempted + traced.attempted, plain.failed + traced.failed, metrics, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        build(workloads, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    attempted, failed, metrics, meta = (traced_run if args.trace else timed_run)(args, workloads)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
