"""Record the benchmark of this working tree against a base commit.

    python3 bench/record.py --compare BASE [--pairs N] [--seed S] [--seconds T]
                            [--workload NAME ...] [--label LABEL]

Exports BASE with `git archive` into a temporary directory and runs
perfbench/run.py (untraced) there and in this working tree, N pairs per
workload: odd pairs run the base first, even pairs the change first.
Writes BENCH_<label>.json at the root of the tree.  Per workload and
end-to-end metric of BENCHMARK.json it holds each side's runs, median
and quartiles, and in how many pairs the change read better (ties count
for neither).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(commit: str, dest: str) -> None:
    """The committed files of commit, unpacked into dest."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"error: git archive {commit} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: its last stdout line, and the
    meta line before it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, check=True, text=True, stdout=subprocess.PIPE).stdout
    *_, meta, result = out.splitlines()
    return dict(json.loads(result), meta=json.loads(meta)["meta"])


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method), and the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, better: dict) -> dict:
    """Per metric named in better ("higher" or "lower"): each side's
    spread over runs[side], a list of metric -> value dicts in pair
    order, and "change better in k/N" over the N pairs."""
    out = {}
    for name, direction in better.items():
        base, change = ([run[name] for run in runs[side]] for side in SIDES)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        out[name] = {"better": direction, "base": spread(base), "change": spread(change),
                     "change_better": f"{wins}/{len(base)}"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", required=True, metavar="BASE", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--label", default=None, help="default: git describe --always --dirty")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    base_commit = git("rev-parse", "--verify", f"{args.compare}^{{commit}}")
    label = args.label or git("describe", "--always", "--dirty")
    record = {"base": base_commit, "change": git("rev-parse", "HEAD"), "label": label,
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "order": "odd pairs base first, even pairs change first",
              "host": {"platform": platform.platform(), "python": platform.python_version()},
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export(base_commit, tmp)
        trees = {"base": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_once(trees[side], workload, args.seed, seconds)
                    runs[side].append(run)
                    print(f"{workload} pair {pair + 1} {side}: ops_per_s "
                          f"{run['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr, flush=True)
            values = {side: [{name: r["metrics"][name]["value"] for name in better} for r in rs]
                      for side, rs in runs.items()}
            record["workloads"][workload] = {
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                "meta": {side: {key: rs[0]["meta"].get(key) for key in
                                ("nproc", "python", "numpy", "src_hullcodes_lines")}
                         for side, rs in runs.items()},
                "metrics": summarize(values, better),
            }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    correct = all(all(w["correct"].values()) for w in record["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
