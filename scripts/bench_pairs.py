#!/usr/bin/env python3
"""Compare the benchmark at a parent revision with the working tree, in pairs.

    python3 scripts/bench_pairs.py --parent REV --workloads threshold_grid \\
        --seeds 0 --pairs 10 --seconds 20 --out BENCH.json
    python3 scripts/bench_pairs.py --parent REV --workloads threshold_grid \\
        --seeds 0 --pairs 1 --trace 1 --out BENCH.json

REV's committed files are exported (``git archive``) into a temporary
directory.  Each pair runs ``perfbench/run.py`` once on each side, one after
the other, and swaps which side goes first on every pair, so slow phases of
the host fall on both sides alike.  The last JSON line of every run is kept.

For each workload, seed and trace setting, the output records per metric
each side's median and quartiles, how many pairs the change won (ties count
for neither side), every raw value and a verdict; ``wall_s`` is the run's
wall time.  The verdict reads ``gain`` when at least ten pairs ran, the
change won >= 9/10 of them and its median beats the parent's by more than
the parent's IQR.
Otherwise, for an end-to-end metric whose change median is worse than the
parent's by more than its bound in BENCHMARK.json, it reads ``regression``
when the parent's IQR is narrower than that bound and ``unresolved`` when it
is wider; any other end-to-end metric reads ``within_bound``, and a metric
with no bound reads ``no_bound``.  Results merge into ``--out``, replacing
an entry with the same key, with the machine (nproc, Python and numpy
versions) recorded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by the inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(
    parent: list[float], change: list[float], better: str, bound: float | None = None
) -> dict:
    """Medians, quartiles, pairwise wins and the verdict of paired values.

    ``bound`` is the metric's end-to-end bound as a fraction of the parent's
    median, or None for a metric without one.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    out = {"pairs": len(parent), "change_wins": wins, "ties": ties, "better": better}
    for side, values in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(values)
        out[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}
    base, iqr = out["parent"]["median"], out["parent"]["iqr"]
    gap = sign * (out["change"]["median"] - base)  # > 0: the change is better
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > iqr:
        out["verdict"] = "gain"
    elif bound is None:
        out["verdict"] = "no_bound"
    elif -gap > bound * abs(base):
        out["verdict"] = "unresolved" if iqr > bound * abs(base) else "regression"
    else:
        out["verdict"] = "within_bound"
    return out


def metric_specs() -> dict[str, tuple[str, float | None]]:
    """Each metric's better direction and end-to-end bound (None: per layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    out["wall_s"] = ("lower", None)
    return out


def export(rev: str, dest: Path) -> None:
    """Write REV's committed files under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its last JSON line plus its wall time."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    wall_s = time.perf_counter() - t0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall_s
    return result


def ordered(sides: dict[str, Path], index: int) -> list[tuple[str, Path]]:
    """The two sides, parent first on even pairs and change first on odd ones."""
    pair = list(sides.items())
    return pair if index % 2 == 0 else pair[::-1]


def compare_runs(sides, workload, seed, seconds, trace, pairs, specs) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        for side, root in ordered(sides, i):
            result = run_bench(root, workload, seed, seconds, trace)
            runs[side].append(result)
            value = result["metrics"].get("trials_per_s", {}).get("value")
            print(f"{workload} seed {seed} trace {trace} pair {i + 1}/{pairs} {side}: "
                  f"wall {result['wall_s']:.1f} s, trials_per_s {value}, "
                  f"correct {result['correct']}", file=sys.stderr, flush=True)
    names = list(runs["parent"][0]["metrics"]) + ["wall_s"]
    metrics = {}
    for name in names:
        values = {
            side: [r["wall_s"] if name == "wall_s" else r["metrics"][name]["value"] for r in rs]
            for side, rs in runs.items()
        }
        metrics[name] = summarize(values["parent"], values["change"], *specs[name])
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                   f"--seconds {seconds} --trace {trace}",
        "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "metrics": metrics,
    }


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", args.parent + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    out = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    out["parent"] = rev
    out["machine"] = machine()
    specs = metric_specs()
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_root = Path(tmp) / "tree"
        export(rev, parent_root)
        sides = {"parent": parent_root, "change": ROOT}
        runs = out.setdefault("runs", {})
        for workload in args.workloads:
            for seed in args.seeds:
                key = f"{workload}/seed{seed}/trace{args.trace}"
                runs[key] = compare_runs(
                    sides, workload, seed, args.seconds, args.trace, args.pairs, specs
                )
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
