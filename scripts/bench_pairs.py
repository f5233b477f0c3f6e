#!/usr/bin/env python3
"""Compare the benchmark at a parent revision with the working tree, in pairs.

    python3 scripts/bench_pairs.py --parent REV --workloads threshold_grid \\
        --seeds 0 --pairs 10 --seconds 20 --out BENCH.json
    python3 scripts/bench_pairs.py --parent REV --workloads threshold_grid \\
        --seeds 0 --pairs 1 --trace 1 --out BENCH.json
    python3 scripts/bench_pairs.py --parent REV --scaling 1000 2000 4000 8000 \\
        --out BENCH.json

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
with no bound reads ``no_bound``.
``--scaling`` instead times the sampling, scan, graph build and
Hopcroft-Karp layers per trial (perfbench's tracer) at each n, q = 2,
omega = 0, as the median of three runs of four trials per side.  Results merge
into ``--out``, replacing an entry with the same key, with the machine
(nproc, Python and numpy versions) recorded.
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
SCALING_LAYERS = ("sampling.sample_s", "rng.scan_s", "graphs.build_s", "matching.hk_s")
SCALING_TRIALS = 4
SCALING_REPEATS = 3

# Runs one traced corner sweep at q = 2, omega = 0 and prints each layer's
# seconds per trial; argv: source dir, perfbench dir, n, trials.
SCALING_CHILD = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
from mcplab import CheckFlags, ColorSpec, ExperimentConfig, sweep
n, trials = int(sys.argv[3]), int(sys.argv[4])
config = ExperimentConfig(
    n=n, colors=ColorSpec.uniform(2), omega_grid=(0.0,), trials=trials,
    base_seed=424242, checks=CheckFlags(per_color_pm=True, walk=False, isolated=False),
)
tracer = Tracer()
with tracer.active():
    sweep(config)
values = tracer.metrics(0, 0.0)
out = {{name: values[name] / trials for name in {layers!r}}}
out["sampling.edges"] = values["sampling.edges"] / trials
print(json.dumps(out))
"""


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


def run_scaling(root: Path, n: int, trials: int) -> dict:
    code = SCALING_CHILD.format(layers=SCALING_LAYERS)
    argv = [str(root / "src"), str(root / "perfbench"), str(n), str(trials)]
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=root, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


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


def compare_scaling(sides, sizes) -> dict:
    table = {}
    for n in sizes:
        per_side: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(SCALING_REPEATS):
            for side, root in ordered(sides, i):
                per_side[side].append(run_scaling(root, n, SCALING_TRIALS))
        row = {}
        for side, results in per_side.items():
            row[side] = {
                name: {"median": statistics.median(r[name] for r in results),
                       "values": [r[name] for r in results]}
                for name in results[0]
            }
        print(f"scaling n={n}: " + ", ".join(
            f"{name} {row['parent'][name]['median']:.4f} -> {row['change'][name]['median']:.4f}"
            for name in SCALING_LAYERS), file=sys.stderr, flush=True)
        table[str(n)] = row
    return table


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
    ap.add_argument("--workloads", nargs="*", default=[])
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", nargs="*", type=int, default=[], metavar="N")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if not args.workloads and not args.scaling:
        ap.error("give --workloads, --scaling or both")

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
        if args.scaling:
            out["scaling"] = {
                "config": f"q = 2 uniform, omega = 0, corner suite, per_color_pm only, "
                          f"{SCALING_TRIALS} trials per run, base seed 424242",
                "unit": "s per trial (sampling.edges: edges per trial)",
                "statistic": f"median of {SCALING_REPEATS} runs per side",
                "n": compare_scaling(sides, args.scaling),
            }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
