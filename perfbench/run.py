"""Sweep benchmark for mcplab: one workload as one fixed piece of work.

    python3 perfbench/run.py --workload walk_above --seed 0 --seconds 20 --trace 0

Runs the workload's sweep and an in-memory CSV emit through mcplab's public
API in this process (workers = 1), then checks every output (checks.py).
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same sweep once more with spans around each layer (tracing.py),
reports the per-layer metrics and writes the spans under perfbench/out/.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units are those of BENCHMARK.json at the repository root.  It exits with
code 2, printing no result, where the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

# A fresh interpreter that imports mcplab and builds the sweep config, then
# says so; the parent times it from spawn to that line.
SETUP_CHILD = """\
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from workloads import WORKLOADS
WORKLOADS[{name!r}].config({seed}, {seconds})
print("ready", flush=True)
"""


def setup_seconds(name: str, seed: int, seconds: int) -> float:
    """Median over SETUP_REPEATS fresh interpreters of the time to the first trial."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed, seconds=seconds)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return statistics.median(times)


def timed_sweep(config, sweep, emit) -> tuple[list, str, float]:
    """Records, CSV text and wall seconds of ``sweep`` plus ``emit`` into memory."""
    t0 = time.perf_counter()
    records = sweep(config)
    buf = io.StringIO()
    emit(records, "csv", buf, config)
    return records, buf.getvalue(), time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mcplab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no mcplab sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    from mcplab import emit, sweep
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    config = WORKLOADS[args.workload].config(args.seed, args.seconds)

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed, args.seconds)
    captures: list = []
    with tracing.capture_walks(captures):
        records, text, wall_s = timed_sweep(config, sweep, emit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Imported after the timed sweep so that scipy does not count in peak_rss_mb.
    import checks

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.active():
            with tracer.span("experiment.sweep"):
                traced = sweep(config)
            with tracer.span("experiment.emit"):
                buf = io.StringIO()
                emit(traced, "csv", buf, config)
        values = tracer.metrics(len(text.encode("utf-8")), wall_s)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "trials_per_s": len(records) / wall_s,
            "trial_s_p50": statistics.median(r.elapsed_ms for r in records) / 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }

    second = io.StringIO()
    emit(records, "csv", second, config)
    run_failures, per_trial = checks.check_run(config, records, text, second.getvalue(), captures)
    if args.trace:
        if buf.getvalue() != text:
            run_failures.append(("emit", "the traced sweep emitted other bytes"))
        for trial, problem in tracer.replay_failures:
            per_trial.setdefault(trial, []).append(("replay", problem))

    attempted = len(config.omega_grid) * config.trials
    failed = attempted if run_failures else len(per_trial)
    for where, failures in [("run", run_failures)] + sorted(per_trial.items()):
        for check, message in failures:
            print(f"FAIL {where} [{check}] {message}", file=sys.stderr)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    for name in units:
        print(f"{args.workload}  {name:<26} {values[name]:>16.6f} {units[name]}")
    print(f"{args.workload}  trials attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": not run_failures and not per_trial,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
