"""Each output check catches a tampered output; the traced run is repeatable.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from mcplab import (  # noqa: E402
    CheckFlags,
    ColorSpec,
    ExperimentConfig,
    Matching,
    SampleParams,
    achieve_profile,
    build_graph,
    emit,
    sample_graph,
    sweep,
)


def small_config(n: int) -> ExperimentConfig:
    # Dense enough for walks, sparse enough that some colors lack a perfect matching.
    return ExperimentConfig(
        n=n,
        colors=ColorSpec.uniform(3),
        omega_grid=(1.5,),
        trials=4,
        base_seed=77,
        suite_kind="random",
        suite_count=4,
        checks=CheckFlags(per_color_pm=True, walk=True, isolated=True, mcp_exact=True),
    )


def run_small(n: int):
    config = small_config(n)
    captures: list = []
    with tracing.capture_walks(captures):
        records = sweep(config)
    buf = io.StringIO()
    emit(records, "csv", buf, config)
    return config, records, buf.getvalue(), captures


@pytest.fixture(scope="module", params=[8, 11], ids=["brute_force", "properties"])
def small(request):
    return run_small(request.param)


def trials(small):
    config, records, text, captures = small
    return config, list(checks.trial_inputs(config, records, text, captures))


def names(failures) -> set[str]:
    return {name for name, _ in failures}


def tamper_rows(rows, check, column, value):
    out = [list(r) for r in rows]
    row = next(r for r in out if r[4] == check)
    row[column] = value
    return out


def find_trial(cases, predicate):
    for case in cases:
        if predicate(case):
            return case
    pytest.skip("no trial of the fixture has the needed shape")


def test_untampered_outputs_pass(small):
    config, records, text, captures = small
    run, per_trial = checks.check_run(config, records, text, text, captures)
    assert run == [] and per_trial == {}


def test_seed(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = cases[0]
    bad = dataclasses.replace(record, derived_seed=record.derived_seed ^ 1)
    assert "seed" in names(checks.check_trial(config, gi, ti, bad, rows, walks, g))


def test_edges(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = cases[0]
    shifted = build_graph(g.n, g.q, [(a, b, c % g.q + 1) for a, b, c in g.edges()], g.alphas)
    assert "edges" in names(checks.check_trial(config, gi, ti, record, rows, walks, shifted))


def test_per_color_pm(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = cases[0]
    row = next(r for r in rows if r[4] == "per_color_pm")
    bad = tamper_rows(rows, "per_color_pm", 6, "0" if row[6] == "1" else "1")
    assert "per_color_pm" in names(checks.check_trial(config, gi, ti, record, bad, walks, g))


def test_isolated(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = cases[0]
    row = next(r for r in rows if r[4] == "isolated")
    bad = tamper_rows(rows, "isolated", 7, str(int(row[7]) + 1))
    assert "isolated" in names(checks.check_trial(config, gi, ti, record, bad, walks, g))


def test_walk_suite(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = cases[0]
    bad = tamper_rows(rows, "walk", 5, "1;2;3")
    assert "walk_suite" in names(checks.check_trial(config, gi, ti, record, bad, walks, g))


def test_walk_matching_not_a_bijection(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = find_trial(cases, lambda c: any(w.ok for w in c[4]))
    k = next(i for i, w in enumerate(walks) if w.ok)
    assign = walks[k].assign.copy()
    assign[0] = assign[1]
    bad = list(walks)
    bad[k] = dataclasses.replace(walks[k], assign=assign)
    assert "walk_matching" in names(checks.check_trial(config, gi, ti, record, rows, bad, g))


def test_walk_matching_wrong_profile(small):
    config, cases = trials(small)

    def two_ok(case):
        return len({w.target for w in case[4] if w.ok}) >= 2

    gi, ti, record, rows, walks, g = find_trial(cases, two_ok)
    i, j = [k for k, w in enumerate(walks) if w.ok][:2]
    bad = list(walks)
    bad[i] = dataclasses.replace(walks[i], assign=walks[j].assign)
    assert "walk_matching" in names(checks.check_trial(config, gi, ti, record, rows, bad, g))


def test_walk_steps(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = find_trial(cases, lambda c: any(w.ok for w in c[4]))
    k = next(i for i, w in enumerate(walks) if w.ok)
    bad = list(walks)
    bad[k] = dataclasses.replace(walks[k], steps=walks[k].steps + 1)
    assert "walk_steps" in names(checks.check_trial(config, gi, ti, record, rows, bad, g))


def test_walk_must_fail(small):
    config, cases = trials(small)
    gi, ti, record, rows, walks, g = find_trial(
        cases, lambda c: any(w.stage == "no_monochromatic_start" for w in c[4]))
    k = next(i for i, w in enumerate(walks) if w.stage == "no_monochromatic_start")
    bad = list(walks)
    bad[k] = dataclasses.replace(walks[k], ok=True, stage=None)
    assert "walk_must_fail" in names(checks.check_trial(config, gi, ti, record, rows, bad, g))


def test_mcp_brute_force():
    config, records, text, captures = run_small(8)
    cases = list(checks.trial_inputs(config, records, text, captures))
    gi, ti, record, rows, walks, g = find_trial(cases, lambda c: len(c[2].mcp_profiles) > 1)
    bad = dataclasses.replace(record, mcp_profiles=record.mcp_profiles[1:])
    failures = checks.check_trial(config, gi, ti, bad, rows, walks, g)
    assert any(name == "mcp" and "brute force" in msg for name, msg in failures)


CORNERS_11 = {checks.corner(3, k, 11) for k in (1, 2, 3)}


@pytest.mark.parametrize("drop, message", [
    ("corners", "corner"),
    ("all", "empty profile set"),
    ("walk_targets", "outside the profile set"),
])
def test_mcp_properties(drop, message):
    config, records, text, captures = run_small(11)
    cases = list(checks.trial_inputs(config, records, text, captures))

    def dropped(case) -> set:
        walked = {w.target for w in case[4] if w.ok} - CORNERS_11
        return {"corners": CORNERS_11, "all": set(case[2].mcp_profiles), "walk_targets": walked}[drop]

    case = find_trial(cases, lambda c: set(c[2].mcp_profiles) & dropped(c))
    gi, ti, record, rows, walks, g = case
    bad = dataclasses.replace(
        record, mcp_profiles=tuple(p for p in record.mcp_profiles if p not in dropped(case)))
    failures = checks.check_trial(config, gi, ti, bad, rows, walks, g)
    assert any(name == "mcp" and message in msg for name, msg in failures)


def test_emit(small):
    config, records, text, captures = small
    run, _ = checks.check_run(config, records, text, text.replace("\n", "\n ", 1), captures)
    assert "emit" in names(run)


def test_trace_counts_repeat_and_replay_matches():
    config = small_config(11)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    counted = ("recolor.steps", "matching.hk_calls", "oracle.profiles", "sampling.edges")
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.active():
            with tracer.span("experiment.sweep"):
                sweep(config)
        assert tracer.replay_failures == []
        values = tracer.metrics(emit_bytes=1, plain_wall_s=0.0)
        assert set(values) == {m["name"] for m in spec["per_layer"]}
        seen.append([values[k] for k in counted])
    assert seen[0] == seen[1] and seen[0][0] > 0


def test_replay_catches_another_matching():
    colors = ColorSpec.uniform(3)
    target = (5, 3, 3)
    for seed in range(50):
        g = sample_graph(SampleParams(11, 0.95, colors, seed))
        outcome = achieve_profile(g, target, seed=seed)
        if outcome.ok:
            break
    else:
        pytest.skip("no walk succeeded")
    tracer = tracing.Tracer()
    assert tracer.replay(g, target, seed, None, outcome) is None
    rotated = outcome.matching.assign[1:] + outcome.matching.assign[:1]
    other = dataclasses.replace(outcome, matching=Matching(rotated))
    assert tracer.replay(g, target, seed, None, other) is not None


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_above", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
