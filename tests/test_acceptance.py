"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
use fixed base seeds; tolerances are as stated, not calibrated afterward.
"""

import io
import math
import time


from _refs import (
    cut_edges,
    enumerate_mcp_naive,
    naive_dense_cut,
    naive_empty_cut,
    naive_high_degree,
    naive_low_degree,
)
from conftest import instance_grid
from mcplab import (
    CheckFlags,
    ColorSpec,
    ExperimentConfig,
    SampleParams,
    achieve_profile,
    apply_cycle,
    default_constants,
    dense_cut_witness,
    empty_cut_witness,
    emit,
    enumerate_mcp,
    expansion_trace,
    find_recoloring_cycle,
    high_degree_witness,
    low_degree_witness,
    monochromatic_perfect_matching,
    profile_of,
    sample_graph,
    summarize,
    sweep,
    threshold_p,
    verify_matching,
)
from mcplab.errors import NoPerfectMatchingError
from mcplab.experiment import rarest_color
from mcplab.rng import derive_seed


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def llog(n: int) -> float:
    return math.log(math.log(n))


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    graphs = instance_grid(300, base_seed=1001)
    mismatches = sum(
        1 for g in graphs if enumerate_mcp(g) != enumerate_mcp_naive(g)
    )
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(1, "oracle equivalence", ok,
           f"mismatches={mismatches}, elapsed={elapsed:.1f}s")


def test_criterion_2_walk_soundness():
    import random

    graphs = instance_grid(300, base_seed=1001)
    invocations = 0
    violations = 0
    for k, g in enumerate(graphs):
        rng = random.Random(k)
        mcp = enumerate_mcp(g)
        n, q = g.n, g.q
        targets = []
        bars = sorted(rng.sample(range(1, n + q), q - 1))
        prev, parts = 0, []
        for c in bars:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n + q - 1 - prev)
        targets.append(tuple(parts))
        if mcp:
            targets.append(rng.choice(sorted(mcp)))
        for target in targets:
            invocations += 1
            out = achieve_profile(g, target, seed=derive_seed(2002, k, invocations))
            if out.ok:
                if verify_matching(g, out.matching, require_perfect=True) is not None:
                    violations += 1
                if profile_of(g, out.matching) != tuple(target):
                    violations += 1
                if tuple(target) not in mcp:
                    violations += 1
    ok = violations == 0 and invocations >= 500
    report(2, "walk soundness", ok,
           f"invocations={invocations}, violations={violations}")


def test_criterion_3_step_conservation():
    colors2 = ColorSpec.uniform(2)
    colors3 = ColorSpec(3, (0.5, 0.25, 0.25))
    successes = 0
    violations = 0
    seed = 0
    while successes < 1000:
        seed += 1
        q3 = seed % 2 == 0
        colors = colors3 if q3 else colors2
        n = 120
        p = threshold_p(n, 5.0, colors.alpha_min)
        g = sample_graph(SampleParams(n, p, colors, derive_seed(3003, seed)))
        try:
            m = monochromatic_perfect_matching(g, 1)
        except NoPerfectMatchingError:
            continue
        for step in range(40):
            to_color = 2 + (step % (colors.q - 1))
            before = profile_of(g, m)
            cyc = find_recoloring_cycle(g, m, 1, to_color, rng_seed=derive_seed(seed, step))
            if cyc is None:
                break
            m = apply_cycle(g, m, cyc)
            after = profile_of(g, m)
            delta = tuple(a - b for a, b in zip(after, before))
            expect = tuple(
                -1 if i == 0 else (1 if i == to_color - 1 else 0)
                for i in range(colors.q)
            )
            if delta != expect:
                violations += 1
            successes += 1
            if successes >= 1000:
                break
    ok = violations == 0
    report(3, "step conservation", ok,
           f"successful steps={successes}, violations={violations}")


def _above_threshold_config(omega_sign: int, trials: int = 50) -> ExperimentConfig:
    n = 1000
    return ExperimentConfig(
        n=n,
        colors=ColorSpec(3, (0.5, 0.25, 0.25)),
        omega_grid=(omega_sign * 3 * llog(n),),
        trials=trials,
        base_seed=20260810,
        suite_kind="random",
        suite_count=10,
        checks=CheckFlags(per_color_pm=True, walk=True, isolated=True),
        workers=1,
    )


def test_criterion_4_above_threshold():
    t0 = time.perf_counter()
    config = _above_threshold_config(+1)
    records = sweep(config)
    pairs = [w for r in records for w in r.walks]
    frac = sum(1 for w in pairs if w.success) / len(pairs)
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 600.0
    report(4, "above-threshold walks", ok,
           f"pair success={frac:.4f} over {len(pairs)} pairs, elapsed={elapsed:.0f}s")


def test_criterion_5_below_threshold_isolated():
    config = _above_threshold_config(-1)
    records = sweep(config)
    rare = rarest_color(config.colors)  # ties break to the lowest index
    rare_corner = tuple(
        config.n if i == rare - 1 else 0 for i in range(config.colors.q)
    )
    with_isolated = 0
    walk_fail_given_isolated = 0
    for r in records:
        has_isolated = sum(r.isolated_counts[rare - 1]) > 0
        if has_isolated:
            with_isolated += 1
            corner_rows = [w for w in r.walks if w.profile == rare_corner]
            assert len(corner_rows) == 1
            if not corner_rows[0].success:
                walk_fail_given_isolated += 1
    frac = with_isolated / len(records)
    ok = frac >= 0.90 and walk_fail_given_isolated == with_isolated
    report(5, "below-threshold isolated vertices", ok,
           f"isolated fraction={frac:.2f}, corner walks failed "
           f"{walk_fail_given_isolated}/{with_isolated}")


def test_criterion_6_threshold_crossing():
    n = 1000
    grid = tuple(k * llog(n) for k in (-6, -3, 0, 3, 6))
    config = ExperimentConfig(
        n=n,
        colors=ColorSpec.uniform(2),
        omega_grid=grid,
        trials=50,
        base_seed=424242,
        suite_kind="corners",
        checks=CheckFlags(per_color_pm=True, walk=True, isolated=True),
        workers=1,
    )
    records = sweep(config)
    summary = summarize(records, config)
    fracs = [row["corners_all_frac"] for row in summary]
    increasing_ends = fracs[0] < 0.5 and fracs[-1] > 0.9
    report(6, "threshold crossing", increasing_ends,
           "corners-all fractions: " + ", ".join(f"{f:.2f}" for f in fracs))


def test_criterion_7_expansion_diagnostics():
    n, q = 2000, 2
    colors = ColorSpec.uniform(q)
    consts = default_constants(n, q, colors.alpha_min)
    p = threshold_p(n, 4.0, colors.alpha_min)
    seeds = 20
    frac_ok = 0
    stop_ok = 0
    for k in range(seeds):
        g = sample_graph(SampleParams(n, p, colors, derive_seed(7007, k)))
        try:
            m = monochromatic_perfect_matching(g, 1)
        except NoPerfectMatchingError:
            continue  # counts against both tallies
        trace = expansion_trace(g, m, 1, consts)
        if trace.core_fraction_ok:
            frac_ok += 1
        if trace.forward.stop_layer is not None and trace.forward.stop_layer <= 4:
            stop_ok += 1
    ok = frac_ok >= 0.9 * seeds and stop_ok >= 0.9 * seeds
    report(7, "expansion diagnostics", ok,
           f"core-fraction ok {frac_ok}/{seeds}, stop<=4 layers {stop_ok}/{seeds}")


def test_criterion_8_witness_correctness():
    params = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 1, 2)]
    disagreements = 0
    reverify_failures = 0
    for g in instance_grid(100, base_seed=8008):
        for color in range(1, g.q + 1):
            for s_size, t_size, x_size, k in params:
                mine = low_degree_witness(g, color, s_size, t_size, x_size, k)
                ref = naive_low_degree(g, color, s_size, t_size, x_size, k)
                if (mine is None) != (ref is None):
                    disagreements += 1
                if mine is not None:
                    x, _, t = mine
                    if not all(cut_edges(g, (a,), t, color) < k for a in x):
                        reverify_failures += 1

                mine = high_degree_witness(g, color, x_size, t_size, k)
                ref = naive_high_degree(g, color, x_size, t_size, k)
                if (mine is None) != (ref is None):
                    disagreements += 1
                if mine is not None and not all(
                    cut_edges(g, (a,), mine[1], color) >= k for a in mine[0]
                ):
                    reverify_failures += 1

                mine = dense_cut_witness(g, color, s_size, t_size, k)
                ref = naive_dense_cut(g, color, s_size, t_size, k)
                if (mine is None) != (ref is None):
                    disagreements += 1
                if mine is not None and cut_edges(g, mine[0], mine[1], color) < k:
                    reverify_failures += 1

                mine = empty_cut_witness(g, color, s_size, t_size)
                ref = naive_empty_cut(g, color, s_size, t_size)
                if (mine is None) != (ref is None):
                    disagreements += 1
                if mine is not None and cut_edges(g, mine[0], mine[1], color) != 0:
                    reverify_failures += 1
    ok = disagreements == 0 and reverify_failures == 0
    report(8, "witness-search correctness", ok,
           f"disagreements={disagreements}, re-verify failures={reverify_failures}")


def test_criterion_9_determinism():
    def run(workers: int) -> bytes:
        config = ExperimentConfig(
            n=60,
            colors=ColorSpec.uniform(2),
            omega_grid=(2.0, 5.0),
            trials=3,
            base_seed=909,
            suite_kind="random",
            suite_count=2,
            checks=CheckFlags(per_color_pm=True, walk=True, isolated=True),
            workers=workers,
        )
        buf = io.StringIO()
        emit(sweep(config), "csv", buf, config)
        return buf.getvalue().encode()

    first = run(1)
    rerun = run(1)
    parallel = run(3)
    ok = first == rerun == parallel
    report(9, "sweep determinism", ok,
           f"bytes={len(first)}, rerun identical={first == rerun}, "
           f"parallel identical={first == parallel}")
