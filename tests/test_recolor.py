
import pytest

from conftest import instance_grid
from mcplab import (
    AlternatingCycle,
    ColorSpec,
    InvalidCycleError,
    Matching,
    NoSourceEdgesError,
    SampleParams,
    achieve_profile,
    apply_cycle,
    enumerate_mcp,
    find_recoloring_cycle,
    monochromatic_perfect_matching,
    profile_of,
    recolor_step,
    sample_graph,
    threshold_p,
    validate_cycle,
    verify_matching,
)
from mcplab.errors import ValidationError


def identity_matching(n):
    return Matching(tuple(range(n)))


class TestFindCycle:
    def test_f3_unique_cycle(self, f3):
        m = identity_matching(3)
        cyc = find_recoloring_cycle(f3, m, 1, 2, rng_seed=5)
        assert cyc is not None
        assert validate_cycle(f3, m, cyc) is None
        # the only qualifying cycle swaps rows 0 and 1
        assert sorted(cyc.a_seq) == [0, 1] and sorted(cyc.b_seq) == [0, 1]
        assert (cyc.a_seq[cyc.special_index], cyc.b_seq[cyc.special_index]) == (0, 1)

    def test_f1_not_found(self, f1):
        m = identity_matching(2)
        assert find_recoloring_cycle(f1, m, 1, 2, rng_seed=5) is None

    def test_no_source_edges(self, f1):
        m = Matching.from_pairs(2, [(0, 1), (1, 0)])  # all color 2
        with pytest.raises(NoSourceEdgesError):
            find_recoloring_cycle(f1, m, 1, 2)

    def test_same_colors_rejected(self, f1):
        with pytest.raises(ValidationError):
            find_recoloring_cycle(f1, identity_matching(2), 1, 1)

    def test_imperfect_matching_rejected(self, f1):
        with pytest.raises(ValidationError):
            find_recoloring_cycle(f1, Matching.from_pairs(2, [(0, 0)]), 1, 2)

    def test_cycles_reverified_on_random_instances(self):
        found = 0
        for g in instance_grid(60, base_seed=606, n_range=(4, 8), ps=(0.6, 0.9)):
            try:
                m = monochromatic_perfect_matching(g, 1)
            except Exception:
                continue
            cyc = find_recoloring_cycle(g, m, 1, 2, rng_seed=1)
            if cyc is not None:
                found += 1
                assert validate_cycle(g, m, cyc) is None
        assert found > 10  # dense instances should usually admit a cycle


class TestApplyCycle:
    def test_f3_apply(self, f3):
        m = identity_matching(3)
        cyc = find_recoloring_cycle(f3, m, 1, 2, rng_seed=5)
        m2 = apply_cycle(f3, m, cyc)
        assert m2.assign == (1, 0, 2)
        assert profile_of(f3, m2).counts == (2, 1)
        assert verify_matching(f3, m2, require_perfect=True) is None

    def test_repeated_vertex_rejected(self, f3):
        bad = AlternatingCycle((0, 0), (0, 1), 0, 1, 2)
        with pytest.raises(InvalidCycleError, match="simplicity"):
            apply_cycle(f3, identity_matching(3), bad)

    def test_out_of_range_vertex_rejected(self, f3):
        bad = AlternatingCycle((0, 5), (1, 0), 0, 1, 2)
        with pytest.raises(InvalidCycleError):
            apply_cycle(f3, identity_matching(3), bad)

    def test_wrong_color_rejected(self, f3):
        # (1, 0) has color 1 but is claimed as the special (color-2) edge
        bad = AlternatingCycle((1, 0), (0, 1), 0, 1, 2)
        m = identity_matching(3)
        assert validate_cycle(f3, m, bad) is not None
        with pytest.raises(InvalidCycleError):
            apply_cycle(f3, m, bad)


class TestRecolorStep:
    def test_f3_step(self, f3):
        m = identity_matching(3)
        out = recolor_step(f3, m, 1, 2, seed=5)
        assert out is not None
        m2, cyc = out
        assert profile_of(f3, m2).counts == (2, 1)

    def test_f1_step_not_found(self, f1):
        assert recolor_step(f1, identity_matching(2), 1, 2, seed=5) is None

    def test_conservation_on_random_instances(self):
        checked = 0
        for g in instance_grid(80, base_seed=11, n_range=(4, 8), ps=(0.6, 0.9)):
            try:
                m = monochromatic_perfect_matching(g, 1)
            except Exception:
                continue
            before = profile_of(g, m).counts
            out = recolor_step(g, m, 1, 2, seed=3)
            if out is None:
                continue
            m2, _ = out
            after = profile_of(g, m2).counts
            assert verify_matching(g, m2, require_perfect=True) is None
            delta = [a - b for a, b in zip(after, before)]
            assert delta[0] == -1 and delta[1] == 1
            assert all(d == 0 for d in delta[2:])
            checked += 1
        assert checked > 10

    def test_monte_carlo_above_threshold(self):
        # n=500, q=2, omega=4: one step from the monochromatic start should
        # succeed in at least 95% of seeds.
        n = 500
        colors = ColorSpec.uniform(2)
        p = threshold_p(n, 4.0, 0.5)
        ok = 0
        trials = 100
        for seed in range(trials):
            g = sample_graph(SampleParams(n, p, colors, seed))
            try:
                m = monochromatic_perfect_matching(g, 1)
            except Exception:
                continue
            if recolor_step(g, m, 1, 2, seed=seed) is not None:
                ok += 1
        assert ok >= 0.95 * trials


class TestAchieveProfile:
    def test_f1_corner_no_steps(self, f1):
        out = achieve_profile(f1, (0, 2), seed=1)
        assert out.ok
        assert out.matching.assign == (1, 0)
        assert out.report.steps_attempted == 0

    def test_f1_unreachable_profile(self, f1):
        out = achieve_profile(f1, (1, 1), seed=1)
        assert not out.ok
        assert out.failure.stage == "step_exhausted"
        assert out.failure.color == 2
        assert out.failure.profile_reached == (2, 0)

    def test_no_monochromatic_start(self):
        from mcplab import build_graph

        g = build_graph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2)])
        out = achieve_profile(g, (2, 0), seed=1)
        assert not out.ok
        assert out.failure.stage == "no_monochromatic_start"
        assert out.failure.color == 1

    def test_bad_target_sum(self, f1):
        from mcplab import BadProfileSumError

        with pytest.raises(BadProfileSumError):
            achieve_profile(f1, (1, 0), seed=1)

    def test_step_count_is_n_minus_max(self):
        n = 60
        colors = ColorSpec.uniform(2)
        p = threshold_p(n, 6.0, 0.5)
        g = sample_graph(SampleParams(n, p, colors, 42))
        target = (40, 20)
        out = achieve_profile(g, target, seed=9)
        assert out.ok
        assert out.report.steps_succeeded == n - max(target)
        assert profile_of(g, out.matching).counts == target

    def test_start_hint_rejected_when_wrong(self, f1):
        wrong = Matching.from_pairs(2, [(0, 1), (1, 0)])  # monochromatic color 2
        with pytest.raises(ValidationError):
            achieve_profile(f1, (2, 0), seed=1, start=wrong)

    def test_start_hint_used(self, f3):
        start = identity_matching(3)
        out = achieve_profile(f3, (2, 1), seed=1, start=start)
        assert out.ok and profile_of(f3, out.matching).counts == (2, 1)

    def test_oracle_consistency_small_instances(self):
        # every successful walk target must be in the exact profile set
        import random

        violations = 0
        for k, g in enumerate(
            instance_grid(500, base_seed=5150, n_range=(2, 7), ps=(0.3, 0.6, 0.9))
        ):
            rng = random.Random(k)
            mcp = {p.counts for p in enumerate_mcp(g)}
            n, q = g.n, g.q
            # one random simplex target, plus one known-achievable target
            targets = []
            cuts = sorted(rng.sample(range(1, n + q), q - 1))
            prev, parts = 0, []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(n + q - 1 - prev)
            targets.append(tuple(parts))
            if mcp:
                targets.append(rng.choice(sorted(mcp)))
            for target in targets:
                out = achieve_profile(g, target, seed=k)
                if out.ok:
                    if profile_of(g, out.matching).counts != tuple(target):
                        violations += 1
                    if tuple(target) not in mcp:
                        violations += 1
                    if verify_matching(g, out.matching, require_perfect=True):
                        violations += 1
        assert violations == 0

    def test_walk_report_json_keys(self, f3):
        out = achieve_profile(f3, (2, 1), seed=1)
        js = out.report.to_json()
        assert set(js) == {
            "steps_attempted",
            "steps_succeeded",
            "cycle_lengths",
            "retries",
            "ms_per_step",
        }

    def test_q1_degenerate(self):
        from mcplab import build_graph

        g = build_graph(2, 1, [(0, 0, 1), (1, 1, 1)])
        out = achieve_profile(g, (2,), seed=0)
        assert out.ok and out.report.steps_attempted == 0
