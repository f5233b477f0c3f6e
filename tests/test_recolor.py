import hashlib
import random
from functools import lru_cache

import pytest

from conftest import F1_EDGES, F3_EDGES, instance_grid
from mcplab import (
    AlternatingCycle,
    ColorSpec,
    InvalidCycleError,
    Matching,
    NoPerfectMatchingError,
    NoSourceEdgesError,
    SampleParams,
    UNMATCHED,
    achieve_profile,
    apply_cycle,
    build_graph,
    enumerate_mcp,
    find_recoloring_cycle,
    monochromatic_perfect_matching,
    profile_of,
    sample_graph,
    threshold_p,
    verify_matching,
)
from mcplab.errors import ValidationError
from mcplab.recolor import (
    ANCHOR_BUDGET,
    WalkFailure,
    _anchor_draws,
    _search_from_anchor,
    _WalkState,
)
from mcplab.rng import stream_value


# (1, 2) -> (2, 1) is the one 1 -> 2 cycle from the identity matching.
NEG_EDGES = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 1, 1)]


def identity_matching(n):
    return Matching(tuple(range(n)))


@lru_cache(maxsize=None)
def interior_matchings(n):
    """A q = 3 graph at n and the two interior-profile matchings walked on it."""
    g = sample_graph(
        SampleParams(n, threshold_p(n, 4.0, 1.0 / 3), ColorSpec.uniform(3), 31 * n + 3)
    )
    targets = ((n // 2, n // 4, n - n // 2 - n // 4), (n // 10, n // 10, n - 2 * (n // 10)))
    matchings = []
    for target in targets:
        out = achieve_profile(g, target, seed=n)
        assert out.ok
        matchings.append(out.matching)
    return g, tuple(matchings)


def test_anchor_draws_equal_sample():
    # Sizes cover k <= 5, both sides of the pool/set switch (277/278 for
    # k = 64) and populations far above it.
    for size in [*range(300), 400, 1000, 5000]:
        pop = [3 * x + 1 for x in range(size)]
        k = min(size, ANCHOR_BUDGET)
        for s in range(10):
            want = random.Random(s).sample(pop, k)
            assert list(_anchor_draws(random.Random(s), pop)) == want, (size, s)


class TestFindCycle:
    def test_f3_unique_cycle(self, f3):
        m = identity_matching(3)
        cyc = find_recoloring_cycle(f3, m, 1, 2, rng_seed=5)
        assert cyc is not None
        apply_cycle(f3, m, cyc)  # raises InvalidCycleError on a bad cycle
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

    @pytest.mark.parametrize(
        "m",
        [Matching.from_pairs(2, [(0, 0)]), Matching((0,))],
        ids=["unmatched_vertex", "too_short"],
    )
    def test_imperfect_matching_rejected(self, f1, m):
        with pytest.raises(ValidationError):
            find_recoloring_cycle(f1, m, 1, 2)

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
                m2 = apply_cycle(g, m, cyc)  # raises InvalidCycleError on a bad cycle
                assert verify_matching(g, m2, require_perfect=True) is None
        assert found > 10  # dense instances should usually admit a cycle


class TestApplyCycle:
    def test_f3_apply(self, f3):
        m = identity_matching(3)
        cyc = find_recoloring_cycle(f3, m, 1, 2, rng_seed=5)
        m2 = apply_cycle(f3, m, cyc)
        assert m2.assign == (1, 0, 2)
        assert profile_of(f3, m2) == (2, 1)
        assert verify_matching(f3, m2, require_perfect=True) is None

    def test_repeated_vertex_rejected(self, f3):
        bad = AlternatingCycle((0, 0), (0, 1), 0, 1, 2)
        with pytest.raises(InvalidCycleError, match="simplicity"):
            apply_cycle(f3, identity_matching(3), bad)

    def test_out_of_range_vertex_rejected(self, f3):
        bad = AlternatingCycle((0, 5), (1, 0), 0, 1, 2)
        with pytest.raises(InvalidCycleError):
            apply_cycle(f3, identity_matching(3), bad)

    def test_negative_a_vertex_rejected(self):
        # (1, 2) -> (2, 1) is a valid cycle; naming A-vertex 2 as -1 must not
        # pass by wrapping onto the last row.
        g = build_graph(3, 2, NEG_EDGES)
        m = identity_matching(3)
        assert apply_cycle(g, m, AlternatingCycle((1, 2), (2, 1), 0, 1, 2)).assign == (0, 2, 1)
        with pytest.raises(InvalidCycleError):
            apply_cycle(g, m, AlternatingCycle((1, -1), (2, 1), 0, 1, 2))

    def test_short_matching_rejected(self, f3):
        # (0, 1) has no UNMATCHED entry, but f3 has 3 A-vertices
        cyc = find_recoloring_cycle(f3, identity_matching(3), 1, 2, rng_seed=5)
        short = Matching((0, 1))
        with pytest.raises(InvalidCycleError, match="2 A-vertices, graph has 3"):
            apply_cycle(f3, short, cyc)

    def test_wrong_color_rejected(self, f3):
        # (1, 0) has color 1 but is claimed as the special (color-2) edge
        bad = AlternatingCycle((1, 0), (0, 1), 0, 1, 2)
        m = identity_matching(3)
        with pytest.raises(InvalidCycleError, match="has color 1, expected 2"):
            apply_cycle(f3, m, bad)

    @pytest.mark.parametrize(
        "edges, assign, cycle, clause",
        [
            (F1_EDGES, (0, 1), ((), (), 0), "length: |a_seq|=0, |b_seq|=0"),
            (F3_EDGES, (0, 1, 2), ((0, 1), (1, 0), 2), "special_index 2 out of range"),
            (F3_EDGES, (0, 1, 2), ((0, 1), (2, 0), 0),
             "non-matching edge (0, 2) absent from graph"),
            (F3_EDGES, (0, 1, 2), ((0, 1), (0, 1), 0), "edge (0, 0) is a matching edge"),
            (F3_EDGES, (0, 1, 2), ((1, 0), (1, 0), 1), "edge (1, 1) is a matching edge"),
            (NEG_EDGES, (0, 1, 2), ((1,), (2,), 0), "(2, 1) is not a matching edge"),
            ([(0, 0, 2), (1, 1, 1), (0, 1, 2), (1, 0, 1)], (0, 1), ((0, 1), (1, 0), 0),
             "matching edge (0, 0) has color 2, expected 1"),
            (F3_EDGES, (0, 1, 2), ((0, 3), (1, 0), 0),
             "non-matching edge (3, 0) absent from graph"),
            (NEG_EDGES, (0, 1, 2), ((1, -1), (2, 1), 0),
             "non-matching edge (-1, 1) absent from graph"),
        ],
        ids=[
            "length", "special_index", "absent_edge", "matching_as_non_matching",
            "matching_as_non_matching_same_color", "not_a_matching_edge",
            "matching_edge_wrong_color", "a_equals_n", "a_negative",
        ],
    )
    def test_clause_rejected(self, edges, assign, cycle, clause):
        # A 1 -> 2 cycle breaking exactly one clause names it, word for word.
        g = build_graph(len(assign), 2, edges)
        a_seq, b_seq, special = cycle
        with pytest.raises(InvalidCycleError) as info:
            apply_cycle(g, Matching(assign), AlternatingCycle(a_seq, b_seq, special, 1, 2))
        assert info.value.clause == clause

    @pytest.mark.parametrize("to_color", [0, 3])
    def test_out_of_range_color_rejected(self, f3, to_color):
        # Color 0 must not wrap onto color q's rows: (0, 1) has color 2 = q.
        bad = AlternatingCycle((0, 1), (1, 0), 0, 1, to_color)
        with pytest.raises(InvalidCycleError) as info:
            apply_cycle(f3, identity_matching(3), bad)
        assert info.value.clause == f"non-matching edge (0, 1) has color 2, expected {to_color}"


class TestRecolorStep:
    # One step through the public functions: find a cycle, then apply it.

    def test_f3_step(self, f3):
        m = identity_matching(3)
        cyc = find_recoloring_cycle(f3, m, 1, 2, rng_seed=5)
        assert cyc is not None
        assert profile_of(f3, apply_cycle(f3, m, cyc)) == (2, 1)

    def test_f1_step_not_found(self, f1):
        assert find_recoloring_cycle(f1, identity_matching(2), 1, 2, rng_seed=5) is None

    def test_conservation_on_random_instances(self):
        checked = 0
        for g in instance_grid(80, base_seed=11, n_range=(4, 8), ps=(0.6, 0.9)):
            try:
                m = monochromatic_perfect_matching(g, 1)
            except Exception:
                continue
            before = profile_of(g, m)
            cyc = find_recoloring_cycle(g, m, 1, 2, rng_seed=3)
            if cyc is None:
                continue
            m2 = apply_cycle(g, m, cyc)
            after = profile_of(g, m2)
            assert verify_matching(g, m2, require_perfect=True) is None
            delta = [a - b for a, b in zip(after, before)]
            assert delta[0] == -1 and delta[1] == 1
            assert all(d == 0 for d in delta[2:])
            checked += 1
        assert checked > 10

    @pytest.mark.parametrize(
        "n, want",
        [
            (80, "68115e56009da7f86039b38509c0bff8674e5e0e1247af59ea191702f76ca6af"),
            (400, "a911c9fc951f5e33af1525991e5d842dc1bd7ddb1ce4d7112d7f594c70bfda65"),
        ],
    )
    def test_mixed_start_digest(self, n, want):
        # Pins the public step API from matchings that are not monochromatic:
        # every ordered color pair, three seeds, from two interior profiles.
        # n = 80 takes the anchor draws' pool path; n = 400 also their set path
        # (320 anchors of color 3).
        g, matchings = interior_matchings(n)
        h = hashlib.sha256()
        for m in matchings:
            for i in range(1, 4):
                for j in range(1, 4):
                    if i == j:
                        continue
                    for seed in range(3):
                        cyc = find_recoloring_cycle(g, m, i, j, rng_seed=seed)
                        key = None if cyc is None else (cyc.a_seq, cyc.b_seq, cyc.special_index)
                        after = None if cyc is None else apply_cycle(g, m, cyc).assign
                        h.update(repr((key, after)).encode())
        assert h.hexdigest() == want

    @pytest.mark.parametrize(
        "n, want",
        [
            (80, "541f05beca511e037c5eb13f283404814602cef44d5adeb516b907a28e999368"),
            (400, "42c539af55f116caaa9ec092ef2a9883e1e69abe2cb09183d5d207fd000bbb71"),
        ],
    )
    def test_search_from_every_anchor_digest(self, n, want):
        # Pins the search itself, not only the first anchor a draw reaches:
        # the cycle (or None) from every source anchor, every ordered color
        # pair, from the same two interior matchings.
        g, matchings = interior_matchings(n)
        h = hashlib.sha256()
        for m in matchings:
            for i in range(1, 4):
                state = _WalkState(g, m, i)
                for j in range(1, 4):
                    if i == j:
                        continue
                    for a0 in state.anchors:
                        cyc = _search_from_anchor(
                            g, state.assign, state.inverse, i, j, a0, state.colors
                        )
                        key = None if cyc is None else (cyc.a_seq, cyc.b_seq)
                        h.update(repr((i, j, a0, key)).encode())
        assert h.hexdigest() == want

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
            if find_recoloring_cycle(g, m, 1, 2, rng_seed=seed) is not None:
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

    def test_negative_target_count(self, f1):
        # (3, -1) sums to n = 2; without the sign check the walk would run.
        with pytest.raises(ValidationError, match="negative"):
            achieve_profile(f1, (3, -1), seed=1)

    def test_step_count_is_n_minus_max(self):
        n = 60
        colors = ColorSpec.uniform(2)
        p = threshold_p(n, 6.0, 0.5)
        g = sample_graph(SampleParams(n, p, colors, 42))
        target = (40, 20)
        out = achieve_profile(g, target, seed=9)
        assert out.ok
        assert out.report.steps_succeeded == n - max(target)
        assert profile_of(g, out.matching) == target

    def test_start_hint_rejected_when_wrong(self, f1):
        for wrong in (
            Matching.from_pairs(2, [(0, 1), (1, 0)]),  # monochromatic color 2
            NoPerfectMatchingError(2, (0,)),  # an error for another color
            NoPerfectMatchingError(1, (0,)),  # |N_1({0})| = 1: not deficient
        ):
            with pytest.raises(ValidationError):
                achieve_profile(f1, (2, 0), seed=1, start=wrong)
        # A corner start is checked by its profile alone: it must match n
        # pairs of the graph, all in color 1, on exactly n A-vertices.
        for imperfect in (
            Matching.from_pairs(2, [(0, 0)]),
            Matching((0, 1, UNMATCHED)),
        ):
            with pytest.raises(ValidationError, match="not monochromatic in color 1"):
                achieve_profile(f1, (2, 0), seed=1, start=imperfect)
        g = build_graph(2, 2, [(0, 0, 1), (1, 1, 1), (0, 1, 2)])  # (1, 0) is no edge
        with pytest.raises(ValidationError, match=r"\(1, 0\) is not an edge"):
            achieve_profile(g, (2, 0), seed=1, start=Matching.from_pairs(2, [(0, 1), (1, 0)]))

    def test_start_error_reports_no_start(self):
        g = build_graph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2)])
        with pytest.raises(NoPerfectMatchingError) as info:
            monochromatic_perfect_matching(g, 1)
        out = achieve_profile(g, (2, 0), seed=1, start=info.value)
        assert out == achieve_profile(g, (2, 0), seed=1)
        assert out.failure == WalkFailure("no_monochromatic_start", 1)

    def test_start_hint_used(self, f3):
        start = identity_matching(3)
        out = achieve_profile(f3, (2, 1), seed=1, start=start)
        assert out.ok and profile_of(f3, out.matching) == (2, 1)

    def test_oracle_consistency_small_instances(self):
        # every successful walk target must be in the exact profile set
        import random

        violations = 0
        for k, g in enumerate(
            instance_grid(500, base_seed=5150, n_range=(2, 7), ps=(0.3, 0.6, 0.9))
        ):
            rng = random.Random(k)
            mcp = enumerate_mcp(g)
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
                    if profile_of(g, out.matching) != tuple(target):
                        violations += 1
                    if tuple(target) not in mcp:
                        violations += 1
                    if verify_matching(g, out.matching, require_perfect=True):
                        violations += 1
        assert violations == 0

    @staticmethod
    def replay(g, target, seed):
        """Re-run achieve_profile's walk one public step at a time.

        Returns (final matching or None, cycle lengths, retries, profile
        reached).  The anchor a step succeeds from lies on its cycle and every
        anchor drawn before it failed, so a step's retries are the draw
        position of the first drawn anchor on its cycle.
        """
        i_star = target.index(max(target)) + 1
        m = monochromatic_perfect_matching(g, i_star)
        counts = [0] * g.q
        counts[i_star - 1] = g.n
        cycle_lengths, retries = [], []
        step = 0
        for j in range(1, g.q + 1):
            if j == i_star:
                continue
            for _ in range(target[j - 1]):
                anchors = [a for a, b in m.pairs() if g.color_of(a, b) == i_star]
                step_seed = stream_value(seed, step)
                step += 1
                order = random.Random(step_seed).sample(
                    anchors, min(len(anchors), ANCHOR_BUDGET)
                )
                cyc = find_recoloring_cycle(g, m, i_star, j, rng_seed=step_seed)
                if cyc is None:
                    retries.append(len(order) - 1)
                    return None, cycle_lengths, retries, tuple(counts)
                m = apply_cycle(g, m, cyc)
                on_cycle = set(cyc.a_seq)
                retries.append(next(k for k, a in enumerate(order) if a in on_cycle))
                cycle_lengths.append(len(cyc))
                counts[i_star - 1] -= 1
                counts[j - 1] += 1
        return m, cycle_lengths, retries, tuple(counts)

    @pytest.mark.parametrize("n", [80, 400])
    @pytest.mark.parametrize("q", [2, 3])
    def test_walk_matches_step_replay(self, q, n):
        g = sample_graph(
            SampleParams(n, threshold_p(n, 4.0, 1.0 / q), ColorSpec.uniform(q), 31 * n + q)
        )
        rng = random.Random(n + q)
        for seed in range(3):
            bars = sorted(rng.sample(range(1, n + q), q - 1))
            target = tuple(b - a - 1 for a, b in zip([0] + bars, bars + [n + q]))
            out = achieve_profile(g, target, seed=seed)
            assert out.ok
            m, cycle_lengths, retries, _ = self.replay(g, target, seed)
            assert m.assign == out.matching.assign
            assert tuple(cycle_lengths) == out.report.cycle_lengths
            assert tuple(retries) == out.report.retries
            assert out.report.steps_succeeded == len(cycle_lengths) == n - max(target)

    def test_exhausted_walk_matches_step_replay(self):
        # color 2 is far below its threshold, so the walk runs out of cycles
        n = 80
        colors = ColorSpec(2, (0.9, 0.1))
        g = sample_graph(SampleParams(n, threshold_p(n, 2.0, 0.9), colors, 0))
        out = achieve_profile(g, (40, 40), seed=0)
        assert out.failure.stage == "step_exhausted"
        m, cycle_lengths, retries, reached = self.replay(g, (40, 40), 0)
        assert m is None
        assert tuple(cycle_lengths) == out.report.cycle_lengths
        assert tuple(retries) == out.report.retries
        assert out.report.steps_succeeded == len(cycle_lengths)
        assert reached == out.failure.profile_reached

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
