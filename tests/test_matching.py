import hashlib
import math

import pytest

from _refs import alternating_reach, brute_max_matching_size, hall_holds
from conftest import instance_grid, random_instance
from mcplab import (
    ColorSpec,
    Matching,
    NoPerfectMatchingError,
    SampleParams,
    build_graph,
    color_neighborhood,
    max_matching,
    monochromatic_perfect_matching,
    sample_graph,
    threshold_p,
    verify_matching,
)
from mcplab.errors import ValidationError


class TestMaxMatching:
    def test_f1_color1_perfect(self, f1):
        m = max_matching(f1, {1})
        assert m.assign == (0, 1)

    def test_single_edge(self):
        g = build_graph(2, 1, [(0, 0, 1)])
        assert max_matching(g, {1}).size == 1

    def test_f1_both_colors(self, f1):
        assert max_matching(f1, {1, 2}).size == 2

    def test_empty_color_set_rejected(self, f1):
        with pytest.raises(ValidationError):
            max_matching(f1, set())

    def test_deterministic(self):
        g = random_instance(3, 30, 2, 0.2)
        assert max_matching(g, {1, 2}) == max_matching(g, {1, 2})

    def test_against_brute_force_200_instances(self):
        for k, g in enumerate(instance_grid(200, base_seed=777)):
            colors = tuple(range(1, g.q + 1))
            m = max_matching(g, colors)
            assert verify_matching(g, m) is None
            assert m.size == brute_max_matching_size(g, colors), f"instance {k}"

    def test_single_color_against_brute_force(self):
        for g in instance_grid(60, base_seed=778):
            m = max_matching(g, (1,))
            assert verify_matching(g, m) is None
            assert m.size == brute_max_matching_size(g, (1,))

    def test_golden_digest(self):
        # Pins Hopcroft-Karp's exact matchings (not just their sizes) on
        # n = 1000 graphs at and above the window, per color and merged.
        n, cs = 1000, ColorSpec(3, (0.5, 0.25, 0.25))
        h = hashlib.sha256()
        for omega in (0.0, 3 * math.log(math.log(n))):
            for seed in (11, 12):
                p = threshold_p(n, omega, cs.alpha_min)
                g = sample_graph(SampleParams(n, p, cs, seed))
                for colors in ((1,), (2,), (3,), (1, 2, 3)):
                    h.update(repr(max_matching(g, colors).assign).encode())
        assert h.hexdigest() == (
            "191bbf09ed2791dd8593e353773a36c2f965eb1e55371c660aacc295b296b48a"
        )


class TestMonochromaticPerfectMatching:
    def test_f1(self, f1):
        m = monochromatic_perfect_matching(f1, 1)
        assert m.assign == (0, 1)

    def test_f1_missing_edge_hall_witness(self):
        g = build_graph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2)])
        with pytest.raises(NoPerfectMatchingError) as info:
            monochromatic_perfect_matching(g, 1)
        assert info.value.witness == (1,)
        assert color_neighborhood(g, info.value.witness, 1) == ()

    def test_complete_graph(self):
        g = build_graph(3, 1, [(a, b, 1) for a in range(3) for b in range(3)])
        m = monochromatic_perfect_matching(g, 1)
        assert m.size == 3 and verify_matching(g, m, require_perfect=True) is None

    def test_iff_hall_condition(self):
        for g in instance_grid(120, base_seed=9090, n_range=(2, 7)):
            for color in range(1, g.q + 1):
                expect = hall_holds(g, color)
                try:
                    m = monochromatic_perfect_matching(g, color)
                    got = True
                    assert verify_matching(g, m, require_perfect=True) is None
                    assert all(g.color_of(a, b) == color for a, b in m.pairs())
                except NoPerfectMatchingError as exc:
                    got = False
                    # the witness must genuinely violate Hall's condition
                    s = exc.witness
                    assert len(color_neighborhood(g, s, color)) < len(s)
                assert got == expect

    def test_witness_is_alternating_reach(self):
        # The witness is the set that Hopcroft-Karp's last BFS reached; an
        # independent alternating search from the free A-vertices of the same
        # maximum matching must reach exactly it, below, in and above the
        # window, up to n = 1000.
        failing: dict[int, int] = {}
        for n, seeds in ((5, 12), (8, 12), (12, 12), (30, 8), (200, 4), (1000, 2)):
            llog = math.log(math.log(n))
            for q in (2, 3):
                cs = ColorSpec.uniform(q)
                for k in range(-2, 3):
                    p = min(1.0, (math.log(n) + k * llog) / (cs.alpha_min * n))
                    for seed in range(seeds):
                        g = sample_graph(SampleParams(n, p, cs, seed))
                        for color in range(1, q + 1):
                            try:
                                monochromatic_perfect_matching(g, color)
                            except NoPerfectMatchingError as exc:
                                assign = max_matching(g, (color,)).assign
                                assert exc.witness == alternating_reach(g, color, assign)
                                failing[n] = failing.get(n, 0) + 1
        assert sum(failing.values()) >= 500 and failing[1000] >= 20, failing


class TestVerifyMatching:
    def test_ok(self, f1):
        m = Matching.from_pairs(2, [(0, 0), (1, 1)])
        assert verify_matching(f1, m, require_perfect=True) is None

    def test_reused_b_vertex_detected(self, f1):
        # bypass the Matching constructor's own check to exercise verify
        m = Matching.__new__(Matching)
        object.__setattr__(m, "assign", (0, 0))
        out = verify_matching(f1, m)
        assert out is not None and "reused" in out

    def test_imperfect_flagged(self, f1):
        m = Matching.from_pairs(2, [(0, 0)])
        assert verify_matching(f1, m) is None
        out = verify_matching(f1, m, require_perfect=True)
        assert out is not None and "unmatched" in out

    def test_non_edge_flagged(self, f3):
        m = Matching.from_pairs(3, [(2, 0)])
        out = verify_matching(f3, m)
        assert out is not None and "not an edge" in out
