import math

import pytest

from conftest import random_instance
from mcplab import (
    DomainError,
    ExpansionConstants,
    Matching,
    build_graph,
    default_constants,
    expansion_trace,
    monochromatic_perfect_matching,
)
from mcplab.errors import ValidationError


def small_constants(**overrides):
    """Hand-set thresholds for desk-size fixtures."""
    base = dict(
        removal_coeff=1.0,
        overlap_cap=1.0,
        degree_cutoff=1.0,
        growth_factor=0.5,
        stop_size=10.0,
    )
    base.update(overrides)
    return ExpansionConstants(**base)


class TestDefaultConstants:
    def test_single_color_removal_coeff(self):
        c = default_constants(100, 1, 1.0)
        assert c.removal_coeff == pytest.approx(10.0)

    def test_overlap_cap_formula(self):
        c = default_constants(16, 2, 0.5)
        expect = 10.0 * math.log(16) / math.log(math.log(16))
        assert c.overlap_cap == pytest.approx(expect)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            default_constants(2, 2, 0.5)

    def test_derived_relations(self):
        c = default_constants(1000, 3, 0.25)
        assert c.degree_cutoff == pytest.approx(math.log(1000) / 30.0)
        assert c.growth_factor == pytest.approx(math.log(1000) / 75.0)
        assert c.stop_size == pytest.approx(0.25**2 * 1000 / (5000 * 9))


class TestTrace:
    def test_f3_high_degree_set(self, f3):
        m = Matching(tuple(range(3)))
        trace = expansion_trace(f3, m, 1, small_constants())
        assert trace.a_side.members == (0, 1, 2)
        assert trace.a_side.high_degree == (0, 1, 2)
        assert trace.a_side.crowded == ()
        assert trace.a_side.core == (0, 1, 2)
        assert trace.a_side.core_fraction == 1.0

    def test_empty_color_class(self):
        g = build_graph(2, 2, [(0, 1, 2), (1, 0, 2)])
        m = Matching.from_pairs(2, [(0, 1), (1, 0)])  # all color 2
        trace = expansion_trace(g, m, 1, small_constants())
        assert trace.a_side.members == ()
        assert trace.a_side.core == ()
        assert trace.forward.layer_sizes == ()
        assert trace.forward.anchor is None
        assert trace.min_core_adjacency_same is None

    def test_f3_layers_from_anchor_1(self, f3):
        m = Matching(tuple(range(3)))
        trace = expansion_trace(f3, m, 1, small_constants(), anchor=1)
        # vertex 1 reaches row 0 through the extra color-1 edge (1, 0)
        assert trace.forward.layer_sizes == (1, 1)
        assert trace.forward.anchor_in_core
        assert trace.forward.stop_layer is None  # stop_size 10 never reached
        assert trace.forward.cumulative_size == 2

    def test_stop_layer_zero_when_stop_size_tiny(self, f3):
        m = Matching(tuple(range(3)))
        trace = expansion_trace(f3, m, 1, small_constants(stop_size=0.5))
        assert trace.forward.stop_layer == 0
        assert trace.backward.stop_layer == 0

    def test_anchor_outside_members_rejected(self, f3):
        g = build_graph(2, 2, [(0, 0, 1), (1, 1, 2)])
        m = Matching.from_pairs(2, [(0, 0), (1, 1)])
        with pytest.raises(ValidationError):
            expansion_trace(g, m, 1, small_constants(), anchor=1)

    def test_anchor_outside_core_flagged(self, f3):
        # huge degree cutoff and tiny overlap cap empty the core entirely
        consts = small_constants(degree_cutoff=100.0, overlap_cap=0.5)
        m = Matching(tuple(range(3)))
        trace = expansion_trace(f3, m, 1, consts, anchor=1)
        assert trace.a_side.core == ()
        assert not trace.forward.anchor_in_core
        # fallback run is unrestricted within the color class
        assert trace.forward.layer_sizes[0] == 1

    def test_imperfect_matching_rejected(self, f3):
        with pytest.raises(ValidationError):
            expansion_trace(f3, Matching.from_pairs(3, [(0, 0)]), 1, small_constants())

    def test_cool_quantities_reported(self, f3):
        m = Matching(tuple(range(3)))
        trace = expansion_trace(f3, m, 1, small_constants())
        # core is everything, so same-color counts are plain degrees into B1
        assert trace.min_core_adjacency_same == 1
        # vertex 2 has no color-2 edge at all
        assert trace.min_core_adjacency_color2 == 0
        assert trace.core_adjacency_bound == pytest.approx(0.0)

    def test_sampled_instance_sane(self):
        g = random_instance(31, 300, 2, 0.05)
        m = monochromatic_perfect_matching(g, 1)
        consts = default_constants(300, 2, 0.5)
        trace = expansion_trace(g, m, 1, consts)
        assert trace.a_side.members == tuple(range(300))
        frac = trace.a_side.core_fraction
        assert frac is not None and 0.0 <= frac <= 1.0
        assert trace.forward.layer_sizes[0] == 1
        # desk-scale stop size is below 1, so the run stops immediately
        assert consts.stop_size < 1 and trace.forward.stop_layer == 0
        assert trace.core_fraction_bound == pytest.approx(
            1 - (consts.removal_coeff + 2) / math.log(300)
        )
