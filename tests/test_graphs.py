import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from mcplab import (
    ColorProfile,
    ColorSpec,
    DuplicateEdgeError,
    ColorOutOfRangeError,
    IndexOutOfRangeError,
    InvalidMatchingError,
    Matching,
    ParseError,
    UnmatchedVertexError,
    UNMATCHED,
    build_graph,
    color_cut_count,
    color_neighborhood,
    matched_image,
    parse_graph,
    profile_of,
    serialize_graph,
)
from mcplab.errors import ValidationError


class TestColorSpec:
    def test_uniform(self):
        cs = ColorSpec.uniform(4)
        assert cs.q == 4 and cs.alpha_min == 0.25

    def test_rejects_nonpositive_alpha(self):
        for alphas in ((1.0, 0.0), (float("nan"), 0.5)):
            with pytest.raises(ValidationError):
                ColorSpec(2, alphas)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            ColorSpec(2, (0.5, 0.6))

    def test_rejects_zero_colors(self):
        with pytest.raises(ValidationError):
            ColorSpec(0, ())

    def test_tolerates_tiny_sum_error(self):
        ColorSpec(3, (1 / 3, 1 / 3, 1 / 3))


class TestBuildGraph:
    def test_f1_fixture(self, f1):
        assert f1.n == 2 and f1.q == 2 and f1.edge_count == 4

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, 2, [(0, 0, 1), (0, 0, 2)])

    def test_empty_graph_valid(self):
        g = build_graph(1, 1, [])
        assert g.edge_count == 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph(2, 2, [(0, 2, 1)])

    def test_color_out_of_range(self):
        with pytest.raises(ColorOutOfRangeError):
            build_graph(2, 2, [(0, 0, 3)])


class TestProfileOf:
    def test_f1_identity_matching(self, f1):
        m = Matching.from_pairs(2, [(0, 0), (1, 1)])
        assert profile_of(f1, m).counts == (2, 0)

    def test_f1_swap_matching(self, f1):
        m = Matching.from_pairs(2, [(0, 1), (1, 0)])
        assert profile_of(f1, m).counts == (0, 2)

    def test_empty_matching(self, f1):
        m = Matching((UNMATCHED, UNMATCHED))
        assert profile_of(f1, m).counts == (0, 0)

    def test_non_edge_rejected(self, f3):
        m = Matching.from_pairs(3, [(2, 0)])
        with pytest.raises(InvalidMatchingError):
            profile_of(f3, m)


class TestNeighborhoods:
    def test_f1_single_vertex(self, f1):
        assert color_neighborhood(f1, {0}, 1) == (0,)
        assert color_neighborhood(f1, {0}, 2) == (1,)

    def test_empty_set(self, f1):
        assert color_neighborhood(f1, set(), 1) == ()

    def test_union_decomposition(self):
        g = random_instance(5, 8, 3, 0.5)
        s = (0, 2, 5)
        for c in range(1, 4):
            union = set()
            for a in s:
                union.update(color_neighborhood(g, {a}, c))
            assert color_neighborhood(g, s, c) == tuple(sorted(union))


class TestMatchedImage:
    def test_lookup(self):
        m = Matching.from_pairs(2, [(0, 0), (1, 1)])
        assert matched_image(m, {0}) == (0,)
        assert matched_image(m, {0, 1}) == (0, 1)

    def test_unmatched_vertex(self):
        m = Matching.from_pairs(2, [(0, 0)])
        with pytest.raises(UnmatchedVertexError):
            matched_image(m, {1})

    def test_injectivity(self):
        g = random_instance(11, 7, 2, 0.9)
        from mcplab import max_matching

        m = max_matching(g, (1, 2))
        matched = [a for a, b in m.pairs()]
        assert len(matched_image(m, matched)) == len(matched)


class TestCutCounts:
    def test_f1_full_cut(self, f1):
        assert color_cut_count(f1, {0, 1}, {0, 1}, 1) == 2

    def test_f1_single(self, f1):
        assert color_cut_count(f1, {0}, {0}, 2) == 0

    def test_empty_side(self, f1):
        assert color_cut_count(f1, set(), {0, 1}, 1) == 0

    def test_sums_to_uncolored_count(self):
        g = random_instance(3, 9, 3, 0.4)
        s, t = (0, 1, 4, 7), (2, 3, 8)
        total = sum(color_cut_count(g, s, t, c) for c in range(1, 4))
        plain = sum(1 for a in s for b in t if g.has_edge(a, b))
        assert total == plain


class TestMatchingType:
    def test_rejects_reused_b(self):
        with pytest.raises(InvalidMatchingError):
            Matching((0, 0))

    def test_inverse(self):
        m = Matching((1, 0, UNMATCHED))
        assert m.inverse == (1, 0, UNMATCHED)

    def test_size_and_perfect(self):
        assert Matching((1, 0)).is_perfect
        assert Matching((UNMATCHED, 0)).size == 1


class TestSerialization:
    def test_f1_round_trip(self, f1):
        text = serialize_graph(f1)
        lines = text.splitlines()
        assert lines[0] == "2 2"
        assert len(lines) == 5
        assert parse_graph(text) == f1

    def test_color_out_of_range_on_parse(self):
        with pytest.raises(ColorOutOfRangeError):
            parse_graph("2 2\n0 0 3\n")

    def test_empty_edge_section(self):
        g = parse_graph("3 2\n")
        assert g.n == 3 and g.edge_count == 0

    def test_comments_ignored(self):
        g = parse_graph("# header\n2 2\n# middle\n0 0 1\n")
        assert g.edge_count == 1

    def test_alpha_line_round_trip(self):
        g = random_instance(2, 6, 3, 0.5)
        assert g.alphas is not None
        g2 = parse_graph(serialize_graph(g))
        assert g2.alphas == g.alphas and g2 == g
        # q = 1: the integer line "1" is the alpha line, not a short edge
        assert parse_graph("2 1\n1\n0 0 1\n").alphas == (1.0,)

    def test_bad_alpha_line(self):
        for text in ("2 2\n0.9 0.9\n0 0 1\n", "2 2\nnan nan\n", "2 2\n0.5 x\n"):
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            assert exc.value.line_no == 2

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_graph("2\n")

    def test_bad_edge_line(self):
        with pytest.raises(ParseError):
            parse_graph("2 2\n0 0\n")

    def test_round_trip_100_random_graphs(self):
        for seed in range(100):
            n = 2 + seed % 31
            g = random_instance(seed, n, 1 + seed % 4, 0.3)
            assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), q=st.integers(1, 4))
def test_round_trip_property(seed, n, q):
    g = random_instance(seed, n, q, 0.5)
    assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_profile_sums_to_n_for_perfect_matchings(seed):
    from mcplab import max_matching

    g = random_instance(seed, 6, 2, 0.9)
    m = max_matching(g, (1, 2))
    if m.is_perfect:
        assert profile_of(g, m).total == g.n


def test_profile_corner():
    p = ColorProfile.corner(3, 2, 10)
    assert p.counts == (0, 10, 0)
