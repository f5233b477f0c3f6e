import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _refs import b_rows
from conftest import random_instance
from mcplab import (
    ColorSpec,
    DuplicateEdgeError,
    ColorOutOfRangeError,
    IndexOutOfRangeError,
    InvalidMatchingError,
    Matching,
    ParseError,
    SampleParams,
    UNMATCHED,
    build_graph,
    color_cut_count,
    color_neighborhood,
    parse_graph,
    profile_of,
    sample_graph,
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

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1)], [("0", "1", "1")], [(0, 1.0, 1)], [(0, 1, 1.5)]],
        ids=["pair", "strings", "float-index", "float-color"],
    )
    def test_malformed_edges_rejected(self, edges):
        # Not (a, b, color) integer triples: no unpacking error, no truncation.
        with pytest.raises(ValidationError):
            build_graph(2, 2, edges)

    def test_first_failing_edge_in_input_order(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(3, 2, [(0, 0, 1), (0, 0, 2), (5, 0, 1)])
        with pytest.raises(IndexOutOfRangeError):
            build_graph(3, 2, [(5, 0, 1), (0, 0, 1), (0, 0, 2)])
        with pytest.raises(ColorOutOfRangeError):
            build_graph(3, 2, [(0, 0, 3), (5, 0, 1)])


class TestArrayEdges:
    """An (E, 3) ndarray builds the same graph as a list of triples."""

    def test_array_matches_shuffled_tuples(self):
        n, q = 40, 3
        rng = random.Random(5)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(n)], 500)
        edges = [(a, b, rng.randint(1, q)) for a, b in pairs]
        g_arr = build_graph(n, q, np.array(edges, dtype=np.int64))
        rng.shuffle(edges)
        g_tup = build_graph(n, q, edges)
        assert g_arr == g_tup
        assert hash(g_arr) == hash(g_tup)
        a, b, c = edges[0]
        recolored = [(a, b, c % q + 1)] + edges[1:]
        assert build_graph(n, q, recolored) != g_tup
        assert list(g_arr.edges()) == list(g_tup.edges()) == sorted(edges)
        for c in range(1, q + 1):
            for v in range(n):
                nbrs = g_tup.neighbors_a(v, c)
                assert nbrs == tuple(sorted(nbrs)) == g_arr.neighbors_a(v, c)
                nbrs = g_tup.neighbors_b(v, c)
                assert nbrs == tuple(sorted(nbrs)) == g_arr.neighbors_b(v, c)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_b_rows_match_reference(self, q):
        # The walk reads B-side rows in stored order, so compare them as stored.
        n = 30
        rng = random.Random(q)
        pairs = rng.sample([(a, b) for a in range(n) for b in range(n)], 400)
        edges = [(a, b, rng.randint(1, q)) for a, b in pairs]
        g_arr = build_graph(n, q, np.array(edges, dtype=np.int64))
        rng.shuffle(edges)
        g_tup = build_graph(n, q, edges)
        for g in (g_arr, g_tup):
            want = b_rows(g)
            for c in range(1, q + 1):
                for b in range(n):
                    row = g.neighbors_b(b, c)
                    assert all(x < y for x, y in zip(row, row[1:]))
                    assert row == want[c - 1][b]

    @pytest.mark.parametrize(
        "edges, error",
        [
            ([(0, 1, 1), (2, 2, 2), (0, 1, 2)], DuplicateEdgeError),
            ([(0, 1, 1), (0, 3, 1)], IndexOutOfRangeError),
            ([(0, 1, 1), (-1, 0, 1)], IndexOutOfRangeError),
            ([(0, 1, 1), (1, 1, 0)], ColorOutOfRangeError),
        ],
        ids=["duplicate", "index", "negative-index", "color"],
    )
    def test_array_errors(self, edges, error):
        with pytest.raises(error) as info:
            build_graph(3, 2, np.array(edges, dtype=np.int64))
        with pytest.raises(error) as from_tuples:
            build_graph(3, 2, edges)
        assert str(info.value) == str(from_tuples.value)

    def test_duplicate_names_the_pair(self):
        with pytest.raises(DuplicateEdgeError, match=r"\(2, 1\)"):
            build_graph(3, 2, np.array([(2, 1, 1), (0, 0, 1), (2, 1, 2)]))


class TestEdgeQueries:
    def test_out_of_range_vertices_have_no_edges(self):
        # Row n - 1 holds an edge, so a = -1 must not wrap onto it.
        n = 4
        g = build_graph(n, 2, [(n - 1, 0, 1), (0, n - 1, 2), (n - 1, n - 1, 2)])
        assert g.color_of(n - 1, 0) == 1 and g.has_edge(0, n - 1)
        for a, b in ((-1, 0), (-1, n - 1), (n, 0), (0, -1), (n - 1, -1), (n - 1, n)):
            assert g.color_of(a, b) is None
            assert g.has_edge(a, b) is False


class TestProfileOf:
    def test_f1_identity_matching(self, f1):
        m = Matching.from_pairs(2, [(0, 0), (1, 1)])
        assert profile_of(f1, m) == (2, 0)

    def test_f1_swap_matching(self, f1):
        m = Matching.from_pairs(2, [(0, 1), (1, 0)])
        assert profile_of(f1, m) == (0, 2)

    def test_empty_matching(self, f1):
        m = Matching((UNMATCHED, UNMATCHED))
        assert profile_of(f1, m) == (0, 0)

    def test_wrong_length_rejected(self, f1):
        # Both pairs are color-1 edges of f1, but the matching has 3 A-vertices.
        with pytest.raises(InvalidMatchingError, match="length 3, graph has n=2"):
            profile_of(f1, Matching((0, 1, UNMATCHED)))

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

    def test_golden_digest(self):
        # Pins the bytes of ``mcplab gen``: serialize_graph over sampled
        # graphs, edges in (a, b) order, alpha line included.
        h = hashlib.sha256()
        for n, p, cs in (
            (60, 0.2, ColorSpec(3, (0.5, 0.25, 0.25))),
            (300, 0.03, ColorSpec.uniform(2)),
            (1, 0.5, ColorSpec.uniform(1)),
        ):
            for seed in range(5):
                h.update(serialize_graph(sample_graph(SampleParams(n, p, cs, seed))).encode())
        assert h.hexdigest() == (
            "c1b8456e0158c75ac2b68d89ba3bded1df0f97b8ec9c27f1240bb341aadb1d89"
        )

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
        assert sum(profile_of(g, m)) == g.n
