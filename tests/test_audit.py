import pytest

from _refs import (
    cut_edges,
    naive_dense_cut,
    naive_empty_cut,
    naive_high_degree,
    naive_low_degree,
)
from conftest import instance_grid
from mcplab import (
    InstanceTooLargeError,
    build_graph,
    color_cut_count,
    dense_cut_witness,
    empty_cut_witness,
    enumerate_mcp,
    high_degree_witness,
    isolated_color_vertices,
    low_degree_witness,
)


class TestIsolated:
    def test_f1_none(self, f1):
        assert isolated_color_vertices(f1, 1) == ((), ())

    def test_partial(self):
        g = build_graph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2)])
        assert isolated_color_vertices(g, 1) == ((1,), (1,))

    def test_edgeless(self):
        g = build_graph(3, 2, [])
        assert isolated_color_vertices(g, 1) == ((0, 1, 2), (0, 1, 2))

    def test_isolated_implies_corner_unreachable(self):
        for g in instance_grid(60, base_seed=140, n_range=(2, 7), ps=(0.3, 0.6)):
            for i in range(1, g.q + 1):
                a_side, b_side = isolated_color_vertices(g, i)
                if a_side or b_side:
                    corner = tuple(g.n if c == i else 0 for c in range(1, g.q + 1))
                    assert corner not in enumerate_mcp(g)


class TestLowDegree:
    def test_f1_witness_exists(self, f1):
        w = low_degree_witness(f1, 1, s_size=1, t_size=1, x_size=1, deg_cut=1)
        assert w is not None
        x, s, t = w
        assert len(x) == 1 and len(s) >= 1 and len(t) >= 1
        assert all(color_cut_count(f1, (a,), t, 1) < 1 for a in x)

    def test_complete_graph_none(self):
        g = build_graph(3, 1, [(a, b, 1) for a in range(3) for b in range(3)])
        assert low_degree_witness(g, 1, 3, 3, 1, 1) is None

    def test_oversized_request_vacuous(self, f1):
        assert low_degree_witness(f1, 1, 1, 3, 1, 1) is None

    @pytest.mark.parametrize("sizes", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)], ids=["s", "t", "x"])
    def test_negative_size_none(self, f1, sizes):
        s_size, t_size, x_size = sizes
        assert low_degree_witness(f1, 1, s_size, t_size, x_size, 1) is None
        assert naive_low_degree(f1, 1, s_size, t_size, x_size, 1) is None

    def test_too_large_instance(self):
        g = build_graph(15, 1, [])
        with pytest.raises(InstanceTooLargeError):
            low_degree_witness(g, 1, 1, 1, 1, 1)


class TestHighDegree:
    def test_f1_witness_exists(self, f1):
        w = high_degree_witness(f1, 2, x_size=1, y_size=1, k=1)
        assert w is not None
        x, y = w
        assert all(color_cut_count(f1, (a,), y, 2) >= 1 for a in x)

    def test_f1_no_shared_color1_b_vertex(self, f1):
        assert high_degree_witness(f1, 1, x_size=2, y_size=1, k=1) is None

    def test_vacuous_threshold(self, f1):
        w = high_degree_witness(f1, 1, x_size=1, y_size=1, k=0)
        assert w == ((0,), (0,))


class TestDenseCut:
    def test_f1_full_sides(self, f1):
        w = dense_cut_witness(f1, 1, 2, 2, 2)
        assert w == ((0, 1), (0, 1))

    def test_f1_impossible(self, f1):
        assert dense_cut_witness(f1, 1, 2, 2, 3) is None

    def test_vacuous(self, f1):
        assert dense_cut_witness(f1, 1, 1, 1, 0) == ((0,), (0,))


class TestEmptyCut:
    def test_f1(self, f1):
        assert empty_cut_witness(f1, 1, 1, 1) == ((0,), (1,))

    def test_complete_none(self):
        g = build_graph(3, 1, [(a, b, 1) for a in range(3) for b in range(3)])
        assert empty_cut_witness(g, 1, 1, 1) is None

    def test_edgeless_full_sides(self):
        g = build_graph(3, 1, [])
        assert empty_cut_witness(g, 1, 3, 3) == ((0, 1, 2), (0, 1, 2))

    def test_greedy_mode_finds_easy_witness(self):
        g = build_graph(4, 2, [(0, 0, 1), (1, 1, 1), (2, 2, 2), (3, 3, 2)])
        w = empty_cut_witness(g, 1, 2, 2, exhaustive=False)
        assert w is not None
        s, t = w
        assert cut_edges(g, s, t, 1) == 0
        assert len(s) >= 2 and len(t) >= 2


class TestNaiveAgreement:
    # existence must agree with brute-force double loops; when both find a
    # witness each is re-verified independently
    def test_forty_instances(self):
        params = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2)]
        for g in instance_grid(40, base_seed=808, n_range=(2, 6)):
            for color in range(1, g.q + 1):
                for s_size, t_size, x_size, k in params:
                    mine = low_degree_witness(g, color, s_size, t_size, x_size, k)
                    ref = naive_low_degree(g, color, s_size, t_size, x_size, k)
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        x, _, t = mine
                        assert all(cut_edges(g, (a,), t, color) < k for a in x)

                    mine = high_degree_witness(g, color, x_size, t_size, k)
                    ref = naive_high_degree(g, color, x_size, t_size, k)
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        x, y = mine
                        assert all(cut_edges(g, (a,), y, color) >= k for a in x)

                    mine = dense_cut_witness(g, color, s_size, t_size, k)
                    ref = naive_dense_cut(g, color, s_size, t_size, k)
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        assert cut_edges(g, mine[0], mine[1], color) >= k

                    mine = empty_cut_witness(g, color, s_size, t_size)
                    ref = naive_empty_cut(g, color, s_size, t_size)
                    assert (mine is None) == (ref is None)
                    if mine is not None:
                        assert cut_edges(g, mine[0], mine[1], color) == 0
