import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _refs import enumerate_mcp_naive, mcp_set_dp
from conftest import instance_grid, random_instance
from mcplab import (
    InstanceTooLargeError,
    NoPerfectMatchingError,
    build_graph,
    enumerate_mcp,
    max_matching,
    monochromatic_perfect_matching,
)
from mcplab.rng import derive_seed


class TestFixtures:
    def test_f1(self, f1):
        assert sorted(enumerate_mcp(f1)) == [(0, 2), (2, 0)]
        assert sorted(enumerate_mcp_naive(f1)) == [(0, 2), (2, 0)]

    def test_f2(self, f2):
        assert sorted(enumerate_mcp(f2)) == [(1, 1), (2, 0)]
        assert sorted(enumerate_mcp_naive(f2)) == [(1, 1), (2, 0)]

    def test_f3(self, f3):
        assert sorted(enumerate_mcp(f3)) == [(2, 1), (3, 0)]
        assert sorted(enumerate_mcp_naive(f3)) == [(2, 1), (3, 0)]

    def test_edgeless(self):
        g = build_graph(2, 2, [])
        assert enumerate_mcp(g) == set()
        assert enumerate_mcp_naive(g) == set()

    def test_complete_single_color(self):
        g = build_graph(3, 1, [(a, b, 1) for a in range(3) for b in range(3)])
        assert sorted(enumerate_mcp(g)) == [(3,)]
        assert sorted(enumerate_mcp_naive(g)) == [(3,)]


class TestLimits:
    def test_dp_limit(self):
        g = build_graph(25, 2, [])
        with pytest.raises(InstanceTooLargeError):
            enumerate_mcp(g)

    def test_naive_limit(self):
        g = build_graph(10, 2, [])
        with pytest.raises(InstanceTooLargeError):
            enumerate_mcp_naive(g)

    def test_q_limit(self):
        g = build_graph(3, 5, [])
        with pytest.raises(InstanceTooLargeError):
            enumerate_mcp(g)


class TestHasProfile:
    """Membership in MCP(G) is ``profile in enumerate_mcp(g)``."""

    def test_f1_member(self, f1):
        assert (2, 0) in enumerate_mcp(f1)

    def test_f1_non_member(self, f1):
        assert (1, 1) not in enumerate_mcp(f1)

    def test_matches_enumeration(self):
        for g in instance_grid(40, base_seed=51, n_range=(2, 6)):
            mcp, naive = enumerate_mcp(g), enumerate_mcp_naive(g)
            n, q = g.n, g.q
            # check every simplex point
            def points(prefix, remaining, slots):
                if slots == 1:
                    yield prefix + (remaining,)
                    return
                for v in range(remaining + 1):
                    yield from points(prefix + (v,), remaining - v, slots - 1)

            for prof in points((), n, q):
                assert (prof in mcp) == (prof in naive)


class TestAgreement:
    def test_dp_equals_naive_80_instances(self):
        for k, g in enumerate(instance_grid(80, base_seed=4321)):
            assert enumerate_mcp(g) == enumerate_mcp_naive(g), f"instance {k}"

    def test_dp_equals_set_dp_above_naive_limit(self):
        # n = 10..13 is past the brute force's reach; the set-of-tuples DP
        # shares no code with the bitset DP.
        grid = instance_grid(40, base_seed=1013, n_range=(10, 13), qs=(2, 3, 4))
        for k, g in enumerate(grid):
            assert enumerate_mcp(g) == mcp_set_dp(g), f"instance {k}"

    @pytest.mark.parametrize("q", [1, 4])
    def test_dp_equals_naive_encoding_edges(self, q):
        # q = 1: every edge shifts by 0 and no coordinate is stored;
        # q = 4: three stored coordinates, the widest encoding.
        for k, g in enumerate(instance_grid(30, base_seed=77 + q, n_range=(1, 8), qs=(q,))):
            assert enumerate_mcp(g) == enumerate_mcp_naive(g), f"instance {k}"

    def test_profiles_sum_to_n(self):
        for g in instance_grid(30, base_seed=99):
            for p in enumerate_mcp(g):
                assert sum(p) == g.n

    def test_empty_iff_no_perfect_matching(self):
        for g in instance_grid(40, base_seed=123):
            mcp = enumerate_mcp(g)
            perfect = max_matching(g, tuple(range(1, g.q + 1))).size == g.n
            assert (len(mcp) > 0) == perfect

    def test_corner_membership_matches_monochromatic_pm(self):
        for g in instance_grid(60, base_seed=314, n_range=(2, 8)):
            mcp = enumerate_mcp(g)
            for i in range(1, g.q + 1):
                corner = tuple(g.n if c == i else 0 for c in range(1, g.q + 1))
                try:
                    monochromatic_perfect_matching(g, i)
                    exists = True
                except NoPerfectMatchingError:
                    exists = False
                assert (corner in mcp) == exists

    def test_monotone_under_edge_addition(self):
        import random

        for k, g in enumerate(instance_grid(100, base_seed=2718, n_range=(2, 6))):
            rng = random.Random(k)
            absent = [
                (a, b)
                for a in range(g.n)
                for b in range(g.n)
                if not g.has_edge(a, b)
            ]
            if not absent:
                continue
            a, b = rng.choice(absent)
            edges = list(g.edges()) + [(a, b, rng.randint(1, g.q))]
            g2 = build_graph(g.n, g.q, edges)
            assert enumerate_mcp(g) <= enumerate_mcp(g2)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    q=st.integers(2, 3),
    p=st.sampled_from([0.3, 0.6, 0.9]),
)
def test_dp_equals_naive_property(seed, n, q, p):
    g = random_instance(seed, n, q, p)
    assert enumerate_mcp(g) == enumerate_mcp_naive(g)


def pinned_graphs():
    """Seeded graphs at n in {1, 8, 12, 14} and q in {1, ..., 4}: one
    edgeless graph per (n, q), then omega below, inside and above the window,
    with p = q (ln n + omega) / n clipped to [0, 1]."""
    for n in (1, 8, 12, 14):
        for q in (1, 2, 3, 4):
            yield build_graph(n, q, [])
            for k, omega in enumerate((-2.0, 0.0, 3.0)):
                p = min(1.0, max(0.0, q * (math.log(n) + omega) / n))
                yield random_instance(derive_seed(1717, n, q, k), n, q, p)


def test_profile_sets_pinned():
    # sha256 of every pinned graph's sorted profile set, taken from the
    # set-of-tuples DP; any change to enumerate_mcp must keep each set.
    h = hashlib.sha256()
    sizes = []
    for g in pinned_graphs():
        profiles = sorted(enumerate_mcp(g))
        sizes.append(len(profiles))
        h.update(repr(profiles).encode())
        h.update(b"\n")
    assert sum(sizes) == 3057
    assert h.hexdigest() == (
        "c3504911cd6924829b1352baebdb946534979b8902145338850144143e0c31c8"
    )
