"""Exact perfect-matching color-profile sets for small instances.

Ground truth for all solver testing, so the code here favors being
obviously correct over being clever.  Two independent routes are provided:
a subset dynamic program (default limit n <= 20, q <= 4) and a factorial
brute force over all bijections (n <= 9).  Membership (``has_profile``) is
answered by the same DP.
"""

from __future__ import annotations

from itertools import permutations

from .errors import InstanceTooLargeError
from .graphs import ColoredBipartiteGraph, ColorProfile, validate_profile_for

DP_LIMIT = 20
NAIVE_LIMIT = 9
Q_LIMIT = 4


def _vertex_edges(g: ColoredBipartiteGraph, a: int) -> list[tuple[int, int]]:
    """(b, color) pairs for A-vertex ``a``, sorted by b."""
    out: list[tuple[int, int]] = []
    for c in range(1, g.q + 1):
        out.extend((b, c) for b in g.neighbors_a(a, c))
    out.sort()
    return out


def enumerate_mcp(
    g: ColoredBipartiteGraph, max_n: int = DP_LIMIT
) -> set[ColorProfile]:
    """{profile_of(g, M) : M a perfect matching of g}, by subset DP.

    State: a mask of used B-vertices (its popcount k means A-vertices
    0..k-1 are placed) mapped to the set of achievable partial profiles.
    Profiles are stored as (q-1)-tuples; the last coordinate is implied by
    the popcount.  Processing masks in increasing numeric order is valid
    because adding a bit always increases the mask.
    """
    if g.n > max_n:
        raise InstanceTooLargeError(f"n={g.n} exceeds limit {max_n}")
    if g.q > Q_LIMIT:
        raise InstanceTooLargeError(f"q={g.q} exceeds limit {Q_LIMIT}")
    n, q = g.n, g.q
    edges_by_vertex = [_vertex_edges(g, a) for a in range(n)]
    empty = (0,) * (q - 1)
    dp: dict[int, set[tuple[int, ...]]] = {0: {empty}}
    for mask in range(1 << n):
        profiles = dp.get(mask)
        if not profiles:
            continue
        k = mask.bit_count()
        if k == n:
            continue
        for b, c in edges_by_vertex[k]:
            bit = 1 << b
            if mask & bit:
                continue
            bucket = dp.setdefault(mask | bit, set())
            if c == q:
                bucket.update(profiles)
            else:
                i = c - 1
                for prof in profiles:
                    bucket.add(prof[:i] + (prof[i] + 1,) + prof[i + 1 :])
    final = dp.get((1 << n) - 1, set())
    return {
        ColorProfile(prof + (n - sum(prof),)) for prof in final
    }


def enumerate_mcp_naive(
    g: ColoredBipartiteGraph, max_n: int = NAIVE_LIMIT
) -> set[ColorProfile]:
    """Brute force over all n! bijections A -> B; the independent oracle."""
    if g.n > max_n:
        raise InstanceTooLargeError(f"n={g.n} exceeds naive limit {max_n}")
    n, q = g.n, g.q
    out: set[ColorProfile] = set()
    for perm in permutations(range(n)):
        counts = [0] * q
        ok = True
        for a, b in enumerate(perm):
            c = g.color_of(a, b)
            if c is None:
                ok = False
                break
            counts[c - 1] += 1
        if ok:
            out.add(ColorProfile(tuple(counts)))
    return out


def has_profile(
    g: ColoredBipartiteGraph, profile: ColorProfile | tuple[int, ...],
    max_n: int = DP_LIMIT,
) -> bool:
    """Membership test: whether ``profile`` is in ``enumerate_mcp(g, max_n)``,
    the same subset DP."""
    target = validate_profile_for(g, tuple(profile))
    return target in enumerate_mcp(g, max_n)
