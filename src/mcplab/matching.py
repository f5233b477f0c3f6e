"""Maximum matching on color-restricted subgraphs.

Hopcroft-Karp with deterministic tie-breaking: A-vertices are scanned in
increasing index, adjacency lists are sorted, and augmenting paths are taken
in BFS-layer order, so results depend only on the graph and the color set.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import LabError, NoPerfectMatchingError, ValidationError
from .graphs import UNMATCHED, ColoredBipartiteGraph, Matching

_INF = float("inf")


def _merged_adjacency(
    g: ColoredBipartiteGraph, colors: tuple[int, ...]
) -> list[tuple[int, ...]]:
    if len(colors) == 1:
        c = colors[0]
        return [g.neighbors_a(a, c) for a in range(g.n)]
    adj = []
    for a in range(g.n):
        merged: list[int] = []
        for c in colors:
            merged.extend(g.neighbors_a(a, c))
        adj.append(tuple(sorted(merged)))
    return adj


def _hopcroft_karp(n: int, adj: list[tuple[int, ...]]) -> tuple[list[int], list[int]]:
    match_a = [UNMATCHED] * n
    match_b = [UNMATCHED] * n
    dist = [0.0] * n

    def bfs() -> bool:
        queue: deque[int] = deque()
        for a in range(n):
            if match_a[a] == UNMATCHED:
                dist[a] = 0.0
                queue.append(a)
            else:
                dist[a] = _INF
        free_dist = _INF
        while queue:
            a = queue.popleft()
            if dist[a] >= free_dist:
                continue
            for b in adj[a]:
                a2 = match_b[b]
                if a2 == UNMATCHED:
                    if free_dist == _INF:
                        free_dist = dist[a] + 1
                elif dist[a2] == _INF:
                    dist[a2] = dist[a] + 1
                    queue.append(a2)
        return free_dist != _INF

    def dfs(root: int) -> bool:
        # Iterative layered DFS; chosen[i] is the edge taken from stack[i].
        stack = [root]
        chosen: list[int] = [UNMATCHED]
        ptr = [0]
        while stack:
            a = stack[-1]
            advanced = False
            while ptr[-1] < len(adj[a]):
                b = adj[a][ptr[-1]]
                ptr[-1] += 1
                a2 = match_b[b]
                if a2 == UNMATCHED:
                    chosen[-1] = b
                    for i in range(len(stack)):
                        match_a[stack[i]] = chosen[i]
                        match_b[chosen[i]] = stack[i]
                    return True
                if dist[a2] == dist[a] + 1:
                    chosen[-1] = b
                    stack.append(a2)
                    chosen.append(UNMATCHED)
                    ptr.append(0)
                    advanced = True
                    break
            if not advanced:
                dist[a] = _INF
                stack.pop()
                chosen.pop()
                ptr.pop()
        return False

    while bfs():
        for a in range(n):
            if match_a[a] == UNMATCHED:
                dfs(a)
    return match_a, match_b


def max_matching(
    g: ColoredBipartiteGraph, allowed_colors: Iterable[int]
) -> Matching:
    """Maximum matching of the subgraph of edges whose color is allowed."""
    colors = tuple(sorted(set(allowed_colors)))
    if not colors:
        raise ValidationError("allowed_colors must be nonempty")
    for c in colors:
        g._check_color(c)
    adj = _merged_adjacency(g, colors)
    match_a, _ = _hopcroft_karp(g.n, adj)
    return Matching(tuple(match_a))


def hall_witness(
    g: ColoredBipartiteGraph, color: int, m: Matching
) -> tuple[int, ...]:
    """Deficient A-set extracted from a non-perfect maximum matching.

    Returns the A-vertices reachable by alternating paths from the unmatched
    A-vertices; for a maximum matching this set S satisfies |N(S)| < |S|.
    """
    adj = [g.neighbors_a(a, color) for a in range(g.n)]
    match_b = m.inverse
    seen = [False] * g.n
    queue: deque[int] = deque()
    for a in range(g.n):
        if m.assign[a] == UNMATCHED:
            seen[a] = True
            queue.append(a)
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            a2 = match_b[b]
            if a2 != UNMATCHED and not seen[a2]:
                seen[a2] = True
                queue.append(a2)
    return tuple(a for a in range(g.n) if seen[a])


def monochromatic_perfect_matching(
    g: ColoredBipartiteGraph, color: int
) -> Matching:
    """Perfect matching using only color-``color`` edges.

    Raises NoPerfectMatchingError carrying a Hall-violating A-set when the
    color class has none.
    """
    m = max_matching(g, (color,))
    if m.size == g.n:
        return m
    witness = hall_witness(g, color, m)
    from .graphs import color_neighborhood  # local import avoids cycle at module load

    nbhd = color_neighborhood(g, witness, color)
    if len(nbhd) >= len(witness):
        raise LabError("extracted witness is not deficient")
    raise NoPerfectMatchingError(color, witness)


def verify_matching(
    g: ColoredBipartiteGraph, m: Matching, require_perfect: bool = False
) -> str | None:
    """Return None if valid, otherwise a description of the first violation."""
    if len(m.assign) != g.n:
        return f"matching has length {len(m.assign)}, graph has n={g.n}"
    used: dict[int, int] = {}
    for a, b in enumerate(m.assign):
        if b == UNMATCHED:
            continue
        if not (0 <= b < g.n):
            return f"A-vertex {a} matched to out-of-range B-vertex {b}"
        if b in used:
            return f"B-vertex {b} reused by A-vertices {used[b]} and {a}"
        used[b] = a
        if not g.has_edge(a, b):
            return f"matched pair ({a}, {b}) is not an edge"
    if require_perfect:
        for a, b in enumerate(m.assign):
            if b == UNMATCHED:
                return f"A-vertex {a} unmatched"
    return None
