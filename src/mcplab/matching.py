"""Maximum matching on color-restricted subgraphs.

Hopcroft-Karp with deterministic tie-breaking: A-vertices are scanned in
increasing index, adjacency lists are sorted, and augmenting paths are taken
in BFS-layer order, so results depend only on the graph and the color set.
When a color class has no perfect matching, the A-vertices that
Hopcroft-Karp's last BFS reached are the Hall witness (Kőnig's certificate)
that ``monochromatic_perfect_matching`` reports; no second search runs.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import LabError, NoPerfectMatchingError, ValidationError
from .graphs import UNMATCHED, ColoredBipartiteGraph, Matching, color_neighborhood

_INF = float("inf")


def _merged_adjacency(
    g: ColoredBipartiteGraph, colors: tuple[int, ...]
) -> Sequence[tuple[int, ...]]:
    """Per A-vertex sorted B-neighbors over ``colors``; the caller checks the colors."""
    rows = [g._adj_a[c - 1] for c in colors]
    if len(rows) == 1:
        return rows[0]
    adj = []
    for a in range(g.n):
        merged: list[int] = []
        for row in rows:
            merged.extend(row[a])
        adj.append(tuple(sorted(merged)))
    return adj


def _hopcroft_karp(n: int, adj: Sequence[tuple[int, ...]]) -> tuple[list[int], list[float]]:
    """(match_a, dist): a maximum matching and its last BFS's layers.

    That BFS found no free B-vertex, so ``dist[a]`` is finite exactly for the
    A-vertices that alternating paths reach from the free ones.
    """
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

    # Phase 1 of Hopcroft-Karp: with every vertex free, the first BFS puts
    # each A-vertex at distance 0, so its DFS only takes a first free neighbour.
    for a in range(n):
        for b in adj[a]:
            if match_b[b] == UNMATCHED:
                match_a[a] = b
                match_b[b] = a
                break

    while bfs():
        for a in range(n):
            if match_a[a] == UNMATCHED:
                dfs(a)
    return match_a, dist


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


def monochromatic_perfect_matching(
    g: ColoredBipartiteGraph, color: int
) -> Matching:
    """Perfect matching using only color-``color`` edges.

    Raises NoPerfectMatchingError carrying a Hall-violating A-set when the
    color class has none.
    """
    g._check_color(color)
    match_a, dist = _hopcroft_karp(g.n, g._adj_a[color - 1])
    if UNMATCHED not in match_a:
        return Matching(tuple(match_a))
    witness = tuple(a for a in range(g.n) if dist[a] != _INF)
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
