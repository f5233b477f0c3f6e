"""Witness searches for structural events on colored bipartite graphs.

Each search looks for small vertex sets realizing one of the events the
threshold analysis rules out (or relies on): a set of vertices with low
same-color degree into a target set, a set with concentrated adjacency, an
overly dense cut, an empty cut, and isolated vertices per color class.

Searches are exhaustive up to EXHAUSTIVE_LIMIT and every witness is
re-verified against color_cut_count / color_neighborhood before being
returned; the search itself is never trusted.  Thresholds are free
parameters: at testable n the asymptotic defaults are non-binding, so the
callers decide what event to probe.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InstanceTooLargeError, ValidationError
from .graphs import ColoredBipartiteGraph, color_cut_count

EXHAUSTIVE_LIMIT = 14


def _check_exhaustive(g: ColoredBipartiteGraph) -> None:
    if g.n > EXHAUSTIVE_LIMIT:
        raise InstanceTooLargeError(
            f"n={g.n} exceeds exhaustive search limit {EXHAUSTIVE_LIMIT}"
        )


def isolated_color_vertices(
    g: ColoredBipartiteGraph, color: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertices with zero color-``color`` degree, per side.

    A nonempty side certifies that the all-``color`` corner profile is not
    realizable by any perfect matching.
    """
    g._check_color(color)
    a_side = tuple(a for a in range(g.n) if not g.neighbors_a(a, color))
    b_side = tuple(b for b in range(g.n) if not g.neighbors_b(b, color))
    return a_side, b_side


def low_degree_witness(
    g: ColoredBipartiteGraph,
    color: int,
    s_size: int,
    t_size: int,
    x_size: int,
    deg_cut: float,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """(X, S, T) with X ⊆ S ⊆ A, |S| >= s_size, |T| >= t_size, |X| = x_size
    and every x in X having fewer than ``deg_cut`` color edges into T.

    T is enumerated exhaustively (smallest witness sizes are the binding
    case); X is the x_size lowest-degree-into-T vertices, which is exact
    because the condition is per-vertex; S is taken to be all of A.
    """
    _check_exhaustive(g)
    g._check_color(color)
    n = g.n
    if s_size > n or t_size > n or x_size > n or x_size < 0:
        return None
    adj = [set(g.neighbors_a(a, color)) for a in range(n)]
    s_all = tuple(range(n))
    for t in combinations(range(n), t_size):
        tset = set(t)
        by_degree = sorted(range(n), key=lambda a: (len(adj[a] & tset), a))
        x = tuple(sorted(by_degree[:x_size]))
        if all(len(adj[a] & tset) < deg_cut for a in x):
            if any(color_cut_count(g, (a,), t, color) >= deg_cut for a in x):
                raise ValidationError("low-degree witness failed re-verification")
            return x, s_all, tuple(t)
    return None


def high_degree_witness(
    g: ColoredBipartiteGraph,
    color: int,
    x_size: int,
    y_size: int,
    k: float,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(X, Y) with |X| = x_size, |Y| = y_size and every x in X having at
    least ``k`` color edges into Y.  Exhaustive over Y, per-vertex filter
    for X; the lexicographically least witness is returned."""
    _check_exhaustive(g)
    g._check_color(color)
    n = g.n
    if x_size > n or y_size > n or x_size < 0 or y_size < 0:
        return None
    adj = [set(g.neighbors_a(a, color)) for a in range(n)]
    for y in combinations(range(n), y_size):
        yset = set(y)
        qualified = [a for a in range(n) if len(adj[a] & yset) >= k]
        if len(qualified) >= x_size:
            x = tuple(qualified[:x_size])
            if any(color_cut_count(g, (a,), y, color) < k for a in x):
                raise ValidationError("high-degree witness failed re-verification")
            return x, tuple(y)
    return None


def dense_cut_witness(
    g: ColoredBipartiteGraph,
    color: int,
    s_size: int,
    t_size: int,
    min_edges: float,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(S, T) of the given sizes with at least ``min_edges`` color edges
    between them; exhaustive, lexicographically least."""
    _check_exhaustive(g)
    g._check_color(color)
    n = g.n
    if s_size > n or t_size > n or s_size < 0 or t_size < 0:
        return None
    adj = [set(g.neighbors_a(a, color)) for a in range(n)]
    for s in combinations(range(n), s_size):
        for t in combinations(range(n), t_size):
            tset = set(t)
            edges = sum(len(adj[a] & tset) for a in s)
            if edges >= min_edges:
                if color_cut_count(g, s, t, color) != edges:
                    raise ValidationError("dense-cut witness failed re-verification")
                return tuple(s), tuple(t)
    return None


def empty_cut_witness(
    g: ColoredBipartiteGraph,
    color: int,
    s_size: int,
    t_size: int,
    exhaustive: bool = True,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(S, T) with |S| >= s_size, |T| >= t_size and zero color edges between.

    Exhaustive mode is authoritative (None means no witness exists).  The
    greedy mode peels the highest-cut-degree vertex until the cut empties
    and is incomplete: None only means nothing was found.
    """
    g._check_color(color)
    n = g.n
    if s_size > n or t_size > n or s_size < 0 or t_size < 0:
        return None
    if exhaustive:
        _check_exhaustive(g)
        adj = [set(g.neighbors_a(a, color)) for a in range(n)]
        for s in combinations(range(n), s_size):
            for t in combinations(range(n), t_size):
                tset = set(t)
                if all(not (adj[a] & tset) for a in s):
                    if color_cut_count(g, s, t, color) != 0:
                        raise ValidationError("empty-cut witness failed re-verification")
                    return tuple(s), tuple(t)
        return None
    return _empty_cut_greedy(g, color, s_size, t_size)


def _empty_cut_greedy(
    g: ColoredBipartiteGraph, color: int, s_size: int, t_size: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    s = set(range(g.n))
    t = set(range(g.n))
    deg_a = {a: sum(1 for b in g.neighbors_a(a, color) if b in t) for a in s}
    deg_b = {b: sum(1 for a in g.neighbors_b(b, color) if a in s) for b in t}
    while True:
        cut = sum(deg_a[a] for a in s)
        if cut == 0:
            break
        # peel the vertex carrying the most cut edges; prefer the side with slack
        best_a = max(sorted(s), key=lambda a: deg_a[a]) if len(s) > s_size else None
        best_b = max(sorted(t), key=lambda b: deg_b[b]) if len(t) > t_size else None
        if best_a is None and best_b is None:
            return None
        take_a = best_b is None or (
            best_a is not None and deg_a[best_a] >= deg_b[best_b]
        )
        if take_a:
            s.discard(best_a)
            for b in g.neighbors_a(best_a, color):
                if b in t:
                    deg_b[b] -= 1
        else:
            t.discard(best_b)
            for a in g.neighbors_b(best_b, color):
                if a in s:
                    deg_a[a] -= 1
    witness = tuple(sorted(s)), tuple(sorted(t))
    if color_cut_count(g, witness[0], witness[1], color) != 0:
        raise ValidationError("greedy peel produced a non-empty cut")
    return witness
