"""Colored bipartite graphs, matchings, and color profiles.

A graph has two sides A and B of equal size ``n`` (indices 0..n-1 on each
side) and a set of edges (a, b, color) with colors in 1..q.  Each (a, b)
pair carries at most one color.  Graphs are immutable after construction.
Sorted per-color adjacency rows on both sides, which every algorithm reads
in inner loops, are the one store of edges; ``color_of`` scans a's q rows.

A color profile (m_1, ..., m_q) is a plain ``tuple[int, ...]``: m_i counts
the matching's color-i edges.  A profile from outside is checked in one
place, ``_check_profile``, through ``validate_profile_for`` or the config.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadProfileSumError,
    ColorOutOfRangeError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidMatchingError,
    ParseError,
    ValidationError,
)

UNMATCHED = -1

ALPHA_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ColorSpec:
    """Number of colors and their sampling probabilities.

    Invariants: q >= 1, every alpha strictly positive, alphas sum to 1
    within ALPHA_SUM_TOL.
    """

    q: int
    alphas: tuple[float, ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValidationError(f"q must be >= 1, got {self.q}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) != self.q:
            raise ValidationError(
                f"expected {self.q} alphas, got {len(self.alphas)}"
            )
        if not all(a > 0.0 for a in self.alphas):  # also rejects NaN
            raise ValidationError("every alpha must be strictly positive")
        if not abs(math.fsum(self.alphas) - 1.0) <= ALPHA_SUM_TOL:
            raise ValidationError(
                f"alphas must sum to 1 (got {math.fsum(self.alphas)!r})"
            )

    @property
    def alpha_min(self) -> float:
        return min(self.alphas)

    @classmethod
    def uniform(cls, q: int) -> "ColorSpec":
        return cls(q, tuple(1.0 / q for _ in range(q)))


def _edge_array(edges: Iterable[tuple[int, int, int]]) -> np.ndarray:
    """Edges as an (E, 3) int64 array; anything else raises ValidationError."""
    try:
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"edges must be (a, b, color) integer triples: {exc}") from None
    if arr.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.dtype.kind not in "iu":
        raise ValidationError(
            f"edges must be (a, b, color) integer triples, got {arr.dtype} of shape {arr.shape}"
        )
    return arr.astype(np.int64, copy=False)


def _split_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Per-row tuples of ``cols`` for ``rows`` sorted ascending (ties in order)."""
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    vals = cols.tolist()
    return tuple(tuple(vals[bounds[i]:bounds[i + 1]]) for i in range(n))


class ColoredBipartiteGraph:
    """Immutable n-by-n bipartite graph with one color per edge.

    ``edges`` is any (E, 3) collection of integer (a, b, color) rows: an
    iterable of triples or an ndarray.  Range and duplicate checks run in
    numpy and raise for the first failing edge in input order.  The rows
    ``_adj_a[c - 1][a]`` and ``_adj_b[c - 1][b]`` are the only edge store;
    each color's B-side rows come from one sort of the unique keys b*n + a.
    """

    __slots__ = ("n", "q", "edge_count", "_adj_a", "_adj_b", "alphas", "__weakref__")

    def __init__(
        self,
        n: int,
        q: int,
        edges: Iterable[tuple[int, int, int]],
        alphas: tuple[float, ...] | None = None,
    ):
        if n < 0:
            raise ValidationError(f"n must be nonnegative, got {n}")
        if q < 1:
            raise ValidationError(f"q must be >= 1, got {q}")
        self.n = n
        self.q = q
        self.alphas = tuple(alphas) if alphas is not None else None
        if self.alphas is not None and len(self.alphas) != q:
            raise ValidationError("alphas length must equal q")

        arr = _edge_array(edges)
        a, b, c = arr[:, 0], arr[:, 1], arr[:, 2]
        bad = (a < 0) | (a >= n) | (b < 0) | (b >= n) | (c < 1) | (c > q)
        first_bad = int(np.argmax(bad)) if bad.any() else len(arr)
        # Duplicates among the edges before the first out-of-range one, so the
        # error raised is that of the first failing edge in input order.
        key = a[:first_bad] * n + b[:first_bad]
        order = np.argsort(key, kind="stable")
        repeats = order[1:][np.diff(key[order]) == 0]
        if repeats.size:
            first_dup = int(repeats.min())
            raise DuplicateEdgeError(int(a[first_dup]), int(b[first_dup]))
        if first_bad < len(arr):
            ea, eb, ec = (int(x) for x in arr[first_bad])
            if not (0 <= ea < n and 0 <= eb < n):
                raise IndexOutOfRangeError(f"edge ({ea}, {eb}) out of range for n={n}")
            raise ColorOutOfRangeError(f"color {ec} out of range for q={q}")

        a, b, c = a[order], b[order], c[order]
        self.edge_count = len(arr)
        adj_a, adj_b = [], []
        for color in range(1, q + 1):
            mask = c == color
            ca, cb = a[mask], b[mask]
            adj_a.append(_split_rows(n, ca, cb))
            by_b = np.sort(cb * n + ca)
            adj_b.append(_split_rows(n, by_b // n, by_b % n))
        self._adj_a = tuple(adj_a)
        self._adj_b = tuple(adj_b)

    # -- queries ---------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (a, b, color), sorted by (a, b)."""
        for a in range(self.n):
            yield from sorted((a, b, c) for c, rows in enumerate(self._adj_a, 1) for b in rows[a])

    def color_of(self, a: int, b: int) -> int | None:
        """Color of edge (a, b), or None if absent; scans a's q rows."""
        if 0 <= a < self.n:
            c = 0
            for rows in self._adj_a:
                c += 1
                if b in rows[a]:
                    return c
        return None

    def has_edge(self, a: int, b: int) -> bool:
        return self.color_of(a, b) is not None

    def neighbors_a(self, a: int, color: int) -> tuple[int, ...]:
        """B-side neighbors of A-vertex ``a`` through edges of ``color``."""
        self._check_color(color)
        return self._adj_a[color - 1][a]

    def neighbors_b(self, b: int, color: int) -> tuple[int, ...]:
        """A-side neighbors of B-vertex ``b`` through edges of ``color``."""
        self._check_color(color)
        return self._adj_b[color - 1][b]

    def _check_color(self, color: int) -> None:
        if not (1 <= color <= self.q):
            raise ColorOutOfRangeError(f"color {color} out of range for q={self.q}")

    def _check_side(self, indices: Iterable[int]) -> None:
        for v in indices:
            if not (0 <= v < self.n):
                raise IndexOutOfRangeError(f"vertex index {v} out of range for n={self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredBipartiteGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.q == other.q
            and self._adj_a == other._adj_a
            and self.alphas == other.alphas
        )

    def __hash__(self):
        return hash((self.n, self.q, self._adj_a))

    def __repr__(self) -> str:
        return (
            f"ColoredBipartiteGraph(n={self.n}, q={self.q}, "
            f"edges={self.edge_count})"
        )


@dataclass(frozen=True)
class Matching:
    """Injective partial map A -> B; ``assign[a]`` is a's partner or UNMATCHED."""

    assign: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "assign", tuple(int(b) for b in self.assign))
        n = len(self.assign)
        used = set()
        for a, b in enumerate(self.assign):
            if b == UNMATCHED:
                continue
            if not (0 <= b < n):
                raise InvalidMatchingError(f"partner {b} of A-vertex {a} out of range")
            if b in used:
                raise InvalidMatchingError(f"B-vertex {b} used twice")
            used.add(b)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Matching":
        assign = [UNMATCHED] * n
        for a, b in pairs:
            if not (0 <= a < n):
                raise InvalidMatchingError(f"A-vertex {a} out of range")
            if assign[a] != UNMATCHED:
                raise InvalidMatchingError(f"A-vertex {a} matched twice")
            assign[a] = b
        return cls(tuple(assign))

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """``inverse[b]`` is b's partner in A, or UNMATCHED."""
        inv = [UNMATCHED] * len(self.assign)
        for a, b in enumerate(self.assign):
            if b != UNMATCHED:
                inv[b] = a
        return tuple(inv)

    @property
    def size(self) -> int:
        return sum(1 for b in self.assign if b != UNMATCHED)

    @property
    def is_perfect(self) -> bool:
        return all(b != UNMATCHED for b in self.assign)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a, b in enumerate(self.assign):
            if b != UNMATCHED:
                yield a, b


# -- operations ------------------------------------------------------------


def build_graph(
    n: int,
    q: int,
    edge_list: Iterable[tuple[int, int, int]],
    alphas: Sequence[float] | None = None,
) -> ColoredBipartiteGraph:
    """Construct a graph, rejecting duplicates and out-of-range entries."""
    return ColoredBipartiteGraph(
        n, q, edge_list, tuple(alphas) if alphas is not None else None
    )


def profile_of(g: ColoredBipartiteGraph, m: Matching) -> tuple[int, ...]:
    """Per-color counts of the matched pairs of ``m`` in ``g``."""
    if len(m.assign) != g.n:
        raise InvalidMatchingError(f"matching has length {len(m.assign)}, graph has n={g.n}")
    counts = [0] * g.q
    for a, b in m.pairs():
        c = g.color_of(a, b)
        if c is None:
            raise InvalidMatchingError(f"matched pair ({a}, {b}) is not an edge")
        counts[c - 1] += 1
    return tuple(counts)


def color_neighborhood(
    g: ColoredBipartiteGraph, s: Iterable[int], color: int
) -> tuple[int, ...]:
    """N_color(S): B-vertices adjacent to S through edges of ``color``, sorted."""
    s = tuple(s)
    g._check_side(s)
    out: set[int] = set()
    for a in s:
        out.update(g.neighbors_a(a, color))
    return tuple(sorted(out))


def color_cut_count(
    g: ColoredBipartiteGraph, s: Iterable[int], t: Iterable[int], color: int
) -> int:
    """Number of color-``color`` edges between S (A-side) and T (B-side)."""
    s = tuple(s)
    tset = set(t)
    g._check_side(s)
    g._check_side(tset)
    total = 0
    for a in s:
        for b in g.neighbors_a(a, color):
            if b in tset:
                total += 1
    return total


# -- serialization -----------------------------------------------------------
#
# Line-oriented UTF-8 text; lines whose first non-blank character is '#'
# are comments.  Layout:
#     n q
#     alpha_1 ... alpha_q     (optional; present when the graph was sampled)
#     a b c                   (one edge per line, emitted sorted by (a, b))
# Before the first edge, a line of exactly q tokens is the alpha line unless
# it is three integer tokens (an edge when q = 3); so for q = 1 the line "1"
# is the alpha line.  Alphas must satisfy the ColorSpec invariants.


def serialize_graph(g: ColoredBipartiteGraph) -> str:
    lines = [f"{g.n} {g.q}"]
    if g.alphas is not None:
        lines.append(" ".join(repr(a) for a in g.alphas))
    for a, b, c in g.edges():
        lines.append(f"{a} {b} {c}")
    return "\n".join(lines) + "\n"


def _is_int_token(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


def parse_graph(text: str) -> ColoredBipartiteGraph:
    header: tuple[int, int] | None = None
    alphas: tuple[float, ...] | None = None
    edges: list[tuple[int, int, int]] = []
    saw_edge = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ParseError(line_no, f"expected header 'n q', got {line!r}")
            try:
                n, q = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer header {line!r}") from None
            header = (n, q)
            continue
        if (
            alphas is None
            and not saw_edge
            and len(tokens) == header[1]
            and not (len(tokens) == 3 and all(_is_int_token(t) for t in tokens))
        ):
            try:
                alphas = ColorSpec(header[1], tuple(float(t) for t in tokens)).alphas
            except ValueError as exc:
                raise ParseError(line_no, f"bad alpha line {line!r}: {exc}") from None
            continue
        if len(tokens) != 3:
            raise ParseError(line_no, f"expected edge 'a b c', got {line!r}")
        try:
            a, b, c = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError:
            raise ParseError(line_no, f"non-integer edge line {line!r}") from None
        edges.append((a, b, c))
        saw_edge = True
    if header is None:
        raise ParseError(0, "empty graph file")
    return build_graph(header[0], header[1], edges, alphas)


def validate_profile_for(g: ColoredBipartiteGraph, profile: Sequence[int]) -> tuple[int, ...]:
    """A target profile from outside as a tuple of ints: nonnegative, length q, sums to n."""
    return _check_profile(g.n, g.q, profile)


def _check_profile(n: int, q: int, profile: Sequence[int]) -> tuple[int, ...]:
    """The profile checks for an n-vertex, q-color setting, with or without a graph."""
    try:
        p = tuple(operator.index(c) for c in profile)
    except TypeError:
        raise ValidationError(f"profile counts must be integers, got {tuple(profile)}") from None
    if any(c < 0 for c in p):
        raise ValidationError(f"negative profile count in {p}")
    if len(p) != q:
        raise BadProfileSumError(f"profile has {len(p)} entries, graph has q={q}")
    if sum(p) != n:
        raise BadProfileSumError(f"profile sums to {sum(p)}, expected n={n}")
    return p
