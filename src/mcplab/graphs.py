"""Colored bipartite graphs, matchings, and color profiles.

A graph has two sides A and B of equal size ``n`` (indices 0..n-1 on each
side) and a set of edges (a, b, color) with colors in 1..q.  Each (a, b)
pair carries at most one color.  Graphs are immutable after construction;
per-color adjacency on both sides is indexed up front because every
downstream algorithm queries it in inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadProfileSumError,
    ColorOutOfRangeError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidMatchingError,
    ParseError,
    UnmatchedVertexError,
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


@dataclass(frozen=True)
class ColorProfile:
    """Per-color edge counts of a matching; sums to n for a perfect matching."""

    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValidationError(f"negative profile count in {self.counts}")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @classmethod
    def corner(cls, q: int, color: int, n: int) -> "ColorProfile":
        """The monochromatic profile with all n edges in ``color``."""
        counts = [0] * q
        counts[color - 1] = n
        return cls(tuple(counts))


class ColoredBipartiteGraph:
    """Immutable n-by-n bipartite graph with one color per edge."""

    __slots__ = ("n", "q", "_color_of", "_adj_a", "_adj_b", "alphas", "__weakref__")

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

        color_of: dict[tuple[int, int], int] = {}
        adj_a: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(q)]
        adj_b: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(q)]
        for a, b, c in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise IndexOutOfRangeError(f"edge ({a}, {b}) out of range for n={n}")
            if not (1 <= c <= q):
                raise ColorOutOfRangeError(f"color {c} out of range for q={q}")
            if (a, b) in color_of:
                raise DuplicateEdgeError(a, b)
            color_of[(a, b)] = c
            adj_a[c - 1][a].append(b)
            adj_b[c - 1][b].append(a)
        self._color_of = color_of
        self._adj_a = tuple(
            tuple(tuple(sorted(nbrs)) for nbrs in per_color) for per_color in adj_a
        )
        self._adj_b = tuple(
            tuple(tuple(sorted(nbrs)) for nbrs in per_color) for per_color in adj_b
        )

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self._color_of)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (a, b, color), sorted by (a, b)."""
        for (a, b) in sorted(self._color_of):
            yield a, b, self._color_of[(a, b)]

    def color_of(self, a: int, b: int) -> int | None:
        """Color of edge (a, b), or None if absent."""
        return self._color_of.get((a, b))

    def has_edge(self, a: int, b: int) -> bool:
        return (a, b) in self._color_of

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
            and self._color_of == other._color_of
            and self.alphas == other.alphas
        )

    def __hash__(self):
        return hash((self.n, self.q, frozenset(self._color_of.items())))

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


def profile_of(g: ColoredBipartiteGraph, m: Matching) -> ColorProfile:
    """Per-color counts of the matched pairs of ``m`` in ``g``."""
    counts = [0] * g.q
    for a, b in m.pairs():
        c = g.color_of(a, b)
        if c is None:
            raise InvalidMatchingError(f"matched pair ({a}, {b}) is not an edge")
        counts[c - 1] += 1
    return ColorProfile(tuple(counts))


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


def matched_image(m: Matching, s: Iterable[int]) -> tuple[int, ...]:
    """M(S): partners of the A-vertices in S; every vertex must be matched."""
    out = []
    for a in s:
        b = m.assign[a]
        if b == UNMATCHED:
            raise UnmatchedVertexError(a)
        out.append(b)
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


def validate_profile_for(g: ColoredBipartiteGraph, profile: Sequence[int]) -> ColorProfile:
    """Check a target profile: length q, nonnegative, sums to n."""
    p = ColorProfile(tuple(profile))
    if len(p) != g.q:
        raise BadProfileSumError(f"profile has {len(p)} entries, graph has q={g.q}")
    if p.total != g.n:
        raise BadProfileSumError(f"profile sums to {p.total}, expected n={g.n}")
    return p
