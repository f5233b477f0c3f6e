"""Recolor a perfect matching one profile step at a time.

The engine finds an alternating cycle that trades exactly one matching edge
of a source color for one edge of a target color: an even cycle alternating
non-matching/matching edges in which every edge carries the source color
except a single non-matching edge of the target color.  Applying the
symmetric difference yields another perfect matching whose profile moved by
(-1, +1) between the two colors.

Search: anchors are matching edges of the source color, tried in seeded
random order with a bounded budget.  From an anchor (a0, b0) two alternating
BFS trees grow over the source-color subgraph, forward from a0 (A-side) and
backward from b0 (B-side); any target-color edge joining the forward tree's
A-side to the backward tree's B-side closes a cycle through (a0, b0).  The
search runs over the whole graph (no core restriction): discarding vertices
only ever removes reachable cycles.

Walk state: ``_WalkState`` is the one place where a perfect matching becomes
mutable arrays (``assign``, ``inverse``, each A-vertex's matched color, and
the source-color anchors in increasing order); its constructor checks the
matching once.  Its one ``step`` draws anchors one at a time until the first
cycle, re-verifies that cycle and toggles it in place, so besides the search
a step does O(cycle length + anchors drawn until the first cycle)
Python-level work.  ``achieve_profile`` steps one state for the whole
walk and builds one ``Matching`` at the end.  A corner target takes no
step, so its walk builds no state: it checks the start's profile once.  The
public step functions, ``find_recoloring_cycle`` and ``apply_cycle``, take
and return immutable ``Matching``s, so each call costs O(n) by design.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    InvalidCycleError,
    LabError,
    NoPerfectMatchingError,
    NoSourceEdgesError,
    ValidationError,
)
from .graphs import (
    ColoredBipartiteGraph,
    Matching,
    color_neighborhood,
    profile_of,
    validate_profile_for,
)
from .matching import monochromatic_perfect_matching
from .rng import stream_value

ANCHOR_BUDGET = 64


@dataclass(frozen=True)
class AlternatingCycle:
    """Even alternating cycle with one off-color non-matching edge.

    ``(a_seq[j], b_seq[j])`` are the non-matching edges and
    ``(b_seq[j], a_seq[j+1])`` (cyclically) the matching edges.  The
    non-matching edge at ``special_index`` carries ``to_color``; every other
    cycle edge carries ``from_color``.
    """

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]
    special_index: int
    from_color: int
    to_color: int

    def __len__(self) -> int:
        return len(self.a_seq)


def _cycle_violation(
    g: ColoredBipartiteGraph, assign: Sequence[int], cycle: AlternatingCycle
) -> str | None:
    """None if the cycle satisfies every invariant, else the violated clause.

    An edge has one color, so finding b in a's row of the wanted color
    decides the edge's color; ``color_of`` runs only to word a failure.
    """
    a_seq, b_seq = cycle.a_seq, cycle.b_seq
    from_color, n = cycle.from_color, g.n
    ell = len(a_seq)
    if ell < 1 or len(b_seq) != ell:
        return f"length: |a_seq|={ell}, |b_seq|={len(b_seq)}"
    if not (0 <= cycle.special_index < ell):
        return f"special_index {cycle.special_index} out of range"
    if len(set(a_seq)) != ell or len(set(b_seq)) != ell:
        return "simplicity: repeated vertex"

    # a color out of range has no edges
    src_rows, tgt_rows = (
        g._adj_a[c - 1] if 1 <= c <= g.q else ((),) * n for c in (from_color, cycle.to_color)
    )
    for j in range(ell):
        a, b = a_seq[j], b_seq[j]
        special = j == cycle.special_index
        want = cycle.to_color if special else from_color
        if not (0 <= a < n and b in (tgt_rows if special else src_rows)[a]):
            c = g.color_of(a, b)
            if c is None:
                return f"non-matching edge ({a}, {b}) absent from graph"
            if assign[a] == b:
                return f"edge ({a}, {b}) is a matching edge"
            return f"non-matching edge ({a}, {b}) has color {c}, expected {want}"
        if assign[a] == b:
            return f"edge ({a}, {b}) is a matching edge"
        # the matching edge into a; a is known to be in range from here on
        b_prev = b_seq[j - 1]
        if assign[a] != b_prev:
            return f"({b_prev}, {a}) is not a matching edge"
        if b_prev not in src_rows[a]:
            mc = g.color_of(a, b_prev)
            return f"matching edge ({a}, {b_prev}) has color {mc}, expected {from_color}"
    return None


def apply_cycle(
    g: ColoredBipartiteGraph, m: Matching, cycle: AlternatingCycle
) -> Matching:
    """Symmetric difference of the matching with a fully valid recoloring cycle.

    Takes and returns an immutable ``Matching``, so each call costs O(n).
    """
    if len(m.assign) != g.n:
        raise InvalidCycleError(f"matching has {len(m.assign)} A-vertices, graph has {g.n}")
    clause = _cycle_violation(g, m.assign, cycle)
    if clause is not None:
        raise InvalidCycleError(clause)
    assign = list(m.assign)
    for a, b in zip(cycle.a_seq, cycle.b_seq):
        assign[a] = b
    return Matching(tuple(assign))


def _splice(
    a: int,
    b: int,
    parent_a: dict[int, int | None],
    parent_b: dict[int, int | None],
    assign: Sequence[int],
    inverse: Sequence[int],
    from_color: int,
    to_color: int,
) -> AlternatingCycle | None:
    """Join tree paths and the anchor edge into a cycle; None if not simple.

    A tree vertex was reached through its own matching edge, so the vertex
    between it and its parent is its matching partner.
    """
    b_chain = [b]
    a_chain_b: list[int] = []
    cur = b
    while (prev_b := parent_b[cur]) is not None:
        a_chain_b.append(inverse[cur])
        b_chain.append(prev_b)
        cur = prev_b
    a_chain_f = [a]
    b_chain_f: list[int] = []
    cur = a
    while (prev_a := parent_a[cur]) is not None:
        b_chain_f.append(assign[cur])
        a_chain_f.append(prev_a)
        cur = prev_a
    a_fwd = a_chain_f[::-1]  # anchor a0 ... a
    b_fwd = b_chain_f[::-1]
    a_seq = [a] + a_chain_b + a_fwd[:-1]
    b_seq = [b] + b_chain[1:] + b_fwd
    if len(set(a_seq)) != len(a_seq) or len(set(b_seq)) != len(b_seq):
        return None
    return AlternatingCycle(tuple(a_seq), tuple(b_seq), 0, from_color, to_color)


def _search_from_anchor(
    g: ColoredBipartiteGraph,
    assign: Sequence[int],
    inverse: Sequence[int],
    from_color: int,
    to_color: int,
    a0: int,
    match_colors: list[int],
) -> AlternatingCycle | None:
    """The first cycle through the anchor (a0, assign[a0]), or None.

    Both trees grow one layer at a time.  At each layer the A-side crossing
    scan runs first, over the new A-vertices in the order they joined, then
    the B-side scan; the first crossing edge whose splice is simple wins.
    The B side of a layer is expanded before the A side, so each A-vertex is
    scanned as it joins its tree, against a complete B tree: the order of
    the scans, and so the cycle found, is that of scanning whole layers,
    while the rest of the A layer is never built.
    """
    b0 = assign[a0]
    adj_src_a = g._adj_a[from_color - 1]
    adj_src_b = g._adj_b[from_color - 1]
    adj_tgt_a = g._adj_a[to_color - 1]
    adj_tgt_b = g._adj_b[to_color - 1]

    # Each tree vertex maps to the previous vertex on its side (None at the root).
    parent_a: dict[int, int | None] = {a0: None}
    parent_b: dict[int, int | None] = {b0: None}
    keys_a, keys_b = parent_a.keys(), parent_b.keys()
    # a0's own scan finds nothing: (a0, b0) carries the source color only.
    new_a, new_b = [a0], [b0]
    tried: set[tuple[int, int]] = set()

    # A row with no vertex in the other tree holds no crossing, so skipping
    # it keeps the first hit the same.  A vertex's own matching edge leads
    # back into its own tree, so the ``in parent_*`` tests also reject it
    # as a step.
    while new_a or new_b:
        for b in new_b:
            row = adj_tgt_b[b]
            if keys_a.isdisjoint(row):
                continue
            for a in row:
                if a in parent_a and (a, b) not in tried:
                    tried.add((a, b))
                    cyc = _splice(a, b, parent_a, parent_b, assign, inverse, from_color, to_color)
                    if cyc is not None:
                        return cyc

        next_b: list[int] = []
        for b in new_b:
            for a in adj_src_b[b]:
                if match_colors[a] != from_color:
                    continue
                b2 = assign[a]
                if b2 in parent_b:
                    continue
                parent_b[b2] = b
                next_b.append(b2)
        next_a: list[int] = []
        for a in new_a:
            for b in adj_src_a[a]:
                a2 = inverse[b]
                # b's own matching edge must carry the source color
                if a2 in parent_a or match_colors[a2] != from_color:
                    continue
                parent_a[a2] = a
                next_a.append(a2)
                row = adj_tgt_a[a2]
                if keys_b.isdisjoint(row):
                    continue
                for b2 in row:
                    if b2 in parent_b and (a2, b2) not in tried:
                        tried.add((a2, b2))
                        cyc = _splice(
                            a2, b2, parent_a, parent_b, assign, inverse, from_color, to_color
                        )
                        if cyc is not None:
                            return cyc
        new_a, new_b = next_a, next_b
    return None


def _anchor_draws(rng: random.Random, anchors: Sequence[int]) -> Iterator[int]:
    """Yield ``rng.sample(anchors, k)``'s items one at a time.

    k = min(len(anchors), ANCHOR_BUDGET).  The order is CPython 3.11's
    ``sample``, replayed with the public ``rng.getrandbits`` the way its
    ``_randbelow_with_getrandbits`` draws, on both of its paths: a pool of
    moved slots when the population fits a k-item set's table, a set of
    drawn indices above that.  A caller that stops early draws no more.
    The golden and mixed-start digests pin this order, which no longer
    depends on the installed Python's ``sample``.
    """
    n = len(anchors)
    k = min(n, ANCHOR_BUDGET)
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        moved: dict[int, int] = {}  # pool slot -> population index now in it
        for size in range(n, n - k, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            yield anchors[moved.get(j, j)]
            moved[j] = moved.get(size - 1, size - 1)
    else:
        bits = n.bit_length()
        selected: set[int] = set()
        for _ in range(k):
            j = getrandbits(bits)
            while j >= n or j in selected:
                j = getrandbits(bits)
            selected.add(j)
            yield anchors[j]


class _WalkState:
    """A perfect matching as mutable arrays, for steps out of one source color.

    ``colors[a]`` is A-vertex a's matched color and ``anchors`` the A-vertices
    matched in the source color, in increasing order.
    """

    def __init__(self, g: ColoredBipartiteGraph, m: Matching, source: int):
        if len(m.assign) != g.n or not m.is_perfect:
            raise ValidationError(f"matching must be perfect on {g.n} A-vertices")
        source_rows = g._adj_a[source - 1]
        colors = []
        for a, b in enumerate(m.assign):
            c = source if b in source_rows[a] else g.color_of(a, b)
            if c is None:
                raise ValidationError(f"matched pair ({a}, {b}) is not an edge")
            colors.append(c)
        self.g, self.source, self.colors = g, source, colors
        self.assign, self.inverse = list(m.assign), list(m.inverse)
        self.anchors = [a for a in range(g.n) if colors[a] == source]

    def step(self, to_color: int, seed: int) -> tuple[AlternatingCycle | None, int]:
        """Find a source -> to_color cycle and toggle it in place.

        The seeded draw from the anchors fixes which are tried, in order,
        until one closes a cycle.  Returns (cycle or None, anchors tried).
        """
        g, assign, inverse = self.g, self.assign, self.inverse
        colors, anchors, source = self.colors, self.anchors, self.source
        tried = 0
        for a0 in _anchor_draws(random.Random(seed), anchors):
            tried += 1
            cyc = _search_from_anchor(g, assign, inverse, source, to_color, a0, colors)
            if cyc is not None:
                clause = _cycle_violation(g, assign, cyc)  # re-verify, never trust the search
                if clause is not None:
                    raise InvalidCycleError(f"search produced a bad cycle: {clause}")
                for a, b in zip(cyc.a_seq, cyc.b_seq):
                    assign[a] = b
                    inverse[b] = a
                # exactly one A-vertex (the special edge's endpoint) leaves the source color
                a = cyc.a_seq[cyc.special_index]
                colors[a] = to_color
                del anchors[bisect_left(anchors, a)]
                return cyc, tried
        return None, tried

    def matching(self) -> Matching:
        return Matching(tuple(self.assign))


def find_recoloring_cycle(
    g: ColoredBipartiteGraph,
    m: Matching,
    from_color: int,
    to_color: int,
    rng_seed: int = 0,
) -> AlternatingCycle | None:
    """A recoloring cycle for from_color -> to_color, or None if none found.

    Takes an immutable ``Matching`` and rederives the walk state from it,
    so each call costs O(n) before the search starts.
    """
    if from_color == to_color:
        raise ValidationError("from_color and to_color must differ")
    g._check_color(from_color)
    g._check_color(to_color)
    state = _WalkState(g, m, from_color)
    if not state.anchors:
        raise NoSourceEdgesError(f"matching has no edge of color {from_color}")
    return state.step(to_color, rng_seed)[0]


@dataclass(frozen=True)
class WalkReport:
    steps_attempted: int
    steps_succeeded: int
    cycle_lengths: tuple[int, ...]
    retries: tuple[int, ...]
    ms_per_step: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "steps_attempted": self.steps_attempted,
            "steps_succeeded": self.steps_succeeded,
            "cycle_lengths": list(self.cycle_lengths),
            "retries": list(self.retries),
            "ms_per_step": [round(ms, 3) for ms in self.ms_per_step],
        }


@dataclass(frozen=True)
class WalkFailure:
    stage: str  # "no_monochromatic_start" | "step_exhausted"
    color: int
    profile_reached: tuple[int, ...] | None = None


@dataclass(frozen=True)
class WalkOutcome:
    matching: Matching | None
    failure: WalkFailure | None
    report: WalkReport

    @property
    def ok(self) -> bool:
        return self.matching is not None


def achieve_profile(
    g: ColoredBipartiteGraph,
    target: tuple[int, ...],
    seed: int = 0,
    start: Matching | NoPerfectMatchingError | None = None,
) -> WalkOutcome:
    """Walk from a monochromatic perfect matching to the target profile.

    The dominant color i* = argmax(target) (lowest index on ties) supplies
    the start; for each other color j in increasing index we run target[j]
    recoloring steps i* -> j.  On success the result's profile equals the
    target exactly, after exactly n - max(target) steps.

    ``start`` may supply a known perfect matching monochromatic in i*, or
    the ``NoPerfectMatchingError`` that showed there is none, to skip
    recomputing it; either is validated before use.
    """
    target = validate_profile_for(g, target)
    q, n = g.q, g.n
    best = max(target)
    i_star = target.index(best) + 1

    cycle_lengths: list[int] = []
    retries: list[int] = []
    ms_per_step: list[float] = []
    attempted = 0

    def report() -> WalkReport:
        return WalkReport(
            attempted, len(cycle_lengths), tuple(cycle_lengths),
            tuple(retries), tuple(ms_per_step),
        )

    if isinstance(start, NoPerfectMatchingError):
        if start.color != i_star:
            raise ValidationError(
                f"start error is for color {start.color}, not {i_star}"
            )
        if len(color_neighborhood(g, start.witness, i_star)) >= len(start.witness):
            raise ValidationError("start error's witness is not deficient")
        return WalkOutcome(
            None, WalkFailure("no_monochromatic_start", i_star), report()
        )
    if start is None:
        try:
            start = monochromatic_perfect_matching(g, i_star)
        except NoPerfectMatchingError:
            return WalkOutcome(
                None, WalkFailure("no_monochromatic_start", i_star), report()
            )
    if best == n:  # a corner target takes no step: checking the start is the walk
        wrong = f"start matching is not monochromatic in color {i_star}"
        try:
            monochromatic = profile_of(g, start) == target
        except ValidationError as exc:  # a non-edge pair, or not n A-vertices
            raise ValidationError(f"{wrong}: {exc}") from None
        if not monochromatic:
            raise ValidationError(wrong)
        return WalkOutcome(start, None, report())
    state = _WalkState(g, start, i_star)
    if len(state.anchors) != n:
        raise ValidationError(f"start matching is not monochromatic in color {i_star}")

    for j in range(1, q + 1):
        if j == i_star:
            continue
        for _ in range(target[j - 1]):
            t0 = time.perf_counter()
            cyc, tried = state.step(j, stream_value(seed, attempted))
            ms_per_step.append((time.perf_counter() - t0) * 1000.0)
            attempted += 1
            retries.append(tried - 1)
            if cyc is None:
                reached = profile_of(g, state.matching())
                return WalkOutcome(
                    None, WalkFailure("step_exhausted", j, reached), report()
                )
            cycle_lengths.append(len(cyc))
    m = state.matching()
    final = profile_of(g, m)
    if final != target:
        raise LabError(f"walk bookkeeping drifted: {final} != {target}")
    return WalkOutcome(m, None, report())
