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
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .errors import (
    InvalidCycleError,
    LabError,
    NoPerfectMatchingError,
    NoSourceEdgesError,
    ValidationError,
)
from .graphs import (
    ColoredBipartiteGraph,
    ColorProfile,
    Matching,
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


def validate_cycle(
    g: ColoredBipartiteGraph, m: Matching, cycle: AlternatingCycle
) -> str | None:
    """Return None if the cycle satisfies every invariant, else the violated clause."""
    a_seq, b_seq = cycle.a_seq, cycle.b_seq
    ell = len(a_seq)
    if ell < 1 or len(b_seq) != ell:
        return f"length: |a_seq|={ell}, |b_seq|={len(b_seq)}"
    if not (0 <= cycle.special_index < ell):
        return f"special_index {cycle.special_index} out of range"
    if len(set(a_seq)) != ell or len(set(b_seq)) != ell:
        return "simplicity: repeated vertex"
    for j in range(ell):
        a, b = a_seq[j], b_seq[j]
        c = g.color_of(a, b)
        if c is None:
            return f"non-matching edge ({a}, {b}) absent from graph"
        if m.assign[a] == b:
            return f"edge ({a}, {b}) is a matching edge"
        want = cycle.to_color if j == cycle.special_index else cycle.from_color
        if c != want:
            return f"non-matching edge ({a}, {b}) has color {c}, expected {want}"
        # the matching edge into a; a is known to be in range from here on
        b_prev = b_seq[j - 1]
        if m.assign[a] != b_prev:
            return f"({b_prev}, {a}) is not a matching edge"
        mc = g.color_of(a, b_prev)
        if mc != cycle.from_color:
            return f"matching edge ({a}, {b_prev}) has color {mc}, expected {cycle.from_color}"
    return None


def _toggled(m: Matching, cycle: AlternatingCycle) -> Matching:
    assign = list(m.assign)
    for a, b in zip(cycle.a_seq, cycle.b_seq):
        assign[a] = b
    return Matching(tuple(assign))


def apply_cycle(
    g: ColoredBipartiteGraph, m: Matching, cycle: AlternatingCycle
) -> Matching:
    """Symmetric difference of the matching with a fully valid recoloring cycle."""
    clause = validate_cycle(g, m, cycle)
    if clause is not None:
        raise InvalidCycleError(clause)
    return _toggled(m, cycle)


def _matching_colors(g: ColoredBipartiteGraph, m: Matching) -> list[int]:
    cols = []
    for a, b in enumerate(m.assign):
        c = g.color_of(a, b)
        if c is None:
            raise ValidationError(f"matched pair ({a}, {b}) is not an edge")
        cols.append(c)
    return cols


def _splice(
    a: int,
    b: int,
    parent_a: dict[int, tuple[int, int] | None],
    parent_b: dict[int, tuple[int, int] | None],
    from_color: int,
    to_color: int,
) -> AlternatingCycle | None:
    """Join tree paths and the anchor edge into a cycle; None if not simple."""
    b_chain = [b]
    a_chain_b: list[int] = []
    cur = b
    while parent_b[cur] is not None:
        a_via, prev_b = parent_b[cur]
        a_chain_b.append(a_via)
        b_chain.append(prev_b)
        cur = prev_b
    a_chain_f = [a]
    b_chain_f: list[int] = []
    cur = a
    while parent_a[cur] is not None:
        b_via, prev_a = parent_a[cur]
        b_chain_f.append(b_via)
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
    m: Matching,
    from_color: int,
    to_color: int,
    a0: int,
    match_colors: list[int],
) -> AlternatingCycle | None:
    assign = m.assign
    inverse = m.inverse
    b0 = assign[a0]
    adj_src_a = g._adj_a[from_color - 1]
    adj_src_b = g._adj_b[from_color - 1]
    adj_tgt_a = g._adj_a[to_color - 1]
    adj_tgt_b = g._adj_b[to_color - 1]

    parent_a: dict[int, tuple[int, int] | None] = {a0: None}
    parent_b: dict[int, tuple[int, int] | None] = {b0: None}
    new_a, new_b = [a0], [b0]
    tried: set[tuple[int, int]] = set()

    while new_a or new_b:
        # Crossing scan over the vertices added in the last layer.
        for a in new_a:
            for b in adj_tgt_a[a]:
                if b in parent_b and (a, b) not in tried:
                    tried.add((a, b))
                    cyc = _splice(a, b, parent_a, parent_b, from_color, to_color)
                    if cyc is not None:
                        return cyc
        for b in new_b:
            for a in adj_tgt_b[b]:
                if a in parent_a and (a, b) not in tried:
                    tried.add((a, b))
                    cyc = _splice(a, b, parent_a, parent_b, from_color, to_color)
                    if cyc is not None:
                        return cyc

        next_a: list[int] = []
        for a in new_a:
            for b in adj_src_a[a]:
                if b == assign[a]:
                    continue  # the matching edge is not a forward step
                a2 = inverse[b]
                # b's own matching edge must carry the source color
                if match_colors[a2] != from_color or a2 in parent_a:
                    continue
                parent_a[a2] = (b, a)
                next_a.append(a2)
        next_b: list[int] = []
        for b in new_b:
            for a in adj_src_b[b]:
                if a == inverse[b]:
                    continue
                if match_colors[a] != from_color:
                    continue
                b2 = assign[a]
                if b2 in parent_b:
                    continue
                parent_b[b2] = (a, b)
                next_b.append(b2)
        new_a, new_b = next_a, next_b
    return None


def _find_cycle(
    g: ColoredBipartiteGraph,
    m: Matching,
    from_color: int,
    to_color: int,
    rng_seed: int,
    match_colors: list[int] | None = None,
) -> tuple[AlternatingCycle | None, int]:
    """Core search; returns (cycle or None, anchors tried)."""
    if from_color == to_color:
        raise ValidationError("from_color and to_color must differ")
    g._check_color(from_color)
    g._check_color(to_color)
    if not m.is_perfect:
        raise ValidationError("matching must be perfect")
    if match_colors is None:
        match_colors = _matching_colors(g, m)
    anchors = [a for a in range(g.n) if match_colors[a] == from_color]
    if not anchors:
        raise NoSourceEdgesError(
            f"matching has no edge of color {from_color}"
        )
    rng = random.Random(rng_seed)
    budget = min(len(anchors), ANCHOR_BUDGET)
    order = rng.sample(anchors, budget)
    for tried, a0 in enumerate(order, start=1):
        cyc = _search_from_anchor(g, m, from_color, to_color, a0, match_colors)
        if cyc is not None:
            clause = validate_cycle(g, m, cyc)  # re-verify, never trust the search
            if clause is not None:
                raise InvalidCycleError(f"search produced a bad cycle: {clause}")
            return cyc, tried
    return None, len(order)


def find_recoloring_cycle(
    g: ColoredBipartiteGraph,
    m: Matching,
    from_color: int,
    to_color: int,
    rng_seed: int = 0,
) -> AlternatingCycle | None:
    """A recoloring cycle for from_color -> to_color, or None if none found."""
    cyc, _ = _find_cycle(g, m, from_color, to_color, rng_seed)
    return cyc


def recolor_step(
    g: ColoredBipartiteGraph,
    m: Matching,
    from_color: int,
    to_color: int,
    seed: int = 0,
) -> tuple[Matching, AlternatingCycle] | None:
    """Find and apply one recoloring cycle; None when the search fails."""
    cyc, _ = _find_cycle(g, m, from_color, to_color, seed)
    if cyc is None:
        return None
    return _toggled(m, cyc), cyc


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
    target: ColorProfile | tuple[int, ...],
    seed: int = 0,
    start: Matching | None = None,
) -> WalkOutcome:
    """Walk from a monochromatic perfect matching to the target profile.

    The dominant color i* = argmax(target) (lowest index on ties) supplies
    the start; for each other color j in increasing index we run target[j]
    recoloring steps i* -> j.  On success the result's profile equals the
    target exactly, after exactly n - max(target) steps.

    ``start`` may supply a known perfect matching monochromatic in i* to
    skip recomputing it; it is validated before use.
    """
    target = validate_profile_for(g, tuple(target))
    q, n = g.q, g.n
    best = max(target.counts)
    i_star = target.counts.index(best) + 1

    cycle_lengths: list[int] = []
    retries: list[int] = []
    ms_per_step: list[float] = []
    attempted = 0

    def report() -> WalkReport:
        return WalkReport(
            attempted, len(cycle_lengths), tuple(cycle_lengths),
            tuple(retries), tuple(ms_per_step),
        )

    if start is not None:
        if not start.is_perfect:
            raise ValidationError("start matching must be perfect")
        if profile_of(g, start) != ColorProfile.corner(q, i_star, n):
            raise ValidationError(
                f"start matching is not monochromatic in color {i_star}"
            )
        m = start
    else:
        try:
            m = monochromatic_perfect_matching(g, i_star)
        except NoPerfectMatchingError:
            return WalkOutcome(
                None, WalkFailure("no_monochromatic_start", i_star), report()
            )

    counts = [0] * q
    counts[i_star - 1] = n
    match_colors = [i_star] * n
    step_index = 0
    for j in range(1, q + 1):
        if j == i_star:
            continue
        for _ in range(target.counts[j - 1]):
            attempted += 1
            t0 = time.perf_counter()
            cyc, tried = _find_cycle(
                g, m, i_star, j, stream_value(seed, step_index), match_colors
            )
            step_index += 1
            if cyc is None:
                ms_per_step.append((time.perf_counter() - t0) * 1000.0)
                retries.append(tried - 1)
                return WalkOutcome(
                    None,
                    WalkFailure("step_exhausted", j, tuple(counts)),
                    report(),
                )
            m = _toggled(m, cyc)  # _find_cycle validated cyc against m
            # exactly one A-vertex (the special edge's endpoint) leaves color i*
            match_colors[cyc.a_seq[cyc.special_index]] = j
            counts[i_star - 1] -= 1
            counts[j - 1] += 1
            cycle_lengths.append(len(cyc))
            retries.append(tried - 1)
            ms_per_step.append((time.perf_counter() - t0) * 1000.0)

    final = profile_of(g, m)
    if final != target:
        raise LabError(f"walk bookkeeping drifted: {final} != {target}")
    return WalkOutcome(m, None, report())
