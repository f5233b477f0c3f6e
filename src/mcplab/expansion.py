"""Diagnostic reconstruction of the restricted layered expansion.

The solver searches the whole alternating subgraph; this module instead
rebuilds the restricted construction used to reason about why the search
succeeds, so experiments can measure it on sampled graphs:

* split one side's matched vertices into a well-behaved *core* by removing
  low-degree vertices, vertices with too many edges into the removed part,
  and a greedily grown *crowded* set;
* grow BFS layers X_0 = {anchor}, X_{i+1} = partners of N(X_i) inside the
  core, recording sizes, the per-layer growth test, and the first layer to
  reach the stop size.

All thresholds come from :class:`ExpansionConstants`; the defaults encode
the asymptotic formulas, which are wildly non-binding at desk scale, so
every comparison here is report-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import DomainError, ValidationError
from .graphs import ColoredBipartiteGraph, Matching
from .matching import verify_matching


@dataclass(frozen=True)
class ExpansionConstants:
    """Thresholds for the restricted-expansion diagnostics.

    removal_coeff bounds (as a multiple of n/log n) the size of the sets
    discarded before the walk; removal_coeff + 2 bounds the whole non-core
    part.  overlap_cap caps adjacency into discarded images; degree_cutoff
    is the minimum in-class degree of a well-connected vertex;
    growth_factor and stop_size govern the layer run.
    """

    removal_coeff: float
    overlap_cap: float
    degree_cutoff: float
    growth_factor: float
    stop_size: float

    def __post_init__(self):
        for name in (
            "removal_coeff", "overlap_cap", "degree_cutoff", "growth_factor",
            "stop_size",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be strictly positive")


def default_constants(n: int, q: int, alpha_min: float) -> ExpansionConstants:
    """Evaluate the default threshold formulas at (n, q, alpha_min).

    Natural logarithms throughout; requires n >= 3 so that log log n is
    defined and positive.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3 for log log n > 0, got {n}")
    if q < 1:
        raise ValidationError(f"q must be >= 1, got {q}")
    if not (0.0 < alpha_min <= 1.0):
        raise ValidationError(f"alpha_min must be in (0, 1], got {alpha_min}")
    log_n = math.log(n)
    return ExpansionConstants(
        removal_coeff=10.0 * math.log(math.e * q),
        overlap_cap=10.0 * log_n / math.log(log_n),
        degree_cutoff=log_n / (10.0 * q),
        growth_factor=log_n / (25.0 * q),
        stop_size=alpha_min**2 * n / (5000.0 * q**2),
    )


@dataclass(frozen=True)
class CoreFilter:
    """One side's well-behaved subset and the sets removed on the way."""

    members: tuple[int, ...]          # matched vertices of the traced color
    high_degree: tuple[int, ...]      # in-class degree >= degree_cutoff
    bounded_overlap: tuple[int, ...]  # <= overlap_cap edges into removed image
    crowded: tuple[int, ...]          # greedily grown congested set
    core: tuple[int, ...]             # members minus crowded
    rounds: int                       # greedy additions performed

    @property
    def core_fraction(self) -> float | None:
        if not self.members:
            return None
        return len(self.core) / len(self.members)


@dataclass(frozen=True)
class LayerRun:
    anchor: int | None
    anchor_in_core: bool
    layer_sizes: tuple[int, ...]
    growth_met: tuple[bool, ...]
    stop_layer: int | None
    cumulative_size: int


@dataclass(frozen=True)
class ExpansionTrace:
    color: int
    constants: ExpansionConstants
    a_side: CoreFilter
    b_side: CoreFilter
    forward: LayerRun
    backward: LayerRun
    core_fraction_bound: float
    min_core_adjacency_same: int | None
    min_core_adjacency_color2: int | None
    core_adjacency_bound: float

    @property
    def core_fraction_ok(self) -> bool | None:
        frac = self.a_side.core_fraction
        if frac is None:
            return None
        return frac >= self.core_fraction_bound


def _core_filter(
    members: list[int],
    partner: dict[int, int],
    neighbors,
    back_neighbors,
    consts: ExpansionConstants,
) -> CoreFilter:
    """Compute the well-behaved subset of one side.

    ``members`` are the side's matched vertices for the traced color,
    ``partner[v]`` the matched partner, ``neighbors(v)`` the same-color
    adjacency (other side) and ``back_neighbors(t)`` that of an other-side
    vertex t.  The crowded set starts as the members in neither
    ``high_degree`` nor ``bounded_overlap`` and grows to its closure: a
    member joins once it has >= overlap_cap neighbours among the partners
    of the crowded set.
    """
    member_set = set(members)
    partner_of_members = {partner[v] for v in members}

    high_degree = [
        v
        for v in members
        if sum(1 for u in neighbors(v) if u in partner_of_members)
        >= consts.degree_cutoff
    ]
    high_set = set(high_degree)
    removed_image = {partner[v] for v in members if v not in high_set}
    bounded = [
        v
        for v in members
        if sum(1 for u in neighbors(v) if u in removed_image) <= consts.overlap_cap
    ]
    bounded_set = set(bounded)

    crowded = set(v for v in members if v not in bounded_set and v not in high_set)
    crowded_image = {partner[v] for v in crowded}
    # count[v] = adjacency into the crowded image; grows monotonically.
    count = {
        v: sum(1 for u in neighbors(v) if u in crowded_image)
        for v in members
        if v not in crowded
    }
    heap = [v for v, c in sorted(count.items()) if c >= consts.overlap_cap]
    heapify(heap)
    rounds = 0
    while heap:
        v = heappop(heap)
        if v in crowded or count.get(v, 0) < consts.overlap_cap:
            continue
        crowded.add(v)
        rounds += 1
        for u in back_neighbors(partner[v]):
            if u in member_set and u not in crowded:
                count[u] = count.get(u, 0) + 1
                if count[u] >= consts.overlap_cap:
                    heappush(heap, u)
    core = [v for v in members if v not in crowded]
    return CoreFilter(
        members=tuple(members),
        high_degree=tuple(high_degree),
        bounded_overlap=tuple(bounded),
        crowded=tuple(sorted(crowded)),
        core=tuple(core),
        rounds=rounds,
    )


def _layer_run(
    anchor: int | None,
    core: set[int],
    fallback: set[int],
    neighbors,
    partner_back: dict[int, int],
    consts: ExpansionConstants,
) -> LayerRun:
    """Grow X_{i+1} = (partners of N(X_i)) \\ seen, restricted to the core.

    Falls back to the unrestricted run (within the side's matched set) when
    the anchor is outside the core.
    """
    if anchor is None:
        return LayerRun(None, False, (), (), None, 0)
    in_core = anchor in core
    restriction = core if in_core else fallback
    seen = {anchor}
    layer = [anchor]
    sizes = [1]
    growth: list[bool] = []
    stop_layer: int | None = 0 if 1 >= consts.stop_size else None
    while stop_layer is None:
        image: set[int] = set()
        for v in layer:
            for u in neighbors(v):
                w = partner_back.get(u)
                if w is not None and w in restriction and w not in seen:
                    image.add(w)
        if not image:
            break
        layer = sorted(image)
        seen.update(image)
        sizes.append(len(layer))
        growth.append(len(layer) >= consts.growth_factor * sizes[-2])
        if len(layer) >= consts.stop_size:
            stop_layer = len(sizes) - 1
    return LayerRun(
        anchor=anchor,
        anchor_in_core=in_core,
        layer_sizes=tuple(sizes),
        growth_met=tuple(growth),
        stop_layer=stop_layer,
        cumulative_size=len(seen),
    )


def expansion_trace(
    g: ColoredBipartiteGraph,
    m: Matching,
    color: int,
    constants: ExpansionConstants,
    anchor: int | None = None,
) -> ExpansionTrace:
    """Full restricted-expansion diagnostic for one color of one matching."""
    g._check_color(color)
    violation = verify_matching(g, m, require_perfect=True)
    if violation is not None:
        raise ValidationError(f"matching invalid: {violation}")

    a_members = [a for a, b in enumerate(m.assign) if g.color_of(a, b) == color]
    b_members = [m.assign[a] for a in a_members]
    b_members.sort()
    a_to_b = {a: m.assign[a] for a in a_members}
    b_to_a = {b: m.inverse[b] for b in b_members}

    def nbrs_a(a: int):
        return g.neighbors_a(a, color)

    def nbrs_b(b: int):
        return g.neighbors_b(b, color)

    a_filter = _core_filter(a_members, a_to_b, nbrs_a, nbrs_b, constants)
    b_filter = _core_filter(b_members, b_to_a, nbrs_b, nbrs_a, constants)

    if anchor is None:
        if a_filter.core:
            anchor = a_filter.core[0]
        elif a_members:
            anchor = a_members[0]
    elif anchor not in set(a_members):
        raise ValidationError(
            f"anchor {anchor} is not a color-{color} matched A-vertex"
        )

    forward = _layer_run(
        anchor,
        set(a_filter.core),
        set(a_members),
        nbrs_a,
        b_to_a,
        constants,
    )
    mirror_anchor = m.assign[anchor] if anchor is not None else None
    backward = _layer_run(
        mirror_anchor,
        set(b_filter.core),
        set(b_members),
        nbrs_b,
        a_to_b,
        constants,
    )

    core_image = {a_to_b[a] for a in a_filter.core}
    min_same: int | None = None
    min_c2: int | None = None
    for a in a_filter.core:
        same = sum(1 for b in g.neighbors_a(a, color) if b in core_image)
        min_same = same if min_same is None else min(min_same, same)
        if g.q >= 2:
            c2 = sum(1 for b in g.neighbors_a(a, 2) if b in core_image)
            min_c2 = c2 if min_c2 is None else min(min_c2, c2)

    log_n = math.log(g.n) if g.n >= 2 else float("nan")
    return ExpansionTrace(
        color=color,
        constants=constants,
        a_side=a_filter,
        b_side=b_filter,
        forward=forward,
        backward=backward,
        core_fraction_bound=1.0 - (constants.removal_coeff + 2.0) / log_n,
        min_core_adjacency_same=min_same,
        min_core_adjacency_color2=min_c2,
        core_adjacency_bound=constants.degree_cutoff - constants.overlap_cap,
    )
