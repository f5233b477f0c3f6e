"""Output checks computed apart from mcplab, run after the timed sweep.

Every check compares an output of the program with a computation written
here or with a property the method must have, never with stored output:

- ``seed``: trial seeds and edge probabilities from the documented
  SplitMix64 mix and threshold formula, in Python integers;
- ``edges``: a sample of edge slots of the trial's graph re-derived from
  the documented draw-order contract;
- ``per_color_pm``: perfect-matching existence per color against
  ``scipy.sparse.csgraph.maximum_bipartite_matching``;
- ``isolated``: isolated-vertex counts against numpy degree counts;
- ``walk_suite``: every trial's targets are valid profiles, corners first;
- ``walk_matching``: every walk matching is a bijection of graph edges whose
  color counts equal the target;
- ``walk_steps``: a successful walk takes exactly n - max(target) steps;
- ``walk_must_fail``: a walk fails when its dominant color has no perfect
  matching, and a corner walk fails when its color has an isolated vertex;
- ``mcp``: exact profile sets against a brute force for n <= 9, otherwise
  against the properties corner c in MCP <=> a color-c perfect matching
  exists, MCP empty <=> G has no perfect matching, and every successful
  walk target in MCP;
- ``emit``: the CSV has the documented header, one block of rows per trial,
  and a second ``emit`` is byte-identical.

Each failure is returned as ``(check name, message)``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from mcplab import SampleParams, sample_graph

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
CSV_COLUMNS = [
    "omega", "p", "trial", "seed", "check",
    "target_profile", "success", "steps", "retries", "ms",
]
BRUTE_FORCE_MAX_N = 9
SLOT_SAMPLE = 64

Failure = tuple[str, str]


def splitmix(seed: int, index: int) -> int:
    """The documented stream value: mix64(seed + (index + 1) * GOLDEN)."""
    z = (seed + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(base_seed: int, grid_index: int, trial_index: int) -> int:
    return splitmix(splitmix(base_seed & MASK64, grid_index), trial_index)


def edge_probability(n: int, omega: float, alpha_min: float) -> float:
    """(ln n + omega) / (alpha_min n), clamped into [0, 1]."""
    return min(1.0, max(0.0, (math.log(n) + omega) / (alpha_min * n)))


def slot_color(seed: int, n: int, p: float, alphas: tuple[float, ...], a: int, b: int) -> int:
    """Color of edge (a, b) under the draw-order contract, 0 when absent."""
    if p <= 0.0:
        return 0
    slot = a * n + b
    if p < 1.0 and splitmix(seed, 2 * slot) >= int(p * 2.0**64):
        return 0
    u = splitmix(seed, 2 * slot + 1) / 2**64
    cum = itertools.accumulate(alphas)
    return min(1 + sum(1 for c in cum if c <= u), len(alphas))


def profile_str(profile) -> str:
    return ";".join(str(c) for c in profile)


def corner(q: int, color: int, n: int) -> tuple[int, ...]:
    return tuple(n if i == color - 1 else 0 for i in range(q))


class GraphView:
    """The trial's graph as per-color CSR matrices built from its adjacency."""

    def __init__(self, g):
        self.n, self.q = g.n, g.q
        self.by_color = []
        for c in range(1, g.q + 1):
            rows = [g.neighbors_a(a, c) for a in range(g.n)]
            indptr = np.zeros(g.n + 1, dtype=np.int64)
            np.cumsum([len(r) for r in rows], out=indptr[1:])
            indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32,
                                  count=int(indptr[-1]))
            data = np.ones(indices.size, dtype=np.int8)
            self.by_color.append(csr_matrix((data, indices, indptr), shape=(g.n, g.n)))
        self._colors = None

    def has_pm(self, m: csr_matrix) -> bool:
        match = maximum_bipartite_matching(m, perm_type="column")
        return int(np.count_nonzero(match >= 0)) == self.n

    def color_pm(self) -> list[bool]:
        return [self.has_pm(m) for m in self.by_color]

    def any_pm(self) -> bool:
        return self.has_pm(sum(self.by_color[1:], self.by_color[0]))

    def isolated(self) -> list[tuple[int, int]]:
        out = []
        for m in self.by_color:
            deg_a = np.diff(m.indptr)
            deg_b = np.bincount(m.indices, minlength=self.n)
            out.append((int(np.count_nonzero(deg_a == 0)), int(np.count_nonzero(deg_b == 0))))
        return out

    def colors(self) -> np.ndarray:
        """Dense n x n matrix of edge colors, 0 where there is no edge."""
        if self._colors is None:
            mat = np.zeros((self.n, self.n), dtype=np.int8)
            for c, m in enumerate(self.by_color, start=1):
                rows = np.repeat(np.arange(self.n), np.diff(m.indptr))
                mat[rows, m.indices] = c
            self._colors = mat
        return self._colors


def brute_force_profiles(colors: np.ndarray, q: int) -> set[tuple[int, ...]]:
    """Profiles of all perfect matchings, by backtracking over A-vertices."""
    n = colors.shape[0]
    table = colors.tolist()
    out: set[tuple[int, ...]] = set()
    counts = [0] * q

    def place(a: int, used: int) -> None:
        if a == n:
            out.add(tuple(counts))
            return
        for b, c in enumerate(table[a]):
            if c and not used >> b & 1:
                counts[c - 1] += 1
                place(a + 1, used | 1 << b)
                counts[c - 1] -= 1

    place(0, 0)
    return out


def parse_csv(text: str) -> tuple[list[str], dict[tuple[str, str], list[list[str]]]]:
    """Header and rows grouped by (omega, trial), in order of appearance."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in reader:
        groups.setdefault((row[0], row[2]) if len(row) > 2 else ("", ""), []).append(row)
    return header, groups


def check_emit(config, records, first: str, second: str) -> list[Failure]:
    out: list[Failure] = []
    if first != second:
        out.append(("emit", "two emits of the same records differ"))
    header, groups = parse_csv(first)
    if header != CSV_COLUMNS:
        out.append(("emit", f"header {header}"))
    keys = [(repr(config.omega_grid[r.grid_index]), str(r.trial_index)) for r in records]
    if sorted(groups) != sorted(keys) or len(keys) != len(set(keys)):
        out.append(("emit", f"{len(groups)} row blocks for {len(keys)} trials"))
    for rows in groups.values():
        if any(len(row) != len(CSV_COLUMNS) or row[9] != "0.000" for row in rows):
            out.append(("emit", "row with wrong width or a nonzero ms column"))
            break
    return out


def check_trial(config, grid_index: int, trial_index: int, record, rows, walks, g) -> list[Failure]:
    """All per-trial checks; ``g`` is the graph the trial's seed produces.

    Every workload runs the per_color_pm, walk and isolated checks, so their
    rows are always expected.
    """
    out: list[Failure] = []
    n, q, alphas = config.n, config.colors.q, config.colors.alphas
    omega = config.omega_grid[grid_index]
    seed = trial_seed(config.base_seed, grid_index, trial_index)
    p = edge_probability(n, omega, min(alphas))

    got = (record.grid_index, record.trial_index, record.derived_seed, record.p, record.omega)
    if got != (grid_index, trial_index, seed, p, omega):
        out.append(("seed", f"record {got} != {(grid_index, trial_index, seed, p, omega)}"))
    lead = [repr(omega), repr(p), str(trial_index), str(seed)]
    if any(row[:4] != lead for row in rows):
        out.append(("seed", "CSV rows carry another omega, p, trial or seed"))

    rng = random.Random(seed)
    slots = [(rng.randrange(n), rng.randrange(n)) for _ in range(SLOT_SAMPLE)]
    present = []  # edges the graph has, to catch extra edges and wrong colors
    for a in rng.sample(range(n), min(n, SLOT_SAMPLE)):
        for c in range(1, q + 1):
            nbrs = g.neighbors_a(a, c)
            if nbrs:
                present.append((a, nbrs[rng.randrange(len(nbrs))]))
    for a, b in slots + present:
        want = slot_color(seed, n, p, alphas, a, b)
        if (g.color_of(a, b) or 0) != want:
            out.append(("edges", f"slot ({a}, {b}) has color {g.color_of(a, b)}, formula gives {want}"))
            break

    view = GraphView(g)
    pm = view.color_pm()
    iso = view.isolated()
    by_check: dict[str, list[list[str]]] = {}
    for row in rows:
        by_check.setdefault(row[4], []).append(row)

    want_pm = [[profile_str(corner(q, c, n)), str(int(pm[c - 1])), "0", "0"] for c in range(1, q + 1)]
    if [row[5:9] for row in by_check.get("per_color_pm", [])] != want_pm:
        out.append(("per_color_pm", f"rows disagree with scipy {pm}"))
    want_iso = [[profile_str(corner(q, c, n)), str(int(sum(iso[c - 1]) == 0)), str(sum(iso[c - 1])), "0"]
                for c in range(1, q + 1)]
    if [row[5:9] for row in by_check.get("isolated", [])] != want_iso or (
        record.isolated_counts is not None and list(record.isolated_counts) != iso
    ):
        out.append(("isolated", f"counts disagree with numpy degrees {iso}"))

    walk_rows = by_check.get("walk", [])
    targets = [w.target for w in walks]
    if [row[5:9] for row in walk_rows] != [
        [profile_str(w.target), str(int(w.ok)), str(w.steps), str(w.retries)] for w in walks
    ]:
        out.append(("walk_suite", "walk rows disagree with the walks run"))
    corners = [corner(q, c, n) for c in range(1, q + 1)]
    suite_max = q + (config.suite_count if config.suite_kind == "random" else len(config.suite_profiles))
    if (
        targets[:q] != corners
        or len(set(targets)) != len(targets)
        or len(targets) > suite_max
        or any(len(t) != q or min(t) < 0 or sum(t) != n for t in targets)
    ):
        out.append(("walk_suite", f"bad targets {targets}"))

    for w in walks:
        dominant = w.target.index(max(w.target)) + 1
        if not w.ok:
            stage = "step_exhausted" if pm[dominant - 1] else "no_monochromatic_start"
            if w.stage != stage:
                out.append(("walk_must_fail", f"walk to {w.target} failed at {w.stage}, expected {stage}"))
            continue
        if not pm[dominant - 1]:
            out.append(("walk_must_fail", f"walk to {w.target} succeeded without a color-{dominant} perfect matching"))
        if w.target in corners and sum(iso[dominant - 1]) > 0:
            out.append(("walk_must_fail", f"corner walk to {w.target} succeeded with isolated vertices"))
        if w.steps != n - max(w.target):
            out.append(("walk_steps", f"walk to {w.target} took {w.steps} steps"))
        assign = w.assign
        if assign is None or assign.shape != (n,) or not np.array_equal(np.sort(assign), np.arange(n)):
            out.append(("walk_matching", f"walk to {w.target} is not a bijection"))
            continue
        cols = view.colors()[np.arange(n), assign]
        if not cols.all():
            out.append(("walk_matching", f"walk to {w.target} uses a non-edge"))
        elif tuple(np.bincount(cols, minlength=q + 1)[1:].tolist()) != w.target:
            out.append(("walk_matching", f"walk to {w.target} has the wrong color counts"))

    if config.checks.mcp_exact:
        out.extend(check_mcp(record, by_check.get("mcp_exact", []), walks, view, pm))
    return out


def check_mcp(record, mcp_rows, walks, view: GraphView, pm: list[bool]) -> list[Failure]:
    out: list[Failure] = []
    n, q = view.n, view.q
    profiles = set(record.mcp_profiles or ())
    if any(len(t) != q or min(t) < 0 or sum(t) != n for t in profiles):
        out.append(("mcp", "profile set holds a non-profile"))
    if n <= BRUTE_FORCE_MAX_N:
        truth = brute_force_profiles(view.colors(), q)
        if profiles != truth:
            out.append(("mcp", f"{len(profiles)} profiles, brute force finds {len(truth)}"))
    for c in range(1, q + 1):
        if (corner(q, c, n) in profiles) != pm[c - 1]:
            out.append(("mcp", f"corner {c} membership disagrees with scipy"))
    if (not profiles) == view.any_pm():
        out.append(("mcp", "empty profile set disagrees with scipy on the whole graph"))
    if any(w.ok and w.target not in profiles for w in walks):
        out.append(("mcp", "a walk reached a target outside the profile set"))
    if [row[5:9] for row in mcp_rows] != [["", "1", str(len(profiles)), "0"]] or not record.mcp_walk_agreement:
        out.append(("mcp", "mcp_exact row disagrees with the profile set"))
    return out


def trial_keys(config) -> list[tuple[int, int]]:
    """(grid index, trial index) of every trial, in sweep order."""
    return [(gi, ti) for gi in range(len(config.omega_grid)) for ti in range(config.trials)]


def trial_inputs(config, records, text: str, captures: list):
    """Per trial: indices, record, CSV rows, walks and the graph its seed draws.

    ``captures`` are the sweep's walks in call order (``tracing.WalkCapture``).
    The graph is drawn again from the seed and edge probability computed
    here; the ``edges`` check then holds it to the formula.
    """
    _, groups = parse_csv(text)
    pos = 0
    for (gi, ti), record in zip(trial_keys(config), records):
        walks = captures[pos:pos + len(record.walks or ())]
        pos += len(walks)
        seed = trial_seed(config.base_seed, gi, ti)
        p = edge_probability(config.n, config.omega_grid[gi], config.colors.alpha_min)
        g = sample_graph(SampleParams(config.n, p, config.colors, seed))
        rows = groups.get((repr(config.omega_grid[gi]), str(ti)), [])
        yield gi, ti, record, rows, walks, g


def check_run(config, records, text: str, second: str, captures: list):
    """Run-level failures and per-trial failures keyed by (grid index, trial index)."""
    run = check_emit(config, records, text, second)
    if [(r.grid_index, r.trial_index) for r in records] != trial_keys(config):
        run.append(("emit", "records are not one per grid point and trial, in order"))
    if len(captures) != sum(len(r.walks or ()) for r in records):
        run.append(("walk_suite", f"{len(captures)} walks ran for the records' walk rows"))
    per_trial: dict[tuple[int, int], list[Failure]] = {}
    for gi, ti, record, rows, walks, g in trial_inputs(config, records, text, captures):
        failures = check_trial(config, gi, ti, record, rows, walks, g)
        if failures:
            per_trial[(gi, ti)] = failures
    return run, per_trial
