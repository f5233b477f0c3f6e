"""Seeded Monte Carlo trials and sweeps with reproducible outputs.

A trial samples one graph at p = (log n + omega) / (alpha_min * n) and runs
the enabled checks; a sweep runs a grid of omega values times a trial
count.  Every trial derives its own seed from (base_seed, grid_index,
trial_index) through the documented mix in :mod:`mcplab.rng`, so trials are
order- and worker-independent: records come back in (grid, trial) index
order and the emitted files are byte-identical however the work was
scheduled.

Wall-clock timings are measured and kept on the records but excluded from
emitted files unless explicitly requested, because emission must be
deterministic.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import product, repeat

from .audit import isolated_color_vertices
from .errors import NoPerfectMatchingError, ValidationError
from .graphs import ColoredBipartiteGraph, ColorSpec, Matching, _check_profile
from .matching import monochromatic_perfect_matching
from .oracle import DP_LIMIT, Q_LIMIT, enumerate_mcp
from .recolor import achieve_profile
from .rng import derive_seed
from .sampling import SampleParams, sample_graph

CSV_HEADER = (
    "omega", "p", "trial", "seed", "check",
    "target_profile", "success", "steps", "retries", "ms",
)

_SUITE_SALT = 101
_WALK_SALT = 202


@dataclass(frozen=True)
class CheckFlags:
    per_color_pm: bool = True
    walk: bool = True
    isolated: bool = True
    mcp_exact: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    colors: ColorSpec
    omega_grid: tuple[float, ...]
    trials: int
    base_seed: int
    suite_kind: str = "corners"  # corners | random | explicit
    suite_count: int = 0
    suite_profiles: tuple[tuple[int, ...], ...] = ()
    checks: CheckFlags = field(default_factory=CheckFlags)
    workers: int = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not self.omega_grid:
            raise ValidationError("omega_grid must be nonempty")
        if any(not math.isfinite(w) for w in self.omega_grid):
            raise ValidationError("omega values must be finite")
        if self.suite_kind not in ("corners", "random", "explicit"):
            raise ValidationError(f"unknown profile suite {self.suite_kind!r}")
        if self.suite_kind == "random" and self.suite_count < 1:
            raise ValidationError("random profile suite needs a positive count")
        if self.suite_kind == "explicit":
            if not self.suite_profiles:
                raise ValidationError("explicit profile suite is empty")
            checked = tuple(
                _check_profile(self.n, self.colors.q, prof) for prof in self.suite_profiles
            )
            object.__setattr__(self, "suite_profiles", checked)
        if self.checks.mcp_exact and (self.n > DP_LIMIT or self.colors.q > Q_LIMIT):
            raise ValidationError(
                f"mcp_exact check requires n <= {DP_LIMIT} and q <= {Q_LIMIT}, "
                f"got n={self.n}, q={self.colors.q}"
            )
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def grid_p(self, grid_index: int) -> float:
        """Edge probability at one grid point, clamped into [0, 1].

        The sweep grids deliberately include omega values deep enough below
        the threshold that the raw formula leaves [0, 1]; those points run
        against the degenerate (edgeless / complete) graph.
        """
        omega = self.omega_grid[grid_index]
        p = (math.log(self.n) + omega) / (self.colors.alpha_min * self.n)
        return min(1.0, max(0.0, p))

    def trial_seed(self, grid_index: int, trial_index: int) -> int:
        return derive_seed(self.base_seed, grid_index, trial_index)


@dataclass(frozen=True)
class WalkCheckRow:
    profile: tuple[int, ...]
    success: bool
    steps: int
    retries: int
    ms: float


@dataclass(frozen=True)
class TrialRecord:
    grid_index: int
    trial_index: int
    omega: float
    p: float
    derived_seed: int
    pm_success: tuple[bool, ...] | None
    isolated_counts: tuple[tuple[int, int], ...] | None
    walks: tuple[WalkCheckRow, ...] | None
    mcp_profiles: tuple[tuple[int, ...], ...] | None
    mcp_walk_agreement: bool | None
    elapsed_ms: float


def _corner(q: int, color: int, n: int) -> tuple[int, ...]:
    """The monochromatic profile with all n edges in ``color``."""
    return tuple(n if c == color else 0 for c in range(1, q + 1))


def profile_suite(config: ExperimentConfig, trial_seed: int) -> tuple[tuple[int, ...], ...]:
    """The walk targets for one trial: all q corners plus the configured extras.

    Random extras are drawn per trial from the derived seed (uniform over
    the lattice simplex via the stars-and-bars bijection).
    """
    n, q = config.n, config.colors.q
    suite: list[tuple[int, ...]] = [_corner(q, i, n) for i in range(1, q + 1)]
    if config.suite_kind == "explicit":
        suite.extend(config.suite_profiles)
    elif config.suite_kind == "random":
        rng = random.Random(derive_seed(trial_seed, _SUITE_SALT))
        for _ in range(config.suite_count):
            bars = sorted(rng.sample(range(1, n + q), q - 1))
            prev = 0
            parts = []
            for c in bars:
                parts.append(c - prev - 1)
                prev = c
            parts.append(n + q - 1 - prev)
            suite.append(tuple(parts))
    return tuple(dict.fromkeys(suite))


def _monochromatic_start(
    g: ColoredBipartiteGraph,
    color: int,
    isolated: tuple[tuple[int, ...], tuple[int, ...]],
) -> Matching | NoPerfectMatchingError:
    """The color's perfect matching, or the error carrying a Hall witness.

    ``isolated`` holds the color's isolated (A-side, B-side) vertices.  Either
    side decides the color without Hopcroft-Karp: isolated A-vertices have
    no neighbours, and an isolated B-vertex leaves |N(A)| <= n - 1.
    """
    a_side, b_side = isolated
    if a_side:
        return NoPerfectMatchingError(color, a_side)
    if b_side:
        return NoPerfectMatchingError(color, tuple(range(g.n)))
    try:
        return monochromatic_perfect_matching(g, color)
    except NoPerfectMatchingError as exc:
        return exc.with_traceback(None)  # drop the search's frames


def run_trial(
    config: ExperimentConfig, grid_index: int, trial_index: int
) -> TrialRecord:
    """Sample one graph and run the enabled checks; failures are data."""
    t_start = time.perf_counter()
    omega = config.omega_grid[grid_index]
    p = config.grid_p(grid_index)
    seed = config.trial_seed(grid_index, trial_index)
    g = sample_graph(SampleParams(config.n, p, config.colors, seed))
    q = config.colors.q

    # Every check but mcp_exact reads every color (the walk suite holds all q
    # corners), so each color's isolated vertices are found once per trial,
    # and its Hopcroft-Karp runs at most once, only when none is isolated.
    sides = []
    if config.checks.per_color_pm or config.checks.walk or config.checks.isolated:
        sides = [isolated_color_vertices(g, i) for i in range(1, q + 1)]
    starts: list[Matching | NoPerfectMatchingError] = []
    if config.checks.per_color_pm or config.checks.walk:
        starts = [_monochromatic_start(g, i, iso) for i, iso in enumerate(sides, 1)]

    pm_success = None
    if config.checks.per_color_pm:
        pm_success = tuple(isinstance(s, Matching) for s in starts)

    isolated = None
    if config.checks.isolated:
        isolated = tuple((len(a_side), len(b_side)) for a_side, b_side in sides)

    walks = None
    if config.checks.walk:
        rows = []
        for k, prof in enumerate(profile_suite(config, seed)):
            best = max(prof)
            i_star = prof.index(best) + 1
            t0 = time.perf_counter()
            outcome = achieve_profile(
                g, prof, derive_seed(seed, _WALK_SALT, k), start=starts[i_star - 1]
            )
            ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                WalkCheckRow(
                    profile=prof,
                    success=outcome.ok,
                    steps=outcome.report.steps_succeeded,
                    retries=sum(outcome.report.retries),
                    ms=ms,
                )
            )
        walks = tuple(rows)

    mcp_profiles = None
    agreement = None
    if config.checks.mcp_exact:
        mcp = enumerate_mcp(g)
        mcp_profiles = tuple(sorted(mcp))
        if walks is not None:
            agreement = all(row.profile in mcp for row in walks if row.success)
        else:
            agreement = True

    return TrialRecord(
        grid_index=grid_index,
        trial_index=trial_index,
        omega=omega,
        p=p,
        derived_seed=seed,
        pm_success=pm_success,
        isolated_counts=isolated,
        walks=walks,
        mcp_profiles=mcp_profiles,
        mcp_walk_agreement=agreement,
        elapsed_ms=(time.perf_counter() - t_start) * 1000.0,
    )


def sweep(config: ExperimentConfig) -> list[TrialRecord]:
    """All (grid, trial) records, ordered by (grid_index, trial_index)."""
    for omega in config.omega_grid:
        if omega >= math.log(config.n):
            print(
                f"warning: omega={omega:g} >= log n={math.log(config.n):.4f} "
                "(outside the diverging-but-o(log n) regime)",
                file=sys.stderr,
            )
    grid_indices, trial_indices = zip(
        *product(range(len(config.omega_grid)), range(config.trials))
    )
    # Both maps return results in input order.  run_trial is read at call
    # time, so perfbench's tracer can rebind it.  The pool starts all of its
    # workers at the first submit, so it gets no more than there are trials.
    workers = min(config.workers, len(grid_indices))
    if workers == 1:
        return list(map(run_trial, repeat(config), grid_indices, trial_indices))
    # imported here, so that `import mcplab` does not pay for it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(run_trial, repeat(config), grid_indices, trial_indices, chunksize=1)
        )


# -- aggregation -------------------------------------------------------------


def _is_corner(profile: tuple[int, ...], n: int) -> bool:
    return max(profile) == n


def rarest_color(colors: ColorSpec) -> int:
    return colors.alphas.index(min(colors.alphas)) + 1


def summarize(records: list[TrialRecord], config: ExperimentConfig) -> list[dict]:
    """Per-grid-point aggregates, recomputable exactly from the records."""
    out = []
    rare = rarest_color(config.colors)
    for gi in sorted({r.grid_index for r in records}):
        group = [r for r in records if r.grid_index == gi]
        entry: dict = {
            "omega": group[0].omega,
            "p": group[0].p,
            "trials": len(group),
        }
        if all(r.pm_success is not None for r in group):
            entry["pm_all_colors_frac"] = sum(
                1 for r in group if all(r.pm_success)
            ) / len(group)
        if all(r.walks is not None for r in group):
            pairs = [row for r in group for row in r.walks]
            entry["walk_pair_frac"] = (
                sum(1 for row in pairs if row.success) / len(pairs) if pairs else 0.0
            )
            entry["walk_all_frac"] = sum(
                1 for r in group if all(row.success for row in r.walks)
            ) / len(group)
            entry["corners_all_frac"] = sum(
                1
                for r in group
                if all(
                    row.success
                    for row in r.walks
                    if _is_corner(row.profile, config.n)
                )
            ) / len(group)
            steps = [row.steps for r in group for row in r.walks if row.success]
            entry["mean_steps"] = sum(steps) / len(steps) if steps else 0.0
        if all(r.isolated_counts is not None for r in group):
            rare_counts = [sum(r.isolated_counts[rare - 1]) for r in group]
            entry["isolated_rarest_frac"] = sum(1 for c in rare_counts if c > 0) / len(group)
            entry["isolated_rarest_mean"] = sum(rare_counts) / len(group)
        out.append(entry)
    return out


def format_summary(summary: list[dict]) -> str:
    if not summary:
        return "(no records)"
    keys = ["omega", "p", "trials"] + sorted(
        {k for row in summary for k in row} - {"omega", "p", "trials"}
    )
    lines = ["  ".join(f"{k:>18}" for k in keys)]
    for row in summary:
        cells = []
        for k in keys:
            v = row.get(k, "")
            if isinstance(v, float):
                cells.append(f"{v:>18.6g}")
            else:
                cells.append(f"{v!s:>18}")
        lines.append("  ".join(cells))
    return "\n".join(lines)


# -- emission ----------------------------------------------------------------


def _profile_str(profile: tuple[int, ...]) -> str:
    return ";".join(str(c) for c in profile)


def record_rows(
    record: TrialRecord, config: ExperimentConfig, include_timings: bool = False
) -> list[dict]:
    """The deterministic per-check rows for one record, keyed by ``CSV_HEADER``.

    For the isolated check, ``steps`` carries the isolated-vertex count
    (both sides) and success means the color class has none.  The ``ms``
    column is zero unless timings were requested.
    """
    q, n = config.colors.q, config.n
    corners = [_profile_str(_corner(q, i, n)) for i in range(1, q + 1)]
    cells: list[tuple[str, str, bool, int, int, float]] = []
    if record.pm_success is not None:
        cells += [
            ("per_color_pm", c, ok, 0, 0, 0.0) for c, ok in zip(corners, record.pm_success)
        ]
    if record.walks is not None:
        cells += [
            ("walk", _profile_str(w.profile), w.success, w.steps, w.retries, w.ms)
            for w in record.walks
        ]
    if record.isolated_counts is not None:
        cells += [
            ("isolated", c, a + b == 0, a + b, 0, 0.0)
            for c, (a, b) in zip(corners, record.isolated_counts)
        ]
    if record.mcp_walk_agreement is not None:
        cells.append(
            ("mcp_exact", "", record.mcp_walk_agreement, len(record.mcp_profiles or ()), 0, 0.0)
        )
    head = (record.omega, record.p, record.trial_index, record.derived_seed)
    return [
        dict(zip(CSV_HEADER, (
            *head, check, target, int(success), steps, retries,
            ms if include_timings else 0.0,
        )))
        for check, target, success, steps, retries, ms in cells
    ]


def emit(
    records: list[TrialRecord],
    fmt: str,
    destination,
    config: ExperimentConfig,
    include_timings: bool = False,
) -> None:
    """Write records as CSV or JSON-lines to a text stream; byte-identical across reruns."""
    if not records:
        raise ValidationError("no records to emit")
    if fmt not in ("csv", "jsonl"):
        raise ValidationError(f"unsupported format {fmt!r}")
    rows = [
        row
        for record in records
        for row in record_rows(record, config, include_timings)
    ]
    if fmt == "csv":
        writer = csv.writer(destination, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            omega, p, *middle, ms = row.values()
            writer.writerow([repr(omega), repr(p), *middle, f"{ms:.3f}"])
    else:
        for row in rows:
            *cells, ms = row.values()
            out = dict(zip(CSV_HEADER, (*cells, round(ms, 3))))
            destination.write(json.dumps(out, separators=(",", ":")) + "\n")


# -- config files ------------------------------------------------------------
#
# Flat key = value lines; '#' starts a comment line.  omega entries accept
# plain numbers or "k*llog" meaning k * log log n.

_CONFIG_KEYS = (
    "n", "alpha", "omega_grid", "trials", "base_seed", "profile_suite", "checks", "workers",
)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise ValidationError(f"config line {line_no}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def parse_omega(token: str, n: int) -> float:
    tok = token.strip()
    scale = 1.0
    if tok.endswith("llog"):
        if n < 2:
            raise ValidationError(f"k*llog needs n >= 2 for log log n, got n={n}")
        tok = tok[: -len("llog")].rstrip("*").strip()
        tok = {"": "1", "+": "1", "-": "-1"}.get(tok, tok)
        scale = math.log(math.log(n))
    try:
        return float(tok) * scale
    except ValueError:
        raise ValidationError(f"bad omega {token!r}: expected a number or k*llog") from None


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}; expected {list(_CONFIG_KEYS)}")
    try:
        n = int(raw["n"])
        alphas = tuple(float(t) for t in raw["alpha"].split(","))
        trials = int(raw.get("trials", "1"))
        base_seed = int(raw.get("base_seed", "1"))
        grid = tuple(
            parse_omega(tok, n)
            for tok in raw.get("omega_grid", "0").split(",")
            if tok.strip()
        )
        suite_kind, suite_count, suite_profiles = parse_suite(
            raw.get("profile_suite", "corners")
        )
        workers = int(raw.get("workers", "1"))
    except KeyError as exc:
        raise ValidationError(f"config missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ValidationError(f"bad config value: {exc}") from None
    colors = ColorSpec(len(alphas), alphas)
    checks = parse_checks(raw["checks"]) if "checks" in raw else CheckFlags()
    return ExperimentConfig(
        n=n,
        colors=colors,
        omega_grid=grid,
        trials=trials,
        base_seed=base_seed,
        suite_kind=suite_kind,
        suite_count=suite_count,
        suite_profiles=suite_profiles,
        checks=checks,
        workers=workers,
    )


def parse_suite(spec: str) -> tuple[str, int, tuple[tuple[int, ...], ...]]:
    spec = spec.strip()
    if spec == "corners":
        return "corners", 0, ()
    if spec.startswith("random:"):
        return "random", int(spec.split(":", 1)[1]), ()
    if spec.startswith("explicit:"):
        body = spec.split(":", 1)[1]
        profiles = tuple(
            tuple(int(t) for t in chunk.split(",")) for chunk in body.split(";") if chunk
        )
        return "explicit", 0, profiles
    raise ValidationError(f"unknown profile suite {spec!r}")


def parse_checks(spec: str) -> CheckFlags:
    """The checks named in a comma list on; every other ``CheckFlags`` field off."""
    names = {t.strip() for t in spec.split(",") if t.strip()}
    known = [f.name for f in fields(CheckFlags)]
    unknown = names - set(known)
    if unknown:
        raise ValidationError(f"unknown checks: {sorted(unknown)}")
    return CheckFlags(**{name: name in names for name in known})
