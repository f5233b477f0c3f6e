"""The benchmark's workloads, each one fixed mcplab sweep configuration.

A run is a fixed piece of work: the trial count follows from ``--seconds``
through a rate calibrated once on the reference machine (see README.md),
never from a clock, so every run of a workload and seed does exactly the
same trials.  ``--seed`` shifts the base seed of the acceptance-test config
the workload is modelled on; seed 0 is that config's own base seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mcplab import CheckFlags, ColorSpec, ExperimentConfig


def llog(n: int) -> float:
    return math.log(math.log(n))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    colors: ColorSpec
    omega_grid: tuple[float, ...]
    base_seed: int
    suite: str  # "corners" or "random:K"
    checks: CheckFlags
    # Trials per second of --seconds; measured on the reference machine at
    # the commit that added the benchmark, so that one run lasts about
    # --seconds there.  A faster program finishes the same work sooner.
    trials_per_s: float

    def trials_per_point(self, seconds: int) -> int:
        return max(1, round(seconds * self.trials_per_s / len(self.omega_grid)))

    def config(self, seed: int, seconds: int) -> ExperimentConfig:
        kind, _, count = self.suite.partition(":")
        return ExperimentConfig(
            n=self.n,
            colors=self.colors,
            omega_grid=self.omega_grid,
            trials=self.trials_per_point(seconds),
            base_seed=self.base_seed + seed,
            suite_kind=kind,
            suite_count=int(count or 0),
            checks=self.checks,
            workers=1,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance criterion 4: the recoloring walk is ~95% of trial time.
        Workload(
            name="walk_above",
            n=1000,
            colors=ColorSpec(3, (0.5, 0.25, 0.25)),
            omega_grid=(3 * llog(1000),),
            base_seed=20260810,
            suite="random:10",
            checks=CheckFlags(per_color_pm=True, walk=True, isolated=True),
            trials_per_s=1.15,
        ),
        # Acceptance criterion 6: corner walks at q = 2 take no steps, so
        # sampling, graph building, Hopcroft-Karp and the audit dominate.
        Workload(
            name="threshold_grid",
            n=1000,
            colors=ColorSpec.uniform(2),
            omega_grid=tuple(k * llog(1000) for k in (-6, -3, 0, 3, 6)),
            base_seed=424242,
            suite="corners",
            checks=CheckFlags(per_color_pm=True, walk=True, isolated=True),
            trials_per_s=50.0,
        ),
        # Subset-DP oracle at the largest n a trial affords; p ~ 0.89 leaves
        # some color classes without a perfect matching, so walks both
        # succeed and stop at the start.
        Workload(
            name="exact_small",
            n=14,
            colors=ColorSpec.uniform(3),
            omega_grid=(1.5,),
            base_seed=1414,
            suite="random:10",
            checks=CheckFlags(per_color_pm=True, walk=True, isolated=True, mcp_exact=True),
            trials_per_s=2.0,
        ),
    )
}
