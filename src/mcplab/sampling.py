"""Seeded sampling of randomly colored random bipartite graphs.

Draw-order contract: draws are the outputs of the counter-based SplitMix64
stream in :mod:`mcplab.rng`.  Edge (a, b) owns two consecutive stream slots,

    inclusion draw  -> index 2*(a*n + b)
    color draw      -> index 2*(a*n + b) + 1

so Bernoulli inclusion draws proceed row-major over (a, b) with a outer,
and the color draw for an included edge sits immediately after its
inclusion draw.  Because the stream is counter-based, evaluating slots in
vectorized batches yields bit-identical results to consuming them one at a
time, which keeps fixtures stable while allowing numpy evaluation.

An edge is included when value < floor(p * 2**64); the color is the
inverse-CDF index of value/2**64 over the alphas in index order.

The inclusion scan runs in chunks of 2**16 slots, so each uint64
temporary (512 KB) stays in cache; larger chunks spill and scan slower.
The kept edges' colors are then drawn in one batch per graph.  Batching
changes only how the counter-based draws are grouped, never their values,
so the sampled edges depend on neither the chunk size nor the batches.
The kept edges reach ``ColoredBipartiteGraph`` as one (E, 3) int64 array
in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfUnitIntervalError, ValidationError
from .graphs import ColoredBipartiteGraph, ColorSpec
from .rng import stream_values_np, stream_values_strided2

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SampleParams:
    """One graph draw: side size, edge probability, colors, seed."""

    n: int
    p: float
    colors: ColorSpec
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not (0.0 <= self.p <= 1.0):
            raise ValidationError(f"p must be in [0, 1], got {self.p}")


def threshold_p(n: int, omega: float, alpha_min: float) -> float:
    """(ln n + omega) / (alpha_min * n); errors if the value leaves [0, 1]."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if not (0.0 < alpha_min <= 1.0):
        raise ValidationError(f"alpha_min must be in (0, 1], got {alpha_min}")
    p = (math.log(n) + omega) / (alpha_min * n)
    if not (0.0 <= p <= 1.0):
        raise OutOfUnitIntervalError(p)
    return p


def sample_graph(params: SampleParams) -> ColoredBipartiteGraph:
    """Draw G_{n,n,p} with independent edge colors; determined by the seed."""
    n, p, seed = params.n, params.p, params.seed
    q = params.colors.q

    if p <= 0.0:
        return ColoredBipartiteGraph(n, q, [], params.colors.alphas)

    cum = np.cumsum(np.asarray(params.colors.alphas, dtype=np.float64))
    total = n * n
    if p >= 1.0:
        ids = np.arange(total, dtype=np.int64)
    else:
        threshold = np.uint64(int(p * 2.0**64))
        ids = np.concatenate([
            np.flatnonzero(
                stream_values_strided2(seed, start, min(_CHUNK, total - start)) < threshold
            ) + start
            for start in range(0, total, _CHUNK)
        ])
    u = stream_values_np(seed, ids * 2 + 1).astype(np.float64) * 2.0**-64
    colors = np.minimum(np.searchsorted(cum, u, side="right"), q - 1) + 1
    edges = np.column_stack((ids // n, ids % n, colors))
    return ColoredBipartiteGraph(n, q, edges, params.colors.alphas)
