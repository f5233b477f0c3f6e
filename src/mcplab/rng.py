"""Counter-based SplitMix64 randomness.

All randomness in this package flows through one documented construction:
the i-th output of a SplitMix64 stream with seed ``s`` is

    value(s, i) = mix64((s + (i + 1) * GOLDEN) mod 2**64)

where ``mix64`` is the SplitMix64 finalizer.  Because each output depends
only on (seed, index), draws can be evaluated in any order (or vectorized)
while remaining identical to consuming the stream sequentially.

Derived seeds are chained stream values:

    derive_seed(base, p1, p2, ...) = value(...value(value(base, p1), p2)...)

which is the documented, stable mix used for per-trial seeds.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer (64-bit avalanche)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """The ``index``-th 64-bit output of the SplitMix64 stream for ``seed``."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def derive_seed(base: int, *parts: int) -> int:
    """Stable 64-bit mix of a base seed and any number of nonnegative indices."""
    s = base & MASK64
    for p in parts:
        s = stream_value(s, p)
    return s


# Typed constants so every numpy operand is uint64 (avoids int promotion).
_NP_GOLDEN = np.uint64(GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)
_NP_ONE = np.uint64(1)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _finalize_inplace(z: np.ndarray) -> np.ndarray:
    t = z >> _S30
    z ^= t
    z *= _NP_MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _NP_MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def stream_values_np(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized ``stream_value`` over a uint64 index array."""
    z = (indices.astype(np.uint64) + _NP_ONE) * _NP_GOLDEN
    z += np.uint64(seed & MASK64)
    return _finalize_inplace(z)


_WEYL_STRIDE2: np.ndarray | None = None


def stream_values_strided2(seed: int, start: int, count: int) -> np.ndarray:
    """Stream values at indices 2*start, 2*(start+1), ..., evaluated fast.

    Identical to ``stream_values_np(seed, 2 * arange(start, start+count))``;
    the Weyl increments for the stride-2 index pattern are cached because
    the sampler's inclusion scan is by far the hottest RNG path.  The cache
    holds the largest ``count`` asked for so far, which is the sampler's
    chunk, so it stays as small as the chunk.
    """
    global _WEYL_STRIDE2
    if _WEYL_STRIDE2 is None or _WEYL_STRIDE2.size < count:
        _WEYL_STRIDE2 = np.arange(count, dtype=np.uint64) * np.uint64(
            (2 * GOLDEN) & MASK64
        )
    base = (seed + (2 * start + 1) * GOLDEN) & MASK64
    z = _WEYL_STRIDE2[:count] + np.uint64(base)
    return _finalize_inplace(z)
