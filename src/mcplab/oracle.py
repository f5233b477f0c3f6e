"""Exact perfect-matching color-profile sets for small instances.

Ground truth for all solver testing.  ``enumerate_mcp`` returns the set of
profile tuples (m_1, ..., m_q).  It is a subset dynamic program
(n <= DP_LIMIT = 20, q <= Q_LIMIT = 4) that keeps one Python int per
mask of used B-vertices: bit sum_i m_i (n+1)^(i-1) of that int is set when
the partial profile (m_1, ..., m_{q-1}) is achievable.  An edge of color
c < q shifts the int by (n+1)^(c-1), color q shifts it by 0, and m_q is
implied by the popcount.  Each entry is freed once it has been read.
A factorial brute force over all bijections and a set-of-tuples DP, both in
``tests/_refs.py``, share no code with the bitset DP and are its independent
checks.  The limits are fixed.
"""

from __future__ import annotations

from .errors import InstanceTooLargeError
from .graphs import ColoredBipartiteGraph

DP_LIMIT = 20
Q_LIMIT = 4


def enumerate_mcp(g: ColoredBipartiteGraph) -> set[tuple[int, ...]]:
    """{profile_of(g, M) : M a perfect matching of g}, by bitset subset DP.

    ``dp[mask]`` describes the matchings of A-vertices 0..k-1 onto the
    B-vertices in ``mask`` (k is its popcount): bit sum_i m_i (n+1)^(i-1)
    is set when one of them has m_i edges of color i for i < q.  Since
    m_i <= n < n+1, the digits never carry.  Placing A-vertex k on B-vertex
    b through a color-c edge ORs ``dp[mask] << (n+1)^(c-1)`` into
    ``dp[mask | 1<<b]``, with shift 0 for c = q, whose count is k minus the
    others.  Masks are read in increasing order, which is valid because an
    edge always adds a bit, and each entry is zeroed once read so that its
    int is freed.  The set bits of the full mask decode, by divmod by n+1,
    into the profiles.
    """
    if g.n > DP_LIMIT:
        raise InstanceTooLargeError(f"n={g.n} exceeds limit {DP_LIMIT}")
    if g.q > Q_LIMIT:
        raise InstanceTooLargeError(f"q={g.q} exceeds limit {Q_LIMIT}")
    n, q = g.n, g.q
    shifts = [(n + 1) ** (c - 1) for c in range(1, q)] + [0]
    moves = [
        [(1 << b, shifts[c - 1]) for c in range(1, q + 1) for b in g.neighbors_a(a, c)]
        for a in range(n)
    ]
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    dp[0] = 1
    for mask in range(full):
        bits = dp[mask]
        if not bits:
            continue
        dp[mask] = 0
        for bit, shift in moves[mask.bit_count()]:
            if not mask & bit:
                dp[mask | bit] |= bits << shift
    out: set[tuple[int, ...]] = set()
    for index, digit in enumerate(reversed(bin(dp[full])[2:])):
        if digit == "1":
            prof = []
            for _ in range(q - 1):
                index, m = divmod(index, n + 1)
                prof.append(m)
            out.add((*prof, n - sum(prof)))
    return out
