"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (brute force, double loops) and kept
separate from the package so the paths under test are checked against code
that shares nothing with them.
"""

from itertools import combinations, permutations

from mcplab.errors import InstanceTooLargeError

NAIVE_LIMIT = 9


def brute_max_matching_size(g, colors) -> int:
    """Maximum matching size by recursion over A-vertices with a B-bitmask."""
    colors = set(colors)
    adj = []
    for a in range(g.n):
        nbrs = []
        for c in colors:
            nbrs.extend(g.neighbors_a(a, c))
        adj.append(sorted(nbrs))

    best = 0
    n = g.n

    def rec(a: int, used: int, size: int):
        nonlocal best
        if size + (n - a) <= best:
            return
        if a == n:
            best = max(best, size)
            return
        rec(a + 1, used, size)
        for b in adj[a]:
            bit = 1 << b
            if not used & bit:
                rec(a + 1, used | bit, size + 1)

    rec(0, 0, 0)
    return best


def mcp_set_dp(g) -> set:
    """MCP(g) by a subset DP that keeps a set of profile tuples per mask.

    State: a mask of used B-vertices (its popcount k means A-vertices
    0..k-1 are placed) mapped to the set of achievable partial profiles.
    Profiles are stored as (q-1)-tuples; the last coordinate is implied by
    the popcount.  Processing masks in increasing numeric order is valid
    because adding a bit always increases the mask.
    """
    n, q = g.n, g.q
    edges_by_vertex = []
    for a in range(n):
        edges = [(b, c) for c in range(1, q + 1) for b in g.neighbors_a(a, c)]
        edges_by_vertex.append(sorted(edges))
    empty = (0,) * (q - 1)
    dp = {0: {empty}}
    for mask in range(1 << n):
        profiles = dp.get(mask)
        if not profiles:
            continue
        k = mask.bit_count()
        if k == n:
            continue
        for b, c in edges_by_vertex[k]:
            bit = 1 << b
            if mask & bit:
                continue
            bucket = dp.setdefault(mask | bit, set())
            if c == q:
                bucket.update(profiles)
            else:
                i = c - 1
                for prof in profiles:
                    bucket.add(prof[:i] + (prof[i] + 1,) + prof[i + 1 :])
    final = dp.get((1 << n) - 1, set())
    return {prof + (n - sum(prof),) for prof in final}


def enumerate_mcp_naive(g) -> set:
    """MCP(g) by brute force over all n! bijections A -> B."""
    if g.n > NAIVE_LIMIT:
        raise InstanceTooLargeError(f"n={g.n} exceeds naive limit {NAIVE_LIMIT}")
    n, q = g.n, g.q
    out = set()
    for perm in permutations(range(n)):
        counts = [0] * q
        for a, b in enumerate(perm):
            c = g.color_of(a, b)
            if c is None:
                break
            counts[c - 1] += 1
        else:
            out.add(tuple(counts))
    return out


def alternating_reach(g, color, assign) -> tuple:
    """A-vertices reached from the unmatched ones by alternating color paths.

    A path leaves an A-vertex by any color edge and returns along the
    matching edge of the B-vertex it reached.  For a maximum matching of the
    color class this set S has |N(S)| < |S| whenever the matching is not
    perfect (Kőnig).
    """
    partner = {b: a for a, b in enumerate(assign) if b >= 0}
    reached = {a for a, b in enumerate(assign) if b < 0}
    stack = list(reached)
    while stack:
        a = stack.pop()
        for b in g.neighbors_a(a, color):
            a2 = partner.get(b)
            if a2 is not None and a2 not in reached:
                reached.add(a2)
                stack.append(a2)
    return tuple(sorted(reached))


def b_rows(g) -> list:
    """Per color, per B-vertex, the ascending A-neighbors, read from g.edges()."""
    rows = [[[] for _ in range(g.n)] for _ in range(g.q)]
    for a, b, c in g.edges():
        rows[c - 1][b].append(a)
    return [[tuple(sorted(row)) for row in color_rows] for color_rows in rows]


def hall_holds(g, color) -> bool:
    """Hall's condition for the color subgraph, checked over all A-subsets."""
    neighborhoods = [set(g.neighbors_a(a, color)) for a in range(g.n)]
    for r in range(1, g.n + 1):
        for s in combinations(range(g.n), r):
            union = set()
            for a in s:
                union |= neighborhoods[a]
            if len(union) < len(s):
                return False
    return True


def cut_edges(g, s, t, color) -> int:
    total = 0
    tset = set(t)
    for a in s:
        for b in g.neighbors_a(a, color):
            if b in tset:
                total += 1
    return total


def naive_low_degree(g, color, s_size, t_size, x_size, deg_cut):
    n = g.n
    if s_size > n or t_size > n or x_size > n or min(s_size, t_size, x_size) < 0:
        return None
    for t in combinations(range(n), t_size):
        for x in combinations(range(n), x_size):
            if all(cut_edges(g, (a,), t, color) < deg_cut for a in x):
                return x, tuple(range(n)), t
    return None


def naive_high_degree(g, color, x_size, y_size, k):
    n = g.n
    if x_size > n or y_size > n or x_size < 0 or y_size < 0:
        return None
    for y in combinations(range(n), y_size):
        for x in combinations(range(n), x_size):
            if all(cut_edges(g, (a,), y, color) >= k for a in x):
                return x, y
    return None


def naive_dense_cut(g, color, s_size, t_size, min_edges):
    n = g.n
    if s_size > n or t_size > n or s_size < 0 or t_size < 0:
        return None
    for s in combinations(range(n), s_size):
        for t in combinations(range(n), t_size):
            if cut_edges(g, s, t, color) >= min_edges:
                return s, t
    return None


def naive_empty_cut(g, color, s_size, t_size):
    n = g.n
    if s_size > n or t_size > n or s_size < 0 or t_size < 0:
        return None
    for s in combinations(range(n), s_size):
        for t in combinations(range(n), t_size):
            if cut_edges(g, s, t, color) == 0:
                return s, t
    return None


def naive_crowded(g, assign, color, side, overlap_cap, degree_cutoff) -> tuple:
    """The crowded set of one side's color-``color`` matched vertices, by its definition.

    Members are the side's vertices matched in ``color``; a member is high
    degree with >= degree_cutoff color neighbours among the members'
    partners, and bounded with <= overlap_cap among the partners of the
    members that are not high degree.  The crowded set starts as the
    members that are neither, and a member joins while it has
    >= overlap_cap color neighbours among the crowded set's partners.
    """
    pairs = [(a, b) for a, b in enumerate(assign) if g.color_of(a, b) == color]
    if side == "a":
        partner = dict(pairs)
        nbrs = {a: set(g.neighbors_a(a, color)) for a in partner}
    else:
        partner = {b: a for a, b in pairs}
        nbrs = {b: set(g.neighbors_b(b, color)) for b in partner}
    images = set(partner.values())
    high = {v for v in partner if len(nbrs[v] & images) >= degree_cutoff}
    removed = {partner[v] for v in partner if v not in high}
    bounded = {v for v in partner if len(nbrs[v] & removed) <= overlap_cap}
    crowded = set(partner) - high - bounded
    while True:
        image = {partner[v] for v in crowded}
        joining = {v for v in partner if v not in crowded and len(nbrs[v] & image) >= overlap_cap}
        if not joining:
            return tuple(sorted(crowded))
        crowded |= joining
