"""Answer checks that share no code with biphole's holes, cycles and paths.

Every check works on ``Adjacency``, the benchmark's own bitmask adjacency
built from an edge list, and returns a list of problems (empty when the
answer is right).  The hole search here is its own: a depth-first search
over vertex sets in ascending order that carries the closed neighbourhood
N[S] and drops a branch as soon as |N[S]| exceeds the bound, since N[S]
only grows.  An (s,t)-hole exists iff some s-set S has |N[S]| <= n - t.

``selftest`` proves that each check accepts a real answer and rejects a
corrupted one.
"""
from __future__ import annotations

from itertools import combinations


class Adjacency:
    """Own adjacency of an n-vertex simple graph."""

    def __init__(self, n: int, edges):
        self.n = n
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj
        self.closed = [a | (1 << v) for v, a in enumerate(adj)]
        self.degrees = [a.bit_count() for a in adj]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def heavy(self, threshold: int) -> list[int]:
        return [v for v in range(self.n) if self.degrees[v] >= threshold]


def small_neighbourhood_set(a: Adjacency, s: int, limit: int):
    """First s-set S (ascending) with |N[S]| <= limit, or None."""
    n, closed, chosen = a.n, a.closed, []

    def dfs(start: int, union: int):
        if len(chosen) == s:
            return tuple(chosen)
        for v in range(start, n - (s - len(chosen)) + 1):
            grown = union | closed[v]
            if grown.bit_count() > limit:
                continue
            chosen.append(v)
            found = dfs(v + 1, grown)
            if found is not None:
                return found
            chosen.pop()
        return None

    return dfs(0, 0)


def has_hole(a: Adjacency, s: int, t: int) -> bool:
    small, large = min(s, t), max(s, t)
    return small_neighbourhood_set(a, small, a.n - large) is not None


def profile(a: Adjacency) -> tuple[int, int, int]:
    """(alpha, s, t): the hole-number and its hole-free split with the
    smallest s, found by ascending levels."""
    k = 0
    while True:
        k += 1
        for s in range(1, (k + 1) // 2 + 1):
            if not has_hole(a, s, k + 1 - s):
                return k, s, k + 1 - s


def is_connected(a: Adjacency, removed: int = -1) -> bool:
    alive = ((1 << a.n) - 1) & ~(1 << removed if removed >= 0 else 0)
    if not alive:
        return True
    start = alive & -alive
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= a.adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen == alive


def is_two_connected(a: Adjacency) -> bool:
    return a.n >= 3 and is_connected(a) and all(is_connected(a, v) for v in range(a.n))


# -- answer checks --------------------------------------------------------


def check_certificate(a: Adjacency, value: int, pair, witnesses) -> list[str]:
    """value k, hole-free pair (s, t) and one (s', k - s') hole per split."""
    s, t = pair
    if value < 1 or s < 1 or t < 1 or s + t != value + 1:
        return [f"pair {pair} does not split {value} + 1"]
    if len(witnesses) != value - 1:
        return [f"{len(witnesses)} level witnesses for value {value}"]
    problems = []
    for i, (side_s, side_t) in enumerate(witnesses, start=1):
        sm = tm = 0
        for x in side_s:
            sm |= 1 << x
        for x in side_t:
            tm |= 1 << x
        sizes = (len(set(side_s)), len(set(side_t)))
        if sizes != (i, value - i) or sizes != (len(side_s), len(side_t)):
            problems.append(f"witness {i} has sizes {sizes}, wanted ({i}, {value - i})")
        elif (sm | tm) >> a.n or sm & tm:
            problems.append(f"witness {i} sides overlap or leave the graph")
        elif any(a.adj[x] & tm for x in side_s):
            problems.append(f"witness {i} has a crossing edge")
    if has_hole(a, s, t):
        problems.append(f"hole-free pair {pair} has a hole")
    return problems


def _walk_problems(a: Adjacency, seq, closed: bool) -> list[str]:
    if len(set(seq)) != len(seq):
        return ["repeats a vertex"]
    if any(not 0 <= x < a.n for x in seq):
        return ["vertex outside the graph"]
    steps = list(zip(seq, seq[1:])) + ([(seq[-1], seq[0])] if closed else [])
    bad = [(x, y) for x, y in steps if not a.has_edge(x, y)]
    return [f"non-edge {bad[0]}"] if bad else []


def check_cycle(a: Adjacency, seq, threshold: int) -> list[str]:
    """A cycle of the graph through every vertex of degree >= threshold."""
    if len(seq) < 3:
        return [f"cycle of length {len(seq)}"]
    problems = _walk_problems(a, seq, closed=True)
    missing = set(a.heavy(threshold)) - set(seq)
    if missing:
        problems.append(f"misses heavy vertices {sorted(missing)}")
    return problems


def check_path(a: Adjacency, seq, u: int, v: int, threshold: int) -> list[str]:
    """A (u, v)-path of the graph through every vertex of degree >= threshold."""
    if len(seq) < 2 or {seq[0], seq[-1]} != {u, v}:
        return [f"endpoints {seq[:1]}..{seq[-1:]} are not ({u}, {v})"]
    problems = _walk_problems(a, seq, closed=False)
    missing = set(a.heavy(threshold)) - set(seq)
    if missing:
        problems.append(f"misses heavy vertices {sorted(missing)}")
    return problems


def certificate_parts(cert) -> tuple:
    """(value, pair, witnesses) of a biphole HoleCertificate as plain data."""
    return (
        cert.value,
        tuple(cert.hole_free_pair),
        tuple((tuple(sorted(w.s_side)), tuple(sorted(w.t_side))) for w in cert.level_witnesses),
    )


# -- sweep recount ----------------------------------------------------------


def sweep_expectation(n: int) -> dict[str, tuple[int, int]]:
    """(checked, skipped) per sweep property over every labeled graph on n
    vertices, recounted from degrees, connectivity and the own hole-number."""
    pairs = list(combinations(range(n), 2))
    counts = dict.fromkeys(
        ("alpha-oracle", "g6-roundtrip", "heavy-cycle", "fan-ham", "heavy-path",
         "min-degree-ham", "min-degree-hc", "dirac-chain"), 0)
    total = 1 << len(pairs)
    for mask in range(total):
        a = Adjacency(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))
        alpha = profile(a)[0]
        delta = min(a.degrees)
        counts["alpha-oracle"] += 1
        counts["g6-roundtrip"] += 1
        if is_two_connected(a):
            counts["heavy-cycle"] += 1
            counts["fan-ham"] += 1
        if n >= 2 and is_connected(a) and len(a.heavy(alpha + 1)) >= 2:
            counts["heavy-path"] += 1
        if n >= 3 and delta >= alpha:
            counts["min-degree-ham"] += 1
        if n >= 3 and delta >= alpha + 1:
            counts["min-degree-hc"] += 1
        if 2 * delta >= n:
            counts["dirac-chain"] += 1
    return {name: (c, total - c) for name, c in counts.items()}


# -- self-test ----------------------------------------------------------------


def selftest(bp) -> list[str]:
    """Each check must pass a real biphole answer and fail a corrupted one;
    returns what went wrong (empty on success)."""
    failures = []

    def expect(label, problems, needle):
        if needle is None and problems:
            failures.append(f"{label}: real answer rejected: {problems}")
        elif needle is not None and not any(needle in p for p in problems):
            failures.append(f"{label}: corruption not caught (got {problems})")

    g = bp.petersen()
    a = Adjacency(g.n, g.edges())
    value, pair, wits = certificate_parts(bp.bipartite_hole_number(g))
    expect("certificate", check_certificate(a, value, pair, wits), None)

    side_s, side_t = wits[0]
    x = side_s[0]
    y = next(z for z in range(a.n) if a.has_edge(x, z) and z not in side_s)
    crossing = (side_s, (y,) + tuple(z for z in side_t if z != y)[: len(side_t) - 1])
    expect("crossing witness", check_certificate(a, value, pair, (crossing,) + wits[1:]), "crossing edge")

    # One level lower every split has a hole, so (1, value - 1) is not hole-free.
    lower = tuple((ss, tt[1:]) for ss, tt in wits[:-1])
    expect("holed pair", check_certificate(a, value - 1, (1, value - 1), lower), "has a hole")

    k5 = bp.complete(5)
    a5 = Adjacency(5, k5.edges())
    expect("cycle", check_cycle(a5, bp.cycle_through_heavy(k5).vertices, 1), None)
    expect("short cycle", check_cycle(a5, (0, 1, 2), 1), "misses heavy")

    # K4 minus the edge 03: vertices 1 and 2 have degree 3, the rest 2.
    k4e = bp.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    a4 = Adjacency(4, k4e.edges())
    threshold = bp.hole_number(k4e) + 1
    expect("path", check_path(a4, bp.heavy_path(k4e, 1, 2).vertices, 1, 2, threshold), None)
    expect("non-edge path", check_path(a4, (1, 0, 3, 2), 1, 2, threshold), "non-edge")
    return failures
