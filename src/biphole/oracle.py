"""Brute-force ground truth for cycles and paths through prescribed vertices.

The two Hamiltonicity deciders run the subset dynamic program of Bellman
and Held and Karp (1962): for a start vertex, the mask of the ends of the
paths that visit each vertex mask, at most 2^n * n steps, so their worst
case is bounded.  The witness searches, ``brute_cycle_through_set`` and
``brute_path_through_set``, are plain backtracking over vertex sequences
with two safe prunes: every still required vertex must keep at least two
usable neighbors, and everything we still owe must stay reachable.  The
two algorithms share no code, so each checks the other.  A hard size guard
raises instead of hanging on a graph above ``DEFAULT_LIMIT`` vertices, one
limit for every call.  The naive hole oracles in ``holes`` share the guard.
"""
from __future__ import annotations

from typing import Iterable

from .errors import SizeGuardError
from .graph import Graph, iter_bits, mask_of

DEFAULT_LIMIT = 14


def _guard(g: Graph) -> None:
    if g.n > DEFAULT_LIMIT:
        raise SizeGuardError(f"oracle guarded at n <= {DEFAULT_LIMIT}; got n = {g.n}")


def _reachable(g: Graph, start_mask: int, allowed: int) -> int:
    seen = frontier = start_mask & allowed
    while frontier:
        nxt = 0
        for b in iter_bits(frontier):
            nxt |= g.adj_mask(b)
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def brute_cycle_through_set(g: Graph, required: Iterable[int]) -> list[int] | None:
    """Some cycle whose vertex set covers ``required``, or None."""
    _guard(g)
    need_mask = mask_of(required)
    if need_mask >> g.n:
        raise ValueError("required vertex outside graph")
    if g.n < 3:
        return None
    if need_mask == 0:
        for a in range(g.n):
            found = brute_cycle_through_set(g, [a])
            if found is not None:
                return found
        return None
    anchor = (need_mask & -need_mask).bit_length() - 1
    full = (1 << g.n) - 1
    anchor_bit = 1 << anchor

    def extend(path: list[int], visited: int, need: int) -> list[int] | None:
        cur = path[-1]
        if need == 0 and len(path) >= 3 and g.has_edge(cur, anchor):
            return path
        avail = (full & ~visited) | anchor_bit
        # Every still-required vertex needs two usable cycle neighbors and
        # must be reachable from the current endpoint.
        probe = avail | (1 << cur)
        reach = _reachable(g, g.adj_mask(cur) & probe, probe)
        if need & ~reach or not reach & anchor_bit:
            return None
        for w in iter_bits(need):
            if (g.adj_mask(w) & probe).bit_count() < 2:
                return None
        for nxt in iter_bits(g.adj_mask(cur) & avail & ~anchor_bit):
            path.append(nxt)
            found = extend(path, visited | (1 << nxt), need & ~(1 << nxt))
            if found is not None:
                return found
            path.pop()
        return None

    return extend([anchor], anchor_bit, need_mask & ~anchor_bit)


def brute_path_through_set(
    g: Graph, u: int, v: int, required: Iterable[int]
) -> list[int] | None:
    """Some (u, v)-path whose vertex set covers ``required``, or None."""
    if u == v:
        raise ValueError("endpoints must differ")
    _guard(g)
    need_mask = mask_of(required) & ~((1 << u) | (1 << v))
    if (need_mask | (1 << u) | (1 << v)) >> g.n:
        raise ValueError("vertex outside graph")
    full = (1 << g.n) - 1
    v_bit = 1 << v

    def extend(path: list[int], visited: int, need: int) -> list[int] | None:
        cur = path[-1]
        if need == 0 and g.has_edge(cur, v):
            path.append(v)
            return path
        avail = full & ~visited  # v not yet visited, so v stays available
        probe = avail | (1 << cur)
        reach = _reachable(g, g.adj_mask(cur) & probe, probe)
        if need & ~reach or not reach & v_bit:
            return None
        for w in iter_bits(need):
            if (g.adj_mask(w) & probe).bit_count() < 2:
                return None
        for nxt in iter_bits(g.adj_mask(cur) & avail & ~v_bit):
            path.append(nxt)
            found = extend(path, visited | (1 << nxt), need & ~(1 << nxt))
            if found is not None:
                return found
            path.pop()
        return None

    return extend([u], 1 << u, need_mask)


def _path_ends(g: Graph, start: int) -> int:
    """The vertex mask of the ends of the Hamilton paths of g from ``start``.

    ``ends[m]`` is the mask of the vertices at which some path from
    ``start``, visiting exactly the vertex mask m, can end.  Every extension
    adds a vertex, so the masks are filled in increasing order: a vertex b
    outside m extends the paths into ``m`` when its adjacency mask meets
    ``ends[m]``.
    """
    adj = g._adj
    full = (1 << g.n) - 1
    ends = [0] * (full + 1)
    ends[1 << start] = 1 << start
    for m in range(1 << start, full):
        e = ends[m]
        if not e:
            continue
        rest = full & ~m
        while rest:
            b = rest & -rest
            rest ^= b
            if adj[b.bit_length() - 1] & e:
                ends[m | b] |= b
    return ends[full]


def brute_hamiltonian(g: Graph) -> bool:
    """Exact Hamilton cycle decision: some Hamilton path from vertex 0 ends
    at a neighbor of 0."""
    _guard(g)
    if g.n < 3:
        return False
    return bool(_path_ends(g, 0) & g.adj_mask(0))


def brute_hamiltonian_connected(g: Graph) -> bool:
    """Hamilton path between every pair of distinct vertices."""
    _guard(g)
    if g.n == 1:
        return True
    full = (1 << g.n) - 1
    return all(_path_ends(g, u) | 1 << u == full for u in range(g.n))
