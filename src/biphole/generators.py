"""Deterministic graph sources: named families, seeded G(n, p), exhaustive
labeled enumeration.

Randomness is fully pinned: the G(n, p) model draws one 64-bit word per
vertex pair (lexicographic order) from a seeded Mersenne Twister and compares
against the exact rational p, so identical (n, p, seed) always yields the
identical graph, on any platform.
"""
from __future__ import annotations

import random
from typing import Iterator

from .errors import UnknownNameError
from .graph import Graph, _check_order

ENUMERATION_DEFAULT_GATE = 6
ENUMERATION_HARD_GATE = 8


def complete(n: int) -> Graph:
    _check_order(n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> Graph:
    return Graph(n)


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_order(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    _check_order(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both sides nonempty")
    _check_order(a + b)
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(n: int) -> Graph:
    """n vertices, center 0 joined to every leaf."""
    if n < 1:
        raise ValueError("star needs n >= 1")
    _check_order(n)
    return Graph(n, [(0, v) for v in range(1, n)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer pentagon
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return Graph(10, edges)


def theta(a: int, b: int, c: int) -> Graph:
    """Two hub vertices 0 and 1 joined by three internally disjoint paths
    with a, b, c edges respectively."""
    lengths = (a, b, c)
    if any(x < 1 for x in lengths):
        raise ValueError("theta path lengths must be >= 1")
    if sum(1 for x in lengths if x == 1) > 1:
        raise ValueError("at most one theta path may be a single edge")
    _check_order(a + b + c - 1)
    edges = []
    nxt = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph(nxt, edges)


_FAMILIES = {
    "complete": (complete, 1),
    "cycle": (cycle, 1),
    "path": (path, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "star": (star, 1),
    "petersen": (petersen, 0),
    "theta": (theta, 3),
    "empty": (empty, 1),
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))


def named(family: str, *params: int) -> Graph:
    """Build a named family member; unknown names list the valid ones."""
    try:
        builder, arity = _FAMILIES[family]
    except KeyError:
        raise UnknownNameError("family", family, family_names()) from None
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s)")
    return builder(*params)


def erdos_renyi(n: int, p_numerator: int, p_denominator: int, seed: int) -> Graph:
    """G(n, p) with exact rational p; pair stream in lexicographic order."""
    if p_denominator < 1 or not 0 <= p_numerator <= p_denominator:
        raise ValueError("probability must be a rational in [0, 1]")
    _check_order(n)
    rng = random.Random(seed)
    threshold = p_numerator << 64
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(64) * p_denominator < threshold:
                edges.append((u, v))
    return Graph(n, edges)


def enumerate_labeled(
    n: int, allow_large: bool = False, masks: range | None = None
) -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, in edge-mask order.

    Bit i of the mask is the i-th pair in lexicographic order; ``masks``
    restricts the stream to a range of edge masks.  Gated at
    n <= 6 by default (n = 7, 8 need allow_large; beyond that the stream is
    astronomically long); the gate raises at the call, before any graph or
    mask count is built.
    """
    _check_enumeration_order(n, allow_large)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return _graphs_of_masks(n, pairs, range(1 << len(pairs)) if masks is None else masks)


def _check_enumeration_order(n: int, allow_large: bool) -> None:
    gate = ENUMERATION_HARD_GATE if allow_large else ENUMERATION_DEFAULT_GATE
    if n < 0 or n > gate:
        raise ValueError(
            f"enumeration gated at n <= {gate}"
            + ("" if allow_large else " (pass allow_large=True for 7..8)")
        )


def _graphs_of_masks(n: int, pairs: list[tuple[int, int]], masks: range) -> Iterator[Graph]:
    """Each mask's graph, from the last one's (the empty graph first) by
    flipping the edges of the differing bits, so any range is exact."""
    adj = [0] * n
    prev = 0
    for mask in masks:
        m = mask ^ prev
        prev = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
            m ^= low
        yield Graph._from_adj(n, adj)
