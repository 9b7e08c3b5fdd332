"""Oriented paths and cycles, validated against their graph.

An OrientedPath is a sequence of distinct, consecutively adjacent vertices
with a fixed direction, from ``first`` to ``last``.  A Cycle additionally
closes up.  Both validate against their graph at construction time.  The
constructions build some walks that are valid by construction (a reversal,
a BFS parent chain, a checked cycle opened at one of its edges) through the
private ``_trusted`` constructor, which skips that check; every walk the
public constructions return, and every walk the sweep reads, has passed a
full check first.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .errors import WalkError
from .graph import Graph


def _check_sequence(g: Graph, vertices: Iterable[int], kind: str) -> tuple[int, ...]:
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise WalkError(f"{kind} repeats a vertex: {verts}")
    n = g.n
    if verts and not (0 <= min(verts) and max(verts) < n):
        v = next(v for v in verts if not 0 <= v < n)
        raise WalkError(f"{kind} vertex {v} outside graph")
    adj = g._adj
    for a, b in zip(verts, verts[1:]):
        if not adj[a] >> b & 1:
            raise WalkError(f"{kind} uses non-edge ({a},{b})")
    return verts


def is_path_sequence(g: Graph, vertices: Iterable[int]) -> bool:
    try:
        verts = _check_sequence(g, vertices, "path")
    except WalkError:
        return False
    return len(verts) >= 1


def is_cycle_sequence(g: Graph, vertices: Iterable[int]) -> bool:
    try:
        verts = _check_sequence(g, vertices, "cycle")
    except WalkError:
        return False
    return len(verts) >= 3 and g.has_edge(verts[-1], verts[0])


class OrientedPath:
    """A directed simple path; orientation runs from ``first`` to ``last``."""

    __slots__ = ("graph", "vertices")

    def __init__(self, g: Graph, vertices: Sequence[int]):
        verts = _check_sequence(g, vertices, "path")
        if not verts:
            raise WalkError("path must contain at least one vertex")
        self.graph = g
        self.vertices = verts

    @classmethod
    def _trusted(cls, g: Graph, verts: tuple[int, ...]) -> "OrientedPath":
        # Trusted fast path: caller guarantees ``verts`` is a path of g.
        p = object.__new__(cls)
        p.graph = g
        p.vertices = verts
        return p

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        return isinstance(other, OrientedPath) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "OrientedPath(" + "-".join(map(str, self.vertices)) + ")"

    def flip(self) -> "OrientedPath":
        return OrientedPath._trusted(self.graph, self.vertices[::-1])


class Cycle:
    """At least three distinct vertices, cyclically consecutive in the graph."""

    __slots__ = ("graph", "vertices")

    def __init__(self, g: Graph, vertices: Sequence[int]):
        verts = _check_sequence(g, vertices, "cycle")
        if len(verts) < 3:
            raise WalkError("cycle needs at least three vertices")
        if not g.has_edge(verts[-1], verts[0]):
            raise WalkError(f"cycle does not close: ({verts[-1]},{verts[0]})")
        self.graph = g
        self.vertices = verts

    @classmethod
    def _trusted(cls, g: Graph, verts: tuple[int, ...]) -> "Cycle":
        # Trusted fast path: caller guarantees ``verts`` is a cycle of g.
        c = object.__new__(cls)
        c.graph = g
        c.vertices = verts
        return c

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v):
        return v in self.vertices

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "Cycle(" + "-".join(map(str, self.vertices)) + ")"
