"""Oriented paths and cycles, validated against their graph.

An OrientedPath is a sequence of distinct, consecutively adjacent vertices
with a fixed direction, from ``first`` to ``last``.  A Cycle additionally
has at least three vertices and closes up.  Both share a private base,
``_Walk``, and validate against their graph at construction time, so a
sequence is tested by constructing the walk and catching ``WalkError``.
The constructions build some walks that are valid by construction (a
reversal, a BFS parent chain, a checked cycle opened at one of its edges)
through the private ``_trusted`` constructor, which skips that check; every
walk the public constructions return, and every walk the sweep reads, has
passed a full check first.

Every walk carries its vertex mask, ``_mask``, for the constructions to
read: the check builds it in the pass that tests the vertices distinct
and in range, ``_trusted`` unless given it, and ``flip`` reuses it.
"""
from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from .errors import WalkError
from .graph import Graph, mask_of

_W = TypeVar("_W", bound="_Walk")


def _check_sequence(
    g: Graph, vertices: Iterable[int], kind: str
) -> tuple[tuple[int, ...], int]:
    """The vertices as a tuple, and their mask, once they are distinct, in
    range and consecutively adjacent in g; a repeat anywhere is reported
    before an id out of range, and that before a non-edge."""
    verts = tuple(vertices)
    n = g.n
    mask = 0
    for v in verts:
        if not 0 <= v < n:
            if len(set(verts)) != len(verts):
                break  # to the repeat, which is reported first
            raise WalkError(f"{kind} vertex {v} outside graph")
        mask |= 1 << v
    if mask.bit_count() != len(verts):
        raise WalkError(f"{kind} repeats a vertex: {verts}")
    adj = g._adj
    for a, b in zip(verts, verts[1:]):
        if not adj[a] >> b & 1:
            raise WalkError(f"{kind} uses non-edge ({a},{b})")
    return verts, mask


class _Walk:
    """A walk's vertex tuple in ``graph``; equal walks share kind and order."""

    __slots__ = ("graph", "vertices", "_mask")

    @classmethod
    def _trusted(
        cls: type[_W], g: Graph, verts: tuple[int, ...], mask: int | None = None
    ) -> _W:
        # Trusted fast path: caller guarantees ``verts`` is such a walk of g,
        # and ``mask``, when given, its vertex mask.
        w = object.__new__(cls)
        w.graph = g
        w.vertices = verts
        w._mask = mask_of(verts) if mask is None else mask
        return w

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        return type(other) is type(self) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return type(self).__name__ + "(" + "-".join(map(str, self.vertices)) + ")"


class OrientedPath(_Walk):
    """A directed simple path; orientation runs from ``first`` to ``last``."""

    __slots__ = ()

    def __init__(self, g: Graph, vertices: Sequence[int]):
        verts, mask = _check_sequence(g, vertices, "path")
        if not verts:
            raise WalkError("path must contain at least one vertex")
        self.graph = g
        self.vertices = verts
        self._mask = mask

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def flip(self) -> "OrientedPath":
        return self._trusted(self.graph, self.vertices[::-1], self._mask)


class Cycle(_Walk):
    """At least three distinct vertices, cyclically consecutive in the graph."""

    __slots__ = ()

    def __init__(self, g: Graph, vertices: Sequence[int]):
        verts, mask = _check_sequence(g, vertices, "cycle")
        if len(verts) < 3:
            raise WalkError("cycle needs at least three vertices")
        if not g.has_edge(verts[-1], verts[0]):
            raise WalkError(f"cycle does not close: ({verts[-1]},{verts[0]})")
        self.graph = g
        self.vertices = verts
        self._mask = mask

    def __contains__(self, v):
        return v in self.vertices
