"""Immutable simple undirected graphs on dense vertex ids 0..n-1.

Adjacency is stored as one Python int bitmask per vertex, so neighborhood
unions, intersections and cardinalities are word-level operations.  That is
what makes the exact subset enumeration in the hole-number search affordable.
The disjoint-paths flow keeps its state in such masks too.  The order is
capped at MAX_VERTICES; everything here targets desk-scale exhaustive work,
not large sparse graphs.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import count
from typing import Iterable, Iterator

from .errors import GraphError, InternalInconsistencyError, NotTwoConnectedError

MAX_VERTICES = 512

#: Marker returned by distance queries between unreachable vertices.
INFINITY = math.inf


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple graph: no self-loops, symmetric adjacency, ids exactly 0..n-1.

    Instances are immutable after construction; every operation is a pure
    read and `add_edge` returns a new value.  Safe to share across threads.
    Built once per graph: ``_adj[v]`` = N(v), ``_degrees[v]`` = |N(v)|,
    and ``_closed[v]`` = N[v], the masks that the hole searches read.
    """

    __slots__ = ("n", "_adj", "_degrees", "_closed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._degrees = tuple(map(int.bit_count, adj))
        self._closed = tuple([m | 1 << v for v, m in enumerate(adj)])

    @classmethod
    def _from_adj(cls, n: int, adj: list[int]) -> "Graph":
        # Trusted fast path: caller guarantees symmetry, irreflexivity, range.
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        g._degrees = tuple(map(int.bit_count, adj))
        g._closed = tuple([m | 1 << v for v, m in enumerate(adj)])
        return g

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.n)

    @property
    def m(self) -> int:
        return sum(self._degrees) // 2

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def min_degree(self) -> int:
        return min(self._degrees) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def adj_mask(self, v: int) -> int:
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self._adj[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self._adj[u] >> (u + 1) << (u + 1)):
                yield u, v

    # -- neighborhoods and distances -------------------------------------

    def closed_neighborhood_mask(self, mask: int) -> int:
        out = mask
        for v in iter_bits(mask):
            out |= self._adj[v]
        return out

    def layers(self, sources: int) -> Iterator[int]:
        """Breadth-first layers around a vertex mask: ``sources`` first, then
        each next layer of unseen vertices, until none is left."""
        seen = frontier = sources
        while frontier:
            yield frontier
            frontier = self.closed_neighborhood_mask(frontier) & ~seen
            seen |= frontier

    def distances_from(self, v: int):
        """BFS distances from v; unreachable entries are INFINITY."""
        if not 0 <= v < self.n:
            raise GraphError("vertex outside graph")
        dist: list[float] = [INFINITY] * self.n
        for d, layer in enumerate(self.layers(1 << v)):
            for b in iter_bits(layer):
                dist[b] = d
        return dist

    def distance(self, u: int, v: int):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError("vertex outside graph")
        return self.distances_from(u)[v]

    def vertices_at_distance(self, v: int, i: int) -> frozenset[int]:
        """The exactly-distance-i BFS layer around v."""
        dist = self.distances_from(v)
        return frozenset(u for u in range(self.n) if dist[u] == i)

    # -- connectivity -----------------------------------------------------

    def is_connected(self) -> bool:
        """One search over V; none when n >= 2 and some vertex is isolated."""
        if self.n < 2:
            return True
        return min(self._degrees) > 0 and self._spans((1 << self.n) - 1)

    def cut_vertices(self) -> frozenset[int]:
        """Articulation points by recursive DFS lowpoints, in O(n + m): the
        reference, apart from the ``_spans`` flood, that tests hold
        ``is_two_connected`` to.  At most MAX_VERTICES = 512 frames deep,
        within the interpreter's default recursion limit of 1000."""
        disc = [-1] * self.n
        low = [0] * self.n
        clock = count()
        cuts: set[int] = set()

        def visit(v: int, parent: int) -> int:
            """Search the DFS subtree of v; return v's number of children."""
            disc[v] = low[v] = next(clock)
            children = 0
            for w in iter_bits(self._adj[v]):
                if disc[w] == -1:
                    children += 1
                    visit(w, v)
                    low[v] = min(low[v], low[w])
                    if low[w] >= disc[v]:
                        cuts.add(v)
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            return children

        for root in range(self.n):
            # A root separates only when it has two DFS subtrees.
            if disc[root] == -1 and visit(root, -1) < 2:
                cuts.discard(root)
        return frozenset(cuts)

    def is_two_connected(self) -> bool:
        """Order >= 3, connected, and no cut vertex.

        Below degree 2 no search: else n + 1 mask searches, as V and every
        V - {v} must induce a connected graph, which is what "no cut vertex"
        means once V is connected.
        """
        n = self.n
        if n < 3 or min(self._degrees) < 2:
            return False
        full = (1 << n) - 1
        return self._spans(full) and all(
            self._spans(full ^ 1 << v) for v in range(n)
        )

    def _spans(self, allowed: int) -> bool:
        """Whether the nonempty vertex mask ``allowed`` induces a connected
        subgraph: one search from its lowest vertex reaches all of it."""
        adj = self._adj
        seen = todo = allowed & -allowed
        while todo:
            low = todo & -todo
            todo ^= low
            new = adj[low.bit_length() - 1] & allowed & ~seen
            seen |= new
            todo |= new
        return seen == allowed

    # -- derived graphs ---------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        """New graph with edge (u, v); the receiver is left untouched."""
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{self.n - 1}")
        if self.has_edge(u, v):
            return self
        adj = list(self._adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._from_adj(self.n, adj)

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Subgraph on the given vertex set, plus new-id -> original-id map."""
        mapping = tuple(sorted(set(vertices)))
        if mapping and not (0 <= mapping[0] and mapping[-1] < self.n):
            raise GraphError("vertex outside graph")
        index = {orig: i for i, orig in enumerate(mapping)}
        adj = [0] * len(mapping)
        for i, orig in enumerate(mapping):
            for w in iter_bits(self._adj[orig]):
                j = index.get(w)
                if j is not None:
                    adj[i] |= 1 << j
        return Graph._from_adj(len(mapping), adj), mapping

    def permuted(self, perm) -> "Graph":
        """Relabel: vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("not a permutation of 0..n-1")
        adj = [0] * self.n
        for u, v in self.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        return Graph._from_adj(self.n, adj)

    # -- disjoint paths ---------------------------------------------------

    def two_disjoint_paths(self, x: int, y: int) -> tuple[list[int], list[int]]:
        """Two (x, y)-paths sharing only their endpoints.

        Unit-vertex-capacity max flow on the split digraph, held in masks;
        augmenting choices are lexicographic, so the result is
        deterministic.  Their union is a cycle through x and y.
        """
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise GraphError("vertex outside graph")
        if x == y:
            raise GraphError("endpoints must differ")
        if not self.is_two_connected():
            raise NotTwoConnectedError(
                "two_disjoint_paths requires a 2-connected graph"
            )
        return self._two_disjoint_paths(x, y)

    def _two_disjoint_paths(self, x: int, y: int) -> tuple[list[int], list[int]]:
        """The body of ``two_disjoint_paths``, for distinct x, y in a graph
        already known to be 2-connected.  Nodes in(v) = 2v, out(v) = 2v + 1;
        bit w of ``flow[v]`` holds the flow on out(v) -> in(w), and
        ``through[v]`` the flow on in(v) -> out(v)."""
        adj = self._adj
        flow = [0] * self.n
        through = [0] * self.n
        source, sink = 2 * x + 1, 2 * y
        for _ in range(2):
            parent = {source: source}
            queue = deque([source])
            while queue and sink not in parent:
                a = queue.popleft()
                v = a >> 1
                if a & 1:  # to in(w): an edge without flow, or back along v's own arc
                    ends = adj[v] & ~flow[v] | (through[v] > 0) << v
                else:  # to out(u): v's own arc below capacity, or back along u -> v
                    ends = mask_of(u for u in iter_bits(adj[v]) if flow[u] >> v & 1)
                    ends |= (through[v] < (2 if v == x or v == y else 1)) << v
                for w in iter_bits(ends):
                    b = 2 * w + 1 - (a & 1)
                    if b not in parent:
                        parent[b] = a
                        queue.append(b)
            if sink not in parent:
                raise InternalInconsistencyError(
                    "2-connected graph without two disjoint paths"
                )
            b = sink
            while b != source:
                a = parent[b]
                v, w = a >> 1, b >> 1
                if v == w:
                    through[v] += 1 if b & 1 else -1
                elif a & 1:  # along the edge arc v -> w
                    flow[v] |= 1 << w
                else:  # back along w -> v
                    flow[w] ^= 1 << v
                b = a

        paths = ([x], [x])
        for path in paths:
            v = x
            while v != y:
                low = flow[v] & -flow[v]
                flow[v] ^= low
                v = low.bit_length() - 1
                path.append(v)
        return paths

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"
