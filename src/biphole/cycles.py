"""Constructive cycles through every vertex of degree at least the
bipartite-hole-number, in 2-connected graphs.

The driver closes the heavy set into a clique by repeatedly joining
nonadjacent heavy vertices, takes the clique cycle, and unwinds the added
edges one level at a time.  Unwinding an edge leaves a path between two
nonadjacent heavy endpoints, and ``rotation_to_cycle`` reroutes that path
into a cycle using the hole-free split (s, t): because no (s,t)-hole exists,
one of a small set of crossing edges must be present, and each possibility
has an explicit cycle formula.  Every formula keeps all path vertices, so
heavy coverage survives each level.

Degrees are always measured in the original graph and the split (s, t) comes
from its certificate: supergraphs keep both the degree bounds and
hole-freeness, which is all the case analysis consumes.  The scans read
off-path neighbors and crossing edges from the adjacency masks, outside
the on-path mask that the path carries (``_mask``).  Every rotated cycle
is checked in full as it is made, and that check builds its mask; the
clique cycle and a cycle opened at the edge being removed are valid by
construction and are not, and take the mask of the cycle they come from.
The body ``_cycle_through_heavy`` leaves the final cycle unverified, and
each caller checks it once with ``verify_heavy_cycle``: the public
``cycle_through_heavy`` before it returns, and the sweep's per-graph facts
when they build it.  That check reads the mask of the walk its own fresh
check builds, never the one the cycle carries.

Each branch is pinned by a test on a graph (graph6) where it decides the
cycle.  With fewer than three heavy vertices, two internally disjoint paths
close a cycle through both heavy ones (``E^r?``), or through the heavy one
(``E\\r?``) or vertex 0 (C5) and its lowest neighbor.  Otherwise every
rotation tries, in order: scan 1, an off-path u-neighbor joined to an
off-path v-neighbor (``FF]iG``) or to the successor of an on-path one
(``D^o``); scan 2, the predecessor of an early u-neighbor joined to an
off-path v-neighbor (``Edv_``) or to the successor of a late v-neighbor
(``C]``); scan 3, the successor of an early v-neighbor joined to the
successor of a late u-neighbor (``Fgt~g``).
"""
from __future__ import annotations

from typing import Sequence

from .errors import InternalInconsistencyError, NotTwoConnectedError, WalkError
from .graph import Graph, iter_bits, mask_of
from .holes import HoleCertificate, bipartite_hole_number
from .walks import Cycle, OrientedPath


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _finish_cycle(g: Graph, seq: Sequence[int], must_cover: int) -> Cycle:
    """``seq`` as a Cycle of g, checked in full, that covers the vertex mask
    ``must_cover``."""
    try:
        cyc = Cycle(g, seq)
    except WalkError as exc:
        raise InternalInconsistencyError(f"rotation produced an invalid cycle: {exc}")
    if must_cover & ~cyc._mask:
        raise InternalInconsistencyError("rotation dropped a path vertex")
    return cyc


def rotation_to_cycle(g: Graph, path, s: int, t: int) -> Cycle:
    """Close a (u, v)-path into a cycle covering all of it.

    Requires nonadjacent endpoints, a split with no (s,t)-hole in g, and
    endpoint degrees at least s + t - 1.  The three crossing-edge scans are
    tried in order; within a scan, candidate pairs are lexicographic by
    vertex id, so the output is deterministic.  Each candidate cycle is
    checked in full before it is returned.
    """
    p = path if isinstance(path, OrientedPath) else OrientedPath(g, path)
    if s < 1 or t < 1:
        raise ValueError("split sides must be at least 1")
    verts = p.vertices
    k = len(verts)
    u, v = verts[0], verts[-1]
    adj = g._adj
    if adj[u] >> v & 1:
        raise ValueError("path endpoints must be nonadjacent")
    if k < 3:
        raise ValueError("path must have at least three vertices")
    pos = {x: i for i, x in enumerate(verts)}
    on_mask = p._mask

    # Off-path neighbors as masks; a set bit's rank is its vertex id, so the
    # lowest bit of a crossing mask is the lowest id.
    u_off = list(iter_bits(adj[u] & ~on_mask))
    v_off = adj[v] & ~on_mask
    v_on_pos = sorted(pos[w] for w in iter_bits(adj[v] & on_mask))
    # Successors exist: v's on-path neighbors cannot include the last vertex.
    v_on_succ = mask_of(verts[i + 1] for i in v_on_pos)

    # Scan 1: off-path neighbors of u against v_off and the shifted v-neighbors.
    for x in u_off:
        if hit := adj[x] & v_off:
            y = _lowest(hit)
            return _finish_cycle(g, [*verts, y, x], on_mask)
    for x in u_off:
        if hit := adj[x] & v_on_succ:
            iy = pos[_lowest(hit)]
            seq = [*verts[:iy], *reversed(verts[iy:]), x]
            return _finish_cycle(g, seq, on_mask)

    if len(u_off) > s - 1:
        raise InternalInconsistencyError(
            "scan 1 exhausted with too many off-path neighbors; wrong split?"
        )

    need = s - len(u_off)
    u_on_pos = sorted(pos[w] for w in iter_bits(adj[u] & on_mask))
    if len(u_on_pos) < need:
        raise InternalInconsistencyError(
            "first endpoint has too few on-path neighbors; wrong split?"
        )
    # The pivot r_pos has exactly s - |u_off| on-path neighbors of u at or
    # before it; u2/u3 and v2/v3 split the on-path neighbor positions of the
    # endpoints on either side of it.
    r_pos = u_on_pos[need - 1]
    u2_pos = u_on_pos[:need]
    u3_pos = [i for i in u_on_pos[need:] if i <= k - 2]
    v2_pos = [i for i in v_on_pos if r_pos <= i <= k - 2]
    v3_pos = [i for i in v_on_pos if 1 <= i <= r_pos - 1]

    # Scan 2: predecessors of the early u-neighbors against v_off and the
    # shifted late v-neighbors.
    u2_pred = sorted(verts[i - 1] for i in u2_pos)
    for x in u2_pred:
        if hit := adj[x] & v_off:
            ix = pos[x]
            seq = [*verts[: ix + 1], _lowest(hit), *reversed(verts[ix + 1 :])]
            return _finish_cycle(g, seq, on_mask)
    v2_succ = mask_of(verts[i + 1] for i in v2_pos)
    for x in u2_pred:
        ix = pos[x]
        for y in iter_bits(adj[x] & v2_succ):
            iy = pos[y]
            if iy > ix + 1:
                seq = [*verts[: ix + 1], *verts[iy:], *reversed(verts[ix + 1 : iy])]
                return _finish_cycle(g, seq, on_mask)

    # Scan 3: successors of the early v-neighbors against the shifted late
    # u-neighbors.
    v3_succ = sorted(verts[i + 1] for i in v3_pos)
    u3_succ = mask_of(verts[i + 1] for i in u3_pos)
    for x in v3_succ:
        ix = pos[x]
        for y in iter_bits(adj[x] & u3_succ):
            iy = pos[y]
            if iy > ix:
                seq = [*verts[:ix], *reversed(verts[iy:]), *verts[ix:iy]]
                return _finish_cycle(g, seq, on_mask)

    raise InternalInconsistencyError(
        "no rotation case applies; the split is not hole-free or a "
        "precondition was violated"
    )


def cycle_through_heavy(g: Graph) -> Cycle:
    """A cycle containing every vertex whose degree meets the hole-number.

    Raises NotTwoConnectedError when the input is not 2-connected, and
    InternalInconsistencyError only on a bug (the underlying statement
    guarantees success).
    """
    _require_two_connected(g.is_two_connected())
    cert = bipartite_hole_number(g)
    return _verified_cycle(g, _cycle_through_heavy(g, cert), cert.value)


def _require_two_connected(two_connected: bool) -> None:
    if not two_connected:
        raise NotTwoConnectedError("cycle_through_heavy requires a 2-connected graph")


def _verified_cycle(g: Graph, cyc: Cycle, threshold: int) -> Cycle:
    """``cyc`` once ``verify_heavy_cycle`` has passed on it; a failure is a
    bug, raised as InternalInconsistencyError."""
    if not verify_heavy_cycle(g, cyc, threshold):
        raise InternalInconsistencyError("constructed cycle failed validation")
    return cyc


def _cycle_through_heavy(g: Graph, cert: HoleCertificate) -> Cycle:
    """The body of ``cycle_through_heavy``, given a 2-connected g and its
    certificate.  Its cycle is not yet verified: every caller passes it
    through ``_verified_cycle`` before anyone reads it."""
    threshold = cert.value
    heavy = [x for x, d in enumerate(g._degrees) if d >= threshold]

    if len(heavy) < 3:
        # Two internally disjoint (a, b)-paths close into a cycle through a
        # and b: the two heavy vertices, else the heavy vertex or vertex 0
        # and its lowest neighbor.
        a = heavy[0] if heavy else 0
        b = heavy[1] if len(heavy) == 2 else _lowest(g._adj[a])
        p1, p2 = g._two_disjoint_paths(a, b)
        return Cycle._trusted(g, (*p1, *p2[-2:0:-1]))
    else:
        s, t = cert.hole_free_pair
        # Closure: join every nonadjacent heavy pair, so the heavy set is a
        # clique; the pairs are added in lexicographic order.
        adj = list(g._adj)
        added = [
            (a, b)
            for i, a in enumerate(heavy)
            for b in heavy[i + 1 :]
            if not adj[a] >> b & 1
        ]
        for a, b in added:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        seq = tuple(heavy)  # the clique cycle, ascending
        mask = mask_of(heavy)
        # Unwind the added edges, last first: if the cycle uses the edge, open
        # it into a path and rotate in the one-thinner graph; otherwise the
        # cycle already lives there.  The opened cycle is the clique cycle or
        # one rotation_to_cycle checked, so the path needs no check of its own,
        # and it has the cycle's vertex mask.
        for a, b in reversed(added):
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            opened = _open_at(seq, a, b)
            if opened is not None:
                thinner = Graph._from_adj(g.n, adj)
                opened = OrientedPath._trusted(thinner, tuple(opened), mask)
                rotated = rotation_to_cycle(thinner, opened, s, t)
                seq, mask = rotated.vertices, rotated._mask
        return Cycle._trusted(g, seq, mask)


def _open_at(verts: Sequence[int], a: int, b: int) -> list[int] | None:
    """The cycle ``verts`` without its edge (a, b): the remaining path from a
    to b, or None when the cycle does not use that edge."""
    if a not in verts:
        return None
    i = verts.index(a)
    if verts[i - 1] == b:  # the edge (b, a) in cycle order
        return [*verts[i:], *verts[:i]]
    if verts[(i + 1) % len(verts)] == b:  # the edge (a, b)
        return [*verts[i::-1], *verts[:i:-1]]
    return None


def verify_heavy_cycle(g: Graph, cycle, threshold: int) -> bool:
    """True iff ``cycle`` is a valid cycle of g covering every vertex of
    degree at least ``threshold``."""
    try:
        # Checked afresh, so the mask read is this check's, not ``cycle``'s.
        fresh = Cycle(g, cycle.vertices if isinstance(cycle, Cycle) else cycle)
    except WalkError:
        return False
    heavy = mask_of(x for x, d in enumerate(g._degrees) if d >= threshold)
    return not heavy & ~fresh._mask
