"""Constructive (u, v)-paths through every vertex of degree at least the
bipartite-hole-number plus one.

Starting from a shortest (u, v)-path, each call of ``augment_once`` is one
round that absorbs one more heavy vertex w lying off the path: connect w to
the path by a shortest connector Q, pick the first heavy path vertex after
the attachment point, and try the two template groups of the case split in
order.  The connector group goes through Q: a direct jump to the pivot, a
shared off-path neighbor, or a bridge crossing edge.  The anchored group
handles the mid-path case.  Hole-freeness of the split (s, t) forces one of
the scanned crossing edges to exist, and each template's formula yields a
(u, v)-path that keeps every on-path heavy vertex and gains w.  Progress is
therefore strict and the loop runs at most |H| times.

Each group yields its candidates in scan order, and the round keeps the
first one that is valid (path property, endpoints, strict heavy gain).  A
round that no template group closes raises InternalInconsistencyError at
once, naming the case that failed.  One BFS, ``_route``, finds both the
first path and each connector.
"""
from __future__ import annotations

from collections import Counter

from .errors import (
    DegreeConditionError,
    DisconnectedError,
    InternalInconsistencyError,
    WalkError,
)
from .graph import Graph, iter_bits, mask_of
from .holes import HoleCertificate, bipartite_hole_number
from .walks import OrientedPath, is_path_sequence

#: ``"fallback"`` counts the rounds that no template group closed.
DIAGNOSTICS: Counter = Counter()


def _chain(*parts) -> list[int]:
    """Concatenate vertex pieces, collapsing duplicates at the seams."""
    seq: list[int] = []
    for part in parts:
        for v in part:
            if not seq or seq[-1] != v:
                seq.append(v)
    return seq


def _check_endpoints(g: Graph, u: int, v: int) -> None:
    if u == v:
        raise ValueError("endpoints must differ")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex outside graph")


def _route(g: Graph, start: int, targets: int) -> list[int] | None:
    """A shortest path from ``start`` to the vertex mask ``targets``, start
    first, or None when no target is reachable.

    The BFS keeps each vertex's first-found parent and ends at the lowest
    target of the first layer that holds one, so the path never passes
    through a target.
    """
    parent = {start: -1}
    frontier = [start]
    while frontier:
        nxt = []
        for a in frontier:
            for b in g.neighbors(a):
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
        hits = [b for b in nxt if targets >> b & 1]
        if hits:
            seq = [min(hits)]
            while seq[-1] != start:
                seq.append(parent[seq[-1]])
            return seq[::-1]
        frontier = nxt
    return None


def initial_path(g: Graph, u: int, v: int) -> OrientedPath:
    """Shortest (u, v)-path by BFS with ascending tie-breaks."""
    _check_endpoints(g, u, v)
    seq = _route(g, u, 1 << v)
    if seq is None:
        raise DisconnectedError(f"no path between {u} and {v}")
    return OrientedPath(g, seq)


def _nearest(g: Graph, sources: int, targets: int) -> int:
    """The lowest target in the first BFS layer around ``sources`` that
    holds one; the lowest target when none is reachable."""
    hit = next((m & targets for m in g.layers(sources) if m & targets), targets)
    return (hit & -hit).bit_length() - 1


# -- template groups ---------------------------------------------------------


def _through_connector(g, verts, pos, w, connector, p_pos, q_pos):
    """Absorption through the connector: a straight jump to the heavy pivot,
    a shared off-path neighbor, then a crossing edge from a free neighbor of
    w to a neighbor-of-the-pivot slot (an off-path neighbor of the pivot, or
    the predecessor of an on-path one; four rerouting formulas by position).
    """
    vq = verts[q_pos]
    q_set = set(connector)
    head = [*verts[: p_pos + 1], *connector[1:]]
    tail = verts[q_pos:]
    if g.has_edge(w, vq):
        yield _chain(head, tail)
    xs = [x for x in g.neighbors(w) if x not in pos and x not in q_set]
    for x in xs:
        if g.has_edge(x, vq):
            yield _chain(head, [x], tail)
    ys_off = [y for y in g.neighbors(vq) if y not in pos and y not in q_set]
    for x in xs:
        for y in ys_off:
            if g.has_edge(x, y):
                yield _chain(head, [x, y], tail)
    pred_pos = sorted(
        pos[z] - 1
        for z in g.neighbors(vq)
        if z in pos and pos[z] >= 1 and pos[z] - 1 != p_pos
    )
    for x in xs:
        for j in pred_pos:
            if not g.has_edge(x, verts[j]):
                continue
            if j < p_pos:
                yield _chain(
                    verts[: j + 1],
                    [x],
                    reversed(connector),
                    reversed(verts[j + 1 : p_pos + 1]),
                    tail,
                )
            elif j >= q_pos:
                yield _chain(
                    head, [x], reversed(verts[q_pos : j + 1]), verts[j + 1 :]
                )
            else:
                yield _chain(head, [x], verts[j:])


def _anchored(g, verts, pos, w, wp_pos, r_pos, q2):
    """Mid-path case: w hangs off its anchored neighbor verts[r_pos]; scan
    around the heavy pivot at q2 > r_pos, then absorb directly if w touches
    the stretch between them."""
    vq = verts[q2]
    w2_pos = [i for i in wp_pos if i < r_pos]
    w3_pos = [i for i in wp_pos if i > q2]
    nq_pos = sorted(pos[z] for z in g.neighbors(vq) if z in pos)
    v1_pos = [j for j in nq_pos if r_pos < j < q2]
    v2_pos = [j for j in nq_pos if j > q2]
    v3_pos = [j for j in nq_pos if j <= r_pos]
    nrq = [y for y in g.neighbors(vq) if y not in pos and y != w]
    nrw_closed = [w] + [y for y in g.neighbors(w) if y not in pos]
    tail = verts[q2:]

    # Scan A: successors of w-neighbors before the anchor, by vertex id.
    for x in sorted(verts[i + 1] for i in w2_pos):
        ix = pos[x]
        hook = [*verts[:ix], w, *reversed(verts[ix : r_pos + 1])]
        for y in nrq:
            if g.has_edge(x, y):
                yield _chain(hook, [y], tail)
        for j in v1_pos:
            if g.has_edge(x, verts[j]):
                yield _chain(hook, verts[j:])
        for j in v2_pos:
            if g.has_edge(x, verts[j - 1]):
                yield _chain(hook, reversed(verts[q2:j]), verts[j:])

    # Scan B: predecessors of pivot-neighbors at or before the anchor, by
    # vertex id.
    for x in sorted(verts[j - 1] for j in v3_pos if j >= 1):
        ix = pos[x]
        for y in nrw_closed:
            if g.has_edge(x, y):
                yield _chain(
                    verts[: ix + 1],
                    [y, w],
                    reversed(verts[ix + 1 : r_pos + 1]),
                    tail,
                )
        for j in w3_pos:
            if g.has_edge(x, verts[j - 1]):
                yield _chain(
                    verts[: ix + 1],
                    reversed(verts[q2:j]),
                    verts[ix + 1 : r_pos + 1],
                    [w],
                    verts[j:],
                )

    # Direct absorption between anchor and pivot.
    for j in wp_pos:
        if r_pos < j <= q2:
            yield _chain(verts[: r_pos + 1], [w], verts[j:])


def augment_once(
    g: Graph, path: OrientedPath, heavy_mask: int, s: int
) -> OrientedPath:
    """One absorption round: a path with the same ends, every heavy vertex
    of ``path`` and at least one more, for the s of the hole-free split.

    The round absorbs the nearest missing heavy vertex w (the lowest id in
    the first layer of a BFS from the whole path that holds one) through its
    shortest connector Q, taken path-endpoint first.  The path is reoriented
    so the attachment is not its far end, and Q is re-anchored while its
    inner end touches the first heavy vertex after the attachment.  A round
    that no template group closes raises InternalInconsistencyError naming
    the failed case.
    """
    on_mask = mask_of(path.vertices)
    missing = heavy_mask & ~on_mask
    if not missing:
        raise ValueError("no heavy vertex off the path")
    w = _nearest(g, on_mask, missing)
    connector = _route(g, w, on_mask)
    if connector is None:
        raise DisconnectedError(f"heavy vertex {w} unreachable from the path")
    connector.reverse()

    seen_states = set()
    while True:
        if path.last == connector[0]:
            path = path.flip()
        verts = path.vertices
        p_pos = verts.index(connector[0])
        q_pos = next(
            i for i in range(p_pos + 1, len(verts)) if heavy_mask >> verts[i] & 1
        )
        vq = verts[q_pos]
        if len(connector) < 3 or not g.has_edge(connector[1], vq):
            break
        if (verts[0], vq) in seen_states:
            break
        seen_states.add((verts[0], vq))
        connector = [vq] + connector[1:]

    k = len(verts)
    pos = {x: i for i, x in enumerate(verts)}
    had = (heavy_mask & on_mask).bit_count()

    def first_valid(candidates):
        for seq in candidates:
            if seq[0] != verts[0] or seq[-1] != verts[-1]:
                continue
            if (heavy_mask & mask_of(seq)).bit_count() <= had:
                continue
            try:
                return OrientedPath(g, seq)
            except WalkError:
                pass
        return None

    better = first_valid(_through_connector(g, verts, pos, w, connector, p_pos, q_pos))
    if better is not None:
        return better
    wp_pos = [i for i, x in enumerate(verts) if g.has_edge(w, x)]
    if len(wp_pos) < s + 1:
        case = f"vertex {w} has under s+1 = {s + 1} on-path neighbors"
    elif wp_pos[s] == k - 1:
        case = f"the anchor of vertex {w} is the path's last vertex"
    else:
        r_pos = wp_pos[s]
        q2 = next(i for i in range(r_pos + 1, k) if heavy_mask >> verts[i] & 1)
        better = first_valid(_anchored(g, verts, pos, w, wp_pos, r_pos, q2))
        if better is not None:
            return better
        case = f"no anchored template around positions {r_pos} and {q2}"
    DIAGNOSTICS["fallback"] += 1
    raise InternalInconsistencyError(
        f"no absorption template applies ({case}); wrong split or a bug"
    )


def heavy_path(g: Graph, u: int, v: int) -> OrientedPath:
    """A (u, v)-path containing every vertex of degree at least the
    bipartite-hole-number plus one.

    Both endpoints must meet that degree bound, and all such vertices must
    share a component with them.
    """
    _check_endpoints(g, u, v)
    return _heavy_path(g, u, v, bipartite_hole_number(g))


def _heavy_path(g: Graph, u: int, v: int, cert: HoleCertificate) -> OrientedPath:
    """The body of ``heavy_path``, given distinct in-range endpoints and
    g's certificate."""
    threshold = cert.value + 1
    if g.degree(u) < threshold or g.degree(v) < threshold:
        raise DegreeConditionError(
            f"endpoints need degree >= {threshold}; got "
            f"d({u}) = {g.degree(u)}, d({v}) = {g.degree(v)}"
        )
    heavy_mask = mask_of(x for x in range(g.n) if g.degree(x) >= threshold)
    comp_mask = sum(g.layers(1 << u))  # disjoint layers: the sum is the union
    if not comp_mask >> v & 1:
        raise DisconnectedError(f"{u} and {v} lie in different components")
    if heavy_mask & ~comp_mask:
        outside = list(iter_bits(heavy_mask & ~comp_mask))
        raise DisconnectedError(
            f"heavy vertices {outside} unreachable from the endpoints"
        )

    if cert.value == 1:
        # Hole-number 1 means a complete graph; spell out a Hamilton path.
        rest = sorted(set(range(g.n)) - {u, v})
        return OrientedPath(g, [u] + rest + [v])

    s = cert.hole_free_pair[0]
    path = initial_path(g, u, v)
    for _ in range(heavy_mask.bit_count() + 1):
        if not heavy_mask & ~mask_of(path.vertices):
            break
        path = augment_once(g, path, heavy_mask, s)
    else:
        raise InternalInconsistencyError("absorption loop failed to converge")

    if path.first != u:
        path = path.flip()
    if not verify_heavy_path(g, path, u, v, threshold):
        raise InternalInconsistencyError("constructed path failed validation")
    return path


def verify_heavy_path(g: Graph, path, u: int, v: int, threshold: int) -> bool:
    """True iff ``path`` is a valid (u, v)-path of g covering every vertex of
    degree at least ``threshold``; either orientation is accepted."""
    seq = list(path.vertices) if isinstance(path, OrientedPath) else list(path)
    if len(seq) < 1 or not is_path_sequence(g, seq):
        return False
    if {seq[0], seq[-1]} != {u, v}:
        return False
    members = set(seq)
    return all(g.degree(x) < threshold or x in members for x in range(g.n))
