"""Constructive (u, v)-paths through every vertex of degree at least the
bipartite-hole-number plus one.

Starting from a shortest (u, v)-path, each round absorbs one more heavy
vertex w lying off the path: connect w to the path by a shortest connector Q,
pick the first heavy path vertex after the attachment point, and try the
three template groups of the case split in order: through the connector
(a direct jump to the pivot or a shared off-path neighbor), a bridge
crossing edge, and the anchored mid-path case.  Hole-freeness of the split
(s, t) forces one of the scanned crossing edges to exist, and each
template's formula yields a (u, v)-path that keeps every on-path heavy
vertex and gains w.  Progress is therefore strict and the loop runs at most
|H| times.

Every candidate is validated (path property, endpoints, strict heavy gain)
before being accepted.  A round that no template group closes raises
InternalInconsistencyError at once, naming the case that failed.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


def initial_path(g: Graph, u: int, v: int) -> OrientedPath:
    """Shortest (u, v)-path by BFS with ascending tie-breaks."""
    _check_endpoints(g, u, v)
    parent = {u: -1}
    frontier = [u]
    while frontier and v not in parent:
        nxt = []
        for a in frontier:
            for b in g.neighbors(a):
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    if v not in parent:
        raise DisconnectedError(f"no path between {u} and {v}")
    seq = [v]
    while seq[-1] != u:
        seq.append(parent[seq[-1]])
    seq.reverse()
    return OrientedPath(g, seq)


@dataclass
class AugmentContext:
    """One absorption round: the path, the heavy target w off it, the
    connector Q (path-endpoint first, w last), the attachment position, the
    first heavy position after it, and the s of the hole-free split."""

    path: OrientedPath
    w: int
    connector: list[int]
    p_pos: int
    q_pos: int
    s: int
    heavy_mask: int


def _shortest_connector(g: Graph, path: OrientedPath, w: int) -> list[int] | None:
    """BFS-shortest (w, V(P))-path, returned endpoint-first; None if separated."""
    on = set(path.vertices)
    parent = {w: -1}
    frontier = [w]
    while frontier:
        nxt = []
        hits = []
        for a in frontier:
            for b in g.neighbors(a):
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
                    if b in on:
                        hits.append(b)
        if hits:
            end = min(hits)
            seq = [end]
            while seq[-1] != w:
                seq.append(parent[seq[-1]])
            return seq
        frontier = [b for b in nxt if b not in on]
    return None


def _accept(g: Graph, before: OrientedPath, heavy_mask: int, seq: list[int]) -> OrientedPath | None:
    """Validate a candidate: real path, same endpoints, strictly more heavy."""
    if not seq or seq[0] != before.first or seq[-1] != before.last:
        return None
    gained = sum(1 for x in set(seq) if heavy_mask >> x & 1)
    had = sum(1 for x in before.vertices if heavy_mask >> x & 1)
    if gained <= had:
        return None
    try:
        return OrientedPath(g, seq)
    except WalkError:
        return None


# -- template groups ---------------------------------------------------------


def _try_direct_and_common(g, path, w, connector, p_pos, q_pos, heavy_mask):
    """Absorption through the connector: straight jump to the heavy pivot,
    else a shared off-path neighbor."""
    verts = path.vertices
    vq = verts[q_pos]
    q_set = set(connector)
    head = list(verts[: p_pos + 1]) + connector[1:]
    tail = list(verts[q_pos:])
    if g.has_edge(w, vq):
        cand = _accept(g, path, heavy_mask, _chain(head, tail))
        if cand is not None:
            return cand
    on = set(verts)
    nrw = [x for x in g.neighbors(w) if x not in on]
    nrq = {x for x in g.neighbors(vq) if x not in on}
    for x in nrw:
        if x in nrq and x not in q_set:
            cand = _accept(g, path, heavy_mask, _chain(head, [x], tail))
            if cand is not None:
                return cand
    return None


def _try_bridge(g, path, w, connector, p_pos, q_pos, heavy_mask):
    """Crossing edge from a free neighbor of w to a neighbor-of-the-pivot
    slot: an off-path neighbor of the pivot, or the predecessor of an
    on-path one; four rerouting formulas by position."""
    verts = path.vertices
    vq = verts[q_pos]
    pos = {x: i for i, x in enumerate(verts)}
    on = set(verts)
    q_set = set(connector)
    head = list(verts[: p_pos + 1]) + connector[1:]
    tail = list(verts[q_pos:])
    xs = sorted(x for x in g.neighbors(w) if x not in on and x not in q_set)
    ys_off = sorted(
        y for y in g.neighbors(vq) if y not in on and y not in q_set and y != w
    )
    for x in xs:
        for y in ys_off:
            if g.has_edge(x, y):
                cand = _accept(g, path, heavy_mask, _chain(head, [x, y], tail))
                if cand is not None:
                    return cand
    pred_pos = sorted(
        pos[z] - 1
        for z in g.neighbors(vq)
        if z in on and pos[z] >= 1 and pos[z] - 1 != p_pos
    )
    for x in xs:
        for j in pred_pos:
            y = verts[j]
            if not g.has_edge(x, y):
                continue
            if j < p_pos:
                seq = _chain(
                    verts[: j + 1],
                    [x],
                    reversed(connector),
                    reversed(verts[j + 1 : p_pos + 1]),
                    verts[q_pos:],
                )
            elif j >= q_pos:
                seq = _chain(
                    head, [x], reversed(verts[q_pos : j + 1]), verts[j + 1 :]
                )
            else:
                seq = _chain(head, [x], verts[j:])
            cand = _accept(g, path, heavy_mask, seq)
            if cand is not None:
                return cand
    return None


def _try_anchored(g, path, w, r_pos, q2, heavy_mask):
    """Mid-path case: w hangs off its anchored neighbor verts[r_pos]; scan
    around the heavy pivot at q2 > r_pos, then absorb directly if w touches
    the stretch between them."""
    verts = path.vertices
    pos = {x: i for i, x in enumerate(verts)}
    on = set(verts)
    vq = verts[q2]
    wp_pos = [pos[z] for z in g.neighbors(w) if z in on]
    w2_pos = sorted(i for i in wp_pos if i < r_pos)
    w3_pos = sorted(i for i in wp_pos if i > q2)
    nq_pos = [pos[z] for z in g.neighbors(vq) if z in on]
    v1_pos = sorted(j for j in nq_pos if r_pos < j < q2)
    v2_pos = sorted(j for j in nq_pos if j > q2)
    v3_pos = sorted(j for j in nq_pos if j <= r_pos)
    nrq = sorted(y for y in g.neighbors(vq) if y not in on and y != w)
    nrw_closed = [w] + sorted(y for y in g.neighbors(w) if y not in on)

    tail = list(verts[q2:])

    # Scan A: successors of w-neighbors before the anchor.
    xs = sorted(verts[i + 1] for i in w2_pos)
    for x in xs:
        ix = pos[x]
        hook = list(verts[:ix]) + [w] + list(reversed(verts[ix : r_pos + 1]))
        for y in nrq:
            if g.has_edge(x, y):
                cand = _accept(g, path, heavy_mask, _chain(hook, [y], tail))
                if cand is not None:
                    return cand
        for j in v1_pos:
            if g.has_edge(x, verts[j]):
                cand = _accept(g, path, heavy_mask, _chain(hook, verts[j:]))
                if cand is not None:
                    return cand
        for j in v2_pos:
            y = verts[j - 1]
            if j - 1 >= q2 and g.has_edge(x, y):
                seq = _chain(hook, reversed(verts[q2:j]), verts[j:])
                cand = _accept(g, path, heavy_mask, seq)
                if cand is not None:
                    return cand

    # Scan B: predecessors of pivot-neighbors at or before the anchor.
    xs = sorted(verts[j - 1] for j in v3_pos if j >= 1)
    for x in xs:
        ix = pos[x]
        for y in nrw_closed:
            if not g.has_edge(x, y):
                continue
            seq = _chain(
                verts[: ix + 1],
                [y, w],
                reversed(verts[ix + 1 : r_pos + 1]),
                tail,
            )
            cand = _accept(g, path, heavy_mask, seq)
            if cand is not None:
                return cand
        for j in w3_pos:
            y = verts[j - 1]
            if j - 1 >= q2 and g.has_edge(x, y):
                seq = _chain(
                    verts[: ix + 1],
                    reversed(verts[q2:j]),
                    verts[ix + 1 : r_pos + 1],
                    [w],
                    verts[j:],
                )
                cand = _accept(g, path, heavy_mask, seq)
                if cand is not None:
                    return cand

    # Direct absorption between anchor and pivot.
    for j in sorted(i for i in wp_pos if r_pos < i <= q2):
        cand = _accept(
            g, path, heavy_mask, _chain(verts[: r_pos + 1], [w], verts[j:])
        )
        if cand is not None:
            return cand
    return None


def build_context(g: Graph, path: OrientedPath, heavy_mask: int, s: int) -> AugmentContext:
    """Pick the nearest missing heavy vertex, its shortest connector, and the
    attachment bookkeeping; reorients the path so the attachment is not the
    far endpoint, and re-anchors the connector while its inner end touches
    the heavy pivot.

    The nearest vertex is the lowest id in the first layer of a BFS from the
    whole path that holds a missing heavy vertex; when none is reachable it
    is the lowest missing id, and the connector search reports it.
    """
    on_mask = mask_of(path.vertices)
    missing = heavy_mask & ~on_mask
    if not missing:
        raise ValueError("no heavy vertex off the path")
    hit = next((m & missing for m in g.layers(on_mask) if m & missing), missing)
    w = (hit & -hit).bit_length() - 1
    connector = _shortest_connector(g, path, w)
    if connector is None:
        raise DisconnectedError(f"heavy vertex {w} unreachable from the path")

    seen_states = set()
    for _ in range(2 * len(path) + 4):
        verts = path.vertices
        k = len(verts)
        pos = {x: i for i, x in enumerate(verts)}
        p_pos = pos[connector[0]]
        if p_pos == k - 1:
            path = path.flip()
            verts = path.vertices
            pos = {x: i for i, x in enumerate(verts)}
            p_pos = pos[connector[0]]
        q_pos = next(
            i for i in range(p_pos + 1, k) if heavy_mask >> verts[i] & 1
        )
        if len(connector) >= 3 and g.has_edge(connector[1], verts[q_pos]):
            state = (verts[0], verts[q_pos])
            if state in seen_states:
                break
            seen_states.add(state)
            connector = [verts[q_pos]] + connector[1:]
            continue
        break

    return AugmentContext(
        path=path,
        w=w,
        connector=connector,
        p_pos=p_pos,
        q_pos=q_pos,
        s=s,
        heavy_mask=heavy_mask,
    )


def augment_once(g: Graph, ctx: AugmentContext) -> OrientedPath:
    """One absorption round; returns a path with strictly more heavy
    vertices or raises InternalInconsistencyError naming the failed case."""
    path, w = ctx.path, ctx.w
    heavy_mask = ctx.heavy_mask
    verts = path.vertices
    k = len(verts)

    cand = _try_direct_and_common(
        g, path, w, ctx.connector, ctx.p_pos, ctx.q_pos, heavy_mask
    )
    if cand is None:
        cand = _try_bridge(
            g, path, w, ctx.connector, ctx.p_pos, ctx.q_pos, heavy_mask
        )
    if cand is not None:
        return cand

    wp_pos = [i for i, x in enumerate(verts) if g.has_edge(w, x)]
    if len(wp_pos) < ctx.s + 1:
        case = f"vertex {w} has under s+1 = {ctx.s + 1} on-path neighbors"
    elif wp_pos[ctx.s] == k - 1:
        case = f"the anchor of vertex {w} is the path's last vertex"
    else:
        r_pos = wp_pos[ctx.s]
        q2 = next(i for i in range(r_pos + 1, k) if heavy_mask >> verts[i] & 1)
        cand = _try_anchored(g, path, w, r_pos, q2, heavy_mask)
        if cand is not None:
            return cand
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
        ctx = build_context(g, path, heavy_mask, s)
        path = augment_once(g, ctx)
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
