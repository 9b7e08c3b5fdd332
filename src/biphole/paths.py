"""Constructive (u, v)-paths through every vertex of degree at least the
bipartite-hole-number plus one.

Starting from a shortest (u, v)-path, each call of ``augment_once`` is one
round that absorbs one more heavy vertex w lying off the path: connect w to
the path by a shortest connector Q, pick the first heavy path vertex after
the attachment point (the pivot), and try the two template groups of the
case split in order.  Hole-freeness of the split (s, t) forces one of the
scanned crossing edges to exist.  Each formula checks the edges it adds and
keeps both ends and every on-path heavy vertex while gaining w, so the
first candidate a group yields closes the round, progress is strict and
the loop runs at most |H| times.  A candidate that gains nothing, or a
round that no group closes, raises InternalInconsistencyError at once.  One
BFS on the adjacency masks, ``_route``, finds both the first path and each
connector, and the templates read off-path neighbors as the bits of a
neighborhood mask outside the path's mask, in ascending order.  That mask
is the one the path carries (``_mask``), built by its check; no round
rebuilds it from the vertices.  Each round's new path is checked in full;
the first path (a BFS parent chain) and a reversal are valid by
construction and are not.  The body ``_heavy_path``
leaves the final path unverified, and each caller checks it once with
``verify_heavy_path``: the public ``heavy_path`` before it returns, and the
sweep's per-graph facts when they build it.  That check reads the mask of
the walk its own fresh check builds, so a wrong carried mask cannot hide.

Each remaining branch closes some round, and a test pins the smallest one
whose output changes without it (graph6; every labeled graph with n <= 7
searched):

* the connector group: w joined to the pivot (``D]{``), an off-path
  neighbor of w joined to it (``D]{``), or a neighbor of w joined to an
  off-path pivot neighbor (``FB^n_``) or to the predecessor of an on-path
  one before the attachment (``FB^n_``) or after the pivot (``FBx~_``);
* the anchored group, scan A: the successor of an early w-neighbor joined
  to an off-path pivot neighbor (``FBy~_``), to a pivot neighbor between
  anchor and pivot (``FDzuo``), or to the predecessor of one after the pivot
  (``Ev^g``); scan B: the predecessor of an early pivot neighbor joined to w
  or its off-path neighbor (``D]{``) or to the predecessor of a late
  w-neighbor (``FLvn_``); then w joined between anchor and pivot
  (``FUxnG``);
* re-anchoring Q on the pivot, which no labeled graph with n <= 7 reaches:
  ``Hz]ksmY`` (twice, then a seen state stops it) and
  ``Mbd{o^QJ]bhKS\\[Q?`` (once).
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
from .walks import OrientedPath

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

    The BFS keeps each vertex's first-found parent, its frontier in the
    order found and each vertex's neighbours ascending, and ends at the
    lowest target of the first layer that holds one, so the path never
    passes through a target.
    """
    adj = g._adj
    parent = [-1] * g.n
    seen = 1 << start
    frontier = [start]
    while frontier:
        before = seen
        nxt = []
        for a in frontier:
            new = adj[a] & ~seen
            seen |= new
            while new:
                low = new & -new
                new ^= low
                b = low.bit_length() - 1
                parent[b] = a
                nxt.append(b)
        hit = seen & ~before & targets
        if hit:
            b = (hit & -hit).bit_length() - 1
            seq = [b]
            while b != start:
                b = parent[b]
                seq.append(b)
            seq.reverse()
            return seq
        frontier = nxt
    return None


def initial_path(g: Graph, u: int, v: int) -> OrientedPath:
    """Shortest (u, v)-path by BFS with ascending tie-breaks."""
    _check_endpoints(g, u, v)
    seq = _route(g, u, 1 << v)
    if seq is None:
        raise DisconnectedError(f"no path between {u} and {v}")
    return OrientedPath._trusted(g, tuple(seq))


def _nearest(g: Graph, sources: int, targets: int) -> int:
    """The lowest target in the first BFS layer around ``sources`` that
    holds one; the lowest target when none is reachable."""
    adj = g._adj
    seen = layer = sources
    while layer and not layer & targets:
        nxt = 0
        while layer:
            low = layer & -layer
            nxt |= adj[low.bit_length() - 1]
            layer ^= low
        layer = nxt & ~seen
        seen |= layer
    hit = layer & targets or targets
    return (hit & -hit).bit_length() - 1


# -- template groups ---------------------------------------------------------


def _through_connector(g, verts, pos, on_mask, w, connector, p_pos, q_pos):
    """Absorption through the connector: a straight jump to the heavy pivot,
    a shared off-path neighbor, then a crossing edge from a free neighbor of
    w to a neighbor-of-the-pivot slot (an off-path neighbor of the pivot, or
    the predecessor of an on-path one before the attachment or after the
    pivot; three rerouting formulas).
    """
    adj = g._adj
    vq = verts[q_pos]
    free = ~(on_mask | mask_of(connector))
    head = [*verts[: p_pos + 1], *connector[1:]]
    tail = verts[q_pos:]
    if adj[w] >> vq & 1:
        yield _chain(head, tail)
    xs = list(iter_bits(adj[w] & free))
    for x in xs:
        if adj[x] >> vq & 1:
            yield _chain(head, [x], tail)
    ys_off = adj[vq] & free
    for x in xs:
        for y in iter_bits(adj[x] & ys_off):
            yield _chain(head, [x, y], tail)
    pred_pos = sorted(
        pos[z] - 1
        for z in iter_bits(adj[vq] & on_mask)
        if 0 < pos[z] <= p_pos or pos[z] > q_pos
    )
    for x in xs:
        for j in pred_pos:
            if not adj[x] >> verts[j] & 1:
                continue
            if j < p_pos:
                yield _chain(
                    verts[: j + 1],
                    [x],
                    reversed(connector),
                    reversed(verts[j + 1 : p_pos + 1]),
                    tail,
                )
            else:
                yield _chain(
                    head, [x], reversed(verts[q_pos : j + 1]), verts[j + 1 :]
                )


def _anchored(g, verts, pos, on_mask, w, wp_pos, r_pos, q2):
    """Mid-path case: w hangs off its anchored neighbor verts[r_pos]; scan
    around the heavy pivot at q2 > r_pos, then absorb directly if w touches
    the stretch between them."""
    adj = g._adj
    vq = verts[q2]
    w2_pos = [i for i in wp_pos if i < r_pos]
    w3_pos = [i for i in wp_pos if i > q2]
    nq_pos = sorted(pos[z] for z in iter_bits(adj[vq] & on_mask))
    v1_pos = [j for j in nq_pos if r_pos < j < q2]
    v2_pos = [j for j in nq_pos if j > q2]
    v3_pos = [j for j in nq_pos if j <= r_pos]
    nrq = adj[vq] & ~on_mask & ~(1 << w)
    nrw_closed = [w, *iter_bits(adj[w] & ~on_mask)]
    tail = verts[q2:]

    # Scan A: successors of w-neighbors before the anchor, by vertex id.
    for x in sorted(verts[i + 1] for i in w2_pos):
        ix = pos[x]
        hook = [*verts[:ix], w, *reversed(verts[ix : r_pos + 1])]
        for y in iter_bits(adj[x] & nrq):
            yield _chain(hook, [y], tail)
        for j in v1_pos:
            if adj[x] >> verts[j] & 1:
                yield _chain(hook, verts[j:])
        for j in v2_pos:
            if adj[x] >> verts[j - 1] & 1:
                yield _chain(hook, reversed(verts[q2:j]), verts[j:])

    # Scan B: predecessors of pivot-neighbors at or before the anchor, by
    # vertex id.
    for x in sorted(verts[j - 1] for j in v3_pos if j >= 1):
        ix = pos[x]
        for y in nrw_closed:
            if adj[x] >> y & 1:
                yield _chain(
                    verts[: ix + 1],
                    [y, w],
                    reversed(verts[ix + 1 : r_pos + 1]),
                    tail,
                )
        for j in w3_pos:
            if adj[x] >> verts[j - 1] & 1:
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
    the failed case.  ValueError if no heavy vertex is off the path, or if no
    heavy vertex of the path follows the attachment; ``heavy_path`` meets
    neither, since both ends of its paths are heavy.
    """
    on_mask = path._mask
    missing = heavy_mask & ~on_mask
    if not missing:
        raise ValueError("no heavy vertex off the path")
    w = _nearest(g, on_mask, missing)
    connector = _route(g, w, on_mask)
    if connector is None:
        raise DisconnectedError(f"heavy vertex {w} unreachable from the path")
    connector.reverse()

    adj = g._adj
    seen_states = set()
    while True:
        if path.last == connector[0]:
            path = path.flip()
        verts = path.vertices
        p_pos = verts.index(connector[0])
        q_pos = next(
            (i for i in range(p_pos + 1, len(verts)) if heavy_mask >> verts[i] & 1), None
        )
        if q_pos is None:
            raise ValueError(f"no heavy vertex follows the attachment {connector[0]}")
        vq = verts[q_pos]
        if len(connector) < 3 or not adj[connector[1]] >> vq & 1:
            break
        if (verts[0], vq) in seen_states:
            break
        seen_states.add((verts[0], vq))
        connector = [vq] + connector[1:]

    k = len(verts)
    pos = {x: i for i, x in enumerate(verts)}
    had = (heavy_mask & on_mask).bit_count()

    def first(candidates):
        # Each formula keeps both ends and every heavy path vertex, adds w
        # and checks the edges it adds, so the first candidate closes the
        # round; one that is not a path, or gains nothing, is a bug.
        seq = next(candidates, None)
        if seq is None:
            return None
        better = OrientedPath(g, seq)
        if (heavy_mask & better._mask).bit_count() <= had:
            raise InternalInconsistencyError(f"template gained no heavy vertex: {seq}")
        return better

    better = first(
        _through_connector(g, verts, pos, on_mask, w, connector, p_pos, q_pos)
    )
    if better is not None:
        return better
    wp_pos = sorted(pos[x] for x in iter_bits(adj[w] & on_mask))
    if len(wp_pos) < s + 1:
        case = f"vertex {w} has under s+1 = {s + 1} on-path neighbors"
    elif wp_pos[s] == k - 1:
        case = f"the anchor of vertex {w} is the path's last vertex"
    else:
        r_pos = wp_pos[s]
        q2 = next(i for i in range(r_pos + 1, k) if heavy_mask >> verts[i] & 1)
        better = first(_anchored(g, verts, pos, on_mask, w, wp_pos, r_pos, q2))
        if better is not None:
            return better
        case = f"no anchored template around positions {r_pos} and {q2}"
    DIAGNOSTICS["fallback"] += 1
    raise InternalInconsistencyError(
        f"no absorption template applies ({case}); wrong split or a bug"
    )


def heavy_path(g: Graph, u: int, v: int) -> OrientedPath:
    """A (u, v)-path containing every vertex of degree at least the
    bipartite-hole-number k plus one.

    Both endpoints must meet that degree bound.  All such vertices then lie
    in one component: two of them in different components would each bring
    a component of at least k + 2 vertices, and an S from one with a T from
    the other would give an (s, t)-hole for every split s + t = k + 1.
    """
    _check_endpoints(g, u, v)
    cert = bipartite_hole_number(g)
    return _verified_path(g, _heavy_path(g, u, v, cert), u, v, cert.value + 1)


def _verified_path(
    g: Graph, path: OrientedPath, u: int, v: int, threshold: int
) -> OrientedPath:
    """``path`` once ``verify_heavy_path`` has passed on it; a failure is a
    bug, raised as InternalInconsistencyError."""
    if not verify_heavy_path(g, path, u, v, threshold):
        raise InternalInconsistencyError("constructed path failed validation")
    return path


def _heavy_path(g: Graph, u: int, v: int, cert: HoleCertificate) -> OrientedPath:
    """The body of ``heavy_path``, given distinct in-range endpoints and
    g's certificate.  Its path is not yet verified: every caller passes it
    through ``_verified_path`` before anyone reads it."""
    threshold = cert.value + 1
    if g.degree(u) < threshold or g.degree(v) < threshold:
        raise DegreeConditionError(
            f"endpoints need degree >= {threshold}; got "
            f"d({u}) = {g.degree(u)}, d({v}) = {g.degree(v)}"
        )
    heavy_mask = mask_of(x for x, d in enumerate(g._degrees) if d >= threshold)

    if cert.value == 1:
        # Hole-number 1 means a complete graph; spell out a Hamilton path.
        rest = sorted(set(range(g.n)) - {u, v})
        path = OrientedPath(g, [u] + rest + [v])
    else:
        s = cert.hole_free_pair[0]
        path = initial_path(g, u, v)
        while heavy_mask & ~path._mask:
            path = augment_once(g, path, heavy_mask, s)
        if path.first != u:
            path = path.flip()
    return path


def verify_heavy_path(g: Graph, path, u: int, v: int, threshold: int) -> bool:
    """True iff ``path`` is a valid (u, v)-path of g covering every vertex of
    degree at least ``threshold``; either orientation is accepted."""
    try:
        # Checked afresh, so the mask read is this check's, not ``path``'s.
        fresh = OrientedPath(g, path.vertices if isinstance(path, OrientedPath) else path)
    except WalkError:
        return False
    if {fresh.first, fresh.last} != {u, v}:
        return False
    heavy = mask_of(x for x, d in enumerate(g._degrees) if d >= threshold)
    return not heavy & ~fresh._mask
