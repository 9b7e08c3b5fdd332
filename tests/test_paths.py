"""Heavy-path construction, checked against the brute-force oracle."""
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biphole.paths as paths_mod
from biphole import (
    DegreeConditionError,
    DisconnectedError,
    Graph,
    InternalInconsistencyError,
    OrientedPath,
    bipartite_hole_number,
    brute_path_through_set,
    complete,
    cycle,
    empty,
    heavy_path,
    hole_number,
    initial_path,
    parse_graph6,
    path,
    verify_heavy_path,
)
from biphole.generators import enumerate_labeled, erdos_renyi
from biphole.graph import mask_of

from conftest import graphs, seeded_graphs, walk_candidates

K4_MINUS_EDGE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])


def k6_minus_matching():
    missing = {frozenset(p) for p in [(0, 3), (1, 4), (2, 5)]}
    return Graph(
        6,
        [
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if frozenset((u, v)) not in missing
        ],
    )


def test_initial_path():
    assert initial_path(cycle(5), 0, 2).vertices == (0, 1, 2)
    assert initial_path(complete(4), 0, 3).vertices == (0, 3)
    with pytest.raises(DisconnectedError):
        initial_path(empty(2), 0, 1)
    with pytest.raises(ValueError):
        initial_path(complete(4), 1, 1)


def test_verify_heavy_path():
    k4 = complete(4)
    assert verify_heavy_path(k4, [0, 1, 2, 3], 0, 3, 2)
    assert not verify_heavy_path(k4, [0, 1, 3], 0, 3, 2)  # misses heavy 2
    assert not verify_heavy_path(path(3), [0, 2], 0, 2, 0)  # non-edge
    assert verify_heavy_path(k4, [3, 1, 2, 0], 0, 3, 2)  # reverse orientation ok
    assert not verify_heavy_path(k4, [0, 1, 3, 2], 0, 3, 2)  # ends at 2, not 3


def _set_verify_heavy_path(g, path, u, v, threshold):
    """``verify_heavy_path`` as first written, the reference for the mask
    of missing vertices: a set of the path's vertices, and the walk checks
    of the time, by ``has_edge``."""
    seq = list(path.vertices) if isinstance(path, OrientedPath) else list(path)
    if not seq or len(set(seq)) != len(seq) or not all(0 <= x < g.n for x in seq):
        return False
    if not all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
        return False
    if {seq[0], seq[-1]} != {u, v}:
        return False
    members = set(seq)
    return all(g.degree(x) < threshold or x in members for x in range(g.n))


@given(walk_candidates(), st.integers(0, 7), st.booleans())
@settings(max_examples=400, deadline=None)
def test_verify_heavy_path_matches_set_based_reference(case, threshold, at_ends):
    g, seq = case
    ends = [(seq[0], seq[-1]), (seq[-1], seq[0])] if seq and at_ends else [(0, g.n - 1)]
    for u, v in ends:
        want = _set_verify_heavy_path(g, seq, u, v, threshold)
        assert verify_heavy_path(g, seq, u, v, threshold) == want
        if want:
            assert verify_heavy_path(g, OrientedPath(g, seq), u, v, threshold)


def test_verify_heavy_path_matches_set_based_reference_exhaustively():
    # Every labeled graph with n <= 4, every sequence of distinct vertices,
    # each ordered pair of ends and one other pair, every threshold.
    checked = 0
    for n in range(1, 5):
        for g in enumerate_labeled(n):
            for k in range(1, n + 1):
                for seq in permutations(range(n), k):
                    for u, v in {(seq[0], seq[-1]), (seq[-1], seq[0]), (0, n - 1)}:
                        for threshold in range(n + 1):
                            want = _set_verify_heavy_path(g, seq, u, v, threshold)
                            assert verify_heavy_path(g, seq, u, v, threshold) == want
                            checked += want
    assert checked == 6_222


def test_heavy_path_complete():
    p = heavy_path(complete(4), 0, 3)
    assert p.first == 0 and p.last == 3 and len(p) == 4


def test_heavy_path_degree_precondition():
    # Hole-number of the 5-cycle is 3, so endpoints would need degree 4.
    with pytest.raises(DegreeConditionError):
        heavy_path(cycle(5), 0, 2)


def test_heavy_path_k4_minus_edge():
    p = heavy_path(K4_MINUS_EDGE, 1, 2)
    assert verify_heavy_path(K4_MINUS_EDGE, p, 1, 2, 3)
    assert p.vertices == (1, 2)  # both heavies are the endpoints already


def test_heavy_path_absorbs_everything():
    g = k6_minus_matching()
    assert hole_number(g) == 2
    for u, v in [(0, 3), (0, 1), (2, 5)]:
        p = heavy_path(g, u, v)
        assert len(p) == 6  # threshold 3 makes every vertex heavy
        assert verify_heavy_path(g, p, u, v, 3)


def test_heavy_path_disconnected():
    g = Graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
              + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)])
    # Two K4 blocks: every split of 5 has a hole across the blocks and
    # (1, 5) has none, so the hole-number is 5 and no vertex reaches degree 6.
    assert hole_number(g) == 5
    with pytest.raises(DegreeConditionError):
        heavy_path(g, 0, 5)


def _disconnected_corpus():
    # Sparse G(n, 1/6), and a dense G(a, 3/4) beside a G(b, 1/2).
    for i in range(600):
        yield erdos_renyi(6 + i % 9, 1, 6, 3000 + i)
    for i in range(300):
        a, b = 3 + i % 6, 1 + i % 4
        dense = erdos_renyi(a, 3, 4, 4000 + i)
        other = erdos_renyi(b, 1, 2, 5000 + i)
        yield Graph(
            a + b,
            [*dense.edges(), *((x + a, y + a) for x, y in other.edges())],
        )


def test_heavy_vertices_share_one_component():
    # Vertices x, y of degree >= k + 1 (k the hole-number) in different
    # components would give an (s, t)-hole for every split s + t = k + 1: S
    # from x's component and T from y's, each of at least k + 2 vertices.
    # So heavy_path needs no component check of its own.
    spread = 0
    graphs = [g for n in range(1, 7) for g in enumerate_labeled(n)]
    for g in [*graphs, *_disconnected_corpus()]:
        threshold = hole_number(g) + 1
        heavy = mask_of(x for x in range(g.n) if g.degree(x) >= threshold)
        if heavy:
            x = (heavy & -heavy).bit_length() - 1
            component = sum(g.layers(1 << x))
            assert heavy & ~component == 0
            spread += component != (1 << g.n) - 1
    assert spread > 100  # disconnected graphs with heavy vertices occur


def test_heavy_path_rejects_same_endpoints():
    with pytest.raises(ValueError):
        heavy_path(complete(4), 2, 2)


def test_augment_drives_to_hamilton_on_dense_random():
    # Minimum degree >= hole-number + 1 forces Hamilton paths for all pairs.
    hits = 0
    for seed in range(200):
        g = erdos_renyi(8, 3, 4, seed=9000 + seed)
        if g.n < 3 or not g.is_connected():
            continue
        if g.min_degree() < hole_number(g) + 1:
            continue
        hits += 1
        for u in range(g.n):
            for v in range(u + 1, g.n):
                p = heavy_path(g, u, v)
                assert len(p) == g.n
    assert hits > 20


def test_exhaustive_small_all_pairs():
    for n in (2, 3, 4, 5):
        for g in enumerate_labeled(n):
            if not g.is_connected():
                continue
            threshold = hole_number(g) + 1
            for u in range(n):
                if g.degree(u) < threshold:
                    continue
                for v in range(n):
                    if v == u or g.degree(v) < threshold:
                        continue
                    p = heavy_path(g, u, v)
                    assert verify_heavy_path(g, p, u, v, threshold)
                    assert p.first == u and p.last == v


def _reference_route(g, start, targets):
    """``paths._route`` as first written, the reference for the mask BFS: a
    dict of first-found parents over neighbour tuples, ending at the lowest
    target of the first layer that holds one."""
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


def test_route_matches_reference_exhaustively():
    # Every start and every target mask of every connected labeled graph
    # with n <= 5.
    found = 0
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            if not g.is_connected():
                continue
            for start in range(n):
                for targets in range(1 << n):
                    want = _reference_route(g, start, targets)
                    assert paths_mod._route(g, start, targets) == want
                    found += want is not None
    assert found == 111_404


@given(graphs(min_n=1, max_n=10), st.data())
@settings(max_examples=300, deadline=None)
def test_route_matches_reference(g, data):
    start = data.draw(st.integers(0, g.n - 1))
    targets = data.draw(st.integers(0, (1 << g.n) - 1))
    assert paths_mod._route(g, start, targets) == _reference_route(g, start, targets)


def test_route_that_returns_a_non_path_is_caught(monkeypatch):
    # The first path is a BFS parent chain and is not checked on its own;
    # the final check still refuses a chain that is not a path.  In K4 minus
    # the edge 0-3, 1-3-0-2 uses that non-edge.
    assert paths_mod._route(K4_MINUS_EDGE, 1, 1 << 2) == [1, 2]
    monkeypatch.setattr(paths_mod, "_route", lambda g, start, targets: [1, 3, 0, 2])
    with pytest.raises(InternalInconsistencyError, match="failed validation"):
        heavy_path(K4_MINUS_EDGE, 1, 2)


def _assert_connector(g, p, w, connector):
    """Q starts on the path, ends at w and keeps its interior off the path."""
    assert connector[0] in p.vertices and connector[-1] == w
    assert set(connector[1:-1]).isdisjoint(p.vertices)


def test_augment_once():
    g = k6_minus_matching()
    p = initial_path(g, 0, 3)
    assert p.vertices == (0, 1, 3)
    heavy_mask = sum(1 << v for v in range(6))  # threshold 3, all heavy
    on_mask = mask_of(p.vertices)
    w = paths_mod._nearest(g, on_mask, heavy_mask & ~on_mask)
    assert w == 2  # nearest missing heavy vertex, smallest id
    _assert_connector(g, p, w, paths_mod._route(g, w, on_mask)[::-1])
    better = paths_mod.augment_once(g, p, heavy_mask, 1)
    assert better.first == p.first and better.last == p.last
    assert len(set(better.vertices) & {0, 1, 2, 3, 4, 5}) > 3


@st.composite
def _rounds(draw):
    """A graph, a shortest (u, v)-path and a heavy mask holding u, v and at
    least one vertex off the path."""
    g = draw(graphs(min_n=3, max_n=9))
    u, v = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    try:
        p = initial_path(g, u, v)
    except DisconnectedError:
        p = None
    assume(p is not None and len(p) < g.n)
    off = [x for x in range(g.n) if x not in p.vertices]
    extra = draw(st.lists(st.sampled_from(off), min_size=1, unique=True))
    heavy_mask = (1 << u) | (1 << v) | sum(1 << x for x in extra)
    return g, p, heavy_mask


@given(_rounds())
@settings(max_examples=300, deadline=None)
def test_augment_once_picks_nearest_like_per_vertex_bfs(case):
    g, p, heavy_mask = case
    # Reference: one BFS per missing heavy vertex, lowest id at the least
    # distance to the path.
    on = set(p.vertices)
    missing = [x for x in range(g.n) if heavy_mask >> x & 1 and x not in on]
    dist = {x: min(g.distances_from(x)[y] for y in p.vertices) for x in missing}
    expected = min(missing, key=lambda x: (dist[x], x))
    on_mask = mask_of(p.vertices)
    assert paths_mod._nearest(g, on_mask, mask_of(missing)) == expected
    connector = paths_mod._route(g, expected, on_mask)
    if dist[expected] == float("inf"):
        assert connector is None
        unreachable = f"heavy vertex {expected} unreachable"
        with pytest.raises(DisconnectedError, match=unreachable):
            paths_mod.augment_once(g, p, heavy_mask, 1)
    else:
        assert len(connector) == dist[expected] + 1
        _assert_connector(g, p, expected, connector[::-1])


def test_round_without_template_raises_at_once():
    # Star with center 1; heavy leaf 3 touches the path 0-1-2 only at 1, so
    # no template group applies and the round must raise, not search.
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    p = initial_path(g, 0, 2)
    assert paths_mod._nearest(g, mask_of(p.vertices), 0b1000) == 3
    before = paths_mod.DIAGNOSTICS["fallback"]
    with pytest.raises(InternalInconsistencyError, match="on-path neighbors"):
        paths_mod.augment_once(g, p, 0b1101, 1)
    assert paths_mod.DIAGNOSTICS["fallback"] == before + 1


def test_round_without_heavy_vertex_after_attachment_raises_value_error():
    # Heavy vertex 2 attaches at 0 and nothing heavy follows on 0-1: a bad
    # argument, refused before any template group runs.
    g = complete(4)
    before = paths_mod.DIAGNOSTICS["fallback"]
    with pytest.raises(ValueError, match="no heavy vertex follows the attachment 0"):
        paths_mod.augment_once(g, OrientedPath(g, [0, 1]), 0b0100, 1)
    assert paths_mod.DIAGNOSTICS["fallback"] == before


@pytest.mark.parametrize(
    "g6, path_seq, heavy, s, expected",
    [
        # _through_connector, in scan order.  w joined to the pivot.
        ("D]{", [2, 4], [0, 1, 2, 3, 4], 1, (2, 0, 4)),
        # An off-path neighbor of w joined to the pivot.
        ("D]{", [0, 2], [0, 1, 2, 3, 4], 1, (2, 1, 3, 0)),
        # A neighbor of w joined to an off-path neighbor of the pivot.
        ("FB^n_", [4, 1, 3, 2], [1, 2, 3, 4, 5, 6], 2, (4, 1, 5, 0, 6, 3, 2)),
        # ... to the predecessor of a pivot neighbor before the attachment.
        ("FB^n_", [3, 2, 5, 1, 4], [1, 2, 3, 4, 5, 6], 2, (3, 2, 5, 0, 6, 1, 4)),
        # ... to the predecessor of a pivot neighbor after the pivot.
        ("FBx~_", [1, 5, 4, 2, 3], [1, 2, 3, 4, 5, 6], 2, (1, 6, 0, 4, 5, 2, 3)),
        # _anchored, scan A: the successor x of an early w-neighbor joined
        # to an off-path pivot neighbor, to a pivot neighbor between anchor
        # and pivot, or to the predecessor of one after the pivot.
        ("FBy~_", [3, 2, 4, 0, 6], [2, 3, 4, 5, 6], 2, (3, 2, 5, 4, 1, 6)),
        ("FDzuo", [0, 5, 1, 4, 2, 3], [0, 3, 4, 5, 6], 2, (0, 5, 1, 6, 4, 2, 3)),
        ("Ev^g", [1, 0, 3, 2, 5], [0, 1, 2, 3, 4, 5], 1, (1, 4, 3, 0, 2, 5)),
        # Scan B: the predecessor x of an early pivot neighbor joined to w
        # or an off-path neighbor of w, or to the predecessor of a late
        # w-neighbor.
        ("D]{", [4, 1, 2, 0], [0, 1, 2, 3, 4], 1, (0, 3, 1, 2, 4)),
        ("FLvn_", [0, 4, 5, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6], 1, (0, 4, 5, 2, 1, 6, 3)),
        # w joined to a path vertex between anchor and pivot.
        ("FUxnG", [6, 1, 3, 0, 4, 2], [0, 1, 2, 4, 5, 6], 2, (6, 1, 3, 0, 4, 5, 2)),
    ],
    ids=[
        "connector-direct", "connector-shared", "connector-crossing",
        "connector-before", "connector-after", "scan-a-off-path",
        "scan-a-between", "scan-a-after", "scan-b-w-side", "scan-b-after",
        "anchored-direct",
    ],
)
def test_each_template_formula_closes_its_smallest_round(g6, path_seq, heavy, s, expected):
    # For each formula, the smallest round (fewest vertices, then edges and
    # path length, over every labeled graph with n <= 7) that it closes and
    # whose output changes without it; taken from heavy_path, so s is the
    # graph's hole-free s.
    g = parse_graph6(g6)
    cert = bipartite_hole_number(g)
    assert heavy == [x for x in range(g.n) if g.degree(x) > cert.value]
    assert s == cert.hole_free_pair[0]
    out = paths_mod.augment_once(g, OrientedPath(g, path_seq), mask_of(heavy), s)
    assert out.vertices == expected


def test_template_without_progress_raises(monkeypatch):
    # A formula that hands back a candidate gaining no heavy vertex is a
    # bug; the round raises instead of trying the next candidate.
    g = parse_graph6("D]{")
    p = OrientedPath(g, [2, 4])
    monkeypatch.setattr(
        paths_mod, "_through_connector", lambda *args: iter([[2, 4], [2, 0, 4]])
    )
    with pytest.raises(InternalInconsistencyError, match="gained no heavy vertex"):
        paths_mod.augment_once(g, p, 0b11111, 1)


@pytest.mark.parametrize(
    "g6, n, p, seed, pair, expected",
    [
        # Re-anchors twice, then meets a state it has seen and stops.
        ("Hz]ksmY", 9, (2, 3), 9887, (3, 4), (3, 1, 0, 2, 4)),
        # One re-anchor; without it the path is 1-5-7-4-3-8.
        (r"Mbd{o^QJ]bhKS\[Q?", 14, (1, 2), 52175, (1, 8), (1, 3, 5, 7, 6, 8)),
    ],
    ids=["seen-state-stop", "one-re-anchor"],
)
def test_connector_re_anchoring(g6, n, p, seed, pair, expected):
    # While the connector's second vertex touches the first heavy vertex
    # after its attachment, the round moves the attachment there.  No
    # labeled graph with n <= 7 does this.
    g = parse_graph6(g6)
    assert erdos_renyi(n, *p, seed) == g
    assert heavy_path(g, *pair).vertices == expected


def test_progress_strict():
    # Every augmentation strictly increases the heavy vertex count.
    g = k6_minus_matching()
    threshold = hole_number(g) + 1
    heavy = {v for v in g.vertices if g.degree(v) >= threshold}
    p = heavy_path(g, 0, 3)
    assert heavy <= set(p.vertices)


def test_oracle_agreement():
    for g in seeded_graphs(80, 8, seed=17, min_n=2):
        if not g.is_connected():
            continue
        threshold = hole_number(g) + 1
        heavy = [v for v in g.vertices if g.degree(v) >= threshold]
        for u in heavy:
            for v in heavy:
                if u >= v:
                    continue
                assert brute_path_through_set(g, u, v, heavy) is not None
                p = heavy_path(g, u, v)
                assert set(heavy) <= set(p.vertices)


def test_diagnostics_stay_quiet_on_small_exhaustive():
    paths_mod.DIAGNOSTICS.clear()
    for g in enumerate_labeled(5):
        if not g.is_connected():
            continue
        threshold = hole_number(g) + 1
        for u in range(5):
            for v in range(u + 1, 5):
                if g.degree(u) >= threshold and g.degree(v) >= threshold:
                    heavy_path(g, u, v)
    assert paths_mod.DIAGNOSTICS.get("fallback", 0) == 0
