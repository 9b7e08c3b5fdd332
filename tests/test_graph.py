import math
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphole import Graph, GraphError, NotTwoConnectedError
from biphole import complete, cycle, empty, enumerate_labeled, path, petersen
from biphole import erdos_renyi, parse_graph6, write_graph6

from conftest import graphs, seeded_graphs


def test_from_edges_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in g.vertices] == [1, 2, 1]


def test_from_edges_complete():
    g = complete(4)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert g.m == 6


def test_duplicate_edges_collapse():
    g = Graph(2, [(0, 1), (1, 0)])
    assert g.m == 1


@pytest.mark.parametrize("bad", [[(0, 0)], [(0, 5)], [(-1, 0)]])
def test_construction_errors(bad):
    with pytest.raises(GraphError):
        Graph(3, bad)


def test_closed_neighborhood():
    c5 = cycle(5)
    assert c5.closed_neighborhood_mask(0b00011) == 0b10111
    assert complete(4).closed_neighborhood_mask(0b0001) == 0b1111
    assert empty(5).closed_neighborhood_mask(0b00100) == 0b00100


def test_closed_neighborhood_monotone():
    g = petersen()
    small = g.closed_neighborhood_mask(0b101)
    big = g.closed_neighborhood_mask(0b100101)
    assert 0b101 & ~small == 0 and small & ~big == 0


def test_distance():
    assert path(3).distance(0, 2) == 2
    assert complete(4).distance(0, 3) == 1
    assert empty(2).distance(0, 1) == math.inf
    assert empty(2).distance(1, 1) == 0


def test_vertices_at_distance():
    assert cycle(5).vertices_at_distance(0, 2) == {2, 3}
    assert complete(4).vertices_at_distance(0, 2) == frozenset()
    assert path(3).vertices_at_distance(1, 1) == {0, 2}


def test_connectivity():
    assert cycle(5).is_connected() and cycle(5).is_two_connected()
    p3 = path(3)
    assert p3.is_connected() and not p3.is_two_connected()
    assert p3.cut_vertices() == {1}
    assert not complete(1).is_two_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()


def test_add_edge():
    p3 = path(3)
    c3 = p3.add_edge(0, 2)
    assert c3 == cycle(3)
    assert p3.m == 2  # original untouched
    assert complete(4).add_edge(0, 1) == complete(4)
    assert empty(2).add_edge(0, 1) == complete(2)
    with pytest.raises(GraphError):
        p3.add_edge(1, 1)


def test_induced_subgraph():
    sub, mapping = cycle(5).induced_subgraph({0, 1, 2})
    assert sub == path(3) and mapping == (0, 1, 2)
    sub, mapping = complete(4).induced_subgraph({0, 1})
    assert sub == complete(2)
    sub, mapping = complete(4).induced_subgraph(())
    assert sub.n == 0 and mapping == ()


def test_two_disjoint_paths_c5():
    assert cycle(5).two_disjoint_paths(0, 2) == ([0, 1, 2], [0, 4, 3, 2])


def test_two_disjoint_paths_k4_minus_edge():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    p1, p2 = g.two_disjoint_paths(0, 3)
    assert {tuple(p1), tuple(p2)} == {(0, 1, 3), (0, 2, 3)}


def test_two_disjoint_paths_requires_two_connected():
    with pytest.raises(NotTwoConnectedError):
        path(3).two_disjoint_paths(0, 2)


@pytest.mark.parametrize("x, y", [(0, 7), (-1, 2), (0, 5), (5, 5)])
def test_two_disjoint_paths_rejects_vertices_outside_the_graph(x, y):
    with pytest.raises(GraphError, match="vertex outside graph"):
        cycle(5).two_disjoint_paths(x, y)


def _reference_two_disjoint_paths(g, x, y):
    # The flow network in dicts keyed by arc that the mask flow replaced:
    # in(v) = 2v, out(v) = 2v + 1, each node's arcs in sorted order.
    cap = {}
    nbrs = {}

    def arc(a, b, c):
        cap[(a, b)] = c
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)

    for v in range(g.n):
        arc(2 * v, 2 * v + 1, 2 if v in (x, y) else 1)
    for u in range(g.n):
        for w in g.neighbors(u):
            arc(2 * u + 1, 2 * w, 1)
    for lst in nbrs.values():
        lst.sort()
    source, sink = 2 * x + 1, 2 * y
    flow = {}

    def residual(a, b):
        return cap.get((a, b), 0) - flow.get((a, b), 0)

    for _ in range(2):
        parent = {source: -1}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b in nbrs.get(a, ()):
                if b not in parent and residual(a, b) > 0:
                    parent[b] = a
                    queue.append(b)
        assert sink in parent
        b = sink
        while b != source:
            a = parent[b]
            flow[(a, b)] = flow.get((a, b), 0) + 1
            flow[(b, a)] = flow.get((b, a), 0) - 1
            b = a

    def extract():
        path = [x]
        node = source
        while node != sink:
            nxt = min(b for b in nbrs[node] if flow.get((node, b), 0) > 0)
            flow[(node, nxt)] -= 1
            node = nxt
            if node % 2 == 0:
                path.append(node // 2)
        return path

    return extract(), extract()


def _assert_flow_matches_reference(g):
    pairs = 0
    for x in range(g.n):
        for y in range(g.n):
            if x != y:
                want = _reference_two_disjoint_paths(g, x, y)
                assert g.two_disjoint_paths(x, y) == want, (g, x, y)
                pairs += 1
    return pairs


def test_two_disjoint_paths_match_the_dict_flow():
    # Every ordered pair of every 2-connected labeled graph with n <= 5,
    # then of the 40 2-connected graphs of a seeded sample with n = 6..19.
    small = [g for n in range(3, 6) for g in enumerate_labeled(n)]
    small = [g for g in small if g.is_two_connected()]
    assert sum(map(_assert_flow_matches_reference, small)) == 4_886
    sample = [g for g in seeded_graphs(60, 19, 17, min_n=6) if g.is_two_connected()]
    assert sum(map(_assert_flow_matches_reference, sample)) == 6_826


@given(graphs(min_n=3, max_n=10))
@settings(max_examples=100, deadline=None)
def test_two_disjoint_paths_match_the_dict_flow_on_random_graphs(g):
    if g.is_two_connected():
        _assert_flow_matches_reference(g)


@given(graphs(min_n=1, max_n=8))
@settings(max_examples=150)
def test_degree_equals_first_layer(g):
    for v in g.vertices:
        assert g.degree(v) == len(g.vertices_at_distance(v, 1))


@given(graphs(min_n=3, max_n=8))
@settings(max_examples=150)
def test_two_connected_implies_connected(g):
    if g.is_two_connected():
        assert g.is_connected() and g.n >= 3


def _two_connected_by_deletion(g):
    if g.n < 3 or not g.is_connected():
        return False
    for v in g.vertices:
        rest = [x for x in g.vertices if x != v]
        sub, _ = g.induced_subgraph(rest)
        if not sub.is_connected():
            return False
    return True


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=200)
def test_two_connected_matches_vertex_deletion(g):
    assert g.is_two_connected() == _two_connected_by_deletion(g)
    # A cut vertex is one whose removal increases the component count.
    expected_cuts = {v for v in g.vertices if _removal_disconnects(g, v)}
    assert g.cut_vertices() == expected_cuts


def test_closed_masks_are_the_closed_neighbourhoods():
    # The hole searches read g._closed, built once with the graph; every
    # way of building a graph must give N[v] = N(v) + v.
    def closed_ok(g):
        return g._closed == tuple(g.adj_mask(v) | 1 << v for v in g.vertices)

    assert all(closed_ok(g) for n in range(7) for g in enumerate_labeled(n))
    g = erdos_renyi(13, 1, 3, 5)
    built = [
        empty(0),
        Graph(4, [(0, 1), (2, 1), (3, 0)]),
        g,
        parse_graph6(write_graph6(g)),
        g.add_edge(*next(e for e in combinations(g.vertices, 2) if not g.has_edge(*e))),
        g.induced_subgraph([1, 4, 5, 9, 12])[0],
        g.permuted([(5 * v + 3) % 13 for v in g.vertices]),
    ]
    assert all(map(closed_ok, built))


def _two_connected_by_cut_vertices(g):
    """2-connectivity as first written: connected with no articulation point."""
    return g.n >= 3 and g.is_connected() and not g.cut_vertices()


def test_two_connected_matches_cut_vertices_exhaustively():
    for n in range(7):
        for g in enumerate_labeled(n):
            assert g.is_two_connected() == _two_connected_by_cut_vertices(g), g


@given(graphs(min_n=0, max_n=10))
@settings(max_examples=200)
def test_two_connected_matches_cut_vertices(g):
    assert g.is_two_connected() == _two_connected_by_cut_vertices(g)


@pytest.mark.parametrize(
    "g, expected",
    [
        (empty(0), False),
        (empty(1), False),
        (complete(2), False),
        (path(3), False),
        (complete(3), True),
        # Two triangles sharing vertex 2, the only cut vertex.
        (Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]), False),
    ],
)
def test_two_connected_edge_cases(g, expected):
    assert g.is_two_connected() == expected == _two_connected_by_cut_vertices(g)


def test_cut_vertices_match_removal_exhaustively():
    for n in range(7):
        for g in enumerate_labeled(n):
            expected = {v for v in g.vertices if _removal_disconnects(g, v)}
            assert g.cut_vertices() == expected, g


def _nested(depth, call):
    """``call()`` from ``depth`` extra stack frames."""
    return call() if depth == 0 else _nested(depth - 1, call)


def test_cut_vertices_at_the_recursion_bound():
    # The lowpoint DFS recurses once per vertex of its search tree, which on
    # a path or cycle of the largest order is MAX_VERTICES = 512 deep.
    long_path, long_cycle = path(512), cycle(512)
    for depth in (0, 100):
        assert _nested(depth, long_path.cut_vertices) == set(range(1, 511))
        assert _nested(depth, long_cycle.cut_vertices) == set()


def _removal_disconnects(g, v):
    rest = [x for x in g.vertices if x != v]
    sub, _ = g.induced_subgraph(rest)
    return _component_count(sub) > _component_count(g)


def _component_count(g):
    seen = set()
    count = 0
    for start in g.vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            a = stack.pop()
            for b in g.neighbors(a):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
    return count


@given(graphs(min_n=3, max_n=8))
@settings(max_examples=120)
def test_two_disjoint_paths_validity(g):
    if not g.is_two_connected():
        return
    for x, y in [(0, g.n - 1), (1, 2)]:
        p1, p2 = g.two_disjoint_paths(x, y)
        for p in (p1, p2):
            assert p[0] == x and p[-1] == y
            assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
            assert len(set(p)) == len(p)
        assert set(p1[1:-1]) & set(p2[1:-1]) == set()


def _reference_layers(g, sources):
    # The frontier loop that distances_from ran before Graph.layers.
    out = []
    seen = frontier = sources
    while frontier:
        out.append(frontier)
        nxt = 0
        for b in range(g.n):
            if frontier >> b & 1:
                nxt |= g.adj_mask(b)
        nxt &= ~seen
        seen |= nxt
        frontier = nxt
    return out


@given(graphs(min_n=1, max_n=9), st.integers(min_value=0))
@settings(max_examples=150, deadline=None)
def test_layers_match_frontier_loop(g, sources):
    sources &= (1 << g.n) - 1
    assert list(g.layers(sources)) == _reference_layers(g, sources)
    reach = 0
    for v in range(g.n):
        rows = _reference_layers(g, 1 << v)
        dist = [math.inf] * g.n
        for d, layer in enumerate(rows):
            for b in range(g.n):
                if layer >> b & 1:
                    dist[b] = d
        assert g.distances_from(v) == dist
        assert [g.distance(v, x) for x in range(g.n)] == dist
        if v == 0:
            reach = sum(rows)
    assert g.is_connected() == (reach == (1 << g.n) - 1)
