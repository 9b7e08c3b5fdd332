"""Heavy-cycle construction, checked against the brute-force oracle."""
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biphole.cycles as cycles_mod
from biphole import (
    Cycle,
    Graph,
    InternalInconsistencyError,
    NotTwoConnectedError,
    OrientedPath,
    brute_cycle_through_set,
    complete,
    cycle,
    cycle_through_heavy,
    hole_number,
    parse_graph6,
    path,
    petersen,
    rotation_to_cycle,
    verify_heavy_cycle,
)
from biphole.generators import enumerate_labeled

from conftest import seeded_two_connected, walk_candidates

K4_MINUS_EDGE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])


def test_heavy_threshold():
    # The heavy threshold of the cycle theorem is the bipartite-hole-number.
    assert hole_number(complete(4)) == 1
    assert hole_number(cycle(5)) == 3
    assert hole_number(path(3)) == 2


def test_verify_heavy_cycle():
    k4 = complete(4)
    assert verify_heavy_cycle(k4, [0, 1, 2, 3], 1)
    assert not verify_heavy_cycle(k4, [0, 1, 2], 1)  # vertex 3 heavy, missing
    assert verify_heavy_cycle(k4, [0, 1, 2], 4)  # nobody heavy
    assert not verify_heavy_cycle(cycle(5), [0, 2, 4], 99)  # non-edges


def _set_verify_heavy_cycle(g, cyc, threshold):
    """``verify_heavy_cycle`` as first written, the reference for the mask
    of missing vertices: a set of the cycle's vertices, and the walk checks
    of the time, by ``has_edge``."""
    seq = list(cyc.vertices) if isinstance(cyc, Cycle) else list(cyc)
    if len(set(seq)) != len(seq) or not all(0 <= x < g.n for x in seq):
        return False
    if len(seq) < 3 or not all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1])):
        return False
    members = set(seq)
    return all(g.degree(x) < threshold or x in members for x in range(g.n))


@given(walk_candidates(), st.integers(0, 7))
@settings(max_examples=400, deadline=None)
def test_verify_heavy_cycle_matches_set_based_reference(case, threshold):
    g, seq = case
    want = _set_verify_heavy_cycle(g, seq, threshold)
    assert verify_heavy_cycle(g, seq, threshold) == want
    if want:
        assert verify_heavy_cycle(g, Cycle(g, seq), threshold)


def test_verify_heavy_cycle_matches_set_based_reference_exhaustively():
    # Every labeled graph with n <= 4, every sequence of distinct vertices,
    # every threshold.
    checked = 0
    for n in range(1, 5):
        for g in enumerate_labeled(n):
            for k in range(n + 1):
                for seq in permutations(range(n), k):
                    for threshold in range(n + 1):
                        want = _set_verify_heavy_cycle(g, seq, threshold)
                        assert verify_heavy_cycle(g, seq, threshold) == want
                        checked += want
    assert checked == 984


def test_rotation_on_four_path():
    # Path 0-1-2-3 plus chords 0-2 and 1-3; hole-free split (1, 2).
    g = K4_MINUS_EDGE
    assert hole_number(g) == 2
    p = OrientedPath(g, [0, 1, 2, 3])
    out = rotation_to_cycle(g, p, 1, 2)
    assert isinstance(out, Cycle)
    assert set(out.vertices) >= {0, 1, 2, 3}
    assert brute_cycle_through_set(g, range(4)) is not None


def test_rotation_rejects_adjacent_endpoints():
    with pytest.raises(ValueError):
        rotation_to_cycle(cycle(4), OrientedPath(cycle(4), [0, 1, 2, 3]), 1, 1)


def test_rotation_scan_three_closes():
    # Scans 1 and 2 find no crossing edge here; scan 3's formula for a late
    # u-neighbor successor joined to an early v-neighbor successor closes it.
    g = parse_graph6("Fgt~g")
    out = rotation_to_cycle(g, [0, 6, 5, 3, 4, 1, 2], 2, 2)
    assert out.vertices == (0, 6, 2, 5, 3, 4, 1)
    assert cycle_through_heavy(g).vertices == (0, 6, 2, 5, 3, 4, 1)


@pytest.mark.parametrize(
    "g6, closure, path_seq, split, expected",
    [
        # 1a: an off-path u-neighbor joined to an off-path v-neighbor; the
        # cycle is the path plus both.
        ("FF]iG", [], [3, 4, 5], (2, 3), (3, 4, 5, 6, 1)),
        # 1b: an off-path u-neighbor joined to the successor of an on-path
        # v-neighbor.
        ("D^o", [], [0, 3, 2, 1], (1, 3), (0, 3, 2, 1, 4)),
        # 2a: the predecessor of an early u-neighbor joined to an off-path
        # v-neighbor.
        ("Edv_", [(1, 3), (3, 5)], [4, 3, 1, 0, 5], (2, 2), (4, 3, 2, 5, 0, 1)),
        # 2b: the predecessor of an early u-neighbor joined to the successor
        # of a late v-neighbor.
        ("C]", [(0, 1)], [2, 1, 0, 3], (1, 2), (2, 0, 3, 1)),
    ],
    ids=["1a", "1b", "2a", "2b"],
)
def test_rotation_scans_one_and_two_close(monkeypatch, g6, closure, path_seq, split, expected):
    # The unwind makes exactly one rotation, in g plus the closure edges
    # still in place, and the named scan closes it.
    g = parse_graph6(g6)
    thinner = g
    for a, b in closure:
        thinner = thinner.add_edge(a, b)
    assert rotation_to_cycle(thinner, path_seq, *split).vertices == expected
    calls = []
    real = cycles_mod.rotation_to_cycle

    def recording(h, p, s, t):
        calls.append((h, p.vertices, s, t))
        return real(h, p, s, t)

    monkeypatch.setattr(cycles_mod, "rotation_to_cycle", recording)
    assert cycle_through_heavy(g).vertices == expected
    assert calls == [(thinner, tuple(path_seq), *split)]


def test_open_at():
    # Dropping a cycle edge leaves the path from its first named end to the
    # other; an edge the cycle does not use gives None.
    verts = (0, 1, 2, 3)
    assert cycles_mod._open_at(verts, 0, 3) == [0, 1, 2, 3]
    assert cycles_mod._open_at(verts, 3, 0) == [3, 2, 1, 0]
    assert cycles_mod._open_at(verts, 1, 2) == [1, 0, 3, 2]
    assert cycles_mod._open_at(verts, 2, 1) == [2, 3, 0, 1]
    assert cycles_mod._open_at(verts, 0, 2) is None
    assert cycles_mod._open_at(verts, 7, 0) is None  # an end off the cycle
    assert cycles_mod._open_at((4, 2, 0), 0, 4) == [0, 2, 4]  # a triangle
    assert cycles_mod._open_at((4, 2, 0), 0, 2) == [0, 4, 2]


def test_final_cycle_that_fails_validation_raises(monkeypatch):
    # The final cycle is checked once, by verify_heavy_cycle; a sequence
    # that is not a cycle of g is a bug, reported as such and not as a
    # WalkError.  C5 has no heavy vertex, so the cycle closes two paths
    # between 0 and its lowest neighbor 1; 0-1-2 does not close.
    monkeypatch.setattr(Graph, "_two_disjoint_paths", lambda g, a, b: ([a, b], [a, 2, b]))
    with pytest.raises(InternalInconsistencyError, match="failed validation"):
        cycle_through_heavy(cycle(5))


def test_rotation_inconsistency_on_wrong_split():
    # A plain 4-path has no cycle at all, so any split must dead-end.
    g = path(4)
    with pytest.raises(InternalInconsistencyError):
        rotation_to_cycle(g, OrientedPath(g, [0, 1, 2, 3]), 1, 1)


def test_cycle_through_heavy_complete():
    out = cycle_through_heavy(complete(4))
    assert len(out) == 4
    assert verify_heavy_cycle(complete(4), out, 1)


def test_cycle_through_heavy_c5():
    # Hole-number 3 exceeds every degree, so nobody is heavy and any cycle
    # will do; the construction settles on the outer cycle.
    out = cycle_through_heavy(cycle(5))
    assert list(out.vertices) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize(
    "g6, heavy, expected",
    [
        # One heavy vertex: a cycle through it and its lowest neighbor, 2.
        ("E\\r?", [0], (0, 2, 3)),
        # Two heavy vertices: a cycle through both, where one through 0 and
        # its lowest neighbor would be 0-2-3.
        ("E^r?", [0, 1], (0, 2, 1, 3)),
    ],
    ids=["one-heavy", "two-heavy"],
)
def test_one_or_two_heavy_vertices_need_no_rotation(monkeypatch, g6, heavy, expected):
    g = parse_graph6(g6)
    k = hole_number(g)
    assert [x for x in range(g.n) if g.degree(x) >= k] == heavy

    def forbidden(*args):
        raise AssertionError("rotation with fewer than three heavy vertices")

    monkeypatch.setattr(cycles_mod, "rotation_to_cycle", forbidden)
    assert cycle_through_heavy(g).vertices == expected


def test_cycle_through_heavy_k4_minus_edge():
    out = cycle_through_heavy(K4_MINUS_EDGE)
    assert len(out) == 4
    assert verify_heavy_cycle(K4_MINUS_EDGE, out, 2)


def test_cycle_through_heavy_petersen():
    out = cycle_through_heavy(petersen())
    assert verify_heavy_cycle(petersen(), out, hole_number(petersen()))


def test_not_two_connected_rejected():
    with pytest.raises(NotTwoConnectedError):
        cycle_through_heavy(path(3))


def test_determinism():
    g = seeded_two_connected(1, 9, seed=21)[0]
    assert cycle_through_heavy(g).vertices == cycle_through_heavy(g).vertices


def test_exhaustive_small():
    for n in (3, 4, 5):
        for g in enumerate_labeled(n):
            if not g.is_two_connected():
                continue
            threshold = hole_number(g)
            out = cycle_through_heavy(g)
            assert verify_heavy_cycle(g, out, threshold)


def test_random_driver_instances_exercise_rotation(monkeypatch):
    calls = []
    real = cycles_mod.rotation_to_cycle

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cycles_mod, "rotation_to_cycle", counting)
    corpus = seeded_two_connected(200, 10, seed=77)
    for g in corpus:
        out = cycles_mod.cycle_through_heavy(g)
        assert verify_heavy_cycle(g, out, hole_number(g))
    assert len(calls) > 50  # the closure/unwind driver really rotates


def test_agreement_with_oracle():
    for g in seeded_two_connected(40, 9, seed=4):
        threshold = hole_number(g)
        heavy = [v for v in g.vertices if g.degree(v) >= threshold]
        assert brute_cycle_through_set(g, heavy) is not None
        out = cycle_through_heavy(g)
        assert set(heavy) <= set(out.vertices)


def test_rotation_preserves_path_vertices():
    for g in seeded_two_connected(60, 9, seed=31):
        cert_threshold = hole_number(g)
        out = cycle_through_heavy(g)
        heavy = {v for v in g.vertices if g.degree(v) >= cert_threshold}
        assert heavy <= set(out.vertices)
