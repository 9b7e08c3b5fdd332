from itertools import combinations

import pytest
from hypothesis import given, settings

from biphole import Cycle, OrientedPath, WalkError, cycle, complete, path
from biphole.cycles import _cycle_through_heavy, verify_heavy_cycle
from biphole.generators import enumerate_labeled
from biphole.graph import mask_of
from biphole.holes import bipartite_hole_number
from biphole.paths import _heavy_path, verify_heavy_path

from conftest import walk_candidates


def test_path_navigation():
    c5 = cycle(5)
    p = OrientedPath(c5, [0, 1, 2, 3])
    assert p.first == 0 and p.last == 3
    assert p.flip().vertices == (3, 2, 1, 0)


def test_invalid_paths_rejected():
    with pytest.raises(WalkError):
        OrientedPath(path(3), [0, 2])  # non-edge
    with pytest.raises(WalkError):
        OrientedPath(path(3), [0, 1, 0])  # repeat
    with pytest.raises(WalkError):
        OrientedPath(path(3), [])


def test_cycle_validation():
    k4 = complete(4)
    c = Cycle(k4, [0, 1, 2, 3])
    assert len(c) == 4
    with pytest.raises(WalkError):
        Cycle(k4, [0, 1])
    with pytest.raises(WalkError):
        Cycle(cycle(5), [0, 2, 4])  # non-edges


def test_sequence_predicates_take_any_iterable():
    # Whether a sequence is a path or a cycle depends on its vertices, not on
    # the container they come in.
    c4 = cycle(4)
    for make in (list, tuple, iter):
        assert OrientedPath(c4, make([0, 1])).vertices == (0, 1)
        assert Cycle(c4, make([0, 1, 2, 3])).vertices == (0, 1, 2, 3)
        for kind, seq in (
            (OrientedPath, [0, 2]),
            (OrientedPath, []),
            (Cycle, [0, 1, 2]),
            (Cycle, [0, 1]),
        ):
            with pytest.raises(WalkError):
                kind(c4, make(seq))


@pytest.mark.parametrize(
    "seq,message",
    [
        ([0, 5, 0], "path repeats a vertex: (0, 5, 0)"),  # before the range
        ([0, 2, 5], "path vertex 5 outside graph"),  # before the non-edge
        ([1, -1], "path vertex -1 outside graph"),
        ([0, 2, 1], "path uses non-edge (0,2)"),
        ([0, 1, 2, 0], "path repeats a vertex: (0, 1, 2, 0)"),
    ],
)
def test_walk_errors_report_the_first_fault(seq, message):
    # Repeats are reported before ids out of range, and those before
    # non-edges, whatever their positions.
    with pytest.raises(WalkError) as info:
        OrientedPath(path(3), seq)
    assert str(info.value) == message


def test_walk_identity():
    # Paths and cycles share their base, but not their equality: the kind
    # counts as well as the vertices.
    k4 = complete(4)
    p, c = OrientedPath(k4, [0, 1, 2]), Cycle(k4, [0, 1, 2])
    assert p != c and c != p
    assert OrientedPath(k4, (0, 1, 2)) == p
    assert hash(OrientedPath(k4, [0, 1, 2])) == hash(p)
    assert Cycle(k4, iter([0, 1, 2])) == c and hash(Cycle(k4, (0, 1, 2))) == hash(c)
    assert OrientedPath(k4, [2, 1, 0]) != p
    assert len({p, c, OrientedPath(k4, [0, 1, 2])}) == 2
    assert repr(p) == "OrientedPath(0-1-2)" and repr(c) == "Cycle(0-1-2)"
    assert repr(OrientedPath(k4, [3])) == "OrientedPath(3)"
    assert type(OrientedPath._trusted(k4, (0, 1))) is OrientedPath
    assert type(Cycle._trusted(k4, (0, 1, 2))) is Cycle
    assert type(p.flip()) is OrientedPath and p.flip() == OrientedPath(k4, [2, 1, 0])
    assert list(c) == [0, 1, 2] and 2 in c and 3 not in c


def _reference_check(g, vertices, kind):
    """The walk check as first written, without the mask: distinctness by a
    set and range by min and max over the whole sequence, then the edges."""
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise WalkError(f"{kind} repeats a vertex: {verts}")
    n = g.n
    if verts and not (0 <= min(verts) and max(verts) < n):
        v = next(v for v in verts if not 0 <= v < n)
        raise WalkError(f"{kind} vertex {v} outside graph")
    for a, b in zip(verts, verts[1:]):
        if not g.has_edge(a, b):
            raise WalkError(f"{kind} uses non-edge ({a},{b})")
    return verts


def _outcome(make, *args):
    try:
        return make(*args)
    except WalkError as exc:
        return str(exc)


@given(walk_candidates(max_n=8))
@settings(max_examples=500)
def test_walks_carry_the_mask_of_their_vertices(case):
    # The one-pass check faults where the reference does, with its message;
    # every walk it passes, and each one _trusted or flip makes from it,
    # holds the mask of its vertices.
    g, seq = case
    for kind, cls in (("path", OrientedPath), ("cycle", Cycle)):
        expected = _outcome(_reference_check, g, seq, kind)
        walk = _outcome(cls, g, seq)
        if isinstance(expected, str):
            assert walk == expected
        if isinstance(walk, str):
            continue
        mask = mask_of(seq)
        assert walk._mask == mask
        assert cls._trusted(g, walk.vertices)._mask == mask
        assert cls._trusted(g, walk.vertices, mask)._mask == mask
        if cls is OrientedPath:
            assert walk.flip()._mask == mask and walk.flip().flip()._mask == mask


def test_constructed_walks_carry_the_mask_of_their_vertices():
    # Every heavy cycle and heavy path the construction bodies return on the
    # labeled graphs with n <= 5, as the sweep builds them.
    cycles = paths = 0
    for n in range(2, 6):
        for g in enumerate_labeled(n):
            cert = bipartite_hole_number(g)
            if g.is_two_connected():
                cyc = _cycle_through_heavy(g, cert)
                assert cyc._mask == mask_of(cyc.vertices)
                cycles += 1
            if not g.is_connected():
                continue
            heavy = [v for v in range(n) if g.degree(v) >= cert.value + 1]
            for u, v in combinations(heavy, 2):
                p = _heavy_path(g, u, v, cert)
                assert p._mask == mask_of(p.vertices)
                paths += 1
    assert (cycles, paths) == (249, 315)


def test_verifiers_read_the_mask_of_their_own_check():
    # A walk whose carried mask claims every vertex still misses 3 and 4:
    # the verifiers check the vertices afresh and read that check's mask.
    k5 = complete(5)
    everything = (1 << 5) - 1
    assert not verify_heavy_path(k5, OrientedPath._trusted(k5, (0, 1, 2), everything), 0, 2, 4)
    assert not verify_heavy_cycle(k5, Cycle._trusted(k5, (0, 1, 2), everything), 4)
    assert verify_heavy_path(k5, OrientedPath._trusted(k5, (0, 3, 1, 4, 2), 0), 0, 2, 4)
    assert verify_heavy_cycle(k5, Cycle._trusted(k5, (0, 3, 1, 4, 2), 0), 4)
