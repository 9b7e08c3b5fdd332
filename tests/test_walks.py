import pytest

from biphole import Cycle, OrientedPath, WalkError, cycle, complete, path
from biphole.walks import is_cycle_sequence, is_path_sequence


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
    # The answer depends on the vertices, not on the container they come in.
    c4 = cycle(4)
    for make in (list, tuple, iter):
        assert is_path_sequence(c4, make([0, 1]))
        assert not is_path_sequence(c4, make([0, 2]))
        assert not is_path_sequence(c4, make([]))
        assert is_cycle_sequence(c4, make([0, 1, 2, 3]))
        assert not is_cycle_sequence(c4, make([0, 1, 2]))
        assert not is_cycle_sequence(c4, make([0, 1]))


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
