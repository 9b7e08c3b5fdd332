from types import SimpleNamespace

import pytest

import biphole.generators as generators_mod
from biphole import (
    MAX_VERTICES,
    Graph,
    GraphError,
    UnknownNameError,
    complete,
    complete_bipartite,
    cycle,
    empty,
    enumerate_labeled,
    erdos_renyi,
    named,
    path,
    petersen,
    star,
    theta,
)


def test_families():
    assert cycle(5).m == 5
    assert complete_bipartite(2, 3).m == 6
    assert theta(2, 2, 2) == complete_bipartite(2, 3)
    assert [star(4).degree(v) for v in range(4)] == [3, 1, 1, 1]
    assert petersen().n == 10 and petersen().m == 15
    assert all(petersen().degree(v) == 3 for v in range(10))
    assert path(1) == empty(1)


def test_theta_validation():
    g = theta(1, 2, 3)
    assert g.has_edge(0, 1) and g.n == 1 + 1 + 0 + 1 + 2
    with pytest.raises(ValueError):
        theta(1, 1, 2)
    with pytest.raises(ValueError):
        theta(0, 2, 2)


class _NoDraws:
    def __init__(self, seed):
        pass

    def getrandbits(self, k):
        raise AssertionError("random word drawn before the order check")


def _no_range(*args):
    raise AssertionError("edge list built before the order check")


@pytest.mark.parametrize(
    "build, args",
    [
        (complete, (MAX_VERTICES + 1,)),
        (cycle, (MAX_VERTICES + 1,)),
        (path, (MAX_VERTICES + 1,)),
        (star, (MAX_VERTICES + 1,)),
        (complete_bipartite, (MAX_VERTICES, 1)),
        (theta, (MAX_VERTICES - 1, 1, 2)),
        (erdos_renyi, (MAX_VERTICES + 1, 1, 2, 1)),
    ],
)
def test_oversized_order_fails_before_building(monkeypatch, build, args):
    # The edge list of an oversized order is quadratic in n, so the order
    # is refused before any pair is visited or any random word drawn.
    monkeypatch.setattr(generators_mod, "range", _no_range, raising=False)
    no_draws = SimpleNamespace(Random=_NoDraws)
    monkeypatch.setattr(generators_mod, "random", no_draws)
    with pytest.raises(GraphError, match=f"vertex count {MAX_VERTICES + 1} "):
        build(*args)


def test_named_dispatch():
    assert named("cycle", 5) == cycle(5)
    assert named("petersen") == petersen()
    with pytest.raises(UnknownNameError) as info:
        named("hypercube", 3)
    assert "cycle" in str(info.value)
    with pytest.raises(ValueError):
        named("cycle")


def test_erdos_renyi_extremes():
    assert erdos_renyi(6, 1, 1, 9) == complete(6)
    assert erdos_renyi(6, 0, 1, 9) == empty(6)
    with pytest.raises(ValueError):
        erdos_renyi(4, 3, 2, 0)


def test_erdos_renyi_deterministic():
    a = erdos_renyi(10, 1, 2, 42)
    b = erdos_renyi(10, 1, 2, 42)
    c = erdos_renyi(10, 1, 2, 43)
    assert a == b
    assert a != c  # overwhelmingly likely and fixed by the seeds


def test_enumerate_counts():
    assert len(list(enumerate_labeled(2))) == 2
    assert len(list(enumerate_labeled(3))) == 8
    graphs4 = list(enumerate_labeled(4))
    assert len(graphs4) == 64
    assert len(set(graphs4)) == 64  # mask bijection, no duplicates


def test_enumerate_gate():
    assert next(enumerate_labeled(7)) == empty(7)
    for n in (8, -1):
        with pytest.raises(ValueError, match="enumeration gated at n <= 7"):
            enumerate_labeled(n)


def test_enumerate_mask_order():
    first, second = list(enumerate_labeled(3))[:2]
    assert first == empty(3)
    assert second == Graph(3, [(0, 1)])


def test_enumerate_mask_range():
    every = list(enumerate_labeled(4))
    assert list(generators_mod._graphs_of_masks(4, range(10, 20))) == every[10:20]
    # Each graph is carried over from the previous mask, starting from the
    # empty graph; ranges that start above 0, step, or descend must still
    # give every mask's graph as a fresh build does.
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        total = 1 << len(pairs)
        ranges = [range(total), range(1, total), range(total // 3, total // 2 + 1),
                  range(total - 1, total), range(total - 1, 0, -3), range(5, total, 7)]
        for masks in ranges:
            fresh = [Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
                     for mask in masks]
            assert list(generators_mod._graphs_of_masks(n, masks)) == fresh
