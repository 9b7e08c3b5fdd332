import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

import biphole.oracle as oracle_mod
from biphole import (
    SizeGuardError,
    brute_cycle_through_set,
    brute_hamiltonian,
    brute_hamiltonian_connected,
    brute_path_through_set,
    complete,
    complete_bipartite,
    cycle,
    empty,
    enumerate_labeled,
    path,
    petersen,
)

from conftest import graphs, seeded_graphs


def _is_cycle(g, seq):
    return (
        seq is not None
        and len(seq) >= 3
        and len(set(seq)) == len(seq)
        and all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))
        and g.has_edge(seq[-1], seq[0])
    )


def test_cycle_through_set():
    k4 = complete(4)
    found = brute_cycle_through_set(k4, range(4))
    assert _is_cycle(k4, found) and len(found) == 4
    assert brute_cycle_through_set(path(3), {0}) is None
    g = cycle(5).add_edge(0, 2)
    found = brute_cycle_through_set(g, range(5))
    assert _is_cycle(g, found) and len(found) == 5


def test_path_through_set():
    found = brute_path_through_set(complete(4), 0, 3, range(4))
    assert found[0] == 0 and found[-1] == 3 and len(found) == 4
    assert brute_path_through_set(path(3), 0, 2, {1}) == [0, 1, 2]
    assert brute_path_through_set(cycle(4), 0, 1, {2, 3}) == [0, 3, 2, 1]
    with pytest.raises(ValueError):
        brute_path_through_set(path(3), 1, 1, set())


def test_hamiltonicity_spots():
    assert brute_hamiltonian(complete(4)) and brute_hamiltonian_connected(complete(4))
    assert brute_hamiltonian(cycle(5)) and not brute_hamiltonian_connected(cycle(5))
    assert not brute_hamiltonian(petersen())
    assert not brute_hamiltonian_connected(petersen())
    assert not brute_hamiltonian(empty(3))
    assert not brute_hamiltonian(complete(2))


def test_size_guard(monkeypatch):
    with pytest.raises(SizeGuardError):
        brute_hamiltonian(empty(15))
    with pytest.raises(SizeGuardError):
        brute_hamiltonian_connected(empty(15))
    monkeypatch.setattr(oracle_mod, "DEFAULT_LIMIT", 15)
    assert brute_hamiltonian(complete(15))
    assert brute_hamiltonian_connected(complete(15))


def test_deciders_match_backtracking_witnesses_exhaustively():
    # The subset DP against the backtracking witness searches, which share
    # no code with it, on every labeled graph with n <= 6.
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            cycle_found = brute_cycle_through_set(g, range(n)) is not None
            assert brute_hamiltonian(g) == cycle_found
            every_pair = all(
                brute_path_through_set(g, u, v, range(n)) is not None
                for u, v in combinations(range(n), 2)
            )
            assert brute_hamiltonian_connected(g) == every_pair


# The witnesses of both searches on every labeled graph with n <= 6: 155,132
# answers.  For n <= 5, the requirement sets range(n), (), (0,) and (n-1,),
# the cycle and the path for every ordered pair; for n = 6, range(n), the
# cycle and the (0, 5)-path.  Pinned before the two searches shared one
# backtracking body, and unchanged by it.
WITNESS_SHA256 = "f9cc94007aaef85b03169e278f900dc17094c64e8c5d39e6ca3452fe2da525c7"


def test_witnesses_are_pinned():
    digest = hashlib.sha256()
    for n in range(1, 7):
        reqs = [range(n)] if n == 6 else [range(n), (), (0,), (n - 1,)]
        pairs = [(0, 5)] if n == 6 else list(permutations(range(n), 2))
        for g in enumerate_labeled(n):
            for r in reqs:
                digest.update(repr(brute_cycle_through_set(g, r)).encode())
            for u, v in pairs:
                for r in reqs:
                    digest.update(repr(brute_path_through_set(g, u, v, r)).encode())
    assert digest.hexdigest() == WITNESS_SHA256


def test_complete_bipartite_deciders():
    # K_{a,b} has a Hamilton cycle iff a = b >= 2; two vertices on one side
    # have no Hamilton path between them unless the graph is K_{1,1}.
    for a in range(1, 14):
        for b in range(a, 15 - a):
            g = complete_bipartite(a, b)
            assert brute_hamiltonian(g) == (a == b >= 2), (a, b)
            assert brute_hamiltonian_connected(g) == (a == b == 1), (a, b)


def test_worst_cases_of_backtracking_are_decided():
    # A backtracking search tries every alternating sequence before it
    # fails on these; the DP's table has 2^n entries per start.
    assert not brute_hamiltonian(complete_bipartite(6, 8))
    assert not brute_hamiltonian_connected(complete_bipartite(7, 7))


@given(graphs(min_n=3, max_n=7))
@settings(max_examples=120, deadline=None)
def test_hamiltonian_iff_cycle_through_everything(g):
    assert brute_hamiltonian(g) == (
        brute_cycle_through_set(g, range(g.n)) is not None
    )


@given(graphs(min_n=3, max_n=7))
@settings(max_examples=80, deadline=None)
def test_hc_implies_hamiltonian(g):
    if brute_hamiltonian_connected(g):
        assert brute_hamiltonian(g)


def test_isomorphism_invariance():
    rng = random.Random(11)
    for g in seeded_graphs(25, 8, seed=3, min_n=3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.permuted(perm)
        assert brute_hamiltonian(g) == brute_hamiltonian(h)
        assert brute_hamiltonian_connected(g) == brute_hamiltonian_connected(h)


def test_cycle_through_subset_consistency():
    # A cycle through a subset must exist whenever a Hamilton cycle does.
    for g in seeded_graphs(30, 7, seed=9, min_n=3):
        if brute_hamiltonian(g):
            assert brute_cycle_through_set(g, {0, g.n - 1}) is not None
