from itertools import combinations

import pytest
from hypothesis import given, settings

import biphole.conditions as conditions_mod
from biphole import (
    UnknownNameError,
    alpha2,
    check_dirac,
    check_erdos_gallai,
    check_fan_type,
    check_liu_yuan_zhang,
    check_mcdiarmid_yolov,
    check_ore,
    check_zhou,
    common_neighbors,
    complete,
    cycle,
    empty,
    hole_number,
    independence_number,
    petersen,
    run_condition,
)
from biphole.generators import enumerate_labeled

from conftest import graphs, seeded_graphs


def _independent(g, subset):
    return all(not g.has_edge(u, v) for u, v in combinations(subset, 2))


def _alpha_exhaustive(g):
    best = 0
    for r in range(g.n, -1, -1):
        if any(_independent(g, c) for c in combinations(range(g.n), r)):
            return r
    return best


def test_independence_spots():
    assert independence_number(complete(4)) == 1
    assert independence_number(cycle(5)) == 2
    assert independence_number(petersen()) == 4
    assert independence_number(empty(6)) == 6
    assert independence_number(empty(0)) == 0


@given(graphs(max_n=9))
@settings(max_examples=80, deadline=None)
def test_independence_agrees_with_enumeration(g):
    assert independence_number(g) == _alpha_exhaustive(g)


def test_common_neighbors():
    assert common_neighbors(cycle(4), 0, 2) == 2
    assert common_neighbors(complete(4), 0, 1) == 2
    assert common_neighbors(empty(2), 0, 1) == 0
    with pytest.raises(ValueError):
        common_neighbors(empty(2), 1, 1)


def test_alpha2():
    assert alpha2(cycle(4), 0, 2) == 0
    assert alpha2(cycle(6), 0, 2) == 1
    # C5: the distance-two layers of 0 and 2 are {2,3} and {0,4}, disjoint.
    assert alpha2(cycle(5), 0, 2) == 0
    with pytest.raises(ValueError):
        alpha2(complete(4), 0, 1)


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=150, deadline=None)
def test_alpha2_matches_induced_subgraph_on_bfs_rows(g):
    # The reference: N2 from BFS distance rows, alpha on the induced subgraph.
    rows = [g.distances_from(x) for x in range(g.n)]
    for x, y in combinations(range(g.n), 2):
        if rows[x][y] != 2:
            with pytest.raises(ValueError):
                alpha2(g, x, y)
            continue
        shared = [v for v in range(g.n) if rows[x][v] == 2 and rows[y][v] == 2]
        expected = independence_number(g.induced_subgraph(shared)[0]) if shared else 0
        assert alpha2(g, x, y) == expected


def test_distance_two_masks_match_the_closed_neighbourhood_formula():
    # N2(x) from the graph's closed masks equals N[N(x)] minus N[x] built
    # through closed_neighborhood_mask, on every labeled graph to n = 6.
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            for x in range(n):
                nx = g.adj_mask(x)
                expected = g.closed_neighborhood_mask(nx) & ~(nx | 1 << x)
                assert conditions_mod._distance_two(g, x) == expected


def test_fan_type():
    assert check_fan_type(complete(4)).holds  # no distance-2 pairs at all
    rep = check_fan_type(cycle(5))
    assert not rep.holds and len(rep.violations) == 5
    rep = check_fan_type(petersen())
    assert rep.holds == (not rep.violations)


def test_fan_guard_exemption():
    # K6 minus a perfect matching: hole-number 2, all degrees 4 >= 2, so all
    # distance-two pairs are exempt and the condition holds vacuously.
    g = complete(6)
    for u, v in [(0, 3), (1, 4), (2, 5)]:
        edges = [e for e in g.edges() if set(e) != {u, v}]
        g = type(g)(6, edges)
    assert hole_number(g) == 2
    rep = check_fan_type(g)
    assert rep.holds and rep.exempt and not rep.violations


@given(graphs(min_n=1, max_n=9))
@settings(max_examples=150, deadline=None)
def test_fan_type_matches_pairwise_alpha2(g):
    # Rebuild the report pair by pair through the public alpha2.
    at = hole_number(g)
    bad, exempt = [], []
    for x, y in combinations(range(g.n), 2):
        if g.distance(x, y) != 2:
            continue
        md = max(g.degree(x), g.degree(y))
        if md >= at:
            exempt.append({"pair": [x, y], "max_degree": md})
            continue
        i_xy = common_neighbors(g, x, y)
        a2 = alpha2(g, x, y)
        if i_xy < a2 + 2:
            bad.append({"pair": [x, y], "common_neighbors": i_xy, "alpha2": a2})
    expected = {
        "name": "fan_type",
        "holds": not bad,
        "violations": bad,
        "parameters": {"n": g.n, "alpha_tilde": at},
    }
    if exempt:
        expected["exempt"] = exempt
    assert check_fan_type(g).to_json() == expected


def test_liu_yuan_zhang():
    rep = check_liu_yuan_zhang(cycle(5))
    assert not rep.holds and len(rep.violations) == 5
    assert check_liu_yuan_zhang(complete(4)).holds


def test_dirac_and_relatives():
    assert check_dirac(complete(4)).holds
    assert not check_dirac(cycle(5)).holds
    assert not check_dirac(complete(2)).holds  # order guard
    assert check_erdos_gallai(complete(4)).holds
    assert not check_erdos_gallai(cycle(4)).holds
    assert check_ore(complete(4)).holds
    assert not check_ore(cycle(5)).holds


def test_hole_number_conditions():
    assert check_mcdiarmid_yolov(complete(4)).holds
    assert not check_mcdiarmid_yolov(cycle(5)).holds
    assert not check_mcdiarmid_yolov(petersen()).holds  # 3 < 5
    assert check_zhou(complete(4)).holds
    assert not check_zhou(petersen()).holds


def test_reports_are_json_ready():
    rep = check_mcdiarmid_yolov(cycle(5))
    doc = rep.to_json()
    assert doc["name"] == "mcdiarmid_yolov"
    assert doc["holds"] is False
    assert doc["parameters"]["alpha_tilde"] == 3
    assert all("vertex" in v for v in doc["violations"])


def test_run_condition_aliases():
    assert run_condition("my", complete(4)).name == "mcdiarmid_yolov"
    assert run_condition("lyz", complete(4)).name == "liu_yuan_zhang"
    with pytest.raises(UnknownNameError) as info:
        run_condition("bogus", complete(4))
    assert "dirac" in str(info.value)


def test_holds_iff_no_violations():
    for g in seeded_graphs(20, 7, seed=13, min_n=1):
        for name in ("dirac", "erdos_gallai", "ore", "my", "zhou", "fan", "lyz"):
            rep = run_condition(name, g)
            assert rep.holds == (not rep.violations)
