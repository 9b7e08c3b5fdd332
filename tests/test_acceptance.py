"""End-to-end acceptance suite.

Each test prints one PASS line with its counts and timing (visible with
pytest -s); a failed assertion names the first counterexample, which is
always dumped as a replayable graph6 line.
"""
from __future__ import annotations

import random
import time

import pytest

import biphole.paths as paths_mod
from biphole import (
    DegreeConditionError,
    bipartite_hole_number,
    brute_cycle_through_set,
    brute_hamiltonian,
    brute_hamiltonian_connected,
    brute_path_through_set,
    check_fan_type,
    check_liu_yuan_zhang,
    complete,
    cycle,
    cycle_through_heavy,
    empty,
    erdos_renyi,
    heavy_path,
    hole_number,
    naive_hole_number,
    parse_graph6,
    path,
    petersen,
    validate_certificate,
    verify_heavy_cycle,
    verify_heavy_path,
    write_graph6,
)
from biphole.errors import ParseError
from biphole.generators import enumerate_labeled


def _report(name, detail, t0):
    print(f"PASS {name}: {detail} [{time.time() - t0:.1f}s]")


@pytest.fixture(scope="session")
def exhaustive_small():
    """All labeled graphs, n = 1..6, grouped by order."""
    return {n: list(enumerate_labeled(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def random_two_connected_12():
    """500 seeded 2-connected graphs with 4 <= n <= 12."""
    out = []
    i = 0
    while len(out) < 500:
        n = 4 + i % 9
        num, den = ((1, 2), (2, 3), (3, 4))[i % 3]
        g = erdos_renyi(n, num, den, seed=550_000 + i)
        i += 1
        if g.is_two_connected():
            out.append(g)
    return out


def test_alpha_oracle_equivalence(exhaustive_small):
    """Hole-number equals naive double enumeration; certificates validate."""
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for g in exhaustive_small[n]:
            cert = bipartite_hole_number(g)
            assert cert.value == naive_hole_number(g), write_graph6(g)
            assert validate_certificate(g, cert), write_graph6(g)
            checked += 1
    for i in range(1000):
        n = 1 + i % 10
        num, den = ((1, 4), (1, 2), (3, 4))[i % 3]
        g = erdos_renyi(n, num, den, seed=770_000 + i)
        cert = bipartite_hole_number(g)
        assert cert.value == naive_hole_number(g), write_graph6(g)
        assert validate_certificate(g, cert), write_graph6(g)
        checked += 1
    _report("alpha-oracle-equivalence", f"{checked} graphs", t0)


def test_heavy_cycle_soundness(exhaustive_small, random_two_connected_12):
    """Construction succeeds and verifies on every 2-connected input."""
    t0 = time.time()
    checked = 0
    for n in range(3, 7):
        for g in exhaustive_small[n]:
            if not g.is_two_connected():
                continue
            out = cycle_through_heavy(g)  # any exception fails the criterion
            assert verify_heavy_cycle(g, out, hole_number(g)), write_graph6(g)
            checked += 1
    for g in random_two_connected_12:
        out = cycle_through_heavy(g)
        assert verify_heavy_cycle(g, out, hole_number(g)), write_graph6(g)
        checked += 1
    _report("heavy-cycle-soundness", f"{checked} two-connected graphs", t0)


def test_heavy_path_soundness(exhaustive_small):
    """Every valid endpoint pair gets a verified path; no inconsistencies."""
    t0 = time.time()
    paths_mod.DIAGNOSTICS.clear()
    graphs_checked = 0
    pairs_checked = 0
    for n in range(2, 7):
        for g in exhaustive_small[n]:
            if not g.is_connected():
                continue
            threshold = hole_number(g) + 1
            eligible = [v for v in g.vertices if g.degree(v) >= threshold]
            ran = False
            for i, u in enumerate(eligible):
                for v in eligible[i + 1 :]:
                    p = heavy_path(g, u, v)
                    assert verify_heavy_path(g, p, u, v, threshold), write_graph6(g)
                    pairs_checked += 1
                    ran = True
            graphs_checked += ran
    fallbacks = paths_mod.DIAGNOSTICS.get("fallback", 0)
    _report(
        "heavy-path-soundness",
        f"{pairs_checked} pairs over {graphs_checked} graphs, "
        f"{fallbacks} fallback activations",
        t0,
    )


def test_min_degree_implies_hamilton_cycle(
    exhaustive_small, random_two_connected_12
):
    """Minimum degree at the hole-number forces a Hamilton cycle."""
    t0 = time.time()
    checked = 0
    corpora = [g for n in range(3, 7) for g in exhaustive_small[n]]
    corpora += random_two_connected_12
    for g in corpora:
        if g.n < 3 or g.min_degree() < hole_number(g):
            continue
        out = cycle_through_heavy(g)
        assert len(out) == g.n, write_graph6(g)
        assert brute_hamiltonian(g), write_graph6(g)
        checked += 1
    _report("min-degree-hamilton-cycle", f"{checked} qualifying graphs", t0)


def test_min_degree_implies_hamilton_connected(
    exhaustive_small, random_two_connected_12
):
    """Minimum degree above the hole-number forces Hamilton paths everywhere."""
    t0 = time.time()
    checked = 0
    corpora = [g for n in range(3, 7) for g in exhaustive_small[n]]
    corpora += random_two_connected_12
    for g in corpora:
        if g.n < 3 or g.min_degree() < hole_number(g) + 1:
            continue
        for u in range(g.n):
            for v in range(u + 1, g.n):
                p = heavy_path(g, u, v)
                assert len(p) == g.n, write_graph6(g)
        assert brute_hamiltonian_connected(g), write_graph6(g)
        checked += 1
    _report("min-degree-hamilton-connected", f"{checked} qualifying graphs", t0)


@pytest.fixture(scope="session")
def scan_n7():
    """One pass over all labeled graphs with n <= 7 for the two exhaustive
    implication criteria (they share the enumeration cost)."""
    results = {
        "fan_holds": 0,
        "lyz_holds": 0,
        "fan_bad": [],
        "lyz_bad": [],
        "chain_checked": 0,
        "chain_bad": [],
        "two_connected": 0,
    }
    for n in range(1, 8):
        gen = enumerate_labeled(n, allow_large=n >= 7)
        for g in gen:
            at = None
            if n >= 1 and 2 * g.min_degree() >= n:
                at = hole_number(g)
                results["chain_checked"] += 1
                if at > (n + 1) // 2:
                    results["chain_bad"].append(write_graph6(g))
            if n >= 3 and g.min_degree() >= 2 and g.is_two_connected():
                results["two_connected"] += 1
                if at is None:
                    at = hole_number(g)
                if check_fan_type(g, at).holds:
                    results["fan_holds"] += 1
                    if not brute_hamiltonian(g):
                        results["fan_bad"].append(write_graph6(g))
                if check_liu_yuan_zhang(g, at).holds:
                    results["lyz_holds"] += 1
                    if not brute_hamiltonian(g):
                        results["lyz_bad"].append(write_graph6(g))
    return results


def test_fan_type_and_distance_two_imply_hamilton(scan_n7):
    """Whenever either condition holds on a 2-connected graph, the oracle
    confirms a Hamilton cycle (exhaustive n <= 7)."""
    t0 = time.time()
    assert scan_n7["fan_bad"] == []
    assert scan_n7["lyz_bad"] == []
    _report(
        "fan-and-distance-two-imply-hamilton",
        f"fan holds on {scan_n7['fan_holds']}, distance-two degree on "
        f"{scan_n7['lyz_holds']} of {scan_n7['two_connected']} two-connected graphs",
        t0,
    )


def test_half_degree_bounds_hole_number(scan_n7):
    """Minimum degree n/2 caps the hole-number at ceil(n/2) (exhaustive n <= 7)."""
    t0 = time.time()
    assert scan_n7["chain_bad"] == []
    assert scan_n7["chain_checked"] > 0
    _report(
        "half-degree-hole-number-chain",
        f"{scan_n7['chain_checked']} qualifying graphs",
        t0,
    )


def test_spot_values():
    """Regression constants, each confirmed by the naive oracle first."""
    t0 = time.time()
    cases = [
        (complete(4), 1),
        (path(3), 2),
        (cycle(5), 3),
        (petersen(), 5),
    ] + [(empty(n), n) for n in range(1, 8)]
    for g, expected in cases:
        assert naive_hole_number(g) == expected, write_graph6(g)
        assert hole_number(g) == expected, write_graph6(g)
    _report("spot-values", f"{len(cases)} pinned values", t0)


# graph6 -> (order, hole-number) of the smallest witnesses.
CYCLE_SHARPNESS = {
    "D]o": (5, 3),
    "DF{": (5, 3),
    "FreRW": (7, 4),
    "FreVW": (7, 4),
    "FreVw": (7, 4),
}


@pytest.mark.parametrize("g6", CYCLE_SHARPNESS)
def test_cycle_threshold_is_sharp(g6):
    """A 2-connected graph with no cycle through every vertex of degree
    >= hole-number - 1; the construction's cycle covers degree >= hole-number
    only."""
    g = parse_graph6(g6)
    at = hole_number(g)
    assert (g.n, at) == CYCLE_SHARPNESS[g6] == (g.n, naive_hole_number(g))
    assert g.is_two_connected()
    lowered = [v for v in range(g.n) if g.degree(v) >= at - 1]
    assert brute_cycle_through_set(g, lowered) is None
    c = cycle_through_heavy(g)
    assert verify_heavy_cycle(g, c, at)
    assert not verify_heavy_cycle(g, c, at - 1)


def test_path_thresholds_are_sharp():
    """Path thresholds: heavy ends of degree >= hole-number + 1 with a path
    through every vertex of degree >= hole-number, not one less."""
    g = parse_graph6("C|")  # K4 minus the edge 1-3
    at = hole_number(g)
    assert at == 2 and g.degree(0) == g.degree(2) == at + 1
    lowered = [v for v in range(g.n) if g.degree(v) >= at]
    assert brute_path_through_set(g, 0, 2, lowered) is None
    p = heavy_path(g, 0, 2)
    assert p.vertices == (0, 2)
    assert verify_heavy_path(g, p, 0, 2, at + 1)
    assert not verify_heavy_path(g, p, 0, 2, at)
    # The 4-cycle: both thresholds at the hole-number fail for opposite ends.
    g = parse_graph6("Cl")
    at = hole_number(g)
    assert at == 2 and all(g.degree(v) == at for v in range(4))
    assert brute_path_through_set(g, 0, 2, range(4)) is None
    with pytest.raises(DegreeConditionError):
        heavy_path(g, 0, 2)


@pytest.mark.parametrize("g6, u, v", [("E^NG", 2, 3), ("EyUw", 1, 5)])
def test_path_threshold_is_sharp_at_n6(g6, u, v):
    """A heavy pair (u, v) with no (u, v)-path through every vertex of
    degree >= hole-number; the construction's path covers degree
    >= hole-number + 1 only."""
    g = parse_graph6(g6)
    at = hole_number(g)
    assert (g.n, at) == (6, 3) == (6, naive_hole_number(g))
    assert g.degree(u) >= at + 1 and g.degree(v) >= at + 1
    lowered = [x for x in range(g.n) if g.degree(x) >= at]
    assert brute_path_through_set(g, u, v, lowered) is None
    p = heavy_path(g, u, v)
    assert verify_heavy_path(g, p, u, v, at + 1)
    assert not verify_heavy_path(g, p, u, v, at)


def test_graph6_roundtrip_and_fuzz():
    """Bit-exact round-trip on 10,000 random graphs; 60s fuzz never panics."""
    t0 = time.time()
    for i in range(10_000):
        n = 1 + i % 16
        num, den = ((1, 4), (1, 2), (3, 4), (1, 1))[i % 4]
        g = erdos_renyi(n, num, den, seed=33_000 + i)
        line = write_graph6(g)
        assert parse_graph6(line) == g, line
    rng = random.Random(424242)
    deadline = time.time() + 60
    fuzz_cases = 0
    while time.time() < deadline:
        length = rng.randrange(0, 30)
        text = "".join(chr(rng.randrange(0, 256)) for _ in range(length))
        try:
            parse_graph6(text)
        except ParseError:
            pass
        fuzz_cases += 1
    _report(
        "graph6-roundtrip-and-fuzz",
        f"10000 round-trips, {fuzz_cases} fuzz cases",
        t0,
    )
