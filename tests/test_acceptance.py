"""End-to-end acceptance suite: the paper's claims, checked by the same
property code that ``biphole sweep`` runs.

Each paper criterion runs its corpora through ``sweep.run_enumerated`` or
``sweep.run_graph6_lines`` and asserts that no failure names its property
and that the property checked exactly its pinned number of graphs, so a
property that stops applying cannot pass quietly.  A failure record carries
the graph6 line that replays it.  One session fixture per corpus:

* every labeled graph with n = 1..6, all eight properties: alpha-oracle
  and g6-roundtrip 33,867, heavy-cycle and fan-ham 11,617, heavy-path
  6,335, dirac-chain 1,896, min-degree-ham 1,895, min-degree-hc 104;
* every labeled graph with n = 7, fan-ham 1,014,888 and dirac-chain 15,796,
  on two worker processes;
* 1,000 seeded G(n, p) for alpha-oracle (seeds 770,000 + i), and 60 more
  with n = 15..20, past the naive oracle (seeds 880,000 + i);
* 500 seeded 2-connected G(n, p) with 4 <= n <= 12 (seeds 550,000 + i):
  heavy-cycle 500, min-degree-ham 255, min-degree-hc 143.

``biphole sweep --enumerate 6`` reproduces the n = 6 part.  The sharpness
witnesses and the graph6 fuzz test are checked directly.  The module takes
about two minutes on two cores: the n = 7 sweep about 25 s, the
time-boxed fuzz 60 s, the n <= 6 sweep about 3 s.
"""
from __future__ import annotations

import random
import time

import pytest

from biphole import (
    DegreeConditionError,
    brute_cycle_through_set,
    brute_path_through_set,
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
    verify_heavy_cycle,
    verify_heavy_path,
    write_graph6,
)
from biphole.errors import ParseError
from biphole.sweep import SweepResult, property_names, run_enumerated, run_graph6_lines


def _report(name, detail, t0):
    print(f"PASS {name}: {detail} [{time.time() - t0:.1f}s]")


def _assert_pinned(result, prop, checked):
    """No failure names ``prop``, and it checked exactly ``checked`` graphs."""
    assert [f for f in result.failures if f["property"] == prop] == []
    assert result.checked.get(prop, 0) == checked


@pytest.fixture(scope="session")
def sweep_n6():
    """Every labeled graph with n = 1..6 through every property."""
    result = SweepResult()
    for n in range(1, 7):
        result.merge(run_enumerated(n, list(property_names())))
    return result


@pytest.fixture(scope="session")
def sweep_n7():
    """Every labeled graph with n = 7 through the two implication criteria."""
    return run_enumerated(7, ["fan-ham", "dirac-chain"], jobs=2, allow_large=True)


@pytest.fixture(scope="session")
def sweep_alpha_corpus():
    """1,000 seeded G(n, p) with 1 <= n <= 10."""
    lines = [
        write_graph6(
            erdos_renyi(1 + i % 10, *((1, 4), (1, 2), (3, 4))[i % 3], seed=770_000 + i)
        )
        for i in range(1000)
    ]
    return run_graph6_lines(lines, ["alpha-oracle"])


@pytest.fixture(scope="session")
def sweep_two_connected():
    """500 seeded 2-connected graphs with 4 <= n <= 12."""
    lines = []
    i = 0
    while len(lines) < 500:
        n = 4 + i % 9
        num, den = ((1, 2), (2, 3), (3, 4))[i % 3]
        g = erdos_renyi(n, num, den, seed=550_000 + i)
        i += 1
        if g.is_two_connected():
            lines.append(write_graph6(g))
    return run_graph6_lines(lines, ["heavy-cycle", "min-degree-ham", "min-degree-hc"])


def test_alpha_oracle_equivalence(sweep_n6, sweep_alpha_corpus):
    """The certificate's value and hole_number equal the naive double
    enumeration; certificates validate."""
    _assert_pinned(sweep_n6, "alpha-oracle", 33_867)
    _assert_pinned(sweep_alpha_corpus, "alpha-oracle", 1_000)


def test_alpha_oracle_above_the_naive_reach():
    """Past the naive oracle's n <= 14, alpha-oracle still validates every
    certificate and checks the kernel's hole-free split against it."""
    lines = [
        write_graph6(
            erdos_renyi(15 + i % 6, *((1, 8), (1, 4), (1, 2), (3, 4))[i % 4], seed=880_000 + i)
        )
        for i in range(60)
    ]
    _assert_pinned(run_graph6_lines(lines, ["alpha-oracle"]), "alpha-oracle", 60)


def test_heavy_cycle_soundness(sweep_n6, sweep_two_connected):
    """Construction succeeds and verifies on every 2-connected input."""
    _assert_pinned(sweep_n6, "heavy-cycle", 11_617)
    _assert_pinned(sweep_two_connected, "heavy-cycle", 500)


def test_heavy_path_soundness(sweep_n6):
    """Every valid endpoint pair gets a verified path; a round that no
    template closes raises, and the property reports it."""
    _assert_pinned(sweep_n6, "heavy-path", 6_335)


def test_min_degree_implies_hamilton_cycle(sweep_n6, sweep_two_connected):
    """Minimum degree at the hole-number forces a Hamilton cycle."""
    _assert_pinned(sweep_n6, "min-degree-ham", 1_895)
    _assert_pinned(sweep_two_connected, "min-degree-ham", 255)


def test_min_degree_implies_hamilton_connected(sweep_n6, sweep_two_connected):
    """Minimum degree above the hole-number forces Hamilton paths everywhere."""
    _assert_pinned(sweep_n6, "min-degree-hc", 104)
    _assert_pinned(sweep_two_connected, "min-degree-hc", 143)


def test_fan_type_and_distance_two_imply_hamilton(sweep_n6, sweep_n7):
    """Whenever either condition holds on a 2-connected graph, the oracle
    confirms a Hamilton cycle (exhaustive n <= 7)."""
    _assert_pinned(sweep_n6, "fan-ham", 11_617)
    _assert_pinned(sweep_n7, "fan-ham", 1_014_888)


def test_half_degree_bounds_hole_number(sweep_n6, sweep_n7):
    """Minimum degree n/2 caps the hole-number at ceil(n/2) (exhaustive n <= 7)."""
    _assert_pinned(sweep_n6, "dirac-chain", 1_896)
    _assert_pinned(sweep_n7, "dirac-chain", 15_796)


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


def test_graph6_roundtrip_exhaustive(sweep_n6):
    """Every labeled graph with n <= 6 survives a graph6 round-trip."""
    _assert_pinned(sweep_n6, "g6-roundtrip", 33_867)


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
