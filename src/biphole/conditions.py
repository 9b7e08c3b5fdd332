"""Sufficient-condition checkers: Dirac, Erdos-Gallai, Ore, McDiarmid-Yolov,
Zhou et al., a Fan-type common-neighbor test, and the Liu-Yuan-Zhang
distance-two degree test.

These evaluate hypotheses only; whether the advertised conclusion
(hamiltonicity, hamiltonian-connectedness) actually follows is validated
elsewhere against the brute-force oracle.  Checkers never call the
constructive algorithms.  Fractional thresholds use integer arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import UnknownNameError
from .graph import Graph, iter_bits
from .holes import hole_number


@dataclass
class ConditionReport:
    """Outcome of one hypothesis check; holds iff violations is empty."""

    name: str
    holds: bool
    violations: list[dict]
    parameters: dict
    exempt: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "holds": self.holds,
            "violations": self.violations,
            "parameters": self.parameters,
        }
        if self.exempt:
            out["exempt"] = self.exempt
        return out


def _report(name, violations, parameters, exempt=None):
    return ConditionReport(
        name=name,
        holds=not violations,
        violations=violations,
        parameters=parameters,
        exempt=exempt or [],
    )


def independence_number(g: Graph) -> int:
    """Exact maximum independent set size.

    Branch and bound: pivot on the highest-degree candidate, bound by a
    greedy clique cover (a partition into cliques caps any independent set
    at one vertex per clique).
    """
    return _independence(g, (1 << g.n) - 1)


def _independence(g: Graph, cand_mask: int) -> int:
    """Independence number of the subgraph induced by ``cand_mask``."""
    adj = g._adj
    best = 0

    def clique_cover_bound(cand: int) -> int:
        cliques = 0
        remaining = cand
        commons: list[int] = []
        while remaining:
            v = (remaining & -remaining).bit_length() - 1
            remaining ^= 1 << v
            for i, common in enumerate(commons):
                if common >> v & 1:
                    commons[i] = common & adj[v]
                    break
            else:
                commons.append(adj[v])
                cliques += 1
        return cliques

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        if size + clique_cover_bound(cand) <= best:
            return
        pivot = max(iter_bits(cand), key=lambda v: (adj[v] & cand).bit_count())
        # Include the pivot, then exclude it.
        expand(cand & ~(adj[pivot] | (1 << pivot)), size + 1)
        expand(cand ^ (1 << pivot), size)

    expand(cand_mask, 0)
    return best


def common_neighbors(g: Graph, x: int, y: int) -> int:
    """|N(x) intersect N(y)|."""
    if x == y:
        raise ValueError("vertices must differ")
    return (g.adj_mask(x) & g.adj_mask(y)).bit_count()


def _distance_two(g: Graph, x: int) -> int:
    """N2(x) as a mask: N[N(x)] minus N[x]."""
    return g.closed_neighborhood_mask(g._adj[x]) & ~g._closed[x]


def alpha2(g: Graph, x: int, y: int) -> int:
    """Independence number of G[N2(x) intersect N2(y)]; 0 when empty."""
    if g.distance(x, y) != 2:
        raise ValueError(f"alpha2 requires distance({x},{y}) = 2")
    return _independence(g, _distance_two(g, x) & _distance_two(g, y))


def _distance_two_pairs(n2: list[int]) -> list[tuple[int, int]]:
    """Pairs x < y at distance two, from every vertex's N2 mask."""
    return [(x, y) for x, m in enumerate(n2) for y in iter_bits(m >> x + 1 << x + 1)]


def _degree_floor(name: str, g: Graph, low: int, extra_params: dict) -> ConditionReport:
    """Every degree at least ``low``, order at least three."""
    n = g.n
    params = {"n": n, "min_degree": g.min_degree(), **extra_params}
    if n < 3:
        return _report(name, [{"kind": "order", "n": n}], params)
    bad = [{"vertex": v, "degree": g.degree(v)} for v in range(n) if g.degree(v) < low]
    return _report(name, bad, params)


def check_dirac(g: Graph) -> ConditionReport:
    """Minimum degree at least n/2, order at least three."""
    return _degree_floor("dirac", g, (g.n + 1) // 2, {})


def check_erdos_gallai(g: Graph) -> ConditionReport:
    """Minimum degree at least (n+1)/2, order at least three."""
    return _degree_floor("erdos_gallai", g, (g.n + 2) // 2, {})


def check_ore(g: Graph) -> ConditionReport:
    """Degree sum at least n+1 over every nonadjacent pair, order >= 3."""
    n = g.n
    params = {"n": n}
    if n < 3:
        return _report("ore", [{"kind": "order", "n": n}], params)
    bad = []
    for x, y in combinations(range(n), 2):
        if not g.has_edge(x, y) and g.degree(x) + g.degree(y) < n + 1:
            bad.append({"pair": [x, y], "degree_sum": g.degree(x) + g.degree(y)})
    return _report("ore", bad, params)


def check_mcdiarmid_yolov(g: Graph) -> ConditionReport:
    """Minimum degree at least the bipartite-hole-number, order >= 3."""
    at = hole_number(g)
    return _degree_floor("mcdiarmid_yolov", g, at, {"alpha_tilde": at})


def check_zhou(g: Graph) -> ConditionReport:
    """Minimum degree at least the bipartite-hole-number plus one, order >= 3."""
    at = hole_number(g)
    return _degree_floor("zhou", g, at + 1, {"alpha_tilde": at})


def check_fan_type(g: Graph, alpha_tilde: int | None = None) -> ConditionReport:
    """Common-neighbor test on distance-two pairs of low-degree vertices.

    A pair (x, y) at distance two is tested only when max(d(x), d(y)) is
    below the bipartite-hole-number; it must then satisfy
    |N(x) & N(y)| >= alpha2(x, y) + 2.  Pairs above the degree guard are
    reported separately as exempt.
    """
    at = hole_number(g) if alpha_tilde is None else alpha_tilde
    params = {"n": g.n, "alpha_tilde": at}
    bad = []
    exempt = []
    n2 = [_distance_two(g, x) for x in range(g.n)]
    for x, y in _distance_two_pairs(n2):
        if max(g.degree(x), g.degree(y)) >= at:
            exempt.append({"pair": [x, y], "max_degree": max(g.degree(x), g.degree(y))})
            continue
        i_xy = common_neighbors(g, x, y)
        a2 = _independence(g, n2[x] & n2[y])
        if i_xy < a2 + 2:
            bad.append({"pair": [x, y], "common_neighbors": i_xy, "alpha2": a2})
    return _report("fan_type", bad, params, exempt)


def check_liu_yuan_zhang(g: Graph, alpha_tilde: int | None = None) -> ConditionReport:
    """Every distance-two pair carries a vertex of degree >= the hole-number."""
    at = hole_number(g) if alpha_tilde is None else alpha_tilde
    params = {"n": g.n, "alpha_tilde": at}
    bad = []
    for x, y in _distance_two_pairs([_distance_two(g, x) for x in range(g.n)]):
        md = max(g.degree(x), g.degree(y))
        if md < at:
            bad.append({"pair": [x, y], "max_degree": md})
    return _report("liu_yuan_zhang", bad, params)


_CHECKS = {
    "dirac": check_dirac,
    "erdos_gallai": check_erdos_gallai,
    "ore": check_ore,
    "mcdiarmid_yolov": check_mcdiarmid_yolov,
    "zhou": check_zhou,
    "fan_type": check_fan_type,
    "liu_yuan_zhang": check_liu_yuan_zhang,
}

_ALIASES = {
    "my": "mcdiarmid_yolov",
    "fan": "fan_type",
    "lyz": "liu_yuan_zhang",
    "eg": "erdos_gallai",
}


def condition_names() -> tuple[str, ...]:
    return tuple(sorted(_CHECKS))


def run_condition(name: str, g: Graph) -> ConditionReport:
    key = _ALIASES.get(name, name)
    try:
        return _CHECKS[key](g)
    except KeyError:
        valid = condition_names() + tuple(sorted(_ALIASES))
        raise UnknownNameError("condition", name, valid) from None
