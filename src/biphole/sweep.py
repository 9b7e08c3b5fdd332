"""Property sweeps over graph streams: theorem soundness, oracle agreement,
certificate validity, format round-trips.

Each property takes a graph and its ``GraphFacts`` and returns None when it
does not apply, or a list of failure records (empty meaning pass).  The
facts are computed at most once per graph, on first read and without a
lock, and shared by every property, so a sweep builds each graph's
certificate and brute oracle answer once, and builds and verifies its heavy
cycle and its heavy path per pair once: the properties read walks already
verified.  ``alpha-oracle`` validates the shared certificate, checks it and
the value of the profile kernel behind ``hole_number`` against the naive
search, and the kernel's hole-free split against the certificate's.  Above
the brute oracles' n <= 14 each property skips its oracle comparison, and
fan-ham, nothing but that comparison, is skipped.  One runner serves every
job count: it cuts the source into chunks of graph6 lines or edge-mask
ranges and sweeps each with the same chunk function, in this process for
one job and on worker processes for more.  A chunk is swept in batches
whose graphs hold at most 1,024 vertex pairs n(n - 1)/2 together (about 68
graphs at n = 6; a graph above the budget runs alone), so a batch's facts
stay small.  Each graph of a batch gets its facts, then each property runs
over the whole batch before the next.  An n = 6 graph costs about 100 us
across all eight properties, so switching property at every graph loses
the interpreter's locality: the n = 6 sweep runs about 1.25x faster in
this order.  Every graph still meets the properties in the given order, so
its facts are computed in the same order and the counts and failures equal
those of one graph at a time.  The runner aggregates a deterministic summary; every
failure carries the offending graph6 line so it can be replayed: a graph6
source's own input line, so that a fault in the writer that
``g6-roundtrip`` checks cannot corrupt it, and the written graph6 of an
enumerated graph.

The acceptance suite (``tests/test_acceptance.py``) checks the paper's
claims through these properties and pins each one's checked count: every
labeled graph with n <= 6 through all eight, every one with n = 7 through
fan-ham and dirac-chain, 1,060 seeded G(n, p) through alpha-oracle (60 of
them past the naive oracle's reach) and 500 seeded 2-connected ones
through heavy-cycle and the two min-degree properties (that module's
docstring lists the counts).  ``biphole sweep --enumerate 6`` reproduces
the n = 6 part.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations

from .conditions import check_fan_type, check_liu_yuan_zhang
from .cycles import _cycle_through_heavy, _require_two_connected, _verified_cycle
from .errors import BipholeError, ParseError, SizeGuardError, UnknownNameError
from .formats import parse_graph6, write_graph6
from .generators import _check_enumeration_order, _graphs_of_masks, erdos_renyi
from .graph import Graph
from .holes import (
    HoleCertificate,
    _profile_kernel,
    bipartite_hole_number,
    naive_hole_number,
    validate_certificate,
)
from .oracle import brute_hamiltonian, brute_hamiltonian_connected
from .paths import _heavy_path, _verified_path
from .walks import Cycle, OrientedPath


class _fact:
    """A field computed on first read into the instance ``__dict__``, which
    then shadows it; unlike ``cached_property`` (Python < 3.12), no lock."""

    def __init__(self, compute):
        self.compute = compute

    def __get__(self, facts, owner=None):
        if facts is None:
            return self
        return facts.__dict__.setdefault(self.compute.__name__, self.compute(facts))


class GraphFacts:
    """Per-graph analysis shared by the properties; each field is computed
    on first read only.  A construction is verified once, as it is built,
    and kept with the error it raised (a failed verification raises too),
    so every property that reads it reports that error as its own."""

    def __init__(self, g: Graph):
        self.graph = g
        self._paths: dict[tuple[int, int], OrientedPath | BipholeError] = {}

    @_fact
    def cert(self) -> HoleCertificate:
        return bipartite_hole_number(self.graph)

    @_fact
    def two_connected(self) -> bool:
        return self.graph.is_two_connected()

    @_fact
    def connected(self) -> bool:
        """Whether g is connected; no search when a property has already
        found g 2-connected."""
        return self.__dict__.get("two_connected", False) or self.graph.is_connected()

    def _oracle(self, oracle):
        """The brute oracle's answer, or None above its n <= 14 guard."""
        try:
            return oracle(self.graph)
        except SizeGuardError:
            return None

    @_fact
    def hamiltonian(self) -> bool | None:
        return self._oracle(brute_hamiltonian)

    @_fact
    def hamiltonian_connected(self) -> bool | None:
        return self._oracle(brute_hamiltonian_connected)

    @_fact
    def naive_value(self) -> int | None:
        return self._oracle(naive_hole_number)

    @_fact
    def heavy_cycle(self) -> Cycle | BipholeError:
        """The cycle construction, verified, or its error."""
        try:
            _require_two_connected(self.two_connected)
            cyc = _cycle_through_heavy(self.graph, self.cert)
            return _verified_cycle(self.graph, cyc, self.cert.value)
        except BipholeError as exc:
            return exc

    def heavy_path(self, u: int, v: int) -> OrientedPath | BipholeError:
        """The (u, v) path construction, verified, or its error."""
        if (u, v) not in self._paths:
            try:
                p = _heavy_path(self.graph, u, v, self.cert)
                self._paths[u, v] = _verified_path(
                    self.graph, p, u, v, self.cert.value + 1
                )
            except BipholeError as exc:
                self._paths[u, v] = exc
        return self._paths[u, v]


def _raised(exc: BipholeError) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _cycle_failures(facts: GraphFacts) -> list[dict]:
    """The heavy cycle construction's error as a failure record, if any."""
    cyc = facts.heavy_cycle
    if isinstance(cyc, BipholeError):
        return [{"detail": "construction " + _raised(cyc)}]
    return []


def _path_failures(facts: GraphFacts, pairs) -> list[dict]:
    """One failure record per pair (u, v) whose path construction erred."""
    failures = []
    for u, v in pairs:
        p = facts.heavy_path(u, v)
        if isinstance(p, BipholeError):
            failures.append({"detail": f"({u},{v}) " + _raised(p)})
    return failures


def _prop_alpha_oracle(g: Graph, facts: GraphFacts):
    naive = facts.naive_value
    cert = facts.cert
    failures = []
    if naive is not None and cert.value != naive:
        failures.append(
            {"detail": f"value {cert.value} disagrees with naive {naive}"}
        )
    if not validate_certificate(g, cert):
        failures.append({"detail": "certificate failed validation"})
    value, s = _profile_kernel(g._closed)
    if naive is not None and value != naive:
        failures.append(
            {"detail": f"hole_number {value} disagrees with naive {naive}"}
        )
    if (s, value + 1 - s) != cert.hole_free_pair:
        failures.append(
            {"detail": f"kernel split {(s, value + 1 - s)} differs from "
             f"the certificate's {cert.hole_free_pair}"}
        )
    return failures


def _prop_heavy_cycle(g: Graph, facts: GraphFacts):
    return _cycle_failures(facts) if facts.two_connected else None


def _prop_heavy_path(g: Graph, facts: GraphFacts):
    if g.n < 2 or not facts.connected:
        return None
    heavy = [v for v in range(g.n) if g.degree(v) > facts.cert.value]
    if len(heavy) < 2:
        return None
    return _path_failures(facts, combinations(heavy, 2))


def _prop_min_degree_ham(g: Graph, facts: GraphFacts):
    if g.n < 3 or g.min_degree() < facts.cert.value:
        return None
    failures = _cycle_failures(facts)
    if facts.hamiltonian is False:
        failures.append({"detail": "oracle says non-hamiltonian"})
    return failures


def _prop_min_degree_hc(g: Graph, facts: GraphFacts):
    if g.n < 3 or g.min_degree() < facts.cert.value + 1:
        return None
    failures = _path_failures(facts, combinations(range(g.n), 2))
    if facts.hamiltonian_connected is False:
        failures.append({"detail": "oracle says not hamiltonian-connected"})
    return failures


def _prop_fan_ham(g: Graph, facts: GraphFacts):
    if not facts.two_connected:
        return None
    if facts.hamiltonian is not False:  # None above the oracle's guard: skip
        return None if facts.hamiltonian is None else []
    at = facts.cert.value
    failures = []
    if check_fan_type(g, at).holds:
        failures.append({"detail": "fan-type condition holds but graph is not hamiltonian"})
    if check_liu_yuan_zhang(g, at).holds:
        failures.append({"detail": "distance-two degree condition holds but graph is not hamiltonian"})
    return failures


def _prop_dirac_chain(g: Graph, facts: GraphFacts):
    if g.n < 1 or 2 * g.min_degree() < g.n:
        return None
    bound = (g.n + 1) // 2
    if facts.cert.value > bound:
        return [{"detail": f"hole-number exceeds ceil(n/2) = {bound}"}]
    return []


def _prop_g6_roundtrip(g: Graph, facts: GraphFacts):
    encoded = write_graph6(g)
    if parse_graph6(encoded) != g:
        return [{"detail": f"round-trip mismatch via {encoded!r}"}]
    return []


PROPERTIES = {
    "alpha-oracle": _prop_alpha_oracle,
    "heavy-cycle": _prop_heavy_cycle,
    "heavy-path": _prop_heavy_path,
    "min-degree-ham": _prop_min_degree_ham,
    "min-degree-hc": _prop_min_degree_hc,
    "fan-ham": _prop_fan_ham,
    "dirac-chain": _prop_dirac_chain,
    "g6-roundtrip": _prop_g6_roundtrip,
}


def property_names() -> tuple[str, ...]:
    return tuple(PROPERTIES)


def _property(name: str):
    """The property called ``name``, read from ``PROPERTIES`` at each call."""
    try:
        return PROPERTIES[name]
    except KeyError:
        raise UnknownNameError("property", name, property_names()) from None


@dataclass
class SweepResult:
    checked: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepResult") -> None:
        for k, n in other.checked.items():
            self.checked[k] = self.checked.get(k, 0) + n
        for k, n in other.skipped.items():
            self.skipped[k] = self.skipped.get(k, 0) + n
        self.failures.extend(other.failures)


def check_graph(
    g: Graph, properties: list[str], result: SweepResult, g6: str | None = None
) -> None:
    """Run the properties on g, adding the outcomes into ``result``: a
    sweep's batch of one (a sweep batches graphs up to ``_PAIR_BUDGET``
    vertex pairs and runs each property over a whole batch, with the same
    outcomes).  A failure's replay line is ``g6``, the graph's input line,
    when given."""
    _check_batch([(g, g6)], properties, result)


# The most vertex pairs, n(n - 1)/2 summed over its graphs, that one batch
# holds facts for: about 68 graphs at n = 6, and one at a time from n = 33 up.
_PAIR_BUDGET = 1024


def _batches(items):
    """Cut a stream of (graph, replay line) into lists whose graphs hold at
    most ``_PAIR_BUDGET`` vertex pairs together, a graph with n <= 1
    counting one; a graph above the budget is a batch of its own."""
    batch, pairs = [], 0
    for item in items:
        n = item[0].n
        cost = max(1, n * (n - 1) // 2)
        if batch and pairs + cost > _PAIR_BUDGET:
            yield batch
            batch, pairs = [], 0
        batch.append(item)
        pairs += cost
    if batch:
        yield batch


def _check_batch(batch, properties: list[str], result: SweepResult) -> None:
    """Run each property over every (graph, replay line) of the batch before
    the next property, adding its checked and skipped counts once."""
    facts = [GraphFacts(g) for g, _ in batch]
    for name in properties:
        prop = _property(name)
        checked = skipped = 0
        for (g, g6), f in zip(batch, facts):
            outcome = prop(g, f)
            if outcome is None:
                skipped += 1
                continue
            checked += 1
            if outcome:
                line = write_graph6(g) if g6 is None else g6
                for record in outcome:
                    result.failures.append({"property": name, "graph6": line, **record})
        if checked:
            result.checked[name] = result.checked.get(name, 0) + checked
        if skipped:
            result.skipped[name] = result.skipped.get(name, 0) + skipped


def _parsed(line: str):
    """A graph6 line's graph and the line; its ``ParseError`` names the line."""
    try:
        return parse_graph6(line), line
    except ParseError as exc:
        raise ParseError(f"graph6 line {line!r}: {exc}") from None


def _run_chunk(task) -> SweepResult:
    """Sweep one chunk of a source: ``("g6", lines, properties)``, where each
    line is its graph's replay line, or ``("enum", (n, lo, hi), properties)``,
    the edge masks lo..hi of the order-n enumeration, in ``_batches``."""
    kind, payload, properties = task
    if kind == "g6":
        items = map(_parsed, payload)
    else:
        n, lo, hi = payload
        items = ((g, None) for g in _graphs_of_masks(n, range(lo, hi)))
    result = SweepResult()
    for batch in _batches(items):
        _check_batch(batch, properties, result)
    return result


def run_enumerated(n: int, properties: list[str], jobs: int = 1) -> SweepResult:
    """Sweep all labeled graphs on exactly n vertices."""
    _check_enumeration_order(n)  # before the mask count below
    return _run(
        properties,
        jobs,
        1 << (n * (n - 1) // 2),
        lambda lo, hi: ("enum", (n, lo, hi), properties),
    )


def run_graph6_lines(
    lines: list[str], properties: list[str], jobs: int = 1
) -> SweepResult:
    return _run(
        properties, jobs, len(lines), lambda lo, hi: ("g6", lines[lo:hi], properties)
    )


def _run(properties, jobs: int, total: int, task) -> SweepResult:
    """Sweep the source's ``total`` graphs as the chunks ``task(lo, hi)``,
    in this process for one job, else on at most one worker per CPU; the
    chunk size follows the clamped job count.  ``jobs`` below 1 raises
    ``ValueError`` before any graph is drawn."""
    for name in properties:
        _property(name)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1; got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    chunk = max(1, total // (jobs * 8))
    tasks = [task(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    result = SweepResult()
    if jobs == 1:
        for part in map(_run_chunk, tasks):
            result.merge(part)
    else:
        # Imported here, so that runs without a pool do not pay ~1.3 MiB for it.
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes=jobs) as pool:
            for part in pool.imap_unordered(_run_chunk, tasks):
                result.merge(part)
    result.failures.sort(
        key=lambda r: (r["property"], r["graph6"], r.get("detail", ""))
    )
    return result


def random_corpus(count: int, n: int, p_num: int, p_den: int, seed: int) -> list[str]:
    """Seeded G(n, p) sample, serialized as graph6 lines."""
    return [
        write_graph6(erdos_renyi(n, p_num, p_den, seed + i)) for i in range(count)
    ]
