"""The three workloads: how each builds its inputs from the seed, what one
round of operations is, and how its answers are checked.

``alpha-sparse`` and ``construct-dense`` run pinned corpora of biphole's own
seeded G(n, p), and the workload seed shuffles the order of the graphs (and
of the heavy pairs).  The graphs themselves are pinned because the cost of
the lexicographic subset search changes by up to 2x from one graph to the
next even at equal order, hole-number and hole-free split: ten workload
seeds that each drew fresh graphs of those profiles spread by 18 to 23% in
graphs per second, wider than any useful regression bound.  Each corpus
entry lists its graph seeds, which are the first ones counting up from 1
whose graph has the stated profile; ``check`` re-derives every profile with
the independent search in ``checks``.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import traceback

import checks

# (n, p numerator, p denominator, (alpha, s, t), graph seeds)
ALPHA_CORPUS = (
    (22, 1, 4, (15, 8, 8), (13, 49, 59, 69, 71, 84)),
    (20, 1, 8, (17, 8, 10), (8, 30, 37, 42)),
)

# G(n, 1/2), 2-connected: (n, (alpha, s, t), vertices of degree >= alpha + 1,
# graph seeds).
DENSE_CORPUS = (
    (14, (7, 3, 5), 5, (15, 53, 54, 95)),
    (15, (7, 3, 5), 8, (106, 112, 120, 121)),
    (16, (7, 4, 4), 9, (8, 37, 53, 61)),
    (17, (8, 4, 5), 7, (3, 23, 31, 49)),
    (18, (8, 4, 5), 11, (19, 31, 57, 59)),
    (19, (8, 4, 5), 12, (8, 53, 73, 78)),
    (20, (9, 4, 6), 11, (14, 20, 37, 42)),
    (21, (9, 4, 6), 12, (17, 35, 40, 44)),
    (22, (9, 4, 6), 16, (14, 21, 29, 70)),
)

SWEEP_N = 6
SWEEP_PROPERTIES = (
    "alpha-oracle", "heavy-cycle", "heavy-path", "min-degree-ham",
    "min-degree-hc", "fan-ham", "dirac-chain", "g6-roundtrip",
)
# 2^15 labeled graphs on 6 vertices; 11,368 of them are 2-connected
# (OEIS A013922).
SWEEP_GRAPHS = 1 << 15
SWEEP_TWO_CONNECTED = 11368


class Round:
    """Answers of one round; ``answers`` compare equal across rounds."""

    def __init__(self):
        self.answers: list = []
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:  # the benchmark keeps going and counts the failure
            traceback.print_exc()
            self.failed += 1
            out = None
        return out


class Pinned:
    """One corpus graph with the benchmark's own view of it.  ``heavy``, when
    given, is the pinned number of vertices of degree >= alpha + 1, and
    ``pairs`` lists every pair of them."""

    def __init__(self, bp, n, num, den, graph_seed, profile, heavy=None):
        self.graph_seed = graph_seed
        self.graph = bp.generators.erdos_renyi(n, num, den, graph_seed)
        self.adj = checks.Adjacency(n, self.graph.edges())
        self.profile = profile
        self.alpha = profile[0]
        self.heavy = heavy
        hv = self.adj.heavy(self.alpha + 1)
        self.pairs = [(u, v) for i, u in enumerate(hv) for v in hv[i + 1:]]
        self.where = f"G({n}, {num}/{den}) seed {graph_seed}"

    def profile_problems(self) -> list[str]:
        own = checks.profile(self.adj)
        problems = [] if own == self.profile else [f"{self.where}: profile {own}, pinned {self.profile}"]
        if self.heavy is not None and not (
            checks.is_two_connected(self.adj) and len(self.adj.heavy(self.alpha + 1)) == self.heavy
        ):
            problems.append(f"{self.where}: not 2-connected with {self.heavy} heavy vertices")
        return problems


def _cli(bp, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bp.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"biphole {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


class AlphaSparse:
    name = "alpha-sparse"

    def generate(self, bp, seed):
        graphs = [
            Pinned(bp, n, num, den, gs, profile)
            for n, num, den, profile, seeds in ALPHA_CORPUS
            for gs in seeds
        ]
        random.Random(f"{self.name}:{seed}").shuffle(graphs)
        return graphs

    def signature(self, inputs):
        return [(p.graph.n, p.graph_seed) for p in inputs]

    def graphs(self, inputs):
        return len(inputs)

    def run_round(self, bp, inputs):
        r = Round()
        for p in inputs:
            value = r.call(bp.holes.hole_number, p.graph)
            cert = r.call(bp.holes.bipartite_hole_number, p.graph)
            r.answers.append((value, None if cert is None else checks.certificate_parts(cert)))
        return r

    def check(self, bp, inputs, answers):
        problems = []
        for p, (value, cert) in zip(inputs, answers):
            problems += p.profile_problems()
            if cert is not None:
                problems += [f"{p.where}: {e}" for e in checks.check_certificate(p.adj, *cert)]
            if value is not None and cert is not None and value != cert[0]:
                problems.append(f"{p.where}: hole_number {value} != certified {cert[0]}")
        return problems


class ConstructDense:
    name = "construct-dense"

    def generate(self, bp, seed):
        rng = random.Random(f"{self.name}:{seed}")
        graphs = [
            Pinned(bp, n, 1, 2, gs, profile, heavy)
            for n, profile, heavy, seeds in DENSE_CORPUS
            for gs in seeds
        ]
        first = graphs[:3]
        g6 = [bp.formats.write_graph6(p.graph) for p in first]
        u, v = first[2].pairs[0]
        # (graph, argv, endpoints of the requested path)
        cli_calls = [
            (first[0], ["alpha", "--graph6", g6[0], "--certificate"], None),
            (first[1], ["cycle", "--graph6", g6[1], "--verify"], None),
            (first[2], ["path", "--graph6", g6[2], "--from", str(u), "--to", str(v), "--verify"], (u, v)),
        ]
        rng.shuffle(graphs)
        for p in graphs:
            rng.shuffle(p.pairs)
        return graphs, cli_calls

    def signature(self, inputs):
        graphs, cli_calls = inputs
        return [(p.graph.n, p.graph_seed, p.pairs) for p in graphs], [argv for _, argv, _ in cli_calls]

    def graphs(self, inputs):
        return len(inputs[0])

    def run_round(self, bp, inputs):
        graphs, cli_calls = inputs
        r = Round()
        for p in graphs:
            g = p.graph
            cert = r.call(bp.holes.bipartite_hole_number, g)
            cyc = r.call(bp.cycles.cycle_through_heavy, g)
            paths = [r.call(bp.paths.heavy_path, g, u, v) for u, v in p.pairs]
            r.answers.append((
                None if cert is None else checks.certificate_parts(cert),
                None if cyc is None else cyc.vertices,
                [None if path is None else path.vertices for path in paths],
            ))
        r.answers.append([r.call(_cli, bp, argv) for _, argv, _ in cli_calls])
        return r

    def check(self, bp, inputs, answers):
        graphs, cli_calls = inputs
        problems = []
        for p, (cert, cyc, paths) in zip(graphs, answers):
            problems += p.profile_problems()
            if cert is not None:
                problems += [f"{p.where}: {e}" for e in checks.check_certificate(p.adj, *cert)]
            if cyc is not None:
                problems += [f"{p.where} cycle: {e}" for e in checks.check_cycle(p.adj, cyc, p.alpha)]
            for (u, v), path in zip(p.pairs, paths):
                if path is not None:
                    problems += [f"{p.where} path ({u},{v}): {e}"
                                 for e in checks.check_path(p.adj, path, u, v, p.alpha + 1)]
        (alpha_p, _, _), (cycle_p, _, _), (path_p, _, (u, v)) = cli_calls
        alpha_out, cycle_out, path_out = answers[-1]
        if alpha_out is not None:
            doc = json.loads(alpha_out)
            wits = tuple((tuple(w["s"]), tuple(w["t"])) for w in doc["level_witnesses"])
            problems += [f"cli alpha: {e}" for e in checks.check_certificate(
                alpha_p.adj, doc["alpha_tilde"], doc["hole_free_pair"], wits)]
        if cycle_out is not None:
            seq = [int(x) for x in cycle_out.split()]
            problems += [f"cli cycle: {e}" for e in checks.check_cycle(cycle_p.adj, seq, cycle_p.alpha)]
        if path_out is not None:
            seq = [int(x) for x in path_out.split()]
            problems += [f"cli path: {e}" for e in checks.check_path(path_p.adj, seq, u, v, path_p.alpha + 1)]
        return problems


class SweepN6:
    """Every labeled graph on six vertices through every property.  The
    enumeration is exhaustive, so the seed only orders the properties."""

    name = "sweep-n6"

    def generate(self, bp, seed):
        props = list(SWEEP_PROPERTIES)
        random.Random(f"{self.name}:{seed}").shuffle(props)
        return props

    def signature(self, inputs):
        return inputs

    def graphs(self, inputs):
        return SWEEP_GRAPHS

    def run_round(self, bp, inputs):
        r = Round()
        result = r.call(bp.sweep.run_enumerated, SWEEP_N, inputs, 1)
        r.attempted = SWEEP_GRAPHS * len(inputs)
        if result is None:
            r.failed = r.attempted
            r.answers.append(None)
            return r
        r.failed = len({(f["property"], f["graph6"]) for f in result.failures})
        r.answers.append((
            {p: (result.checked.get(p, 0), result.skipped.get(p, 0)) for p in inputs},
            result.failures,
        ))
        return r

    def check(self, bp, inputs, answers):
        (outcome,) = answers
        if outcome is None:
            return []
        counts, failures = outcome
        problems = [f"sweep failure: {f}" for f in failures]
        expected = checks.sweep_expectation(SWEEP_N)
        for prop in ("heavy-cycle", "fan-ham"):
            if expected[prop][0] != SWEEP_TWO_CONNECTED:
                problems.append(f"own recount finds {expected[prop][0]} 2-connected graphs")
        for prop in ("alpha-oracle", "g6-roundtrip"):
            if expected[prop] != (SWEEP_GRAPHS, 0):
                problems.append(f"own recount of {prop} is {expected[prop]}")
        for prop in inputs:
            if counts[prop] != expected[prop]:
                problems.append(f"{prop}: checked/skipped {counts[prop]}, recount {expected[prop]}")
        return problems


WORKLOADS = {w.name: w for w in (AlphaSparse(), ConstructDense(), SweepN6())}
