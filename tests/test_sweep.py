import dataclasses
import os
import tracemalloc
from itertools import combinations

import pytest

import biphole.sweep as sweep_mod
from biphole import (
    Graph,
    ParseError,
    UnknownNameError,
    complete,
    cycle,
    empty,
    parse_graph6,
    write_graph6,
)
from biphole.generators import enumerate_labeled
from biphole.sweep import (
    SweepResult,
    check_graph,
    property_names,
    random_corpus,
    run_enumerated,
    run_graph6_lines,
)


def test_run_enumerated_serial():
    result = run_enumerated(4, ["alpha-oracle", "heavy-cycle"])
    assert result.ok
    assert result.checked["alpha-oracle"] == 64
    assert result.checked["heavy-cycle"] == 10  # the 2-connected ones
    assert result.skipped["heavy-cycle"] == 54


def test_run_enumerated_parallel_matches_serial():
    # The chunks start inside the mask range, where each worker's
    # enumeration begins from the empty graph.
    for n, props in ((4, ["heavy-path"]), (5, list(property_names()))):
        serial = run_enumerated(n, props)
        parallel = run_enumerated(n, props, jobs=2)
        assert serial.checked == parallel.checked
        assert serial.skipped == parallel.skipped
        assert serial.failures == parallel.failures == []
    assert serial.checked["alpha-oracle"] == 1024


def test_each_fact_is_computed_once(monkeypatch):
    # Every property reads the facts; the certificate and the 2-connectivity
    # test run at most once per graph.
    calls = {"cert": [], "two": []}
    cert, two = sweep_mod.bipartite_hole_number, Graph.is_two_connected

    def counted_cert(g):
        calls["cert"].append(g)
        return cert(g)

    def counted_two(g):
        calls["two"].append(g)
        return two(g)

    monkeypatch.setattr(sweep_mod, "bipartite_hole_number", counted_cert)
    monkeypatch.setattr(Graph, "is_two_connected", counted_two)
    result = run_enumerated(5, list(property_names()))
    assert result.ok and result.checked["alpha-oracle"] == 1024
    for seen in calls.values():
        assert 0 < len(seen) == len(set(seen)) <= 1024


def test_the_anchor_reads_no_closed_masks():
    # The naive hole-number builds its own closed masks from the adjacency,
    # so wrong masks in g._closed cannot hide in it: alpha-oracle reports
    # the fast searches' answers as disagreeing with it.
    g = cycle(5)
    g._closed = tuple(1 << v for v in range(5))  # N[v] = {v}, as if edgeless
    result = SweepResult()
    check_graph(g, ["alpha-oracle"], result)
    details = [f["detail"] for f in result.failures]
    assert "value 5 disagrees with naive 3" in details
    assert "hole_number 5 disagrees with naive 3" in details


def test_run_graph6_lines():
    lines = random_corpus(20, 7, 1, 2, seed=123)
    assert len(lines) == 20 and len(set(lines)) > 1
    result = run_graph6_lines(lines, ["g6-roundtrip", "dirac-chain"])
    assert result.ok
    assert result.checked["g6-roundtrip"] == 20


def test_unknown_property():
    with pytest.raises(UnknownNameError):
        run_enumerated(3, ["nope"])
    with pytest.raises(UnknownNameError):
        check_graph(complete(3), ["nope"], SweepResult())


def test_property_names_stable():
    assert property_names() == (
        "alpha-oracle",
        "heavy-cycle",
        "heavy-path",
        "min-degree-ham",
        "min-degree-hc",
        "fan-ham",
        "dirac-chain",
        "g6-roundtrip",
    )


def test_failures_are_replayable_and_sorted(monkeypatch):
    def half_fail(g, facts):
        return [{"detail": "odd order"}] if g.n % 2 else []

    monkeypatch.setitem(sweep_mod.PROPERTIES, "synthetic", half_fail)
    lines = [write_graph6(complete(n)) for n in (5, 3, 4)]
    result = run_graph6_lines(lines, ["synthetic"])
    assert [f["graph6"] for f in result.failures] == sorted(
        f["graph6"] for f in result.failures
    )
    assert all(f["property"] == "synthetic" for f in result.failures)
    assert len(result.failures) == 2


def _inline_pool(monkeypatch, sizes, tasks):
    """Run the pool's work in-process, recording its size and its tasks."""
    import multiprocessing

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, submitted):
            submitted = list(submitted)
            tasks.extend(submitted)
            return map(fn, submitted)

    class InlineContext:
        Pool = InlinePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: InlineContext())


def test_jobs_clamped_before_pool(monkeypatch):
    # Two CPUs, so the clamped value still takes the pool path.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    requested = []
    _inline_pool(monkeypatch, requested, [])
    result = run_enumerated(4, ["alpha-oracle"], jobs=10**6)
    assert requested == [os.cpu_count() or 1]
    assert result.checked == run_enumerated(4, ["alpha-oracle"]).checked


def test_jobs_below_one_raise_before_any_graph(monkeypatch):
    def no_graph(*args, **kwargs):
        raise AssertionError("drew a graph")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes, tasks = [], []
    _inline_pool(monkeypatch, sizes, tasks)
    # Every graph a sweep draws is enumerated or parsed, then gets its facts.
    entries = ("enumerate_labeled", "parse_graph6", "GraphFacts")
    real = {name: getattr(sweep_mod, name) for name in entries}
    for name in entries:
        monkeypatch.setattr(sweep_mod, name, no_graph)
    line = write_graph6(complete(3))
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_enumerated(4, ["alpha-oracle"], jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_graph6_lines([line], ["alpha-oracle"], jobs=jobs)
    assert sizes == [] and tasks == []
    # The guard is not hollow: at a valid job count both sources reach the
    # patched source, and then the patched facts.
    for restored in ((), ("enumerate_labeled", "parse_graph6")):
        for name in restored:
            monkeypatch.setattr(sweep_mod, name, real[name])
        with pytest.raises(AssertionError, match="drew a graph"):
            run_enumerated(4, ["alpha-oracle"])
        with pytest.raises(AssertionError, match="drew a graph"):
            run_graph6_lines([line], ["alpha-oracle"])


def test_chunks_follow_clamped_jobs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    sizes, huge, clamped = [], [], []
    _inline_pool(monkeypatch, sizes, huge)
    run_enumerated(4, ["alpha-oracle"], jobs=10**6)
    _inline_pool(monkeypatch, sizes, clamped)
    run_enumerated(4, ["alpha-oracle"], jobs=os.cpu_count())
    assert sizes == [2, 2]
    assert len(huge) == len(clamped) == 16
    lines = [write_graph6(complete(n)) for n in range(3, 9)]
    by_lines = []
    _inline_pool(monkeypatch, sizes, by_lines)
    run_graph6_lines(lines, ["g6-roundtrip"], jobs=10**6)
    assert sizes[-1] == 2 and len(by_lines) == len(lines)


def test_one_and_two_jobs_sweep_a_graph6_corpus_alike(monkeypatch):
    # One runner serves both job counts: the same chunks, swept here or in
    # the pool, give the same summary and raise the same parse error.
    def odd_order_fails(g, facts):
        return [{"detail": "odd order"}] if g.n % 2 else []

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(sweep_mod.PROPERTIES, "synthetic", odd_order_fails)
    lines = [line for n in (4, 5, 6, 7) for line in random_corpus(6, n, 1, 2, seed=n)]
    props = ["synthetic", "alpha-oracle", "heavy-cycle"]
    one, two = (run_graph6_lines(lines, props, jobs=jobs) for jobs in (1, 2))
    assert len(one.failures) == 12 and one.checked["synthetic"] == 24
    assert (one.checked, one.skipped, one.failures) == (two.checked, two.skipped, two.failures)
    bad = lines[:2] + ["D~"] + lines[3:]
    raised = []
    for jobs in (1, 2):
        with pytest.raises(ParseError) as info:
            run_graph6_lines(bad, props, jobs=jobs)
        raised.append(str(info.value))
    assert raised[0] == raised[1]


def _graph_by_graph(items, properties):
    """The reference order: ``check_graph`` on one (graph, replay line) at a
    time, with the failures sorted as the runner sorts them."""
    result = SweepResult()
    for g, line in items:
        check_graph(g, properties, result, line)
    result.failures.sort(key=lambda r: (r["property"], r["graph6"], r["detail"]))
    return result


def _odd_size_fails(g, facts):
    return [{"detail": "odd size"}, {"detail": f"m = {g.m}"}] if g.m % 2 else []


def test_batches_sweep_every_small_graph_as_one_graph_at_a_time(monkeypatch):
    # Every labeled graph with n = 1..5 through every property, and a failing
    # one in their midst: running each property over a whole batch before
    # the next gives the counts and failures of one graph at a time.
    names = list(property_names())
    monkeypatch.setitem(sweep_mod.PROPERTIES, "synthetic", _odd_size_fails)
    props = names[:4] + ["synthetic"] + names[4:]
    for n in range(1, 6):
        batched = run_enumerated(n, props)
        ref = _graph_by_graph(((g, None) for g in enumerate_labeled(n)), props)
        assert (batched.checked, batched.skipped) == (ref.checked, ref.skipped)
        assert batched.failures == ref.failures
    assert batched.checked["alpha-oracle"] == 1 << 10
    assert len(batched.failures) == 1 << 10  # two records per odd-size graph


def test_batches_of_mixed_orders_fail_as_one_graph_at_a_time(monkeypatch):
    # 160 graph6 lines, ten of each order 5..20 in turn: the pair budget
    # cuts batches of mixed orders inside each chunk, and the failures come
    # out sorted, replayable and equal to those of one graph at a time.
    sizes = []
    check_batch = sweep_mod._check_batch

    def recorded(batch, properties, result):
        sizes.append(len(batch))
        check_batch(batch, properties, result)

    monkeypatch.setitem(sweep_mod.PROPERTIES, "synthetic", _odd_size_fails)
    monkeypatch.setattr(sweep_mod, "_check_batch", recorded)
    orders = range(5, 21)
    corpus = {n: random_corpus(10, n, 1, 2, 100 * n) for n in orders}
    lines = [corpus[n][i] for i in range(10) for n in orders]
    props = ["heavy-cycle", "synthetic", "heavy-path", "dirac-chain"]
    batched = run_graph6_lines(lines, props)
    assert len(sizes) > 8 and max(sizes) > 1  # more batches than chunks
    ref = _graph_by_graph(((parse_graph6(line), line) for line in lines), props)
    assert (batched.checked, batched.skipped) == (ref.checked, ref.skipped)
    assert batched.failures == ref.failures
    assert batched.checked["synthetic"] == 160 and batched.failures
    for f in batched.failures:
        replay = run_graph6_lines([f["graph6"]], ["synthetic"]).failures
        assert f in replay


def test_batches_keep_to_the_pair_budget():
    # A batch holds at most the budget's vertex pairs, a graph with n <= 1
    # counting one, unless it is one graph above the budget, which runs
    # alone; each batch is cut only when the next graph would not fit.
    budget = sweep_mod._PAIR_BUDGET

    def cost(n):
        return max(1, n * (n - 1) // 2)

    large = [32, 32, 33, 33, 2, 46, 5, 50]
    orders = [6] * 150 + [0, 1, 1] * 400 + large + [1] * 2000
    items = [(empty(n), i) for i, n in enumerate(orders)]
    batches = list(sweep_mod._batches(iter(items)))
    assert [item for batch in batches for item in batch] == items
    assert len(batches[0]) == budget // 15
    for batch, after in zip(batches, batches[1:] + [None]):
        pairs = sum(cost(g.n) for g, _ in batch)
        assert pairs <= budget or len(batch) == 1
        if after is not None:
            assert pairs + cost(after[0][0].n) > budget
    # Two graphs with n = 32 share a batch, two with n = 33 do not, and
    # n = 46 (1,035 pairs) runs alone.
    alone = sweep_mod._batches((empty(n), None) for n in large)
    assert [[g.n for g, _ in b] for b in alone] == [[32, 32], [33], [33, 2], [46], [5], [50]]


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _recording(monkeypatch, owner, name, keys, arity):
    """Record the first ``arity`` arguments of every call under ``name``."""
    original = getattr(owner, name)
    seen = keys.setdefault(name, [])

    def recorded(*args):
        seen.append(args[:arity])
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)


def test_one_certificate_per_graph(monkeypatch):
    import biphole
    import biphole.conditions as conditions_mod
    import biphole.cycles as cycles_mod
    import biphole.holes as holes_mod
    import biphole.paths as paths_mod

    counts = {}
    for mod in (sweep_mod, cycles_mod, paths_mod, holes_mod, biphole):
        _counting(monkeypatch, mod, "bipartite_hole_number", counts)
    for mod in (conditions_mod, holes_mod, biphole):
        _counting(monkeypatch, mod, "hole_number", counts)
    for mod in (sweep_mod, holes_mod):
        _counting(monkeypatch, mod, "_profile_kernel", counts)
    # Each construction, oracle call and 2-connectivity test once per
    # graph (per pair for paths), though several properties read them.
    keys = {}
    _recording(monkeypatch, sweep_mod, "_cycle_through_heavy", keys, 1)
    _recording(monkeypatch, sweep_mod, "_heavy_path", keys, 3)
    _recording(monkeypatch, sweep_mod, "brute_hamiltonian", keys, 1)
    _recording(monkeypatch, biphole.Graph, "is_two_connected", keys, 1)
    result = run_enumerated(5, list(property_names()))
    assert result.ok
    assert result.checked["alpha-oracle"] == 1 << 10
    # alpha-oracle runs the profile kernel once per graph too, for its
    # value and its hole-free split; nothing calls hole_number on top.
    assert counts == {"bipartite_hole_number": 1 << 10, "_profile_kernel": 1 << 10}
    assert result.checked["min-degree-ham"] and result.checked["min-degree-hc"]
    for name, seen in keys.items():
        assert seen and len(seen) == len(set(seen)), name


def test_each_walk_is_verified_once(monkeypatch):
    # Every property over n = 6: heavy-cycle, heavy-path and the two
    # min-degree properties all read the walks, and the facts verify each
    # one once, as they build it.
    import biphole.cycles as cycles_mod
    import biphole.paths as paths_mod

    counts = {}
    # Count the calls made through every module that binds the names.
    for mod in (sweep_mod, cycles_mod, paths_mod):
        for name in ("verify_heavy_cycle", "verify_heavy_path"):
            if hasattr(mod, name):
                _counting(monkeypatch, mod, name, counts)
    result = run_enumerated(6, list(property_names()))
    assert result.ok
    assert counts == {"verify_heavy_path": 21_015, "verify_heavy_cycle": 11_368}


def test_heavy_path_reuses_a_known_two_connectivity(monkeypatch):
    # heavy-path searches for connectivity only where no property has
    # already found the graph 2-connected.
    counts = {}
    _counting(monkeypatch, Graph, "is_connected", counts)
    result = run_enumerated(5, ["heavy-path"])
    assert counts == {"is_connected": 1 << 10}
    counts.clear()
    both = run_enumerated(5, ["heavy-cycle", "heavy-path"])
    assert counts == {"is_connected": (1 << 10) - both.checked["heavy-cycle"]}
    assert (both.checked["heavy-path"], both.skipped["heavy-path"]) == (
        result.checked["heavy-path"],
        result.skipped["heavy-path"],
    )


def test_fan_ham_above_the_oracle_guard_needs_no_oracle():
    # fan-ham compares the two conditions with the Hamiltonicity oracle,
    # which stops at n = 14.  Above it there is nothing to compare, so each
    # 2-connected graph (the cycles C15..C20 and the 2-connected ones of a
    # seeded G(17, 1/4) sample) is skipped rather than passed unchecked,
    # and the sweep does not stop at the guard.
    lines = [write_graph6(cycle(n)) for n in range(15, 21)]
    lines += random_corpus(20, 17, 1, 4, 0)
    result = run_graph6_lines(lines, ["fan-ham"])
    assert result.checked == {}
    assert result.skipped == {"fan-ham": 26}
    assert result.failures == []


def test_every_property_runs_above_the_oracle_guard():
    # Above the brute oracles' n <= 14 each property skips its oracle
    # comparison, so K15 and a seeded G(16, 3/4) sample run through all
    # eight instead of stopping the sweep with SizeGuardError.  fan-ham is
    # nothing but that comparison, so it skips all six; the other seven
    # check them.
    lines = [write_graph6(complete(15))] + random_corpus(5, 16, 3, 4, 1)
    result = run_graph6_lines(lines, list(property_names()))
    assert result.checked == {name: 6 for name in property_names() if name != "fan-ham"}
    assert result.skipped == {"fan-ham": 6}
    assert result.failures == []


def test_roundtrip_only_sweep_analyses_nothing(monkeypatch):
    from biphole import Graph

    def forbidden(*args):
        raise AssertionError("computed a fact no selected property reads")

    monkeypatch.setattr(sweep_mod, "bipartite_hole_number", forbidden)
    monkeypatch.setattr(Graph, "is_two_connected", forbidden)
    result = run_enumerated(4, ["g6-roundtrip"])
    assert result.ok and result.checked == {"g6-roundtrip": 64}


def test_import_does_not_load_multiprocessing():
    # Only the worker pool of ``--jobs`` above 1 needs it; every other run
    # would pay its import in memory and start-up time.
    import subprocess
    import sys

    import biphole

    src = os.path.dirname(os.path.dirname(biphole.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import biphole, biphole.cli; "
        "print('multiprocessing' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_order_gate_raises_before_counting_masks():
    # The mask count 2^(n choose 2) of n = 60,000 alone would take 229 MiB.
    for allow_large, gate in ((False, 6), (True, 8)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"enumeration gated at n <= {gate}"):
                run_enumerated(60_000, ["g6-roundtrip"], allow_large=allow_large)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _value_off_by_one(monkeypatch):
    real = sweep_mod.bipartite_hole_number
    monkeypatch.setattr(
        sweep_mod,
        "bipartite_hole_number",
        lambda g: dataclasses.replace(real(g), value=real(g).value + 1),
    )


def _kernel_value_off_by_one(monkeypatch):
    real = sweep_mod._profile_kernel

    def corrupted(closed):
        value, s = real(closed)
        return value + 1, s

    monkeypatch.setattr(sweep_mod, "_profile_kernel", corrupted)


def _kernel_split_one_later(monkeypatch):
    real = sweep_mod._profile_kernel

    def corrupted(closed):
        value, s = real(closed)
        return value, s + 1

    monkeypatch.setattr(sweep_mod, "_profile_kernel", corrupted)


def _cycle_missing_a_vertex(monkeypatch):
    real = sweep_mod._cycle_through_heavy
    monkeypatch.setattr(
        sweep_mod,
        "_cycle_through_heavy",
        lambda g, cert: sweep_mod.Cycle(g, real(g, cert).vertices[:-1]),
    )


def _path_of_its_ends(monkeypatch):
    monkeypatch.setattr(
        sweep_mod, "_heavy_path", lambda g, u, v, cert: sweep_mod.OrientedPath(g, (u, v))
    )


def _never_hamiltonian(monkeypatch):
    monkeypatch.setattr(sweep_mod, "brute_hamiltonian", lambda g: False)


def _writer_dropping_an_edge(monkeypatch):
    real = sweep_mod.write_graph6
    monkeypatch.setattr(
        sweep_mod, "write_graph6", lambda g: real(Graph(g.n, list(g.edges())[1:]))
    )


K4_PAIRS = list(combinations(range(4), 2))
CYCLE_UNVERIFIED = (
    "construction raised InternalInconsistencyError: constructed cycle failed validation"
)
PATH_UNVERIFIED = "raised InternalInconsistencyError: constructed path failed validation"
K15 = "N" + "~" * 17 + "w"

# property[:corrupted answer] -> (graph6, corruption, graph6 of the failure
# record, details in the sweep's sorted order).  The replay line is the input
# line, so the lossy writer cannot corrupt it.
CORRUPTED = {
    "alpha-oracle": (
        "C~",
        _value_off_by_one,
        "C~",
        ["certificate failed validation", "value 2 disagrees with naive 1"],
    ),
    "alpha-oracle:hole_number": (
        "C~",
        _kernel_value_off_by_one,
        "C~",
        [
            "hole_number 2 disagrees with naive 1",
            "kernel split (1, 2) differs from the certificate's (1, 1)",
        ],
    ),
    # C4: hole-number 2, hole-free split (1, 2).
    "alpha-oracle:kernel-split": (
        "Cl",
        _kernel_split_one_later,
        "Cl",
        ["kernel split (2, 1) differs from the certificate's (1, 2)"],
    ),
    # K15, past the naive oracle: only the naive comparisons are skipped.
    "alpha-oracle:above-naive": (K15, _value_off_by_one, K15, ["certificate failed validation"]),
    "alpha-oracle:kernel-above-naive": (
        K15,
        _kernel_value_off_by_one,
        K15,
        ["kernel split (1, 2) differs from the certificate's (1, 1)"],
    ),
    "heavy-cycle": ("C~", _cycle_missing_a_vertex, "C~", [CYCLE_UNVERIFIED]),
    "heavy-path": (
        "C~",
        _path_of_its_ends,
        "C~",
        [f"({u},{v}) {PATH_UNVERIFIED}" for u, v in K4_PAIRS],
    ),
    # The facts verify each walk as they build it, so the min-degree
    # properties, run alone, still refuse a walk that misses a vertex.
    "min-degree-ham": ("C~", _cycle_missing_a_vertex, "C~", [CYCLE_UNVERIFIED]),
    # K15, past the Hamiltonicity oracles: only their comparisons are skipped.
    "min-degree-ham:above-oracle": (K15, _cycle_missing_a_vertex, K15, [CYCLE_UNVERIFIED]),
    "min-degree-hc": (
        "C~",
        _path_of_its_ends,
        "C~",
        [f"({u},{v}) {PATH_UNVERIFIED}" for u, v in K4_PAIRS],
    ),
    "min-degree-hc:above-oracle": (
        K15,
        _path_of_its_ends,
        K15,
        sorted(f"({u},{v}) {PATH_UNVERIFIED}" for u, v in combinations(range(15), 2)),
    ),
    "fan-ham": (
        "C~",
        _never_hamiltonian,
        "C~",
        [
            "distance-two degree condition holds but graph is not hamiltonian",
            "fan-type condition holds but graph is not hamiltonian",
        ],
    ),
    "dirac-chain": ("Cl", _value_off_by_one, "Cl", ["hole-number exceeds ceil(n/2) = 2"]),
    "g6-roundtrip": ("C~", _writer_dropping_an_edge, "C~", ["round-trip mismatch via 'C^'"]),
}


@pytest.mark.parametrize("case", list(CORRUPTED))
def test_each_property_reports_a_corrupted_answer(monkeypatch, case):
    # K4 ("C~"), C4 ("Cl", hole-number 2 = ceil(4/2)) and K15, each with one
    # answer the property checks corrupted: a property that compared an
    # answer with itself would report nothing here.
    prop = case.split(":")[0]
    g6, corrupt, replay, details = CORRUPTED[case]
    assert run_graph6_lines([g6], [prop]).failures == []
    corrupt(monkeypatch)
    result = run_graph6_lines([g6], [prop])
    assert result.checked == {prop: 1}
    assert result.failures == [
        {"property": prop, "graph6": replay, "detail": d} for d in details
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_replay_line_is_the_input_line_of_a_graph6_source(monkeypatch, jobs):
    # A graph6 source replays its own line, header included, in this
    # process and in a worker; an enumerated graph has no line, so it
    # replays what the (here lossy) writer makes of it.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _inline_pool(monkeypatch, [], [])
    _writer_dropping_an_edge(monkeypatch)
    lines = [">>graph6<<C~", "Cl"]
    result = run_graph6_lines(lines, ["g6-roundtrip"], jobs=jobs)
    assert [f["graph6"] for f in result.failures] == lines
    result = run_enumerated(2, ["g6-roundtrip"], jobs=jobs)
    assert result.failures == [
        {"property": "g6-roundtrip", "graph6": "A?", "detail": "round-trip mismatch via 'A?'"}
    ]
