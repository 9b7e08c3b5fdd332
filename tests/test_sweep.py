import os

import pytest

from biphole import UnknownNameError, complete, write_graph6
from biphole.sweep import (
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
    serial = run_enumerated(4, ["heavy-path"])
    parallel = run_enumerated(4, ["heavy-path"], jobs=2)
    assert serial.checked == parallel.checked
    assert serial.skipped == parallel.skipped
    assert serial.failures == parallel.failures == []


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
        check_graph(complete(3), ["nope"])


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
    import biphole.sweep as sweep_mod

    def half_fail(g):
        return [{"detail": "odd order"}] if g.n % 2 else []

    monkeypatch.setitem(sweep_mod.PROPERTIES, "synthetic", half_fail)
    lines = [write_graph6(complete(n)) for n in (5, 3, 4)]
    result = run_graph6_lines(lines, ["synthetic"])
    assert [f["graph6"] for f in result.failures] == sorted(
        f["graph6"] for f in result.failures
    )
    assert all(f["property"] == "synthetic" for f in result.failures)
    assert len(result.failures) == 2


def test_jobs_clamped_before_pool(monkeypatch):
    import biphole.sweep as sweep_mod

    requested = []

    class InlinePool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

    class InlineContext:
        Pool = InlinePool

    monkeypatch.setattr(sweep_mod.multiprocessing, "get_context", lambda method: InlineContext())
    result = run_enumerated(4, ["alpha-oracle"], jobs=10**6)
    assert requested == [os.cpu_count() or 1]
    assert result.checked == run_enumerated(4, ["alpha-oracle"]).checked
