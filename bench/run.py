#!/usr/bin/env python3
"""Benchmark for biphole.

    python3 bench/run.py --workload alpha-sparse --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/``; a
checkout without it makes the benchmark exit with code 2 before measuring.

A run checks the answer checks themselves (``checks.selftest``), sets up
the workload's inputs several times (import plus input generation), then
repeats whole rounds of the workload's operations until the next round
would end after ``--seconds``; there is always at least one round.  Every
round's answers must equal the first round's, and the first round's answers
are checked independently.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; their times are CPU
time scaled to a nominal machine speed by ``calibrate``, which measures the
speed of a fixed kernel all through the run.  With ``--trace 1``
half of the time goes to untraced rounds and the rest to traced rounds (at
least one of each), and the metrics are per layer, including the tracing
overhead.  The traced run also writes its spans and every aggregate to
``bench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

# The script's own directory is first on sys.path.
import calibrate
import checks
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9


class SetupError(Exception):
    pass


def import_biphole():
    """A fresh import of biphole and its layers from ``src/``."""
    for name in [m for m in sys.modules if m == "biphole" or m.startswith("biphole.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        bp = importlib.import_module("biphole")
        for layer in tracing.LAYERS:
            importlib.import_module(f"biphole.{layer}")
    except ImportError as exc:
        raise SetupError(f"cannot import biphole from {SRC}: {exc}") from None
    if not os.path.abspath(bp.__file__).startswith(SRC + os.sep):
        raise SetupError(f"biphole was imported from {bp.__file__}, not from {SRC}")
    return bp


def run_rounds(workload, bp, inputs, budget, calibrated=False):
    """Whole rounds until the next would end past ``budget`` seconds.

    A round's ``seconds`` is its wall time, or with ``calibrated`` its CPU
    time at nominal machine speed (``calibrate.Sampler``)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if calibrated:
            with calibrate.Sampler() as sampler:
                r = workload.run_round(bp, inputs)
            r.seconds = sampler.work
            r.raw_seconds = sampler.raw
        else:
            r = workload.run_round(bp, inputs)
            r.seconds = time.perf_counter() - t0
        rounds.append(r)
        wall = time.perf_counter() - t0
        if time.perf_counter() - start + wall > budget:
            return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


# Per-layer metrics: (name, unit, source, key, field).  ``source`` is
# "layer", "function" or "site" (a function reached through another module's
# binding, e.g. the certificate computed inside the cycle construction).
PER_LAYER = [
    *[(f"{layer}.{f}", u, "layer", layer, f)
      for layer in tracing.LAYERS for f, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))],
    ("holes.hole_number.s", "s", "function", "holes.hole_number", "s"),
    ("holes.hole_number.calls", "count", "function", "holes.hole_number", "calls"),
    ("holes.bipartite_hole_number.s", "s", "function", "holes.bipartite_hole_number", "s"),
    ("holes.bipartite_hole_number.calls", "count", "function", "holes.bipartite_hole_number", "calls"),
    ("holes.find_hole.calls", "count", "function", "holes.find_hole", "calls"),
    ("holes.validate_certificate.s", "s", "function", "holes.validate_certificate", "s"),
    ("holes.validate_certificate.calls", "count", "function", "holes.validate_certificate", "calls"),
    ("holes.naive_hole_number.s", "s", "function", "holes.naive_hole_number", "s"),
    ("holes.naive_hole_number.calls", "count", "function", "holes.naive_hole_number", "calls"),
    ("cycles.cycle_through_heavy.s", "s", "function", "cycles.cycle_through_heavy", "s"),
    ("cycles.cycle_through_heavy.calls", "count", "function", "cycles.cycle_through_heavy", "calls"),
    ("cycles.certificate.s", "s", "site", ("cycles.bipartite_hole_number", "holes.bipartite_hole_number"), "s"),
    ("cycles.rotation_to_cycle.s", "s", "function", "cycles.rotation_to_cycle", "s"),
    ("cycles.rotation_to_cycle.calls", "count", "function", "cycles.rotation_to_cycle", "calls"),
    ("graph.two_disjoint_paths.s", "s", "function", "graph.two_disjoint_paths", "s"),
    ("graph.two_disjoint_paths.calls", "count", "function", "graph.two_disjoint_paths", "calls"),
    ("graph.is_two_connected.s", "s", "function", "graph.is_two_connected", "s"),
    ("graph.is_two_connected.calls", "count", "function", "graph.is_two_connected", "calls"),
    ("graph.distances_from.s", "s", "function", "graph.distances_from", "s"),
    ("graph.distances_from.calls", "count", "function", "graph.distances_from", "calls"),
    ("paths.heavy_path.s", "s", "function", "paths.heavy_path", "s"),
    ("paths.heavy_path.calls", "count", "function", "paths.heavy_path", "calls"),
    ("paths.heavy_path.self_s", "s", "function", "paths.heavy_path", "self_s"),
    ("paths.certificate.s", "s", "site", ("paths.bipartite_hole_number", "holes.bipartite_hole_number"), "s"),
    ("paths.certificate.self_s", "s", "site", ("paths.bipartite_hole_number", "holes.bipartite_hole_number"), "self_s"),
    ("paths.initial_path.s", "s", "function", "paths.initial_path", "s"),
    ("paths.build_context.s", "s", "function", "paths.build_context", "s"),
    ("paths.build_context.self_s", "s", "function", "paths.build_context", "self_s"),
    ("paths.augment_once.s", "s", "function", "paths.augment_once", "s"),
    ("paths.augment_once.calls", "count", "function", "paths.augment_once", "calls"),
    ("paths.augment_once.self_s", "s", "function", "paths.augment_once", "self_s"),
    ("conditions.check_fan_type.s", "s", "function", "conditions.check_fan_type", "s"),
    ("conditions.check_fan_type.calls", "count", "function", "conditions.check_fan_type", "calls"),
    ("conditions.check_liu_yuan_zhang.s", "s", "function", "conditions.check_liu_yuan_zhang", "s"),
    ("conditions.check_liu_yuan_zhang.calls", "count", "function", "conditions.check_liu_yuan_zhang", "calls"),
    ("oracle.brute_hamiltonian.s", "s", "function", "oracle.brute_hamiltonian", "s"),
    ("oracle.brute_hamiltonian.calls", "count", "function", "oracle.brute_hamiltonian", "calls"),
    ("oracle.brute_hamiltonian_connected.s", "s", "function", "oracle.brute_hamiltonian_connected", "s"),
    ("oracle.brute_hamiltonian_connected.calls", "count", "function", "oracle.brute_hamiltonian_connected", "calls"),
    ("generators.erdos_renyi.s", "s", "function", "generators.erdos_renyi", "s"),
    ("generators.erdos_renyi.calls", "count", "function", "generators.erdos_renyi", "calls"),
    ("formats.write_graph6.s", "s", "function", "formats.write_graph6", "s"),
    ("formats.write_graph6.calls", "count", "function", "formats.write_graph6", "calls"),
    ("formats.parse_graph6.s", "s", "function", "formats.parse_graph6", "s"),
    ("formats.parse_graph6.calls", "count", "function", "formats.parse_graph6", "calls"),
    *[(f"sweep.prop.{p}.s", "s", "function", f"sweep.prop.{p}", "s")
      for p in ("alpha-oracle", "heavy-cycle", "heavy-path", "min-degree-ham",
                "min-degree-hc", "fan-ham", "dirac-chain", "g6-roundtrip")],
    ("cli.main.s", "s", "function", "cli.main", "s"),
    ("cli.main.calls", "count", "function", "cli.main", "calls"),
]


def per_layer_metrics(setup_tr, round_tr, rounds):
    """Each metric is one traced input generation plus the mean of the
    traced rounds (calls repeat exactly from round to round)."""
    out = {}
    for name, unit, source, key, field in PER_LAYER:
        value = 0
        for tr, scale in ((setup_tr, 1), (round_tr, 1 / rounds)):
            if source == "layer":
                got = tr.layer(key)
            elif source == "site":
                got = tr.site(*key)
            else:
                got = tr.function(key)
            value += got[field] * scale
        if unit == "count":
            value = round(value)
        out[name] = metric(value, unit)
    gen = round_tr.function("generators.enumerate_labeled")
    out["generators.enumerate_labeled.graphs_per_s"] = metric(
        gen["items"] / gen["s"] if gen["s"] else 0.0, "graphs/s")
    return out


def measure(workload, seed, seconds, traced):
    """Set up, run rounds, check; returns the result object."""
    bp = import_biphole()
    problems = checks.selftest(bp)
    if problems:
        raise SetupError("answer checks fail their self-test: " + "; ".join(problems))

    setup_times, signature = [], None
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's modules are garbage by now
        t0 = calibrate.clock()
        bp = import_biphole()
        inputs = workload.generate(bp, seed)
        setup_times.append(calibrate.normalise(calibrate.clock() - t0))
        if signature is not None and workload.signature(inputs) != signature:
            raise SetupError("input generation is not deterministic")
        signature = workload.signature(inputs)

    if traced:
        rounds = run_rounds(workload, bp, inputs, seconds / 2)
    else:
        calibrate.Sampler.install()
        rounds = run_rounds(workload, bp, inputs, seconds, calibrated=True)
    metrics = {}
    if traced:
        setup_tr = tracing.Tracer()
        undo = tracing.install(setup_tr, bp)
        try:
            workload.generate(bp, seed)
        finally:
            tracing.uninstall(undo)
        round_tr = tracing.Tracer()
        fallback_before = bp.paths.DIAGNOSTICS["fallback"]
        undo = tracing.install(round_tr, bp)
        try:
            traced_rounds = run_rounds(workload, bp, inputs, seconds / 2)
        finally:
            tracing.uninstall(undo)
        metrics = per_layer_metrics(setup_tr, round_tr, len(traced_rounds))
        metrics["paths.fallback.count"] = metric(
            round((bp.paths.DIAGNOSTICS["fallback"] - fallback_before) / len(traced_rounds)), "count")
        plain = statistics.median(r.seconds for r in rounds)
        with_spans = statistics.median(r.seconds for r in traced_rounds)
        metrics["trace.overhead_s"] = metric(with_spans - plain, "s")
        metrics["trace.overhead_pct"] = metric(100 * (with_spans - plain) / plain, "%")
        metrics["trace.spans"] = metric(round(round_tr.spans / len(traced_rounds)), "count")
        write_trace(workload.name, seed, round_tr, setup_tr, plain, with_spans)
        rounds += traced_rounds
    else:
        round_s = statistics.median(r.seconds for r in rounds)
        raw_s = statistics.median(r.raw_seconds for r in rounds)
        print(f"{len(rounds)} rounds; uncalibrated {workload.graphs(inputs) / raw_s:.6g} graphs/s "
              f"of CPU time", file=sys.stderr)
        metrics["setup_s"] = metric(statistics.median(setup_times), "s")
        metrics["graphs_per_s"] = metric(workload.graphs(inputs) / round_s, "graphs/s")
        metrics["peak_rss_mib"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")

    first = rounds[0].answers
    problems = [f"round {i} answered differently from round 0"
                for i, r in enumerate(rounds) if r.answers != first]
    problems += workload.check(bp, inputs, first)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def write_trace(name, seed, round_tr, setup_tr, plain_s, traced_s):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}")
    round_tr.write_spans(stem + ".spans.tsv")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name,
            "seed": seed,
            "untraced_round_s": plain_s,
            "traced_round_s": traced_s,
            "setup": setup_tr.summary(),
            "rounds": round_tr.summary(),
        }, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
