"""Compare two checkouts on the benchmark in alternated pairs of runs.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --pairs 10 --seed 1 --out BENCH.json

``--parent`` is any checkout of the parent commit, for example one made with
``git worktree add ../parent HEAD~1``.
Each pair runs ``bench/run.py --trace 0`` once in each checkout, one after
the other, and alternates which side goes first.  The summary holds, per
workload and end-to-end metric, each side's median and quartiles, the
change's median over the parent's, the number of pairs the change won,
whether that is a resolved gain (a win in at least nine pairs of ten and a
gap between the medians wider than the parent's interquartile range), and
whether the change stays within the metric's bound: its median worse than
the parent's by no more than that fraction of the parent's median.

Metric names, units and directions and the run length come from
``BENCHMARK.json``.  The benchmark's files are run as they are in each
checkout, never imported or edited here.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    out = {
        "pairs": len(pairs),
        "all_correct": all(p["correct"] and c["correct"] for p, c in pairs),
        "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                   "change": sum(c["failed"] for _, c in pairs)},
        "metrics": {},
    }
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(par, chg))
        ps, cs = spread(par), spread(chg)
        gap = cs["median"] - ps["median"]
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "ratio": cs["median"] / ps["median"],
            "change_wins": wins,
            "resolved_gain": wins >= 0.9 * len(pairs)
            and (gap if higher else -gap) > ps["q3"] - ps["q1"],
            "within_bound": (-gap if higher else gap) <= spec["bound"] * ps["median"],
            "runs": {"parent": par, "change": chg},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", default=".", help="checkout of the change (default: .)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--note", default="", help="free text on the machine and its load")
    parser.add_argument("--out", required=True, help="JSON file; an existing one gains this seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    report = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            report = json.load(fh)
    report.setdefault("machine", {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    })
    report.setdefault("runs", [])
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in order:
                got[side] = run_once(trees[side], workload, args.seed, seconds)
                print(f"{workload} seed {args.seed} pair {i + 1}/{args.pairs} {side}: "
                      f"{json.dumps(got[side]['metrics'])}", file=sys.stderr, flush=True)
            pairs.append((got["parent"], got["change"]))
        report["runs"] = [r for r in report["runs"]
                          if (r["workload"], r["seed"]) != (workload, args.seed)]
        report["runs"].append({
            "workload": workload,
            "seed": args.seed,
            "seconds": seconds,
            "note": args.note,
            "load_avg_after": [round(x, 2) for x in os.getloadavg()],
            **summarise(pairs, spec["end_to_end"]),
        })
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
