"""Command-line surface.

Subcommands: ``alpha`` (hole-number with optional certificate), ``cycle``
and ``path`` (the constructive algorithms), ``check`` (condition battery as
JSON), and ``sweep`` (property verification over a graph stream).

Exit codes: 0 success, 1 internal inconsistency, 2 connectivity
precondition, 3 degree precondition, 4 input or parse problem, usage errors
and ``sweep --enumerate`` above ``ENUMERATION_GATE`` = 7 included.  All
output JSON carries ``"schema": 1`` and stable field order.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .conditions import condition_names, run_condition
from .cycles import cycle_through_heavy
from .errors import (
    BipholeError,
    DegreeConditionError,
    DisconnectedError,
    GraphError,
    NotTwoConnectedError,
    ParseError,
    SizeGuardError,
    UnknownNameError,
)
from .formats import parse_edge_list, parse_graph6, write_dot
from .generators import named
from .graph import Graph
from .holes import bipartite_hole_number, hole_number
from .paths import heavy_path
from .sweep import (
    property_names,
    random_corpus,
    run_enumerated,
    run_graph6_lines,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONNECTIVITY = 2
EXIT_DEGREE = 3
EXIT_INPUT = 4

# Kept so that existing command lines still parse; it changes nothing.
_VERIFY_HELP = "accepted; every cycle and path is verified before it is printed"


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_argument_group("graph input")
    src.add_argument("--graph6", metavar="STR", help="graph6 line")
    src.add_argument("--edges", metavar="FILE", help='edge-list file ("n m" header)')
    src.add_argument(
        "--one-based",
        action="store_true",
        help="edge-list vertex ids start at 1",
    )
    src.add_argument(
        "--family",
        metavar="NAME[,P...]",
        help="named family, e.g. cycle,5 or complete_bipartite,2,3",
    )


def _load_graph(args) -> Graph:
    chosen = [x for x in (args.graph6, args.edges, args.family) if x]
    if len(chosen) > 1:
        raise ParseError("give at most one of --graph6, --edges, --family")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        with open(args.edges, encoding="utf-8") as fh:
            return parse_edge_list(fh.read(), one_based=args.one_based)
    if args.family is not None:
        name, *params = args.family.split(",")
        try:
            return named(name, *(int(p) for p in params))
        except ValueError as exc:
            raise ParseError(f"bad family parameters: {exc}") from None
    line = sys.stdin.readline()
    if not line.strip():
        raise ParseError("no graph given and stdin is empty")
    return parse_graph6(line.strip())


def _name_list(listed: str | None, every) -> list[str]:
    """The names of a comma-separated option, or all of ``every`` if not given."""
    return [s.strip() for s in listed.split(",") if s.strip()] if listed else list(every)


def _witness_json(w) -> dict:
    return {
        "split": [len(w.s_side), len(w.t_side)],
        "s": sorted(w.s_side),
        "t": sorted(w.t_side),
    }


def cmd_alpha(args) -> int:
    g = _load_graph(args)
    if args.certificate:
        cert = bipartite_hole_number(g)
        doc = {
            "schema": 1,
            "n": g.n,
            "alpha_tilde": cert.value,
            "hole_free_pair": list(cert.hole_free_pair),
            "level_witnesses": [_witness_json(w) for w in cert.level_witnesses],
        }
        print(json.dumps(doc))
    else:
        print(hole_number(g))
    return EXIT_OK


def _print_walk(args, g: Graph, walk, closed: bool) -> int:
    """Write g as DOT to ``--dot``, if given, with the walk's edges (a closed
    walk's last one too) highlighted; print the walk only after that write."""
    verts = walk.vertices
    if args.dot:
        edges = list(zip(verts, verts[1:] + verts[:1] if closed else verts[1:]))
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(write_dot(g, verts, edges))
    print(" ".join(map(str, verts)))
    return EXIT_OK


def cmd_cycle(args) -> int:
    g = _load_graph(args)
    return _print_walk(args, g, cycle_through_heavy(g), closed=True)


def cmd_path(args) -> int:
    g = _load_graph(args)
    return _print_walk(args, g, heavy_path(g, args.src, args.dst), closed=False)


def cmd_check(args) -> int:
    g = _load_graph(args)
    requested = _name_list(args.conditions, condition_names())
    reports = {}
    for name in requested:
        report = run_condition(name, g)
        reports[name] = report.to_json()
    print(json.dumps({"schema": 1, "n": g.n, "conditions": reports}))
    return EXIT_OK


def _parse_random_spec(spec: str):
    parts = spec.split(",")
    if len(parts) != 4:
        raise ParseError("--random wants COUNT,N,P,SEED (P like 1/2)")
    count, n, seed = int(parts[0]), int(parts[1]), int(parts[3])
    frac = parts[2].split("/")
    if len(frac) > 2:
        raise ParseError("probability must look like 1/2")
    num, den = int(frac[0]), int(frac[1]) if len(frac) == 2 else 1
    return count, n, num, den, seed


def cmd_sweep(args) -> int:
    properties = _name_list(args.properties, property_names())
    sources = [
        x
        for x in (args.enumerate, args.random, args.graph6_file)
        if x is not None
    ]
    if len(sources) != 1:
        raise ParseError("give exactly one of --enumerate, --random, --graph6-file")
    if args.enumerate is not None:
        result = run_enumerated(args.enumerate, properties, jobs=args.jobs)
        source = f"enumerate:{args.enumerate}"
    elif args.random is not None:
        count, n, num, den, seed = _parse_random_spec(args.random)
        lines = random_corpus(count, n, num, den, seed)
        result = run_graph6_lines(lines, properties, jobs=args.jobs)
        source = f"random:{args.random}"
    else:
        with open(args.graph6_file, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        result = run_graph6_lines(lines, properties, jobs=args.jobs)
        source = f"file:{os.path.basename(args.graph6_file)}"

    doc = {
        "schema": 1,
        "source": source,
        "properties": {
            name: {
                "checked": result.checked.get(name, 0),
                "skipped": result.skipped.get(name, 0),
                "failures": sum(
                    1 for f in result.failures if f["property"] == name
                ),
            }
            for name in properties
        },
        "failures": result.failures,
    }
    print(json.dumps(doc))
    return EXIT_OK if result.ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphole",
        description="Bipartite-hole-number computation, heavy cycles and paths",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alpha = sub.add_parser("alpha", help="compute the bipartite-hole-number")
    _add_input_args(p_alpha)
    p_alpha.add_argument(
        "--certificate", action="store_true", help="emit the full certificate as JSON"
    )
    p_alpha.set_defaults(func=cmd_alpha)

    p_cycle = sub.add_parser("cycle", help="cycle through all heavy vertices")
    _add_input_args(p_cycle)
    p_cycle.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    p_cycle.add_argument("--dot", metavar="FILE", help="write highlighted DOT")
    p_cycle.set_defaults(func=cmd_cycle)

    p_path = sub.add_parser("path", help="(u,v)-path through all heavy vertices")
    _add_input_args(p_path)
    p_path.add_argument("--from", dest="src", type=int, required=True, metavar="U")
    p_path.add_argument("--to", dest="dst", type=int, required=True, metavar="V")
    p_path.add_argument("--verify", action="store_true", help=_VERIFY_HELP)
    p_path.add_argument("--dot", metavar="FILE", help="write highlighted DOT")
    p_path.set_defaults(func=cmd_path)

    p_check = sub.add_parser("check", help="evaluate sufficient conditions")
    _add_input_args(p_check)
    p_check.add_argument(
        "--conditions",
        metavar="LIST",
        help="comma-separated names (default: all); e.g. dirac,my,zhou",
    )
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="verify properties over a graph stream")
    p_sweep.add_argument("--enumerate", type=int, metavar="N")
    p_sweep.add_argument("--random", metavar="COUNT,N,P,SEED")
    p_sweep.add_argument("--graph6-file", metavar="FILE")
    p_sweep.add_argument("--properties", metavar="LIST")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 on --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (NotTwoConnectedError, DisconnectedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONNECTIVITY
    except DegreeConditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except (
        ParseError, GraphError, UnknownNameError, SizeGuardError, OSError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BipholeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
