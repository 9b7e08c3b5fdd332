"""The public surface: what ``biphole`` exports, and the names the benchmark
harness in ``bench/`` reaches into, which must stay while it uses them."""
import importlib.util
from pathlib import Path
from types import ModuleType

import biphole
from biphole import Cycle, Graph, OrientedPath
from biphole import paths as paths_mod

EXPORTS = [
    "BipholeError", "ConditionReport", "Cycle",
    "DegreeConditionError", "DisconnectedError", "Graph", "GraphError",
    "HoleCertificate", "HoleWitness", "INFINITY", "InternalInconsistencyError",
    "MAX_VERTICES", "NotTwoConnectedError", "OrientedPath", "ParseError",
    "SizeGuardError", "UnknownNameError", "WalkError", "alpha2", "augment_once",
    "bipartite_hole_number", "brute_cycle_through_set", "brute_hamiltonian",
    "brute_hamiltonian_connected", "brute_path_through_set",
    "check_dirac", "check_erdos_gallai", "check_fan_type",
    "check_liu_yuan_zhang", "check_mcdiarmid_yolov", "check_ore", "check_zhou",
    "common_neighbors", "complete", "complete_bipartite", "condition_names",
    "cycle", "cycle_through_heavy", "empty", "enumerate_labeled", "erdos_renyi",
    "family_names", "find_hole", "heavy_path", "hole_number",
    "independence_number", "initial_path", "min_closed_neighborhood",
    "naive_hole_number", "naive_hole_oracle", "named", "parse_edge_list",
    "parse_graph6", "path", "petersen", "rotation_to_cycle", "run_condition",
    "star", "theta", "validate_certificate", "verify_heavy_cycle",
    "verify_heavy_path", "write_dot", "write_edge_list", "write_graph6",
]


def _public(namespace) -> list[str]:
    return sorted(
        name
        for name, value in namespace.items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )


def test_public_surface():
    assert _public(vars(biphole)) == EXPORTS
    assert _public(vars(OrientedPath)) == ["first", "flip", "graph", "last", "vertices"]
    assert _public(vars(Cycle)) == ["graph", "vertices"]
    assert _public(vars(Graph)) == [
        "add_edge", "adj_mask", "closed_neighborhood_mask", "cut_vertices",
        "degree", "distance", "distances_from", "edges", "has_edge",
        "induced_subgraph", "is_connected", "is_two_connected", "layers", "m",
        "min_degree", "n", "neighbors", "permuted", "two_disjoint_paths",
        "vertices", "vertices_at_distance",
    ]
    # The tracer of bench/tracing.py wraps these Graph methods by name, and
    # bench/run.py reads the heavy-path diagnostics counter.
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert all(meth in vars(Graph) for meth in tracing.GRAPH_METHODS)
    assert hasattr(paths_mod, "DIAGNOSTICS")
