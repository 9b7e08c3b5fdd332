"""Exact bipartite-hole-number computation with certificates, plus
constructive cycles and paths through all sufficiently high-degree vertices,
verified against brute-force oracles."""

from .conditions import (
    ConditionReport,
    alpha2,
    check_dirac,
    check_erdos_gallai,
    check_fan_type,
    check_liu_yuan_zhang,
    check_mcdiarmid_yolov,
    check_ore,
    check_zhou,
    common_neighbors,
    condition_names,
    independence_number,
    run_condition,
)
from .cycles import (
    cycle_through_heavy,
    rotation_to_cycle,
    verify_heavy_cycle,
)
from .errors import (
    BipholeError,
    DegreeConditionError,
    DisconnectedError,
    GraphError,
    InternalInconsistencyError,
    NotTwoConnectedError,
    ParseError,
    SizeGuardError,
    UnknownNameError,
    WalkError,
)
from .formats import (
    parse_edge_list,
    parse_graph6,
    write_dot,
    write_edge_list,
    write_graph6,
)
from .generators import (
    complete,
    complete_bipartite,
    cycle,
    empty,
    enumerate_labeled,
    erdos_renyi,
    family_names,
    named,
    path,
    petersen,
    star,
    theta,
)
from .graph import INFINITY, MAX_VERTICES, Graph
from .holes import (
    HoleCertificate,
    HoleWitness,
    bipartite_hole_number,
    find_hole,
    hole_number,
    min_closed_neighborhood,
    naive_hole_number,
    naive_hole_oracle,
    validate_certificate,
)
from .oracle import (
    brute_cycle_through_set,
    brute_hamiltonian,
    brute_hamiltonian_connected,
    brute_path_through_set,
)
from .paths import (
    augment_once,
    heavy_path,
    initial_path,
    verify_heavy_path,
)
from .walks import Cycle, OrientedPath

__version__ = "0.1.0"
