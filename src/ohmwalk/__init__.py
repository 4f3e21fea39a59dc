"""Electric-network view of random walks on finite connected graphs.

Exact effective resistances, hitting/commute/return times, the Kirchhoff
index, closed forms for single-edge removal, a walk-regularity
certificate, and a seeded Monte Carlo engine that re-derives every exact
quantity by simulation.
"""

from .edgelist import LabeledNetwork, format_edge_list, parse_edge_list
from .errors import (
    BadParameter,
    BadVertexId,
    CutEdgeResistance,
    DisconnectedGraph,
    InvalidEdge,
    NonUnitConductance,
    NoSuchEdge,
    NumericalFailure,
    OhmwalkError,
    ParseError,
    WalkLengthExceeded,
    WouldDisconnect,
)
from .generators import complete, cycle, hypercube, petersen, totient, unitary_cayley
from .montecarlo import (
    ExcursionCountCheck,
    McEstimate,
    PendantIdentityCheck,
    estimate_hitting_time,
    estimate_return_time,
    excursion_count_check,
    verify_pendant_identities,
)
from .network import EdgeRef, Network, build_network
from .perturbation import (
    PerturbationReport,
    analyze_edge_removal,
    extremal_increment_bounds,
    predicted_removed_resistance,
    removed_edge_hitting_time,
    resistance_increment,
)
from .solver import (
    HittingReport,
    ResistanceReport,
    effective_resistance_matrix,
    hitting_time_matrix,
    kirchhoff_index_from_spectrum,
    return_time,
)
from .walk_regular import WalkCountMismatch, WalkRegularityReport, check_walk_regular

__version__ = "0.1.0"

__all__ = [
    "Network",
    "EdgeRef",
    "build_network",
    "cycle",
    "complete",
    "hypercube",
    "unitary_cayley",
    "petersen",
    "totient",
    "ResistanceReport",
    "HittingReport",
    "effective_resistance_matrix",
    "kirchhoff_index_from_spectrum",
    "hitting_time_matrix",
    "return_time",
    "PerturbationReport",
    "predicted_removed_resistance",
    "resistance_increment",
    "extremal_increment_bounds",
    "removed_edge_hitting_time",
    "analyze_edge_removal",
    "WalkRegularityReport",
    "WalkCountMismatch",
    "check_walk_regular",
    "McEstimate",
    "PendantIdentityCheck",
    "ExcursionCountCheck",
    "estimate_return_time",
    "estimate_hitting_time",
    "verify_pendant_identities",
    "excursion_count_check",
    "LabeledNetwork",
    "parse_edge_list",
    "format_edge_list",
    "OhmwalkError",
    "BadParameter",
    "BadVertexId",
    "InvalidEdge",
    "DisconnectedGraph",
    "NoSuchEdge",
    "WouldDisconnect",
    "CutEdgeResistance",
    "NonUnitConductance",
    "NumericalFailure",
    "WalkLengthExceeded",
    "ParseError",
]
