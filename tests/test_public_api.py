import inspect
import re
from pathlib import Path

import ohmwalk
from ohmwalk import (
    edgelist,
    errors,
    generators,
    montecarlo,
    network,
    perturbation,
    solver,
    walk_regular,
)

SUBMODULES = (edgelist, errors, generators, montecarlo, network, perturbation, solver, walk_regular)

# The package's public names. Adding or removing one is an API change, made
# here on purpose.
PUBLIC_NAMES = {
    # network
    "Network", "EdgeRef", "build_network",
    # generators
    "cycle", "complete", "hypercube", "unitary_cayley", "petersen",
    # solver
    "ResistanceReport", "HittingReport", "effective_resistance_matrix", "hitting_time_matrix",
    "return_time",
    # perturbation
    "PerturbationReport", "predicted_removed_resistance", "resistance_increment",
    "extremal_increment_bounds", "removed_edge_hitting_time", "analyze_edge_removal",
    # walk_regular
    "WalkRegularityReport", "WalkCountMismatch", "check_walk_regular",
    # montecarlo
    "McEstimate", "PendantIdentityCheck", "ExcursionCountCheck", "estimate_return_time",
    "estimate_hitting_time", "verify_pendant_identities", "excursion_count_check",
    # edgelist
    "LabeledNetwork", "parse_edge_list", "format_edge_list",
    # errors
    "OhmwalkError", "BadParameter", "BadVertexId", "InvalidEdge", "DisconnectedGraph",
    "NoSuchEdge", "WouldDisconnect", "CutEdgeResistance", "NonUnitConductance",
    "NumericalFailure", "WalkLengthExceeded", "ParseError",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    for module in (ohmwalk, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_public_names_are_pinned():
    # A name declared in two modules' lists would appear twice here.
    assert len(ohmwalk.__all__) == len(set(ohmwalk.__all__))
    assert set(ohmwalk.__all__) == PUBLIC_NAMES


def test_every_error_class_is_exported():
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.OhmwalkError)
    }
    assert set(errors.__all__) == error_classes


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
