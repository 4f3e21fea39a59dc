import inspect

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

SUBMODULES = (edgelist, generators, montecarlo, network, perturbation, solver, walk_regular)


def test_every_export_resolves():
    for module in (ohmwalk, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_exports_are_the_submodule_exports_plus_the_errors():
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.OhmwalkError)
    }
    expected = set().union(*(module.__all__ for module in SUBMODULES)) | error_classes
    assert len(ohmwalk.__all__) == len(set(ohmwalk.__all__))
    assert set(ohmwalk.__all__) == expected
