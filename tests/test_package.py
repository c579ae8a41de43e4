"""The package exports exactly what its library modules list."""

import types

import nitschelab
from nitschelab import analysis, assembly, energy, felement, mesh, solver

MODULES = (mesh, felement, energy, assembly, solver, analysis)


def test_package_names_are_the_union_of_the_module_exports():
    listed = set()
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        listed.update(module.__all__)
    public = {name for name, value in vars(nitschelab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == listed
