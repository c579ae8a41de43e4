"""The package exports exactly what its library modules list, and sets
its heap policy once at import."""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def _is_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# runs in a fresh interpreter; prints the minor faults per warm norms call
WARM_NORMS = """
import resource
import nitschelab as nl
problem = nl.build_problem("quartic", 2)
space = nl.make_space(nl.build_unit_mesh(2, 32), 1, problem.boundary_fn)
u = nl.interpolate(space, problem.exact.value)
nl.norms(problem.exact, u)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    nl.norms(problem.exact, u)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not _is_glibc(), reason="the heap policy is set on glibc only")
def test_warm_norms_calls_reuse_the_heap_without_page_faults():
    """After one warm-up, a norms call on 32^2 P1 takes (almost) no minor
    page faults: its 0.25-2 MB temporaries come back from a heap that the
    import's policy keeps mapped, not from fresh mmaps (about 1000 faults
    per call without it)."""
    src = str(Path(nitschelab.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", WARM_NORMS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) < 50


def _raise_value_error(name):
    raise ValueError(name)


@pytest.mark.parametrize("confstr", [_raise_value_error, lambda name: None],
                         ids=["unknown_name", "unset"])
def test_heap_policy_does_nothing_without_a_named_c_library(monkeypatch, confstr):
    """Where `os.confstr` names no C library, the policy is skipped before
    the C library is opened, so `mallopt` is never called."""
    def no_cdll(*args, **kwargs):
        raise AssertionError("mallopt looked up without glibc")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    assert nitschelab._keep_the_heap_warm() is None
