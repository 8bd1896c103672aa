"""Layering: the package re-exports exactly the modules' __all__, the SU(2) state helpers, block
size and run limits of dynamics stay private to it, and the CLI imports no scipy.integrate."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drivenqubit

_PACKAGE = Path(drivenqubit.__file__).parent
_PRIVATE = {"_apply", "_powers", "_frozen", "_walk", "_sample", "_CHUNK", "_substep_count"}
_MODULES = [
    importlib.import_module(f"drivenqubit.{name}")
    for name in ("analysis", "dynamics", "errors", "rwa", "specfun", "transfer_matrix")
]


def test_package_all_is_the_module_lists_in_import_order():
    expected = ["__version__", *(name for module in _MODULES for name in module.__all__)]
    assert drivenqubit.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__.rsplit(".", 1)[1])
def test_package_names_are_the_module_objects(module):
    for name in module.__all__:
        assert hasattr(module, name), name
        assert getattr(drivenqubit, name) is getattr(module, name), name


@pytest.mark.parametrize("module", sorted(path.name for path in _PACKAGE.glob("*.py")))
def test_no_module_imports_the_state_helpers(module):
    # Every stroboscopic path reaches them through dynamics' propagators,
    # never by importing them; ScanConfig checks steps_per_period through
    # dynamics' shared rule.
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & _PRIVATE


def test_cli_import_loads_no_scipy_integrate():
    # The transfer-matrix integrals run on the package's own rule, so a CLI
    # start never pays for scipy.integrate.
    code = "import sys, drivenqubit.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(_PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
