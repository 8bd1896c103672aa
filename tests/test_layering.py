"""Layering: the package re-exports exactly the modules' __all__, the SU(2) state helpers, block
size and run limits of dynamics stay private to it, only dynamics builds computed series, the CLI
imports no scipy.integrate, no module or test imports a name it does not use, and every public name
is reached."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drivenqubit

_PACKAGE = Path(drivenqubit.__file__).parent
_PRIVATE = {"_apply", "_form_values", "_walk", "_CHUNK", "_substep_count"}
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
    # never by importing them; scan and width check steps_per_period through
    # dynamics' shared rule.
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & _PRIVATE


@pytest.mark.parametrize("module", sorted(path.name for path in _PACKAGE.glob("*.py") if path.name != "dynamics.py"))
def test_only_dynamics_builds_computed_series(module):
    # Every computed TimeSeries comes from dynamics' propagators, so no other module names its private constructor.
    tree = ast.parse((_PACKAGE / module).read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_computed" not in names


def test_cli_import_loads_no_scipy_integrate():
    # The transfer-matrix integrals run on the package's own rule, so a CLI
    # start never pays for scipy.integrate.
    code = "import sys, drivenqubit.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(_PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


_SOURCES = sorted([*_PACKAGE.glob("*.py"), *(_PACKAGE.parents[1] / "tests").glob("*.py")])


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    # Star imports bind no one name, and a __future__ import is a compiler switch.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []


# Public names that nothing in the package reads, on purpose: the geometric
# picture's building blocks, which the tests use as independent oracles.
_UNREACHED_ON_PURPOSE = {
    "hamiltonian": "the drive Hamiltonian, the oracle of the midpoint step",
    "step_unitary": "one midpoint step as a matrix, checked against exp(-i h H)",
    "lz_transfer_matrix": "one crossing as a matrix, an oracle of the composed cycle",
    "phase_matrix": "one between-crossing step as a matrix, an oracle of the composed cycle",
}


def _reads(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which the code reads each name, as a name or as an attribute."""
    reads: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, set()).add(node.lineno)
    return reads


def _public_names(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists (a starred list adds none of its own)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def _definition_lines(tree: ast.Module, name: str) -> set[int]:
    """The lines of the module-level def or class of name (an assignment binds, so it reads nothing)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return set(range(node.lineno, node.end_lineno + 1))
    return set()


def test_every_public_name_is_reached():
    # Reached: read in src/ outside the name's own definition, or by an
    # acceptance criterion.  A public name nothing reaches is deleted or
    # listed above with its reason.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _PACKAGE.glob("*.py")}
    acceptance = ast.parse((_PACKAGE.parents[1] / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    reads = {path: _reads(tree) for path, tree in [*trees.items(), (None, acceptance)]}
    unreached = set()
    for path, tree in trees.items():
        for name in _public_names(tree):
            own = _definition_lines(tree, name)
            if not any(seen.get(name, set()) - (own if where == path else set()) for where, seen in reads.items()):
                unreached.add(name)
    assert unreached == set(_UNREACHED_ON_PURPOSE)
