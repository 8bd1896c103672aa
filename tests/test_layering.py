"""Layering: the package re-exports exactly the modules' __all__, the SU(2) state helpers, block
size and run limits of dynamics stay private to it, only dynamics builds computed series, the CLI
imports no scipy.integrate, no module or test imports a name it does not use, every public name,
every public method of a public class and every field of a public dataclass is reached from outside
its own module or class, every defaulted parameter of a public function is passed from outside it, and
every parameter of a public function or method is read, not only validated."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import drivenqubit

_PACKAGE = Path(drivenqubit.__file__).parent
# The tests beside this file, not beside the package: tools/mutants.py imports a copy of src/ alone.
_TESTS = Path(__file__).resolve().parent
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


_SOURCES = sorted([*_PACKAGE.glob("*.py"), *_TESTS.glob("*.py")])


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


# Public names that no other module, no CLI path and no acceptance criterion
# reads, on purpose: the geometric picture's building blocks, which the tests
# use as independent oracles, the intermediate results (the bias, the
# crossing data, the cycle phases) that the tests check one by one, and the
# console script.
_UNREACHED_ON_PURPOSE = {
    "drive_epsilon": "the bias eps(t), checked against its formula and the phase convention",
    "hamiltonian": "the drive Hamiltonian, the oracle of the midpoint step",
    "step_unitary": "one midpoint step as a matrix, checked against exp(-i h H)",
    "lz_crossing": "the crossing data, checked against the LZ formula and a linear sweep",
    "lz_transfer_matrix": "one crossing as a matrix, an oracle of the composed cycle",
    "phase_matrix": "one between-crossing step as a matrix, an oracle of the composed cycle",
    "cycle_phases": "the cycle's phases, checked against scipy's adaptive quad and mpmath",
    "main": "the CLI itself, the console script that pyproject.toml declares",
}


def _attribute_reads(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which the code reads each name as an attribute."""
    reads: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, set()).add(node.lineno)
    return reads


def _reads(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which the code reads each name, as a name or as an attribute."""
    reads = _attribute_reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, set()).add(node.lineno)
    return reads


def _public_names(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists (a starred list adds none of its own)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def _public_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """The module-level classes listed in ``__all__``."""
    public = set(_public_names(tree))
    return [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name in public]


def _package_trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in _PACKAGE.glob("*.py")}


def _unreached(reader, candidates) -> set[str]:
    """The labels of the (path, label, name, own lines) candidates that nothing reads.

    reader maps a tree to the lines on which it reads each name; a read
    counts in src/ outside the candidate's own lines of its module path
    (None: the whole module), or in an acceptance criterion.
    """
    acceptance = ast.parse((_TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    reads = {path: reader(tree) for path, tree in [*_package_trees().items(), (None, acceptance)]}

    def counted(lines: set[int], where, path, own) -> set[int]:
        if where != path:
            return lines
        return set() if own is None else lines - own

    return {
        label for path, label, name, own in candidates
        if not any(counted(seen.get(name, set()), where, path, own) for where, seen in reads.items())
    }


def _returned_names() -> set[str]:
    """The names that the return annotations of the package's public functions mention."""
    names = set()
    for tree in _package_trees().values():
        public = set(_public_names(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public and node.returns is not None:
                names |= {n.id for n in ast.walk(node.returns) if isinstance(n, ast.Name)}
    return names


def test_every_public_name_is_reached():
    # Public means read by another module of the package (the CLI among
    # them) or by an acceptance criterion; a public class also counts as
    # reached when a public function returns it.  A public name nothing
    # reaches is made private, deleted or listed above with its reason.
    returned = _returned_names()
    classes = {cls.name for tree in _package_trees().values() for cls in _public_classes(tree)}
    candidates = [
        (path, name, name, None)
        for path, tree in _package_trees().items() for name in _public_names(tree)
        if not (name in classes and name in returned)
    ]
    assert _unreached(_reads, candidates) == set(_UNREACHED_ON_PURPOSE)


def test_every_public_method_is_reached():
    # A public method or property of a public class is read outside its
    # class, or by an acceptance criterion.
    candidates = [
        (path, f"{cls.name}.{node.name}", node.name, set(range(cls.lineno, cls.end_lineno + 1)))
        for path, tree in _package_trees().items() for cls in _public_classes(tree)
        for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert _unreached(_attribute_reads, candidates) == set()


# Fields of public dataclasses that nothing in the package reads, on
# purpose: the tests check each against an independent computation.
_UNREACHED_FIELDS_ON_PURPOSE = {
    "LzCrossing.sweep_rate": "checked against the slope of the drive at the crossing",
    "LzCrossing.delta_adiab": "checked against delta^2/(4v) and the Stokes phase it enters",
    "CyclePhases.f1": "checked against scipy's adaptive quad of the gap excess over region 1",
    "CyclePhases.f2": "checked against scipy's adaptive quad of the gap excess over region 2",
}


def _public_dataclasses(tree: ast.Module) -> list[ast.ClassDef]:
    """The public classes decorated with ``dataclass``."""

    def is_dataclass(deco: ast.expr) -> bool:
        return getattr(deco.func if isinstance(deco, ast.Call) else deco, "id", None) == "dataclass"

    return [node for node in _public_classes(tree) if any(map(is_dataclass, node.decorator_list))]


def _field_reads(tree: ast.Module) -> dict[str, set[int]]:
    """The lines on which the code reads each name as an attribute or names it in a string constant."""
    reads = _attribute_reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.setdefault(node.value, set()).add(node.lineno)
    return reads


def test_every_public_dataclass_field_is_reached():
    # A string constant counts as a read, as for cli's getattr(result, name).
    # A field nothing reaches is deleted or listed above with its reason.
    candidates = [
        (path, f"{cls.name}.{node.target.id}", node.target.id, set(range(cls.lineno, cls.end_lineno + 1)))
        for path, tree in _package_trees().items() for cls in _public_dataclasses(tree)
        for node in cls.body if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert _unreached(_field_reads, candidates) == set(_UNREACHED_FIELDS_ON_PURPOSE)


# Defaulted parameters of public functions that nothing in the package and
# no acceptance criterion passes, on purpose.
_UNPASSED_ON_PURPOSE = {
    "stroboscopic_exact.steps_per_period": "the tests run it at 64 and 256 steps for speed; criterion 10 takes the default",
    "main.argv": "the tests, the README check and the benchmark call the CLI in process",
}


def _public_functions() -> list[tuple[Path, ast.FunctionDef]]:
    """The module-level functions listed in ``__all__``, with their module paths."""
    return [
        (path, node) for path, tree in _package_trees().items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _public_names(tree)
    ]


def _defaulted(function: ast.FunctionDef) -> list[str]:
    """The names of the parameters that have a default."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    names = [arg.arg for arg in positional[len(positional) - len(args.defaults):]]
    return names + [arg.arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]


def _passes(functions):
    """A reader: the lines on which the code passes each parameter of functions, labelled ``function.parameter``.

    A call names its function as a name or an attribute; it passes a
    parameter by keyword, or by position when it has that many positional
    arguments.
    """
    positions = {function.name: [arg.arg for arg in (*function.args.posonlyargs, *function.args.args)]
                 for _, function in functions}

    def reader(tree: ast.Module) -> dict[str, set[int]]:
        passes: dict[str, set[int]] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name not in positions:
                continue
            passed = {keyword.arg for keyword in node.keywords} | set(positions[name][: len(node.args)])
            for parameter in passed:
                passes.setdefault(f"{name}.{parameter}", set()).add(node.lineno)
        return passes

    return reader


def test_every_defaulted_parameter_is_passed():
    # A default that no caller overrides is a constant: public parameters,
    # like public names, are set from outside the function (its own
    # recursion does not count) or by an acceptance criterion.  One nothing
    # sets is deleted or listed above with its reason.
    functions = _public_functions()
    candidates = [
        (path, f"{function.name}.{parameter}", f"{function.name}.{parameter}",
         set(range(function.lineno, function.end_lineno + 1)))
        for path, function in functions for parameter in _defaulted(function)
    ]
    assert _unreached(_passes(functions), candidates) == set(_UNPASSED_ON_PURPOSE)


def _discarded_arguments(function: ast.FunctionDef) -> set[int]:
    """The ids of the names read inside the arguments of function's bare call statements, whose value is discarded."""
    calls = [node.value for node in ast.walk(function) if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)]
    arguments = [arg for call in calls for arg in (*call.args, *(keyword.value for keyword in call.keywords))]
    return {id(node) for arg in arguments for node in ast.walk(arg) if isinstance(node, ast.Name)}


def _parameters(function: ast.FunctionDef) -> list[str]:
    args = function.args
    every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
    return [arg.arg for arg in every if arg is not None]


def test_every_public_parameter_is_read():
    # A parameter that is only validated (handed to a check whose value is
    # dropped) or not read at all changes no result: it is deleted, not
    # kept for a caller to set.  This holds for every public function and
    # every public method of a public class.
    functions = [function for _, function in _public_functions()]
    functions += [
        node for tree in _package_trees().values() for cls in _public_classes(tree)
        for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    unread = []
    for function in functions:
        discarded = _discarded_arguments(function)
        read = {
            node.id for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and id(node) not in discarded
        }
        unread += [f"{function.name}.{name}" for name in _parameters(function) if name not in read]
    assert unread == []
