"""Every public name resolves, so a deleted name cannot linger in an export list.

Also pins where the proven orderings are checked: only ``qcrb`` raises
OrderingViolation, so the rule for ties and rounding has one home.  And
only ``families.matched_report`` calls the budget solve, so every
fixed-budget comparison takes its balanced bound from one path.
"""

import ast
import importlib
from pathlib import Path

import pytest

import noonlike

MODULES = ["noonlike.states", "noonlike.qcrb", "noonlike.families", "noonlike.circuit",
           "noonlike.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _package_reexports():
    tree = ast.parse(Path(noonlike.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("module, name", list(_package_reexports()))
def test_package_reexport_resolves(module, name):
    source = importlib.import_module(f"noonlike.{module}")
    assert getattr(noonlike, name) is getattr(source, name)
    if hasattr(source, "__all__"):
        assert name in source.__all__


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _raises_ordering_violation(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(exc) == "OrderingViolation":
                return True
    return False


def test_only_qcrb_raises_ordering_violation():
    package = Path(noonlike.__file__).parent
    raising = [p.name for p in sorted(package.glob("*.py")) if _raises_ordering_violation(p)]
    assert raising == ["qcrb.py"]


def _callers(path, callee):
    """Names of the functions in ``path`` (``<module>`` at top level) that call ``callee``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if scope == "<module>" else scope)
                continue
            if isinstance(child, ast.Call) and _name(child.func) == callee:
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_matched_report_solves_a_budget():
    package = Path(noonlike.__file__).parent
    callers = [
        f"{p.stem}.{scope}"
        for p in sorted(package.glob("*.py"))
        for scope in _callers(p, "solve_param_for_nbar")
    ]
    assert callers == ["families.matched_report"]
