"""Every public name resolves, so a deleted name cannot linger in an export list.

Also pins where the proven orderings are checked: only ``qcrb`` raises
OrderingViolation, so the rule for ties and rounding has one home.  Only
``families.matched_report`` calls the budget solve, so every fixed-budget
comparison takes its balanced bound from one path.  ``circuit`` holds one
cache, ``_compiled``, read only by ``run_experiment``, runs its kernel on
that one path alone, and reads every ``CircuitConfig`` field, so none is
inert.  numpy is imported only by ``oracles``, at its top, and is no
runtime dependency of the package.  And the package reads one environment
variable, ``COLUMNS``, for the help text's width: no variable changes what
a command computes or where it writes.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import noonlike
from noonlike import Balanced

MODULES = ["noonlike.states", "noonlike.qcrb", "noonlike.oracles", "noonlike.families",
           "noonlike.circuit", "noonlike.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _package_reexports():
    """(module, name) of every name the package imports or serves on first use."""
    tree = ast.parse(Path(noonlike.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                yield node.module, alias.name
    yield from ((module, name) for name, module in noonlike._LAZY.items())


@pytest.mark.parametrize("module, name", list(_package_reexports()))
def test_package_reexport_resolves(module, name):
    source = importlib.import_module(f"noonlike.{module}")
    if name == module:  # a submodule served by its own name
        assert getattr(noonlike, name) is source
        return
    assert getattr(noonlike, name) is getattr(source, name)
    if hasattr(source, "__all__"):
        assert name in source.__all__


def test_lazy_names_are_all_of_the_oracles():
    lazy = {name for name, module in noonlike._LAZY.items() if module == "oracles"}
    assert lazy == set(importlib.import_module("noonlike.oracles").__all__)


def test_bound_functions_take_d_first():
    # the bound layer takes (d, ...) as plain arguments, like the paper's
    # functions of d: no argument bundle carries d into it
    takers, late = [], []
    for module in ("noonlike.qcrb", "noonlike.oracles"):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if not callable(obj):  # the Weighting union
                continue
            parameters = list(inspect.signature(obj).parameters)
            if "d" in parameters:
                takers.append(name)
                if parameters[0] != "d":
                    late.append(f"{name}{inspect.signature(obj)}")
    assert late == []
    assert {"qcrb_closed_form", "qfi_matrix", "resolve_weights"} <= set(takers)


@pytest.mark.parametrize("name", ["qcrb_closed_form", "qfi_matrix"])
def test_weighting_defaults_to_balanced(name):
    parameters = inspect.signature(getattr(noonlike, name)).parameters
    assert list(parameters) == ["d", "state", "weighting"]
    assert parameters["weighting"].default == Balanced()


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


def _numpy_imports(path):
    """``module:scope`` of each numpy import in ``path``: the top-level def or class, or ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else scope)
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            if any(n.split(".")[0] == "numpy" for n in names):
                found.append(f"{path.stem}:{scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_oracles_import_numpy():
    package = Path(noonlike.__file__).parent
    found = [site for p in sorted(package.glob("*.py")) for site in _numpy_imports(p)]
    assert found == ["oracles:<module>"]


def test_numpy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == []
    test_extra = project["optional-dependencies"]["test"]
    assert "numpy" in {re.match(r"[\w.-]+", requirement).group() for requirement in test_extra}


def test_numpy_import_gate_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy\n"
        "if True:\n    from numpy import linalg\n"
        "def f():\n    import numpy.linalg as la\n"
        "class C:\n    def g(self):\n        from numpy.linalg import inv\n"
        "import numbers\nfrom . import numpyish\n"
    )
    assert _numpy_imports(probe) == ["probe:<module>", "probe:<module>", "probe:f", "probe:C"]


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


def test_circuit_compiles_behind_one_cache():
    # what depends on the config alone is built behind one cache keyed on the
    # config; any other cache would hash its own key on every run
    path = Path(noonlike.__file__).parent / "circuit.py"
    tree = ast.parse(path.read_text())
    uses = [node for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
            and _name(node) in ("cache", "lru_cache", "cached_property")]
    cached = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
        if (d.func if isinstance(d, ast.Call) else d) in uses
    ]
    assert cached == ["_compiled"] and len(uses) == 1
    assert _callers(path, "_compiled") == ["run_experiment"]


def test_circuit_has_one_simulator_path():
    # the transfer table is built only behind the cache, and run only by
    # run_experiment: a second simulator path beside it would call the kernel too
    path = Path(noonlike.__file__).parent / "circuit.py"
    assert _callers(path, "_transfer_terms") == ["_compiled"]
    assert _callers(path, "_heralded_state") == ["run_experiment"]


def test_circuit_reads_every_config_field():
    # a field read only where the config is built changes no run: it is no choice
    from noonlike.circuit import CircuitConfig

    tree = ast.parse((Path(noonlike.__file__).parent / "circuit.py").read_text())
    config = next(n for n in tree.body if getattr(n, "name", None) == "CircuitConfig")
    init = next(n for n in config.body if getattr(n, "name", None) == "__init__")
    in_init = {id(node) for node in ast.walk(init)}
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "cfg" and id(node) not in in_init
    }
    assert set(CircuitConfig.__slots__) <= read


_ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(path):
    """The key of each environment read in ``path``: None where it is no literal.

    A read is ``environ[key]``, ``environ.get(key)`` or ``getenv(key)``, with
    or without ``os.``; any other use of those names, an alias or a ``key in
    environ`` test, counts as a read of no literal key.
    """
    tree = ast.parse(path.read_text())
    keys = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            target = func.value if isinstance(func, ast.Attribute) and func.attr == "get" else func
            key = node.args[0]
        else:
            continue
        if _name(target) in _ENVIRONMENT:
            keys[id(target)] = key.value if isinstance(key, ast.Constant) else None
    return [
        keys.get(id(node))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in _ENVIRONMENT
    ]


def test_only_the_help_width_comes_from_the_environment():
    # a command writes to stdout or to --out: no variable redirects it
    package = Path(noonlike.__file__).parent
    reads = [
        f"{p.stem}:{key}" for p in sorted(package.glob("*.py")) for key in _environment_reads(p)
    ]
    assert reads == ["cli:COLUMNS"]


def test_environment_gate_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nfrom os import environ, getenv\n"
        "a = os.environ['A']\nb = os.environ.get('B')\nc = os.getenv('C', '')\n"
        "d = environ['D']\ne = getenv('E')\nf = os.environ\ng = 'G' in environ\n"
        "h = os.environ.get(name)\n"
    )
    assert sorted(map(str, _environment_reads(probe))) == ["A", "B", "C", "D", "E"] + ["None"] * 3
