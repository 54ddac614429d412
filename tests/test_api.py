"""Every public name resolves, so a deleted name cannot linger in an export list.

Also pins where the proven orderings are checked: only ``qcrb`` raises
OrderingViolation, so the rule for ties and rounding has one home.  Only
``families.matched_report`` reaches the budget solve, a pass it shares with
``solve_param_for_nbar``, so every fixed-budget comparison takes its
balanced bound from one path.  ``circuit`` holds one cache, a module dict
that only ``_compiled`` reads and writes, and no ``functools`` cache; only
``run_experiment`` calls ``_compiled``, and the kernel runs on that one path.
The package reads every field of ``CircuitConfig`` and of the family table's
``FamilyRow``, so none is inert.  numpy is imported only by ``oracles``, at
its top, and is no runtime dependency of the package.  And the package reads
one environment variable, ``COLUMNS``, for the help text's width: no variable
changes what a command computes or where it writes.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import noonlike
from noonlike import Balanced
from noonlike.states import FAMILIES, SingleModeState

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


STATE_CLASSES = {"Fock", "Coherent", "SqueezedVacuum", "SqueezedCoherent", "FockSuperposition"}


def _names_family_or_state(node):
    """Whether ``node`` names a state class or a family: a name, an attribute
    such as ``Family.ECS``, a family-name literal, or a tuple holding one."""
    if isinstance(node, ast.Constant):
        return node.value in FAMILIES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_family_or_state, node.elts))
    return _name(node) in STATE_CLASSES or (
        isinstance(node, ast.Attribute) and node.attr.lower() in FAMILIES
    )


def _family_dispatch(path):
    """``file:line`` of each ``isinstance`` on a state class and each comparison
    with a state class or a family outside the state classes and the table."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name in STATE_CLASSES:
                continue  # a state's own methods
            if isinstance(child, ast.Assign) and any(_name(t) == "FAMILIES" for t in child.targets):
                continue  # the table
            if isinstance(child, ast.Call) and _name(child.func) == "isinstance":
                dispatch = len(child.args) == 2 and _names_family_or_state(child.args[1])
            elif isinstance(child, ast.Compare):
                dispatch = any(map(_names_family_or_state, [child.left, *child.comparators]))
            else:
                dispatch = False
            if dispatch:
                found.append(f"{path.name}:{child.lineno}")
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


def test_no_family_dispatch_outside_the_table():
    # each family's facts live in its row of states.FAMILIES, each state's in
    # its class; nothing else branches on which family or state it holds
    assert {cls.__name__ for cls in SingleModeState.__subclasses__()} == STATE_CLASSES
    package = Path(noonlike.__file__).parent
    assert [site for p in sorted(package.glob("*.py")) for site in _family_dispatch(p)] == []


def test_family_dispatch_gate_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "if isinstance(state, Coherent): pass\n"
        "if isinstance(state, (Fock, states.SqueezedVacuum)): pass\n"
        "if family is Family.ESCS: pass\n"
        "if family == 'ecs': pass\n"
        "x = 'esvs' != family\n"
        "if family in ('noon', 'ecs'): pass\n"
        "if type(state) is FockSuperposition: pass\n"
        "FAMILIES = {'noon': family == 'noon'}\n"
        "class Fock:\n"
        "    def f(self, other): return isinstance(other, Fock)\n"
        "if isinstance(state, SingleModeState) and family == name: pass\n"
    )
    assert _family_dispatch(probe) == [f"probe.py:{n}" for n in range(1, 8)]


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


def _scopes(path, hit):
    """Where ``hit`` takes a node of ``path``: its top-level function's name, or ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if scope == "<module>" else scope)
                continue
            if hit(child):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _callers(path, callee):
    """Names of the functions in ``path`` (``<module>`` at top level) that call ``callee``."""
    return _scopes(path, lambda node: isinstance(node, ast.Call) and _name(node.func) == callee)


def test_only_matched_report_solves_a_budget():
    # the budget solve is one pass, which the public solve and matched_report
    # share; inside the package only matched_report reaches it
    package = Path(noonlike.__file__).parent

    def callers(callee):
        files = sorted(package.glob("*.py"))
        return [f"{p.stem}.{scope}" for p in files for scope in _callers(p, callee)]

    assert callers("_match") == ["families.solve_param_for_nbar", "families.matched_report"]
    assert callers("solve_param_for_nbar") == []


def test_circuit_compiles_behind_one_cache():
    # what depends on the config alone is built behind one cache, a module
    # dict that only _compiled reads and writes; a functools cache would hash
    # the config on every run
    path = Path(noonlike.__file__).parent / "circuit.py"
    tree = ast.parse(path.read_text())
    dicts = [
        _name(target)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (isinstance(node.value, ast.Dict)
             or isinstance(node.value, ast.Call) and _name(node.value.func) == "dict")
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    assert dicts == ["_COMPILED"]
    uses = _scopes(path, lambda node: _name(node) == "_COMPILED")
    assert uses.count("<module>") == 1 and set(uses) == {"<module>", "_compiled"}
    assert _callers(path, "_compiled") == ["run_experiment"]
    names = {_name(node) for node in ast.walk(tree)} | {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None)] + [alias.name for alias in node.names]
    }
    assert not names & {"functools", "cache", "lru_cache", "cached_property"}


def test_circuit_has_one_simulator_path():
    # the transfer table is built only behind the cache, and run only by
    # run_experiment: a second simulator path beside it would call the kernel too
    path = Path(noonlike.__file__).parent / "circuit.py"
    assert _callers(path, "_transfer_terms") == ["_compiled"]
    assert _callers(path, "_heralded_state") == ["run_experiment"]


@pytest.mark.parametrize(
    "module, cls, variable",
    [("circuit", "CircuitConfig", "cfg"), ("states", "FamilyRow", "row")],
)
def test_every_field_is_read(module, cls, variable):
    # a field read only where its value is built changes no run: it is no
    # choice; each is read as ``variable.<field>`` somewhere outside its class
    read = set()
    for path in sorted(Path(noonlike.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for top in tree.body if getattr(top, "name", None) == cls
                  for node in ast.walk(top)}
        read |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == variable and id(node) not in inside
        }
    fields = getattr(importlib.import_module(f"noonlike.{module}"), cls).__slots__
    assert set(fields) <= read


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
    assert reads == ["_parser:COLUMNS"]


def test_environment_gate_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nfrom os import environ, getenv\n"
        "a = os.environ['A']\nb = os.environ.get('B')\nc = os.getenv('C', '')\n"
        "d = environ['D']\ne = getenv('E')\nf = os.environ\ng = 'G' in environ\n"
        "h = os.environ.get(name)\n"
    )
    assert sorted(map(str, _environment_reads(probe))) == ["A", "B", "C", "D", "E"] + ["None"] * 3
