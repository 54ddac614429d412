"""Start-up cost of the CLI: no command loads numpy or the oracles.

Every value of ``qcrb``, ``compare``, ``sweep-escs``, ``unbalanced`` and
``figure --id 2``, ``3`` and ``4`` comes from scalar math, so their processes
must not pay for importing numpy or ``noonlike.circuit``, nor for
``dataclasses`` (which loads ``inspect``) or, with CSV output, ``json``.  The
heralded-source commands, ``experiment`` and ``figure --id 6``, load the
circuit simulator, which is plain Python too, so they must not load numpy or
``dataclasses`` either.  No command, and no ``import noonlike``, loads
``noonlike.oracles``, the numpy code that checks the closed forms, and
none loads ``typing``, ``importlib.resources``, ``pathlib`` or ``shutil``.  An
exact argv is parsed without argparse, so no command that succeeds loads
``argparse``, ``gettext``, ``locale`` or, but for JSON output, ``re``; no
command with CSV output, closed-form or heralded, loads ``enum``,
``functools`` or ``collections``; and ``qcrb``, which builds its one state
from the parameter given, loads no family solver.  Each invocation runs in
a fresh interpreter, since this one has imported all of them long ago.  The
gates count modules, never seconds.

The pure-Python stand-ins for ``np.linspace`` and ``np.geomspace`` that make
this possible are checked against numpy bit for bit.  The geometric grid is
checked in a child interpreter that keeps numpy off its AVX-512 code, whose
``power`` rounds differently from the C library's ``pow``; in this process
it is held to within an ulp or two of numpy.
"""

import json
import math
import random
import struct

import numpy as np
import pytest

from noonlike.cli import _CHOICES, _geomspace, _linspace

CLOSED_FORM = [
    ["qcrb", "--family", "noon", "--d", "5", "--n", "2"],
    ["qcrb", "--family", "ecs", "--d", "5", "--alpha", "1.5"],
    ["qcrb", "--family", "escs", "--d", "5", "--alpha", "1.5", "--r-prime", "0.8"],
    ["qcrb", "--family", "esvs", "--d", "5", "--r", "2"],
    ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--b2", "0.05"],
    ["qcrb", "--family", "esvs", "--d", "5", "--r", "2", "--optimized-b"],
    ["compare", "--d", "5", "--n-bar", "4"],
    ["sweep-escs", "--d", "5", "--n-bar", "4"],
    ["sweep-escs", "--d", "5", "--n-bar", "4", "--format", "json"],
    ["unbalanced", "--d", "1"],
    ["figure", "--id", "2"],
    ["figure", "--id", "3", "--format", "json"],
    ["figure", "--id", "4"],
]

HERALDED = [
    ["experiment", "--r", "1"],
    ["experiment", "--r", "1", "--format", "json"],
    ["figure", "--id", "6", "--steps", "3"],
]


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=" ".join)
def test_closed_form_commands_import_neither_numpy_nor_circuit(cli_in_fresh_interpreter, argv):
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert "numpy" not in modules
    assert "noonlike.circuit" not in modules


@pytest.mark.parametrize("argv", CLOSED_FORM, ids=" ".join)
def test_closed_form_commands_generate_no_classes(cli_in_fresh_interpreter, argv):
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert "dataclasses" not in modules
    assert "inspect" not in modules
    # json loads for --format json only; seeing it there shows the probe would catch it
    assert ("json" in modules) == ("json" in argv)


@pytest.mark.parametrize("argv", HERALDED, ids=" ".join)
def test_heralded_commands_load_neither_numpy_nor_classes(cli_in_fresh_interpreter, argv):
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert "noonlike.circuit" in modules
    assert "numpy" not in modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules
    assert ("json" in modules) == ("json" in argv)


@pytest.mark.parametrize(
    "argv, loads", [(["experiment", "--r", "1"], "noonlike.circuit")], ids=" ".join
)
def test_array_commands_load_what_they_need(cli_in_fresh_interpreter, argv, loads):
    # the simulator needs no numpy
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert loads in modules
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", CLOSED_FORM + HERALDED, ids=" ".join)
def test_commands_leave_the_oracles_unloaded(cli_in_fresh_interpreter, argv):
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert "noonlike.oracles" not in modules


@pytest.mark.parametrize("argv", CLOSED_FORM + HERALDED, ids=" ".join)
def test_commands_load_neither_typing_nor_resources(cli_in_fresh_interpreter, argv):
    # without site, whose .pth files may import typing themselves
    code, modules = cli_in_fresh_interpreter(argv, site=False)
    assert code == 0
    assert "noonlike.cli" in modules  # the probe sees the package's modules
    assert "typing" not in modules
    assert "importlib.resources" not in modules
    assert "shutil" not in modules  # argparse's help formatter imports it for the width


@pytest.mark.parametrize(
    "argv", [a for a in CLOSED_FORM + HERALDED if "json" not in a], ids=" ".join
)
def test_csv_commands_load_neither_enum_nor_collections(cli_in_fresh_interpreter, argv):
    # a family is its name, annotations stay strings, and the circuit caches
    # in a plain dict; JSON output is exempt, since json imports re, which
    # imports enum
    code, modules = cli_in_fresh_interpreter(argv, site=False)
    assert code == 0
    assert "noonlike.cli" in modules
    assert not modules & {"enum", "functools", "collections"}


@pytest.mark.parametrize("argv", CLOSED_FORM + HERALDED, ids=" ".join)
def test_commands_load_no_argparse(cli_in_fresh_interpreter, argv):
    # an exact argv is parsed from the option table; argparse is for help and usage errors
    code, modules = cli_in_fresh_interpreter(argv, site=False)
    assert code == 0
    assert "noonlike.cli" in modules
    assert not modules & {"argparse", "gettext", "locale"}
    assert ("re" in modules) == ("json" in argv)  # json's encoder imports re


def test_usage_error_loads_argparse(cli_in_fresh_interpreter):
    # argparse words the error, so the probes above would see it, and its
    # formatter's width from shutil
    code, modules = cli_in_fresh_interpreter(["qcrb", "--family", "noon", "--d", "5", "--bogus"],
                                             site=False)
    assert code == 2
    assert {"argparse", "gettext", "locale", "re", "shutil"} <= modules


@pytest.mark.parametrize("argv", CLOSED_FORM + HERALDED, ids=" ".join)
def test_only_budget_matching_commands_load_the_solver(cli_in_fresh_interpreter, argv):
    # qcrb builds its one state from the parameter given; every other command
    # here matches a budget (experiment and figure 6 through the circuit)
    code, modules = cli_in_fresh_interpreter(argv, site=False)
    assert code == 0
    assert ("noonlike.families" in modules) == (argv[0] != "qcrb")


@pytest.mark.parametrize("argv", CLOSED_FORM + HERALDED, ids=" ".join)
def test_commands_load_no_pathlib(cli_in_fresh_interpreter, argv):
    # the same processes as above: --out goes through os.path
    code, modules = cli_in_fresh_interpreter(argv, site=False)
    assert code == 0
    assert "noonlike.cli" in modules
    assert "pathlib" not in modules


def test_package_import_leaves_the_oracles_unloaded(fresh_python):
    proc = fresh_python(
        "import sys\nimport noonlike\n"
        "print(sorted(m for m in sys.modules if m.startswith(('noonlike', 'numpy'))))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "noonlike.oracles" not in loaded and "numpy" not in loaded
    assert "noonlike.qcrb" in loaded  # the probe sees the package's modules


def test_oracle_names_load_the_oracles(fresh_python):
    proc = fresh_python(
        "import sys\nfrom noonlike import qfi_matrix, fock_amplitudes\n"
        "print('noonlike.oracles' in sys.modules, 'numpy' in sys.modules)\n"
        "import noonlike.oracles as oracles\n"
        "assert qfi_matrix is oracles.qfi_matrix and fock_amplitudes is oracles.fock_amplitudes\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_circuit_attribute_loads_on_first_use(fresh_python):
    # the set-up sequence of perfbench/run.py, then the attribute's edges
    proc = fresh_python(
        "import numpy\n"
        "import noonlike, noonlike.cli\n"
        "noonlike.circuit.default_circuit_config()\n"
        "from noonlike import circuit\n"
        "assert circuit is noonlike.circuit\n"
        "assert not hasattr(noonlike, 'nonexistent')\n"
        "try:\n"
        "    noonlike.nonexistent\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "no attribute 'nonexistent'" in proc.stdout


def test_from_import_loads_circuit(fresh_python):
    proc = fresh_python("from noonlike import circuit\nprint(circuit.__name__)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["noonlike.circuit"]


def _bits(values) -> list[int]:
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in values]


class TestLinspace:
    CASES = 10_000

    def _check(self, start, stop, num):
        want = np.linspace(start, stop, num).tolist()
        got = _linspace(start, stop, num)
        assert _bits(got) == _bits(want), (start, stop, num)

    def test_random_grids(self):
        rng = np.random.default_rng(20241018)
        for _ in range(self.CASES):
            start, stop = rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-6, 7, 2)
            self._check(float(start), float(stop), int(rng.integers(1, 300)))

    @pytest.mark.parametrize(
        "start, stop, num",
        [
            (0.3, 3.0, 1),
            (-0.0, 1.0, 1),
            (0.4, 1.2, 3),
            (0.3, 3.0, 60),
            (1.0, 1.0, 5),
            (-0.0, -0.0, 3),
            (0.0, 5e-324, 3),  # a step that underflows to 0
            (5e-324, 1e-323, 7),
            (3.0, 0.3, 11),
        ],
    )
    def test_edges(self, start, stop, num):
        self._check(start, stop, num)
        grid = _linspace(start, stop, num)
        assert len(grid) == num
        if num > 1:
            assert grid[-1] == stop

    def test_infinite_span_with_one_point(self):
        with np.errstate(invalid="ignore"):
            self._check(1.0, math.inf, 1)


def _figure_grid(figure: int) -> tuple[float, float, int]:
    defaults = _CHOICES["id"][1][figure]
    return defaults["n_min"], defaults["n_max"], defaults["steps"]


def _random_geometric_grids(count: int) -> list[tuple[float, float, int]]:
    """Seeded (start, stop, num), either order, with ends across n_bar's whole domain."""
    rng = random.Random(20261019)
    return [
        (10.0 ** rng.uniform(-150, 150), 10.0 ** rng.uniform(-150, 150), rng.randint(1, 300))
        for _ in range(count)
    ]


# numpy's geomspace, and the float64 dispatch targets of the two ufuncs it
# runs, in a child whose environment can turn numpy's AVX-512 code off
_NUMPY_GEOMSPACE = """
import json, pathlib, sys
try:
    import numpy as np
    from numpy.lib.introspect import opt_func_info  # numpy 2.0 and later
    targets = [sig["current"] for name in ("power", "log10") for sig in
               opt_func_info(func_name=f"^{name}$", signature="float64")[name].values()]
except ImportError as exc:  # numpy before 2.0 cannot report its dispatch
    print(json.dumps({"targets": [f"unknown ({exc})"]}))
    sys.exit()
grids = json.loads(pathlib.Path(sys.argv[1]).read_text())
print(json.dumps({"targets": targets, "grids": [np.geomspace(*g).tolist() for g in grids]}))
"""


class TestGeomspace:
    EDGES = [
        _figure_grid(2),
        _figure_grid(3),
        (0.5, 20.0, 1),
        (0.5, 20.0, 2),
        (1.0, 1.0, 5),
        (20.0, 0.5, 40),
        (5e-324, 1.7976931348623157e308, 50),
    ]
    GRIDS = EDGES + _random_geometric_grids(3000)

    def test_equals_numpy_baseline_code_bit_for_bit(self, fresh_python, monkeypatch, tmp_path):
        cases = tmp_path / "grids.json"
        cases.write_text(json.dumps(self.GRIDS))
        monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "X86_V4")
        proc = fresh_python(_NUMPY_GEOMSPACE, str(cases))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        if any(t.startswith("unknown") or "X86_V4" in t or "AVX512" in t for t in result["targets"]):
            pytest.skip(f"numpy still runs power and log10 on {result['targets']}")
        for grid, want in zip(self.GRIDS, result["grids"], strict=True):
            assert _bits(_geomspace(*grid)) == _bits(want), grid

    def test_within_an_ulp_or_two_of_numpy_here(self):
        for grid in self.GRIDS:
            with np.errstate(over="ignore"):  # numpy computes, then pins, an end at the float limit
                want = _bits(np.geomspace(*grid).tolist())
            got = _bits(_geomspace(*grid))
            assert len(got) == len(want)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 2, grid

    @pytest.mark.parametrize("start, stop, num", EDGES)
    def test_ends_are_exact(self, start, stop, num):
        grid = list(_geomspace(start, stop, num))
        assert len(grid) == num and grid[0] == start
        if num > 1:
            assert grid[-1] == stop
