"""Start-up cost of the CLI: only figures 2 and 3 load numpy.

Every value of ``qcrb``, ``compare``, ``sweep-escs``, ``unbalanced`` and
``figure --id 4`` comes from scalar math, so their processes must not pay
for importing numpy or ``noonlike.circuit``, nor for ``dataclasses`` (which
loads ``inspect``) or, with CSV output, ``json``.  The heralded-source
commands, ``experiment`` and ``figure --id 6``, load the circuit simulator,
which is plain Python too, so they must not load numpy or ``dataclasses``
either.  Each invocation runs in a fresh interpreter, since this one has
imported all of them long ago.  The gates count modules, never seconds.
The pure-Python stand-ins for ``np.linspace`` and ``np.interp`` that make
this possible are checked against numpy bit for bit.
"""

import math
import struct

import numpy as np
import pytest

from noonlike.cli import _linspace
from noonlike.families import _interp

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
    "argv, loads",
    [(["experiment", "--r", "1"], "noonlike.circuit"), (["figure", "--id", "2"], "numpy")],
    ids=" ".join,
)
def test_array_commands_load_what_they_need(cli_in_fresh_interpreter, argv, loads):
    # figure 2 keeps numpy for np.geomspace; the simulator needs none
    code, modules = cli_in_fresh_interpreter(argv)
    assert code == 0
    assert loads in modules
    assert ("numpy" in modules) == (loads == "numpy")


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


class TestInterp:
    CASES = 10_000

    def _check(self, x, xp, fp):
        want = float(np.interp(x, xp, fp))
        got = _interp(x, xp, fp)
        assert _bits([got]) == _bits([want]), (x, xp, fp)

    def test_random_points(self):
        rng = np.random.default_rng(20241019)
        for _ in range(self.CASES):
            size = int(rng.integers(1, 80))
            xp = np.sort(rng.uniform(-5.0, 5.0, size))
            if size > 2 and rng.random() < 0.25:
                xp[1] = xp[2]  # a repeated abscissa, as a flat stretch of n_bar gives
            fp = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
            roll = rng.random()
            if roll < 0.2:
                x = float(rng.choice(xp))  # exactly on a grid point
            elif roll < 0.3:
                x = float(xp[0] if rng.random() < 0.5 else xp[-1])  # an endpoint
            else:
                x = float(rng.uniform(-6.0, 6.0))  # inside or beyond either edge
            self._check(x, xp.tolist(), fp.tolist())

    @pytest.mark.parametrize(
        "x, xp, fp",
        [
            (0.5, [0.0, 1.0], [math.inf, math.inf]),  # NaN from both ends, equal values
            (0.5, [0.0, 1.0], [-math.inf, math.inf]),  # NaN from both ends
            (0.5, [0.0, 1.0], [math.inf, 1.0]),
            (math.nan, [0.0, 1.0], [0.0, 1.0]),
            (0.0, [0.0, 0.0, 1.0], [1.0, 2.0, 3.0]),
            (1.0, [0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
            (2.0, [0.0], [7.0]),
            (-2.0, [0.0], [7.0]),
            (-1.0, [0.0, 1.0], [4.0, 5.0]),
            (9.0, [0.0, 1.0], [4.0, 5.0]),
        ],
    )
    def test_edges(self, x, xp, fp):
        self._check(x, xp, fp)
