"""Fuzz the command line with argvs drawn from the CLI's own option table.

Every command, option, type and choice comes from ``cli._COMMAND_OPTIONS``,
``cli._CHOICES`` and ``cli._OPTIONS``, so an option added there is fuzzed
without a change here.  Whatever the input, ``cli.main`` must exit 0, 1 or 2,
print no traceback, and print only finite numbers when it succeeds.
"""

import contextlib
import io
import json
import math

import pytest

from noonlike import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
# magnitudes from 1e-320 to 1e308, log-uniform, either sign
EXTREMES = st.builds(
    lambda mantissa, exponent, sign: sign * float(f"{mantissa}e{exponent}"),
    st.integers(1, 9),
    st.integers(-320, 308),
    st.sampled_from([1, -1]),
)
# one in ten special, two in ten extreme, the rest moderate
FLOATS = st.one_of(SPECIALS, EXTREMES, EXTREMES, *[st.floats(0.05, 30.0)] * 7)
INTS = st.one_of(st.sampled_from([0, -1, 1, 10**12]), st.integers(1, 60))
STEPS = st.integers(-1, 5)  # keeps every grid, and so every example, cheap


def _value(key: str):
    kind = cli._OPTIONS[key][0]
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return STEPS if key == "steps" else INTS
    return FLOATS


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(tuple(cli._COMMAND_OPTIONS)))
    takes = cli._takes(command)
    own = cli._COMMAND_OPTIONS[command][1]
    chosen = {}
    for chooser in takes.keys() & cli._CHOICES.keys():
        choice = draw(st.sampled_from(tuple(cli._CHOICES[chooser][1])))
        chosen = {chooser: choice, **cli._CHOICES[chooser][1][choice]}
    pairs = []
    for key in takes:
        if key == "out":  # nothing is written
            continue
        kind = cli._OPTIONS[key][0]
        # given always if required, else in 5 of 10 examples if the command or
        # its choice takes it, and in 1 of 10 if not
        required = cli._REQUIRED in (own.get(key), chosen.get(key))
        odds = 10 if required else 5 if key in own or key in chosen else 1
        if draw(st.integers(0, 9)) >= odds:
            continue
        if kind is bool:
            pairs.append([cli._FLAG[key]])
        else:
            value = chosen[key] if key in cli._CHOICES else draw(_value(key))
            pairs.append([cli._FLAG[key], str(value)])
    return [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]


def _numbers(text: str) -> list:
    if text.startswith("{"):
        rows = json.loads(text)["rows"]
        return [v for row in rows for v in row.values() if isinstance(v, (int, float))]
    tokens = [t for line in text.splitlines()[1:] for t in line.split(",")]
    numbers = []
    for token in tokens:
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


@pytest.fixture(autouse=True, scope="module")
def _output_to_stdout():
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("NOONLIKE_OUTPUT_DIR", raising=False)
        yield


@hypothesis.settings(max_examples=200, derandomize=True, deadline=None, database=None)
@hypothesis.given(argv=argvs())
def test_any_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert all(math.isfinite(v) for v in _numbers(out.getvalue()))
    else:
        assert out.getvalue() == ""
