"""A 40-digit reference for the heralded source's printed cells.

mpmath evaluates the reference circuit's closed forms, transcribed here and
independent of ``noonlike``, which this module does not import: the branch
amplitudes c_n, their mean photon number, the success probability, a
fidelity of 1 and a branch phase of pi for ``experiment``; and the NOON,
coherent-state (ECS) and heralded bounds of figure 6, with the ECS matched
to each n_bar exactly, through Lambert W.  ``test_golden`` pins the
fixtures to the program's output, so checking the fixtures checks the
program.

The contract: every computed cell is the reference value correctly rounded
to 12 significant digits, except within 1e-15 relative of a rounding tie,
where either neighbour is correct.  The echoed input ``r`` is not a
computed cell.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

GOLDEN = Path(__file__).parent / "golden"
DIGITS = 40
TIE = 1e-15

# figure 6's ECS cells with a wrong 12th digit, up to 1.7e-12 relative: the
# bisection that matches the coherent state to n_bar leaves alpha^2 off by
# up to 2.5e-12 relative, and from the exact alpha^2 the program's bound
# prints every ECS cell correctly rounded
_WRONG_LAST_DIGIT = {
    ("figure6.csv", row, "ecs") for row in (1, 2, 3, 4, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19)
}


def _source(r: float) -> dict:
    """The reference circuit's experiment cells at squeeze factor ``r``.

    |c_n|^2 = (8, 12 t, 12 t^2, 9 t^3) / g^2 for n = 1..4 and c_0 = 0, with
    g^2 = 8 + 12 t + 12 t^2 + 9 t^3 and t = tanh r; the success probability
    is t^2 g^2 exp(-3t/2) / (32 cosh r).
    """
    r = mpmath.mpf(r)
    t = mpmath.tanh(r)
    g2 = 8 + 12 * t + 12 * t**2 + 9 * t**3
    probs = [mpmath.mpf(0), 8 / g2, 12 * t / g2, 12 * t**2 / g2, 9 * t**3 / g2]
    cells = {
        "n_bar": sum(n * p for n, p in enumerate(probs)),
        "success_prob": t**2 * g2 * mpmath.exp(-1.5 * t) / (32 * mpmath.cosh(r)),
        "fidelity": mpmath.mpf(1),
        "branch_phase": mpmath.pi,
    }
    cells.update((f"abs_c{n}", mpmath.sqrt(p)) for n, p in enumerate(probs))
    cells["mean_n2"] = sum(n * n * p for n, p in enumerate(probs))
    return cells


def _bound(mean_n, mean_n2, vacuum_prob):
    """The balanced two-mode (d = 1) bound 1/(4<n^2>) (1/b^2 + 1/(R - b^2)).

    b^2 = 1/(2 (1 + p0)) weights the probing mode alike with the reference,
    and R = <n^2>/<n>^2.
    """
    b2 = 1 / (2 * (1 + vacuum_prob))
    big_r = mean_n2 / mean_n**2
    return (1 / b2 + 1 / (big_r - b2)) / (4 * mean_n2)


def _figure_6(r: float) -> dict:
    """Figure 6's cells at ``r``, every probe at the heralded state's n_bar (d = 1)."""
    source = _source(r)
    n_bar = source["n_bar"]
    # a coherent state carries n_bar = a2 / (1 + exp(-a2)) at d = 1
    a2 = n_bar + mpmath.lambertw(n_bar * mpmath.exp(-n_bar)).real
    return {
        "n_bar": n_bar,
        "noon_effective": 1 / n_bar**2,
        "ecs": _bound(a2, a2 + a2**2, mpmath.exp(-a2)),
        "phi": _bound(n_bar, source["mean_n2"], 0),
    }


def _read(fixture: str) -> list[dict]:
    with open(GOLDEN / fixture, newline="") as fh:
        return list(csv.DictReader(fh))


def _cells():
    """(fixture, row, column, printed, reference) of every computed cell."""
    with mpmath.workdps(DIGITS):
        tables = [(f"experiment_r{r}.csv", [_source(float(r))]) for r in ("0.3", "1", "2")]
        tables.append(("figure6.csv", [_figure_6(float(r)) for r in np.linspace(1.0, 2.0, 20)]))
    for fixture, references in tables:
        rows = _read(fixture)
        assert len(rows) == len(references)
        for index, (printed, reference) in enumerate(zip(rows, references)):
            for column, text in printed.items():
                if column != "r":
                    yield fixture, index, column, text, reference[column]


def _correctly_rounded(text: str, exact) -> bool:
    """Whether ``text`` is ``exact`` rounded to 12 significant digits (either, near a tie)."""
    if exact == 0:
        return float(text) == 0.0
    quantum = mpmath.mpf(10) ** (int(mpmath.floor(mpmath.log10(abs(exact)))) - 11)
    scaled = exact / quantum
    below = mpmath.floor(scaled)
    if abs(scaled - below - 0.5) * quantum <= TIE * abs(exact):
        allowed = (below, below + 1)
    else:
        allowed = (mpmath.nint(scaled),)
    printed = mpmath.mpf(text)
    return any(abs(printed - k * quantum) <= 1e-6 * quantum for k in allowed)


_BISECTED = pytest.mark.xfail(strict=True, reason="ECS bisection; ROADMAP item 4 inverts exactly")

CELLS = [
    pytest.param(
        text, exact, id=f"{fixture}-{row}-{column}",
        marks=[_BISECTED] if (fixture, row, column) in _WRONG_LAST_DIGIT else [],
    )
    for fixture, row, column, text, exact in _cells()
]


def test_every_computed_cell_is_covered():
    # 9 computed cells in each experiment fixture, 4 in each of figure 6's 20 rows
    assert len(CELLS) == 3 * 9 + 20 * 4


@pytest.mark.parametrize("text, exact", CELLS)
def test_cell_correctly_rounded(text, exact):
    with mpmath.workdps(DIGITS):
        assert _correctly_rounded(text, exact), f"{text} against {mpmath.nstr(exact, 20)}"
