"""A 40-digit reference for the printed cells of the heralded source and the bound commands.

mpmath evaluates closed forms, transcribed here and independent of
``noonlike``, which this module does not import.  For ``experiment`` they
are the reference circuit's: the branch amplitudes c_n, their mean photon
number, the success probability, a fidelity of 1 and a branch phase of
pi.  For figure 6 they are the NOON, coherent-state (ECS) and heralded
bounds, with the ECS matched to each n_bar exactly, through Lambert W.
For the six ``qcrb`` fixtures they are each family's photon-number
moments, the probe weights on the normalization ellipse and the bound;
for figure 4 and the two ``unbalanced`` fixtures, the same for a squeezed
vacuum, balanced and with the optimized weight, at each grid point.  For
``compare`` and ``sweep-escs`` each family is first matched to the budget
in mpmath: the coherent state through Lambert W, the squeezed vacuum
through the root of a cubic and the squeezed-coherent state by
``findroot``.
``test_golden`` pins the fixtures to the program's output, so checking the
fixtures checks the program.

The contract: every computed cell is the reference value correctly rounded
to 12 significant digits, except within 1e-15 relative of a rounding tie,
where either neighbour is correct.  The echoed inputs ``r`` and
``r_prime``, the ``family`` label and the blank ``parameter`` of the
``qcrb`` fixtures are not computed cells.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

GOLDEN = Path(__file__).parent / "golden"
DIGITS = 40
TIE = 1e-15

# the n_bar the qcrb command prints for an unbalanced probe is the balanced
# probe's <n>/(1 + d p0), not the probe's own (c^2 + d b^2)<n>
_BALANCED_NBAR = {("qcrb_esvs_b2.csv", 0, "n_bar"), ("qcrb_esvs_optimized.csv", 0, "n_bar")}

# figure 6's ECS cells with a wrong 12th digit, up to 1.7e-12 relative: the
# bisection that matches the coherent state to n_bar leaves alpha^2 off by
# up to 2.5e-12 relative, and from the exact alpha^2 the program's bound
# prints every ECS cell correctly rounded
_WRONG_LAST_DIGIT = {
    ("figure6.csv", row, "ecs") for row in (1, 2, 3, 4, 7, 9, 10, 11, 13, 14, 15, 16, 17, 18, 19)
}


# the cells of ``compare`` and ``sweep-escs`` that the same bisection leaves
# with a wrong 12th digit, up to 2.5e-12 relative; from the exact parameter
# the program prints each correctly rounded.  Among them is the ESVS n_bar,
# printed 4.00000000001 where the budget is exactly 4
_WRONG_LAST_DIGIT |= {
    ("compare.csv", 1, "qcrb"), ("compare.csv", 2, "f"), ("compare.csv", 2, "n_tilde"),
    ("compare.csv", 3, "qcrb"), ("compare.csv", 3, "b2"), ("compare.csv", 3, "n_bar"),
    ("sweep_escs.csv", 0, "qcrb"), ("sweep_escs.csv", 2, "qcrb"),
}

# the printed columns that may hold no computed cell
_ECHOED = {"r", "r_prime", "family", "parameter"}


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


def _constituent(family: str, x: float, r_prime: float = 0.0) -> tuple:
    """(<n>, <n^2>, p0) of ``family``'s constituent with parameter ``x`` (n, alpha or r).

    A squeezed-coherent state is displaced by ``x`` on the anti-squeezed
    quadrature after squeezing by ``r_prime``.
    """
    x = mpmath.mpf(x)
    if family == "noon":
        return x, x**2, mpmath.mpf(0)
    if family == "ecs":
        return x**2, x**2 + x**4, mpmath.exp(-(x**2))
    r = mpmath.mpf(x if family == "esvs" else r_prime)
    sh2, ch2 = mpmath.sinh(r) ** 2, mpmath.cosh(r) ** 2
    if family == "esvs":
        return sh2, 3 * sh2**2 + 2 * sh2, 1 / mpmath.cosh(r)
    a2 = x**2
    mean = a2 + sh2
    variance = a2 * mpmath.exp(2 * r) + 2 * sh2 * ch2
    return mean, mean**2 + variance, mpmath.exp(-a2 * (1 - mpmath.tanh(r))) / mpmath.cosh(r)


def _qcrb(d: int, constituent: tuple, weighting) -> dict:
    """The ``qcrb`` cells of the (d+1)-mode probe c|psi,0..0> + b sum_j |0..psi_j..0>.

    ``weighting`` is "balanced" (c = b), "optimized" (b^2 = R/(d + sqrt d),
    capped at the ellipse's largest b^2) or a fixed b^2.  The weights lie on
    A b^2 + B b c + c^2 = 1, A = d + d(d-1) p0, B = 2 d p0, with c the larger
    root, which is the tangency root -B b/2 at the cap.  n_bar is the
    probe's mean photon number (c^2 + d b^2)<n>.
    """
    mean, mean2, p0 = constituent
    big_r = mean2 / mean**2
    a_coef, b_coef = d + d * (d - 1) * p0, 2 * d * p0
    cap = 1 / (d * (1 + d * p0) * (1 - p0))
    if weighting == "balanced":
        b2 = 1 / ((d + 1) * (1 + d * p0))
    elif weighting == "optimized":
        b2 = min(big_r / (d + mpmath.sqrt(d)), cap)
    else:
        b2 = mpmath.mpf(weighting)
    b = mpmath.sqrt(b2)
    if b2 == cap:
        c = -b_coef * b / 2
    else:
        c = (-b_coef * b + mpmath.sqrt(b_coef**2 * b2 - 4 * (a_coef * b2 - 1))) / 2
    return {
        "qcrb": d / (4 * mean2) * (1 / b2 + 1 / (big_r - b2 * d)),
        "f": mean / mean2,
        "R": big_r,
        "b2": b2,
        "n_tilde": mean,
        "n_bar": (c**2 + d * b2) * mean,
    }


# each qcrb fixture's probe at d = 5, as its command in test_golden gives it
_QCRB_FIXTURES = {
    "qcrb_noon.csv": (("noon", 2), "balanced"),
    "qcrb_ecs.csv": (("ecs", 1.5), "balanced"),
    "qcrb_escs.csv": (("escs", 1, 0.5), "balanced"),
    "qcrb_esvs.csv": (("esvs", 2), "balanced"),
    "qcrb_esvs_b2.csv": (("esvs", 2), "0.05"),
    "qcrb_esvs_optimized.csv": (("esvs", 2), "optimized"),
}


# each unbalanced fixture's squeeze grid, np.linspace(0.3, r_max, steps), at
# d: figure 4 is the ``unbalanced`` command at d = 5
_UNBALANCED_FIXTURES = {
    "figure4.csv": (5, 3.0, 60),
    "unbalanced_d5.csv": (5, 3.0, 60),
    "unbalanced_d1_crossover.csv": (1, 6.0, 120),
}


def _unbalanced(d: int, r: float) -> dict:
    """The ``unbalanced`` cells of a squeezed vacuum with squeeze factor ``r``.

    It is probed balanced and with the bound-minimizing weight; each n_bar
    is that probe's own.
    """
    esvs = _constituent("esvs", r)
    cells = {}
    for label, weighting in ("balanced", "balanced"), ("unbalanced", "optimized"):
        report = _qcrb(d, esvs, weighting)
        cells[f"n_bar_{label}"], cells[f"qcrb_{label}"] = report["n_bar"], report["qcrb"]
    return cells


def _matched(family: str, d: int, n_bar: float, r_prime: float = 0.0):
    """The parameter (n, alpha or r) at which ``family``'s balanced probe carries ``n_bar``.

    The balanced probe carries <n>/(1 + d p0).  A coherent state reaches
    n_bar at alpha^2 = n_bar + W0(n_bar d e^(-n_bar)); a squeezed vacuum at
    cosh r = u, the one positive root of u^3 - (1 + n_bar) u - n_bar d; a
    squeezed-coherent state with squeeze factor ``r_prime`` at the alpha^2
    that ``findroot`` gives.
    """
    n_bar = mpmath.mpf(n_bar)
    if family == "noon":
        return n_bar
    if family == "ecs":
        return mpmath.sqrt(n_bar + mpmath.lambertw(n_bar * d * mpmath.exp(-n_bar)).real)
    if family == "esvs":
        roots = mpmath.polyroots([1, 0, -(1 + n_bar), -n_bar * d], maxsteps=100, extraprec=100)
        return mpmath.acosh(max(mpmath.re(u) for u in roots))

    def excess(a2):
        mean, _, p0 = _constituent("escs", mpmath.sqrt(a2), r_prime)
        return mean / (1 + d * p0) - n_bar

    return mpmath.sqrt(mpmath.findroot(excess, n_bar))


def _compare(d: int, n_bar: float, r_prime: float) -> list[dict]:
    """The ``compare`` rows: each family's balanced cells and matched parameter, in family order."""
    rows = []
    for family in ("noon", "ecs", "escs", "esvs"):
        x = _matched(family, d, n_bar, r_prime)
        rows.append(_qcrb(d, _constituent(family, x, r_prime), "balanced") | {"parameter": x})
    return rows


def _sweep_escs(d: int, n_bar: float, r_prime: float) -> dict:
    """A ``sweep-escs`` row: the matched squeezed-coherent probe's budget and bound."""
    report = _qcrb(d, _constituent("escs", _matched("escs", d, n_bar, r_prime), r_prime),
                   "balanced")
    return {"n_bar": report["n_bar"], "qcrb": report["qcrb"]}


def _read(fixture: str) -> list[dict]:
    with open(GOLDEN / fixture, newline="") as fh:
        return list(csv.DictReader(fh))


def _cells():
    """(fixture, row, column, printed, reference) of every computed cell."""
    with mpmath.workdps(DIGITS):
        tables = [(f"experiment_r{r}.csv", [_source(float(r))]) for r in ("0.3", "1", "2")]
        tables.append(("figure6.csv", [_figure_6(float(r)) for r in np.linspace(1.0, 2.0, 20)]))
        tables += [(fixture, [_qcrb(5, _constituent(*probe), weighting)])
                   for fixture, (probe, weighting) in _QCRB_FIXTURES.items()]
        tables += [(fixture, [_unbalanced(d, float(r)) for r in np.linspace(0.3, r_max, steps)])
                   for fixture, (d, r_max, steps) in _UNBALANCED_FIXTURES.items()]
        # `compare --d 5 --n-bar 4` (r' = 1) and `sweep-escs --d 5 --n-bar 2`
        tables.append(("compare.csv", _compare(5, 4.0, 1.0)))
        tables.append(("sweep_escs.csv",
                       [_sweep_escs(5, 2.0, float(rp)) for rp in np.linspace(0.4, 1.2, 3)]))
    for fixture, references in tables:
        rows = _read(fixture)
        assert len(rows) == len(references)
        for index, (printed, reference) in enumerate(zip(rows, references)):
            assert set(printed) <= set(reference) | _ECHOED, fixture
            for column, text in printed.items():
                if column in reference:
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


_BISECTED = pytest.mark.xfail(strict=True, reason="bisection; ROADMAP item 4 inverts exactly")
_NBAR_FAULT = pytest.mark.xfail(strict=True, reason="balanced n_bar reported; ROADMAP item 1")


def _marks(cell: tuple) -> list:
    if cell in _WRONG_LAST_DIGIT:
        return [_BISECTED]
    return [_NBAR_FAULT] if cell in _BALANCED_NBAR else []


CELLS = [
    pytest.param(text, exact, id=f"{fixture}-{row}-{column}", marks=_marks((fixture, row, column)))
    for fixture, row, column, text, exact in _cells()
]


def test_every_computed_cell_is_covered():
    # 9 computed cells in each experiment fixture, 4 in each of figure 6's 20
    # rows, 6 in each qcrb fixture, 4 in each row of the unbalanced ones, 7
    # in each of compare's 4 rows and 2 in each of sweep-escs's 3
    assert len(CELLS) == 3 * 9 + 20 * 4 + 6 * 6 + (60 + 60 + 120) * 4 + 4 * 7 + 3 * 2


@pytest.mark.parametrize("text, exact", CELLS)
def test_cell_correctly_rounded(text, exact):
    with mpmath.workdps(DIGITS):
        assert _correctly_rounded(text, exact), f"{text} against {mpmath.nstr(exact, 20)}"
