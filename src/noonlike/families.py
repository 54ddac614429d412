"""Parameter matching, four-family comparisons, and balanced vs unbalanced sweeps.

Each family is one constituent state with one free parameter, and one row of
``states.FAMILIES``, keyed by the family's name: the row names the parameter
and builds the state from it (``constituent``).  Families are compared at a
common mean total photon number of the balanced probe, n_bar = <n>/(1 + d
p_0), ``qcrb.mean_total_photons`` of the state, which increases with the
parameter.  The NOON column uses the interpolated ("effective") photon number
so that all four curves share an x-axis; the other three are matched by their
row's ``inverse`` of n_bar: ESVS in closed form, from a cubic's root, ESCS by
at most eight Newton steps in alpha^2 and ECS by bisection.
``solve_param_for_nbar`` and ``matched_report`` share one pass: it checks the
inputs once, builds one state and takes its ``moments`` once, to check the
inverse; ``matched_report`` computes the balanced bound and its one report
from them.  Every comparison at a fixed budget (the four families, the
squeeze-factor sweep, figure 3, the heralded source's coherent reference and
the balanced bound set against the weight-optimized unbalanced one) goes
through ``matched_report``, so each compares exactly matched budgets.

Grid sweeps are pure and deterministic; points are produced in grid order.
"""

from __future__ import annotations

import math

from .errors import BracketFailure, ParameterOutOfRange, ZeroPhotonState
from .qcrb import (
    OptimizedB,
    QcrbReport,
    _balanced_nbar,
    _check_ordered,
    _closed_form,
    _require_d,
    qcrb_closed_form,
    resolve_weights,
)
from .states import (
    FAMILIES,
    SqueezedVacuum,
    _ALPHA_RANGE,
    _N_RANGE,
    _R_RANGE,
    _RESIDUAL_TOL,
    _Frozen,
    _require_number,
    _require_real,
    _row,
    constituent,
    moments,
)

__all__ = [
    "constituent",
    "SweepCurve",
    "solve_param_for_nbar",
    "matched_report",
    "compare_families_at_nbar",
    "escs_sweep_r_prime",
    "escs_ratio_bracket_check",
    "balanced_vs_unbalanced_sweep",
    "compare_sweeps_at_common_nbar",
]


class SweepCurve(_Frozen):
    """Ordered (n_bar, qcrb, parameter) triples; n_bar never decreases."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, float, float], ...]):
        if not isinstance(points, (tuple, list)):
            raise TypeError(
                f"points must be a sequence of (n_bar, qcrb, parameter) triples,"
                f" got {type(points).__name__} {points!r}"
            )
        last = -math.inf
        for k, point in enumerate(points):
            if not (type(point) is tuple and len(point) == 3
                    and type(point[0]) is type(point[1]) is type(point[2]) is float):
                if not isinstance(point, (tuple, list)) or len(point) != 3:
                    raise TypeError(
                        f"points[{k}] must be an (n_bar, qcrb, parameter) triple, got {point!r}"
                    )
                for value in point[1:]:
                    _require_number(f"points[{k}]", value)
                _require_real(f"points[{k}]", point[0])  # so that isfinite cannot overflow
            n_bar = point[0]
            if not math.isfinite(n_bar):
                raise ValueError(f"points[{k}] must have a finite n_bar, got {n_bar}")
            if n_bar < last - 1e-12:
                raise ValueError("n_bar must be non-decreasing along the curve")
            last = n_bar
        object.__setattr__(self, "points", points)

    @property
    def n_bars(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def qcrbs(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


def _match(family: str, d: int, n_bar: float, r_prime: float | None) -> tuple:
    """(checked d, parameter, state, its moments): the one pass behind the solve and the report.

    The moments, taken once, check the inverse: the balanced n_bar they give,
    ``mean_total_photons(d, state)`` bit for bit, must meet the target.
    """
    row = _row(family)
    d = _require_d(d)
    n_bar = _require_real("n_bar", n_bar)
    if n_bar <= 0.0:
        raise ValueError(f"n_bar must be positive, got {n_bar}")
    _require_real("n_bar", n_bar, _N_RANGE)  # NOON's n is n_bar
    if row.needs_r_prime:
        if r_prime is None or _require_real("r_prime", r_prime) < 0.0:
            raise ValueError(f"{family.upper()} needs a nonnegative squeeze factor r_prime")
        _require_real("r", r_prime, _R_RANGE)  # the constituent's own range, before the solve
    try:
        p = n_bar if row.inverse is None else row.inverse(d, r_prime, n_bar)
        state = row.state(p, r_prime) if row.needs_r_prime else row.state(p)
    except ParameterOutOfRange:
        raise BracketFailure(
            f"cannot match family {family} to the target n_bar = {n_bar}: the solve "
            f"on its parameter {row.parameter} left the representable range"
        ) from None
    m = moments(state)
    residual = abs(_balanced_nbar(d, m) - n_bar)
    if residual > _RESIDUAL_TOL * max(1.0, n_bar):
        raise BracketFailure(f"solve residual {residual:.3e} too large")
    return d, p, state, m


def solve_param_for_nbar(
    family: str, d: int, n_bar: float, r_prime: float | None = None
) -> SingleModeState:
    """State of the family whose balanced d-phase probe has mean photon number n_bar.

    ``r_prime`` is the squeeze factor of the ESCS constituent; the other
    families ignore it.  NOON returns an effective number state directly (its
    mean photon number equals the occupation).  The others invert their
    strictly increasing n_bar by their row's ``inverse``, so a target below
    the value at parameter 0 (possible for ESCS with a fixed squeeze factor,
    whose inverse checks it) raises BracketFailure, as does a solve that has
    to leave the parameter's representable range to reach the target.
    """
    return _match(family, d, n_bar, r_prime)[2]


def matched_report(family: str, d: int, n_bar: float, r_prime: float | None = None) -> QcrbReport:
    """Balanced bound of the family matched to n_bar.

    The report carries the family and the solved free parameter; ``r_prime``
    is as in ``solve_param_for_nbar``, whose pass it shares: the moments that
    check the solve give the bound, equal to ``qcrb_closed_form`` of the state.
    """
    d, p, _, m = _match(family, d, n_bar, r_prime)
    return _closed_form(d, m, family=family, parameter=p)


def compare_families_at_nbar(
    d: int, n_bar: float, escs_r_prime: float = 1.0
) -> list[QcrbReport]:
    """Reports for NOON, ECS, ESCS, ESVS matched to the same n_bar.

    Also enforces the proven strict orderings: the bounds decrease, the
    constituent mean photon numbers increase, and the sensitivity factors
    decrease along NOON -> ECS -> ESCS -> ESVS.  A violation indicates an
    implementation bug and raises OrderingViolation.  ``escs_r_prime`` must
    be positive: at 0 the ESCS probe is the ECS probe, and the orderings
    cannot be strict.
    """
    escs_r_prime = _require_real("escs_r_prime", escs_r_prime)
    if not escs_r_prime > 0.0:
        raise ValueError(f"escs_r_prime must be positive, got {escs_r_prime}")
    reports = [matched_report(fam, d, n_bar, escs_r_prime) for fam in FAMILIES]
    where = f"d={d}, n_bar={n_bar}"
    _check_ordered([r.qcrb for r in reports], "bound", where)
    _check_ordered([r.n_tilde for r in reports], "constituent photon", where, increasing=True)
    _check_ordered([r.f for r in reports], "f", where)
    return reports


def escs_sweep_r_prime(d: int, n_bar: float, r_prime_grid: Iterable[float]) -> SweepCurve:
    """ESCS bound at fixed n_bar for each squeeze factor in the grid.

    The bound decreases strictly with the squeeze factor; at 0 it equals
    the ECS value and it approaches the ESVS value as the squeeze factor
    approaches the matched-ESVS one (where the displacement shrinks to 0).
    The grid must be strictly increasing, as the ordering check assumes.
    """
    r_prime_grid = tuple(
        _require_real(f"r_prime_grid[{k}]", rp) for k, rp in enumerate(r_prime_grid)
    )
    negative = [rp for rp in r_prime_grid if rp < 0.0]
    if negative:
        raise ValueError(f"r_prime_grid must be nonnegative, got {negative[0]}")
    if any(b <= a for a, b in zip(r_prime_grid, r_prime_grid[1:])):
        raise ValueError("r_prime_grid must be strictly increasing")
    points = [(n_bar, matched_report("escs", d, n_bar, rp).qcrb, rp) for rp in r_prime_grid]
    _check_ordered([q for _, q, _ in points], "squeeze-factor bound", f"d={d}, n_bar={n_bar}")
    return SweepCurve(tuple(points))


def escs_ratio_bracket_check(alpha_p: float, r_p: float, r_matched: float) -> bool:
    """Check the second-moment ratio bracket behind the f-factor ordering.

    For an ESCS constituent with displacement ``alpha_p`` and squeeze
    ``r_p``, matched in mean photon number to an ESVS with squeeze
    ``r_matched``, the excess-noise ratio must lie strictly between 1 and
    ``2 cosh^2 r_matched``.  Each argument must be a parameter its state
    takes; the vacuum, ``alpha_p = r_p = 0``, raises ZeroPhotonState.
    """
    alpha_p = _require_real("alpha_p", alpha_p, _ALPHA_RANGE)
    r_p = _require_real("r_p", r_p, _R_RANGE)
    r_matched = _require_real("r_matched", r_matched, _R_RANGE)
    if alpha_p == r_p == 0.0:
        raise ZeroPhotonState("vacuum constituent: alpha_p = r_p = 0 carries no excess noise")
    sh2 = math.sinh(r_p) ** 2
    ch2 = math.cosh(r_p) ** 2
    a2 = alpha_p**2
    ratio = (a2 * math.exp(2.0 * r_p) + 2.0 * sh2 * ch2) / (a2 + sh2)
    return 1.0 < ratio < 2.0 * math.cosh(r_matched) ** 2


def balanced_vs_unbalanced_sweep(
    d: int, r_grid: Iterable[float]
) -> tuple[SweepCurve, SweepCurve]:
    """Balanced and weight-optimized unbalanced curves over a squeeze grid.

    Both curves use the squeezed-vacuum family.  Each point is
    (n_bar, qcrb, r) with n_bar computed from that probe's own weights, so
    the two curves sweep n_bar at different rates over the same r grid.
    """
    r_grid = tuple(_require_real(f"r_grid[{k}]", r) for k, r in enumerate(r_grid))
    if any(b <= a for a, b in zip(r_grid, r_grid[1:])) or any(r <= 0 for r in r_grid):
        raise ValueError("r_grid must be positive and strictly increasing")
    bal_points, unb_points = [], []
    for r in r_grid:
        state = SqueezedVacuum(r)
        bal = qcrb_closed_form(d, state)
        bal_points.append((bal.n_bar, bal.qcrb, r))

        unb = qcrb_closed_form(d, state, OptimizedB())
        m = moments(state)
        b2, c = resolve_weights(d, m, OptimizedB())
        unb_points.append(((c * c + d * b2) * m.mean_n, unb.qcrb, r))
    return SweepCurve(tuple(bal_points)), SweepCurve(tuple(unb_points))


def compare_sweeps_at_common_nbar(
    d: int, balanced: SweepCurve, unbalanced: SweepCurve
) -> tuple[list[tuple[float, float, float]], float | None]:
    """Comparison of the two curves at exactly matched budgets.

    Returns (points, crossover) where each point is
    (n_bar, qcrb_balanced, qcrb_unbalanced) and crossover is the first
    compared n_bar at which the balanced bound exceeds the unbalanced one by
    more than 1e-9 relative (None if it never does).  The compared n_bar are
    the unbalanced curve's own values inside the overlap of the two curves'
    n_bar ranges; the balanced bound at each is ``matched_report`` of ESVS
    at that n_bar.  The crossover is a grid point, not a root: the curves
    cross at or below it.  Empty curves compare nothing.
    """
    d = _require_d(d)
    for name, curve in ("balanced", balanced), ("unbalanced", unbalanced):
        if not isinstance(curve, SweepCurve):
            raise TypeError(f"{name} must be a SweepCurve, got {type(curve).__name__} {curve!r}")
    if not balanced.points or not unbalanced.points:
        return [], None
    lo = max(balanced.points[0][0], unbalanced.points[0][0])
    hi = min(balanced.points[-1][0], unbalanced.points[-1][0])
    points = []
    crossover = None
    for n_bar, q_unb, _ in unbalanced.points:
        if not lo <= n_bar <= hi:
            continue
        q_bal = matched_report("esvs", d, n_bar).qcrb
        points.append((n_bar, q_bal, q_unb))
        if crossover is None and q_bal > q_unb * (1.0 + 1e-9):
            crossover = n_bar
    return points, crossover
