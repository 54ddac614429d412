"""Parameter matching, four-family comparisons, and balanced vs unbalanced sweeps.

Each family is one constituent state with one free parameter: ``PARAMETERS``
names it, ``constituent`` builds the state from it and ``nbar_map`` gives
the closed-form mean photon number of its balanced probe.  Families are
compared at a common mean total photon number of the balanced probe.  The
NOON column uses the interpolated ("effective") photon number so that all
four curves share an x-axis; the other three families are matched by
bisection on their free parameter, which maps monotonically to the mean
photon number.  The bisection evaluates the family's n_bar map and builds
no state per step; the solved state goes once through the general
``moments`` path as a check.  ``solve_param_for_nbar`` does the matching and
``matched_report`` adds the balanced bound; every comparison at a fixed
budget (the four families, the squeeze-factor sweep, figure 3, the
heralded source's coherent reference and the balanced bound set against
the weight-optimized unbalanced one) goes through ``matched_report``, so
each compares exactly matched budgets.

Grid sweeps are pure and deterministic; points are produced in grid order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from enum import Enum

from .errors import BracketFailure, ParameterOutOfRange, ZeroPhotonState
from .qcrb import (
    OptimizedB,
    QcrbReport,
    _check_ordered,
    _require_d,
    mean_total_photons,
    qcrb_closed_form,
    resolve_weights,
)
from .states import (
    Coherent,
    Fock,
    SingleModeState,
    SqueezedCoherent,
    SqueezedVacuum,
    _ALPHA_RANGE,
    _N_RANGE,
    _R_RANGE,
    _Frozen,
    _require_real,
    moments,
)

__all__ = [
    "Family",
    "PARAMETERS",
    "constituent",
    "nbar_map",
    "SweepCurve",
    "solve_param_for_nbar",
    "matched_report",
    "compare_families_at_nbar",
    "escs_sweep_r_prime",
    "escs_ratio_bracket_check",
    "balanced_vs_unbalanced_sweep",
    "compare_sweeps_at_common_nbar",
]

_RESIDUAL_TOL = 1e-10
_MAX_DOUBLINGS = 200


class Family(str, Enum):
    NOON = "noon"
    ECS = "ecs"
    ESCS = "escs"
    ESVS = "esvs"


# The free parameter of each family's constituent: the constructor argument,
# the state attribute and the ``qcrb`` command's flag.
PARAMETERS = {Family.NOON: "n", Family.ECS: "alpha", Family.ESCS: "alpha", Family.ESVS: "r"}


def constituent(
    family: Family, r_prime: float | None = None
) -> Callable[[float], SingleModeState]:
    """Constructor of the family's constituent from its free parameter.

    ESCS squeezes by the fixed factor ``r_prime``; the other families ignore it.
    """
    if family is Family.ESCS:
        return lambda alpha: SqueezedCoherent(alpha, r_prime)
    return {Family.NOON: Fock, Family.ECS: Coherent, Family.ESVS: SqueezedVacuum}[family]


def nbar_map(
    family: Family, d: int, r_prime: float | None = None
) -> Callable[[float], float]:
    """Balanced n_bar of the family's d-phase probe as a function of its free parameter.

    ``nbar_map(family, d, r_prime)(p)`` equals
    ``mean_total_photons(d, constituent(family, r_prime)(p))`` bit for bit: it
    runs the float operations of ``moments`` and ``mean_total_photons`` in
    their order, and checks ``p`` against the constructor's range with the
    constructor's message, but builds no state.  NOON has no map; its
    occupation is n_bar itself.
    """
    d = _require_d(d)
    if family is Family.ECS:

        def ecs(alpha: float) -> float:
            a2 = _require_real("alpha", alpha, _ALPHA_RANGE) ** 2
            return a2 / (1.0 + d * math.exp(-a2))

        return ecs
    if family is Family.ESVS:

        def esvs(r: float) -> float:
            r = _require_real("r", r, _R_RANGE)
            return math.sinh(r) ** 2 / (1.0 + d * (1.0 / math.cosh(r)))

        return esvs
    if family is Family.ESCS:
        r = _require_real("r", r_prime, _R_RANGE)
        sh2, one_minus_t, ch = math.sinh(r) ** 2, 1.0 - math.tanh(r), math.cosh(r)

        def escs(alpha: float) -> float:
            a2 = _require_real("alpha", alpha, _ALPHA_RANGE) ** 2
            return (a2 + sh2) / (1.0 + d * (math.exp(-a2 * one_minus_t) / ch))

        return escs
    raise ValueError(f"family {family.value} has no n_bar map")


class SweepCurve(_Frozen):
    """Ordered (n_bar, qcrb, parameter) triples; n_bar never decreases."""

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, float, float], ...]):
        nbars = [p[0] for p in points]
        if any(b < a - 1e-12 for a, b in zip(nbars, nbars[1:])):
            raise ValueError("n_bar must be non-decreasing along the curve")
        object.__setattr__(self, "points", points)

    @property
    def n_bars(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def qcrbs(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


def _bisect_increasing(fn: Callable[[float], float], target: float, guess: float) -> float:
    """Root of fn(p) = target for a map verified increasing on the bracket; fn(0) <= target."""
    lo = 0.0
    hi = max(guess, 1e-6)
    f_hi = fn(hi) - target
    doublings = 0
    while f_hi < 0.0:
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise BracketFailure(f"no bracket after {_MAX_DOUBLINGS} doublings")
        hi *= 2.0
        f_hi = fn(hi) - target

    samples = [fn(lo + (hi - lo) * k / 4.0) for k in range(5)]
    if any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(samples, samples[1:])):
        raise BracketFailure("map is not increasing on the bracket")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - target
        if abs(f_mid) <= _RESIDUAL_TOL and (hi - lo) <= 1e-12 * max(1.0, mid):
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_param_for_nbar(
    family: Family, d: int, n_bar: float, r_prime: float | None = None
) -> SingleModeState:
    """State of the family whose balanced d-phase probe has mean photon number n_bar.

    ``r_prime`` is the squeeze factor of the ESCS constituent; the other
    families ignore it.  NOON returns an effective number state directly (its
    mean photon number equals the occupation).  The other families bisect
    their free parameter on ``nbar_map``; the map is strictly increasing, so
    a target below the value at parameter 0 (possible for ESCS with a fixed
    squeeze factor) raises BracketFailure, as does a bracket that has to
    leave the parameter's representable range to reach the target.
    """
    d = _require_d(d)
    n_bar = _require_real("n_bar", n_bar)
    if n_bar <= 0.0:
        raise ValueError(f"n_bar must be positive, got {n_bar}")
    _require_real("n_bar", n_bar, _N_RANGE)  # NOON's n is n_bar
    if family is Family.ESCS and (r_prime is None or _require_real("r_prime", r_prime) < 0.0):
        raise ValueError("ESCS needs a nonnegative squeeze factor r_prime")
    build = constituent(family, r_prime)
    if family is Family.NOON:
        return build(n_bar)

    nbar_of = nbar_map(family, d, r_prime)
    floor = nbar_of(0.0)  # 0 but for ESCS, whose zero displacement keeps the squeeze
    if floor - n_bar > _RESIDUAL_TOL:
        raise BracketFailure(
            f"n_bar = {n_bar} is below the floor {floor:.6g} of family {family.value} "
            f"at r_prime = {r_prime}"
        )
    guess = math.sqrt(n_bar)
    if family is Family.ESVS:
        guess = math.asinh(math.sqrt(n_bar))
    try:
        param = _bisect_increasing(nbar_of, n_bar, guess)
    except ParameterOutOfRange:
        raise BracketFailure(
            f"cannot match family {family.value} to the target n_bar = {n_bar}: the bracket "
            f"on its parameter {PARAMETERS[family]} left the representable range"
        ) from None
    state = build(param)
    # the one evaluation through the general moments path, a check on the map
    residual = abs(mean_total_photons(d, state) - n_bar)
    if residual > _RESIDUAL_TOL * max(1.0, n_bar):
        raise BracketFailure(f"bisection residual {residual:.3e} too large")
    return state


def matched_report(
    family: Family, d: int, n_bar: float, r_prime: float | None = None
) -> QcrbReport:
    """Balanced bound of the family matched to n_bar.

    The report carries the family and the solved free parameter; ``r_prime``
    is as in ``solve_param_for_nbar``.
    """
    state = solve_param_for_nbar(family, d, n_bar, r_prime)
    rep = qcrb_closed_form(d, state)
    parameter = getattr(state, PARAMETERS[family])
    return QcrbReport(
        rep.qcrb, rep.f, rep.R, rep.b2, rep.n_tilde, rep.n_bar, family.value, parameter
    )


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
    reports = [matched_report(fam, d, n_bar, escs_r_prime) for fam in Family]
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
    points = [
        (n_bar, matched_report(Family.ESCS, d, n_bar, rp).qcrb, rp) for rp in r_prime_grid
    ]
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
    if not balanced.points or not unbalanced.points:
        return [], None
    lo = max(balanced.points[0][0], unbalanced.points[0][0])
    hi = min(balanced.points[-1][0], unbalanced.points[-1][0])
    points = []
    crossover = None
    for n_bar, q_unb, _ in unbalanced.points:
        if not lo <= n_bar <= hi:
            continue
        q_bal = matched_report(Family.ESVS, d, n_bar).qcrb
        points.append((n_bar, q_bal, q_unb))
        if crossover is None and q_bal > q_unb * (1.0 + 1e-9):
            crossover = n_bar
    return points, crossover
