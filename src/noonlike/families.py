"""Parameter matching, four-family comparisons, and balanced vs unbalanced sweeps.

Each family is one constituent state with one free parameter: ``PARAMETERS``
names it and ``constituent`` builds the state from it.  Families are
compared at a common mean total photon number of the balanced probe.  The
NOON column uses the interpolated ("effective") photon number so that all
four curves share an x-axis; the other three families are matched by
bisection on their free parameter, which maps monotonically to the mean
photon number.  ``solve_param_for_nbar`` does the matching and
``matched_report`` adds the balanced bound; every comparison at a fixed
budget (the four families, the squeeze-factor sweep, figure 3 and the
heralded source's coherent reference) goes through ``matched_report``.

Grid sweeps are pure and deterministic; points are produced in grid order.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import BracketFailure, OrderingViolation
from .qcrb import (
    Balanced,
    OptimizedB,
    ProbeSpec,
    QcrbReport,
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
    _N_RANGE,
    _Frozen,
    _require_real,
    moments,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Family",
    "PARAMETERS",
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


class SweepCurve(_Frozen):
    """Ordered (n_bar, qcrb, parameter) triples; n_bar never decreases."""

    __slots__ = ("points", "label")

    def __init__(self, points: tuple[tuple[float, float, float], ...], label: str):
        nbars = [p[0] for p in points]
        if any(b < a - 1e-12 for a, b in zip(nbars, nbars[1:])):
            raise ValueError(f"n_bar must be non-decreasing along curve {label!r}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "label", label)

    @property
    def n_bars(self) -> np.ndarray:
        import numpy as np

        return np.array([p[0] for p in self.points])

    @property
    def qcrbs(self) -> np.ndarray:
        import numpy as np

        return np.array([p[1] for p in self.points])


def _bisect_increasing(fn: Callable[[float], float], target: float, guess: float) -> float:
    """Root of fn(p) = target for a map verified increasing on the bracket."""
    lo, f_lo = 0.0, fn(0.0) - target
    if f_lo > _RESIDUAL_TOL:
        raise BracketFailure(
            f"target {target} below the family floor {f_lo + target:.6g} at parameter 0"
        )
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
    their free parameter; the map to n_bar is strictly increasing, so a
    target below the value at parameter 0 (possible for ESCS with a fixed
    squeeze factor) raises BracketFailure.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_bar <= 0.0:
        raise ValueError(f"n_bar must be positive, got {n_bar}")
    _require_real("n_bar", n_bar, _N_RANGE)  # NOON's n is n_bar
    if family is Family.ESCS and (r_prime is None or r_prime < 0.0):
        raise ValueError("ESCS needs a nonnegative squeeze factor r_prime")
    build = constituent(family, r_prime)
    if family is Family.NOON:
        return build(n_bar)

    def nbar_of(p: float) -> float:
        return mean_total_photons(d, build(p))

    guess = math.sqrt(n_bar)
    if family is Family.ESVS:
        guess = math.asinh(math.sqrt(n_bar))
    param = _bisect_increasing(nbar_of, n_bar, guess)
    state = build(param)
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
    rep = qcrb_closed_form(ProbeSpec(d, state, Balanced()))
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
    implementation bug and raises OrderingViolation.
    """
    reports = [matched_report(fam, d, n_bar, escs_r_prime) for fam in Family]
    qcrbs = [r.qcrb for r in reports]
    n_tildes = [r.n_tilde for r in reports]
    fs = [r.f for r in reports]
    if not all(a > b for a, b in zip(qcrbs, qcrbs[1:])):
        raise OrderingViolation(f"bound ordering failed at d={d}, n_bar={n_bar}: {qcrbs}")
    if not all(a < b for a, b in zip(n_tildes, n_tildes[1:])):
        raise OrderingViolation(
            f"constituent photon ordering failed at d={d}, n_bar={n_bar}: {n_tildes}"
        )
    if not all(a > b for a, b in zip(fs, fs[1:])):
        raise OrderingViolation(f"f ordering failed at d={d}, n_bar={n_bar}: {fs}")
    return reports


def escs_sweep_r_prime(
    d: int, n_bar: float, r_prime_grid: Sequence[float]
) -> SweepCurve:
    """ESCS bound at fixed n_bar for each squeeze factor in the grid.

    The bound decreases strictly with the squeeze factor; at 0 it equals
    the ECS value and it approaches the ESVS value as the squeeze factor
    approaches the matched-ESVS one (where the displacement shrinks to 0).
    The grid must be strictly increasing, as the ordering check assumes.
    """
    if any(rp < 0.0 for rp in r_prime_grid):
        raise ValueError("squeeze factors must be nonnegative")
    if any(b <= a for a, b in zip(r_prime_grid, list(r_prime_grid)[1:])):
        raise ValueError("r_prime_grid must be strictly increasing")
    points = [
        (n_bar, matched_report(Family.ESCS, d, n_bar, rp).qcrb, rp) for rp in r_prime_grid
    ]
    values = [q for _, q, _ in points]
    if not all(a > b for a, b in zip(values, values[1:])):
        raise OrderingViolation(f"bound not decreasing with squeeze factor: {values}")
    return SweepCurve(tuple(points), label=f"escs_sweep_d{d}_nbar{n_bar:g}")


def escs_ratio_bracket_check(alpha_p: float, r_p: float, r_matched: float) -> bool:
    """Check the second-moment ratio bracket behind the f-factor ordering.

    For an ESCS constituent with displacement ``alpha_p`` and squeeze
    ``r_p``, matched in mean photon number to an ESVS with squeeze
    ``r_matched``, the excess-noise ratio must lie strictly between 1 and
    ``2 cosh^2 r_matched``.
    """
    sh2 = math.sinh(r_p) ** 2
    ch2 = math.cosh(r_p) ** 2
    a2 = alpha_p**2
    ratio = (a2 * math.exp(2.0 * r_p) + 2.0 * sh2 * ch2) / (a2 + sh2)
    return 1.0 < ratio < 2.0 * math.cosh(r_matched) ** 2


def balanced_vs_unbalanced_sweep(
    d: int, r_grid: Sequence[float]
) -> tuple[SweepCurve, SweepCurve]:
    """Balanced and weight-optimized unbalanced curves over a squeeze grid.

    Both curves use the squeezed-vacuum family.  Each point is
    (n_bar, qcrb, r) with n_bar computed from that probe's own weights, so
    the two curves sweep n_bar at different rates over the same r grid.
    """
    if any(b <= a for a, b in zip(r_grid, list(r_grid)[1:])) or any(
        r <= 0 for r in r_grid
    ):
        raise ValueError("r_grid must be positive and strictly increasing")
    bal_points, unb_points = [], []
    for r in r_grid:
        state = SqueezedVacuum(r)
        bal = qcrb_closed_form(ProbeSpec(d, state, Balanced()))
        bal_points.append((bal.n_bar, bal.qcrb, r))

        unb = qcrb_closed_form(ProbeSpec(d, state, OptimizedB()))
        m = moments(state)
        b2, c = resolve_weights(d, m, OptimizedB())
        unb_points.append(((c * c + d * b2) * m.mean_n, unb.qcrb, r))
    return (
        SweepCurve(tuple(bal_points), label=f"balanced_esvs_d{d}"),
        SweepCurve(tuple(unb_points), label=f"unbalanced_esvs_d{d}"),
    )


def _interp(x: float, xp: Sequence[float], fp: Sequence[float]) -> float:
    """``np.interp(x, xp, fp)`` for one point, bit for bit, without numpy.

    ``xp`` must be non-decreasing.  Follows numpy's C kernel: x outside the
    grid takes the edge value, x exactly on ``xp[j]`` (the last such j)
    takes ``fp[j]``, and an interpolant that comes out NaN from the left end
    of its interval is retried from the right end.
    """
    if math.isnan(x):
        return x
    j = bisect.bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    value = slope * (x - xp[j]) + fp[j]
    if math.isnan(value):
        value = slope * (x - xp[j + 1]) + fp[j + 1]
        if math.isnan(value) and fp[j] == fp[j + 1]:
            value = fp[j]
    return value


def compare_sweeps_at_common_nbar(
    balanced: SweepCurve, unbalanced: SweepCurve
) -> tuple[list[tuple[float, float, float]], float | None]:
    """Interpolated comparison of two curves at shared n_bar values.

    Returns (points, crossover) where each point is
    (n_bar, qcrb_balanced, qcrb_unbalanced) over the n_bar overlap, and
    crossover is the first n_bar at which the balanced bound exceeds the
    unbalanced one (None if the balanced curve stays at or below throughout).
    The comparison grid is the unbalanced curve's own n_bar values restricted
    to the overlap, with the balanced curve linearly interpolated in n_bar.
    """
    bal_n = [p[0] for p in balanced.points]
    bal_q = [p[1] for p in balanced.points]
    lo = max(bal_n[0], unbalanced.points[0][0])
    hi = min(bal_n[-1], unbalanced.points[-1][0])
    points = []
    crossover = None
    for n_bar, q_unb, _ in unbalanced.points:
        if not lo <= n_bar <= hi:
            continue
        q_bal = _interp(n_bar, bal_n, bal_q)
        points.append((n_bar, q_bal, q_unb))
        if crossover is None and q_bal > q_unb * (1.0 + 1e-9):
            crossover = n_bar
    return points, crossover
