"""Quantum Fisher information and Cramer-Rao bounds for NOON-like probes.

The probe is a (d+1)-mode superposition in which one mode carries a
constituent state and the rest are vacuum; ``d`` phases are imprinted one
per non-reference mode, with the reference-mode phase fixed to zero.  For
this family the Fisher matrix is phase independent and has the structure
``a I - c O`` (O = all-ones), so the bound has a closed form; the dense
trace-of-inverse route that checks it is in ``noonlike.oracles``.

Pure functions over immutable inputs throughout; thread-safe by construction.
Each function takes the number of phases ``d`` first, then the constituent
(a state or its ``Moments``) and the weighting, as plain arguments.  The
weightings and ``QcrbReport`` are ``__slots__`` classes on the frozen-value
base of ``noonlike.states``: equal when of one class with equal fields,
hashable, and raising AttributeError on assignment.  Every function that
takes ``d`` accepts only a whole number >= 1 whose NOON numerator
d * (d + 1) fits a double.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Sequence

from .errors import (
    ConstraintInfeasible,
    DegenerateOverlap,
    DenominatorNonPositive,
    FOutOfRange,
    NonFiniteResult,
    NonPositivePhotonNumber,
    OrderingViolation,
    ParameterOutOfRange,
    ZeroPhotonState,
)
from .states import Moments, SingleModeState, _Frozen, _require_real, moments

__all__ = [
    "Balanced",
    "FixedB",
    "OptimizedB",
    "Weighting",
    "QcrbReport",
    "mean_total_photons",
    "resolve_weights",
    "qcrb_closed_form",
    "qcrb_from_f",
    "noon_qcrb",
    "noon_ceiling",
]

_BOUND_RTOL = 1e-12
# the largest d whose NOON numerator d * (d + 1) fits a double: the floor of
# the positive root of d^2 + d = max, in exact integer arithmetic
_D_MAX = (math.isqrt(4 * int(sys.float_info.max) + 1) - 1) // 2
_REPORTED = ("qcrb", "f", "R", "b2", "n_tilde", "n_bar")  # the numeric QcrbReport fields


def _require_d(d) -> int:
    """``d`` as an int; ValueError naming it unless it is a whole number >= 1, TypeError for a bool.

    The NOON numerator d * (d + 1) must also fit a double, which the bounds
    convert it to.
    """
    if type(d) is not int:
        if isinstance(d, bool) or not isinstance(d, numbers.Real):  # numpy.bool_ too
            raise TypeError(f"d must be a whole number, got {type(d).__name__} {d!r}")
        if not d < 1 and (not d < math.inf or int(d) != d):  # NaN is neither
            raise ValueError(f"d must be a finite whole number, got {d}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    d = int(d)
    if d > _D_MAX:
        raise ValueError(f"d must keep d * (d + 1) within a double, got a {d.bit_length()}-bit d")
    return d


class Balanced(_Frozen):
    """Reference mode carries the same weight as each probing mode."""

    __slots__ = ()


class FixedB(_Frozen):
    """Probing-mode weight b^2 fixed by the caller (unbalanced state)."""

    __slots__ = ("b2",)

    def __init__(self, b2: float):
        b2 = _require_real("b2", b2)
        if not math.isfinite(b2):
            raise ValueError(f"b2 must be finite, got {b2}")
        object.__setattr__(self, "b2", b2)


class OptimizedB(_Frozen):
    """Probing-mode weight minimizing the bound subject to normalization."""

    __slots__ = ()


Weighting = Balanced | FixedB | OptimizedB


class QcrbReport(_Frozen):
    """Bound value plus all intermediate quantities, for auditing.

    qcrb is in radians^2 (lower bound on the summed phase variance).
    """

    __slots__ = ("qcrb", "f", "R", "b2", "n_tilde", "n_bar", "family", "parameter")

    def __init__(
        self,
        qcrb: float,
        f: float,
        R: float,
        b2: float,
        n_tilde: float,
        n_bar: float,
        family: str = "",
        parameter: float | None = None,
    ):
        object.__setattr__(self, "qcrb", qcrb)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "n_tilde", n_tilde)
        object.__setattr__(self, "n_bar", n_bar)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "parameter", parameter)


def resolve_weights(d: int, m: Moments, weighting: Weighting) -> tuple[float, float]:
    """Probing weight b^2 and signed reference weight c of the probe.

    The probe c|psi,0..0> + b sum_j |0..psi_j..0> is normalized on the ellipse
    ``A b^2 + B b c + c^2 = 1`` with ``A = d + d(d-1) p0``, ``B = 2 d p0`` and
    ``p0`` the vacuum probability of the constituent.  ``Balanced`` is the
    point c = b.  ``FixedB`` takes b^2 from the caller; ``OptimizedB`` takes
    the bound-minimizing ``R/(d + sqrt d)``, capped at the largest b^2 on the
    ellipse, ``1/(d (1 + d p0)(1 - p0))``.  For both, c is the larger root of
    the ellipse in c: the branch through the balanced point, which ends in
    the tangency root ``c = -B b/2`` on the boundary.
    """
    d = _require_d(d)
    if not isinstance(m, Moments):
        raise TypeError(f"m must be a Moments, got {type(m).__name__} {m!r}")
    if not isinstance(weighting, Weighting):
        raise TypeError(
            f"weighting must be a Weighting, got {type(weighting).__name__} {weighting!r}"
        )
    p0 = m.vacuum_prob
    if isinstance(weighting, Balanced):
        b2 = 1.0 / ((d + 1) * (1.0 + d * p0))
        return b2, math.sqrt(b2)
    if p0 >= 1.0:
        raise DegenerateOverlap("vacuum overlap of 1 leaves no photons to weight")
    boundary = 1.0 / (d * (1.0 + d * p0) * (1.0 - p0))
    if isinstance(weighting, FixedB):
        b2 = weighting.b2
        if not 0.0 < b2 <= boundary * (1.0 + 1e-9):
            raise ConstraintInfeasible(f"b2={b2} outside (0, {boundary}]")
    else:  # OptimizedB
        if m.mean_n <= 0.0:
            raise ZeroPhotonState("cannot optimize weights for a zero-photon state")
        b2 = min(m.mean_n2 / m.mean_n**2 / (d + math.sqrt(d)), boundary)
    a_coef = d + d * (d - 1) * p0
    b_coef = 2.0 * d * p0
    on_ellipse = min(b2, boundary)
    b = math.sqrt(on_ellipse)
    disc = b_coef**2 * on_ellipse - 4.0 * (a_coef * on_ellipse - 1.0)
    scale = b_coef**2 * on_ellipse + 4.0 * abs(a_coef * on_ellipse - 1.0) + 1.0
    if disc <= 1e-12 * scale:  # tangency: the double root at the boundary
        return b2, -0.5 * b_coef * b
    return b2, 0.5 * (-b_coef * b + math.sqrt(disc))


def mean_total_photons(d: int, state: SingleModeState) -> float:
    """Mean total photon number of the balanced (d+1)-mode probe."""
    d = _require_d(d)
    m = moments(state)
    return m.mean_n / (1.0 + d * m.vacuum_prob)


def qcrb_closed_form(
    d: int, state: SingleModeState, weighting: Weighting = Balanced()
) -> QcrbReport:
    """Closed-form lower bound d/(4<n^2>) (1/b^2 + 1/(R - b^2 d)).

    The Fisher matrix depends on the weights through b^2 alone, so the bound
    does not depend on the reference weight c.  ``n_bar`` is the balanced
    probe's mean total photon number ``<n>/(1 + d p0)`` for every weighting.
    It is the probe's own mean only for ``Balanced``; the mean of an
    unbalanced probe is ``(c^2 + d b^2)<n>`` with the weights of
    ``resolve_weights``.  A field that comes out infinite or NaN raises
    NonFiniteResult naming it.
    """
    d = _require_d(d)
    m = moments(state)
    if m.mean_n <= 0.0 or m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent: bound undefined")
    b2, _ = resolve_weights(d, m, weighting)
    big_r = m.mean_n2 / m.mean_n**2
    denom = big_r - b2 * d
    if denom <= 0.0:
        raise DenominatorNonPositive(
            f"b2 = {b2} is the boundary weight 1/d of a number state: it leaves the "
            f"reference mode no weight (c = 0), and the bound diverges (R - b^2 d = {denom})"
        )
    report = QcrbReport(
        qcrb=d / (4.0 * m.mean_n2) * (1.0 / b2 + 1.0 / denom),
        f=m.mean_n / m.mean_n2,
        R=big_r,
        b2=b2,
        n_tilde=m.mean_n,
        n_bar=m.mean_n / (1.0 + d * m.vacuum_prob),
    )
    for name in _REPORTED:
        value = getattr(report, name)
        if not math.isfinite(value):
            raise NonFiniteResult(f"{name} = {value} is not finite")
    return report


def qcrb_from_f(d: int, n_bar: float, f: float) -> float:
    """Bound as a function of (d, n_bar, f) alone; increasing in f.

    Inputs whose bound is not a finite positive double, such as a subnormal
    n_bar, raise ParameterOutOfRange.
    """
    d = _require_d(d)
    n_bar, f = _require_real("n_bar", n_bar), _require_real("f", f)
    if not n_bar > 0.0:
        raise NonPositivePhotonNumber(f"n_bar must be positive, got {n_bar}")
    if not 0.0 < f <= (1.0 / n_bar) * (1.0 + 1e-12):
        raise FOutOfRange(f"f={f} outside (0, 1/n_bar={1.0 / n_bar}]")
    bound = (d * (d + 1) / 4.0) * f * (1.0 / n_bar + 1.0 / ((d + 1) / f - d * n_bar))
    if not 0.0 < bound < math.inf:
        raise ParameterOutOfRange(f"n_bar = {n_bar} and f = {f} give the bound {bound} at d={d}")
    return bound


def noon_qcrb(d: int, n: float) -> float:
    """NOON-probe bound d(d+1)/(2 N^2).

    Non-integer ``n`` is accepted for interpolated ("effective") comparison
    curves at matched mean photon number.  An ``n`` whose bound is not a
    finite positive double, such as inf, raises ParameterOutOfRange.
    """
    d = _require_d(d)
    n = _require_real("n", n)
    if not n > 0.0:
        raise NonPositivePhotonNumber(f"photon number must be positive, got {n}")
    denom = 2.0 * n * n  # 0 once n * n underflows
    bound = d * (d + 1) / denom if denom else math.inf
    if not 0.0 < bound < math.inf:
        raise ParameterOutOfRange(f"photon number {n} gives the NOON bound {bound} at d={d}")
    return bound


def noon_ceiling(d: int, n_bar: float) -> float:
    """NOON bound at n_bar, relaxed by the relative tolerance of every NOON-bound check."""
    return noon_qcrb(d, n_bar) * (1.0 + _BOUND_RTOL)


# The proven orderings (NOON > ECS > ESCS > ESVS at a fixed budget, and no
# balanced probe above NOON) are checked at run time through these two
# helpers alone, so the rule for ties and rounding lives here.


def _check_ordered(
    values: Sequence[float], what: str, where: str, increasing: bool = False
) -> None:
    """Raise OrderingViolation unless ``values`` falls strictly (rises, if ``increasing``)."""
    pairs = zip(values, values[1:])
    if not all(a < b if increasing else a > b for a, b in pairs):
        raise OrderingViolation(f"{what} ordering failed at {where}: {values}")


def _check_below_noon(d: int, n_bar: float, values: Sequence[float]) -> None:
    """Raise OrderingViolation if a bound exceeds the NOON ceiling at n_bar."""
    ceiling = noon_ceiling(d, n_bar)
    if any(v > ceiling for v in values):
        raise OrderingViolation(f"NOON ceiling exceeded at d={d}, n_bar={n_bar}: {values}")
