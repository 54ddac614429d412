"""Quantum Fisher information and Cramer-Rao bounds for NOON-like probes.

The probe is a (d+1)-mode superposition in which one mode carries a
constituent state and the rest are vacuum; ``d`` phases are imprinted one
per non-reference mode, with the reference-mode phase fixed to zero.  For
this family the Fisher matrix is phase independent and has the structure
``a I - c O`` (O = all-ones), so the bound has both a closed form and an
independent dense-inversion route; both are exposed.

Pure functions over immutable inputs throughout; thread-safe by construction.
The weightings, ``ProbeSpec``, ``QcrbReport`` and ``QfiMatrix`` are
``__slots__`` classes on the frozen-value base of ``noonlike.states``: equal
when of one class with equal fields, hashable, and raising AttributeError on
assignment.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import (
    ConstraintInfeasible,
    DegenerateOverlap,
    DenominatorNonPositive,
    FOutOfRange,
    NonFiniteResult,
    NonPositivePhotonNumber,
    SingularMatrix,
    ZeroPhotonState,
)
from .states import Moments, SingleModeState, _Frozen, moments

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Balanced",
    "FixedB",
    "OptimizedB",
    "Weighting",
    "ProbeSpec",
    "QcrbReport",
    "QfiMatrix",
    "mean_total_photons",
    "resolve_weights",
    "qfi_matrix",
    "qcrb_trace_inverse",
    "qcrb_closed_form",
    "qcrb_from_f",
    "noon_qcrb",
    "noon_ceiling",
    "noon_bound_check",
]

_COND_LIMIT = 1e12
_BOUND_TOL = 1e-12
_REPORTED = ("qcrb", "f", "R", "b2", "n_tilde", "n_bar")  # the numeric QcrbReport fields


class Balanced(_Frozen):
    """Reference mode carries the same weight as each probing mode."""

    __slots__ = ()


class FixedB(_Frozen):
    """Probing-mode weight b^2 fixed by the caller (unbalanced state)."""

    __slots__ = ("b2",)

    def __init__(self, b2: float):
        object.__setattr__(self, "b2", b2)


class OptimizedB(_Frozen):
    """Probing-mode weight minimizing the bound subject to normalization."""

    __slots__ = ()


Weighting = Balanced | FixedB | OptimizedB


class ProbeSpec(_Frozen):
    __slots__ = ("d", "state", "weighting")

    def __init__(self, d: int, state: SingleModeState, weighting: Weighting = Balanced()):
        if int(d) != d or d < 1:
            raise ValueError(f"d must be a positive integer, got {d}")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "weighting", weighting)


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


class QfiMatrix(_Frozen):
    """Dense d x d Fisher matrix of the form a I - c O."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        import numpy as np

        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(m))))):
            raise ValueError("entries must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    p0 = m.vacuum_prob
    if isinstance(weighting, Balanced):
        b2 = 1.0 / ((d + 1) * (1.0 + d * p0))
        return b2, math.sqrt(b2)
    if p0 >= 1.0:
        raise DegenerateOverlap("vacuum overlap of 1 leaves no photons to weight")
    boundary = 1.0 / (d * (1.0 + d * p0) * (1.0 - p0))
    if isinstance(weighting, FixedB):
        b2 = float(weighting.b2)
        if not 0.0 < b2 <= boundary * (1.0 + 1e-9):
            raise ConstraintInfeasible(f"b2={b2} outside (0, {boundary}]")
    elif isinstance(weighting, OptimizedB):
        if m.mean_n <= 0.0:
            raise ZeroPhotonState("cannot optimize weights for a zero-photon state")
        b2 = min(m.mean_n2 / m.mean_n**2 / (d + math.sqrt(d)), boundary)
    else:
        raise TypeError(f"not a Weighting: {weighting!r}")
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
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    m = moments(state)
    return m.mean_n / (1.0 + d * m.vacuum_prob)


def qfi_matrix(spec: ProbeSpec) -> QfiMatrix:
    """Fisher matrix 4 b^2 <n^2> I - 4 b^4 <n>^2 O for the d phases."""
    import numpy as np

    m = moments(spec.state)
    if m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent has no Fisher information")
    b2, _ = resolve_weights(spec.d, m, spec.weighting)
    a = 4.0 * b2 * m.mean_n2
    c = 4.0 * b2 * b2 * m.mean_n**2
    entries = a * np.eye(spec.d) - c * np.ones((spec.d, spec.d))
    return QfiMatrix(entries)


def qcrb_trace_inverse(matrix: QfiMatrix) -> float:
    """Trace of the dense matrix inverse.

    Deliberately generic (LAPACK LU with pivoting, no use of the rank-one
    structure) so it can serve as an independent oracle for the closed form.
    """
    import numpy as np

    m = matrix.entries
    if np.linalg.cond(m) > _COND_LIMIT:
        raise SingularMatrix(f"condition number exceeds {_COND_LIMIT:.0e}")
    return float(np.trace(np.linalg.inv(m)))


def qcrb_closed_form(spec: ProbeSpec) -> QcrbReport:
    """Closed-form lower bound d/(4<n^2>) (1/b^2 + 1/(R - b^2 d)).

    The Fisher matrix depends on the weights through b^2 alone, so the bound
    does not depend on the reference weight c.  ``n_bar`` is the balanced
    probe's mean total photon number ``<n>/(1 + d p0)`` for every weighting.
    It is the probe's own mean only for ``Balanced``; the mean of an
    unbalanced probe is ``(c^2 + d b^2)<n>`` with the weights of
    ``resolve_weights``.  A field that comes out infinite or NaN raises
    NonFiniteResult naming it.
    """
    m = moments(spec.state)
    if m.mean_n <= 0.0 or m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent: bound undefined")
    d = spec.d
    b2, _ = resolve_weights(d, m, spec.weighting)
    big_r = m.mean_n2 / m.mean_n**2
    denom = big_r - b2 * d
    if denom <= 0.0:
        raise DenominatorNonPositive(
            f"R - b^2 d = {denom} <= 0; valid inputs cannot reach this"
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
    """Bound as a function of (d, n_bar, f) alone; increasing in f."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n_bar <= 0.0:
        raise NonPositivePhotonNumber(f"n_bar must be positive, got {n_bar}")
    if not 0.0 < f <= (1.0 / n_bar) * (1.0 + 1e-12):
        raise FOutOfRange(f"f={f} outside (0, 1/n_bar={1.0 / n_bar}]")
    return (d * (d + 1) / 4.0) * f * (1.0 / n_bar + 1.0 / ((d + 1) / f - d * n_bar))


def noon_qcrb(d: int, n: float) -> float:
    """NOON-probe bound d(d+1)/(2 N^2).

    Non-integer ``n`` is accepted for interpolated ("effective") comparison
    curves at matched mean photon number.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if n <= 0.0:
        raise NonPositivePhotonNumber(f"photon number must be positive, got {n}")
    return d * (d + 1) / (2.0 * n * n)


def noon_ceiling(d: int, n_bar: float) -> float:
    """NOON bound at n_bar plus the tolerance that every NOON-bound check allows."""
    return noon_qcrb(d, n_bar) + _BOUND_TOL


def noon_bound_check(report: QcrbReport, d: int) -> bool:
    """True iff the report respects the NOON-state upper bound on the QCRB.

    The ordering is proven for balanced probes only.  For an unbalanced
    probe the check compares the bound with the NOON value at the report's
    balanced ``n_bar``, which no theorem guarantees.
    """
    return report.qcrb <= noon_ceiling(d, report.n_bar)
