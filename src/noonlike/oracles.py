"""Numeric oracles for the closed forms: the one module that loads numpy on import.

``fock_amplitudes`` and ``moments_from_amplitudes`` recompute the moments of
``states`` from truncated Fock expansions, and ``qfi_matrix(d, state,
weighting)`` with ``qcrb_trace_inverse`` recomputes the bound of
``qcrb_closed_form(d, state, weighting)`` as the trace of a dense matrix
inverse.  ``noonlike`` serves these names on first use, so neither
``import noonlike`` nor a command loads this module, or numpy (the ``test`` extra).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularMatrix, TruncationInsufficient, ZeroPhotonState
from .qcrb import Balanced, Weighting, _require_d, resolve_weights
from .states import Moments, SingleModeState, _Frozen, moments

__all__ = ["FockVector", "QfiMatrix", "fock_amplitudes", "moments_from_amplitudes", "qfi_matrix",
           "qcrb_trace_inverse"]

_COND_LIMIT = 1e12


class FockVector(_Frozen):
    """Truncated Fock expansion |0>..|n_max> with the discarded tail mass."""

    __slots__ = ("amps", "n_max", "tail_mass")

    def __init__(self, amps: np.ndarray, n_max: int, tail_mass: float):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.ndim != 1 or len(amps) != n_max + 1:
            raise ValueError("amps must be a 1-D array of length n_max + 1")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not (1.0 - tail_mass - 1e-9) <= norm_sq <= 1.0 + 1e-9:
            raise ValueError(f"norm {norm_sq} inconsistent with tail_mass {tail_mass}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "tail_mass", tail_mass)


def _default_start(state: SingleModeState) -> int:
    m = moments(state)
    spread = math.sqrt(max(m.variance, 0.0) + 1.0)
    return max(20, math.ceil(m.mean_n + 10.0 * spread))


def fock_amplitudes(
    state: SingleModeState,
    n_max: int | None = None,
    tail_tol: float = 1e-12,
) -> FockVector:
    """Truncated Fock expansion of ``state``.

    With ``n_max=None`` the cutoff is chosen adaptively: start at
    ``max(20, ceil(<n> + 10 sqrt(var + 1)))`` and double until the tail mass
    drops below ``tail_tol`` (coherent/squeezed tails decay
    super-geometrically, so a few doublings always suffice).  An explicit
    ``n_max`` is honored as-is and raises TruncationInsufficient when the
    tail exceeds ``tail_tol``; pass ``tail_tol=math.inf`` to accept any tail.
    """
    if not isinstance(state, SingleModeState):
        raise TypeError(f"state must be a SingleModeState, got {type(state).__name__} {state!r}")
    if n_max is not None:
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        amps = np.array(state.amplitudes(n_max), dtype=np.complex128)
        tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
        if tail > tail_tol:
            raise TruncationInsufficient(
                f"tail mass {tail:.3e} exceeds tolerance {tail_tol:.3e} at n_max={n_max}"
            )
        return FockVector(amps, n_max, tail)

    cutoff = _default_start(state)
    for _ in range(8):
        amps = np.array(state.amplitudes(cutoff), dtype=np.complex128)
        tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
        if tail < tail_tol:
            return FockVector(amps, cutoff, tail)
        cutoff *= 2
    raise TruncationInsufficient(f"tail mass still {tail:.3e} at n_max={cutoff // 2}")


def moments_from_amplitudes(v: FockVector) -> Moments:
    """Numeric moment oracle: direct sums over a truncated expansion."""
    p = np.abs(v.amps) ** 2
    total = float(np.sum(p))
    if total <= 0.0:
        raise ValueError("amplitude vector has zero norm")
    n = np.arange(v.n_max + 1, dtype=np.float64)
    mean = float(np.sum(n * p)) / total
    mean2 = float(np.sum(n * n * p)) / total
    return Moments(mean, mean2, float(p[0]) / total)


class QfiMatrix(_Frozen):
    """Dense d x d Fisher matrix of the form a I - c O."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(m))))):
            raise ValueError("entries must be symmetric")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def qfi_matrix(
    d: int, state: SingleModeState, weighting: Weighting = Balanced()
) -> QfiMatrix:
    """Fisher matrix 4 b^2 <n^2> I - 4 b^4 <n>^2 O for the d phases."""
    d = _require_d(d)
    m = moments(state)
    if m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent has no Fisher information")
    b2, _ = resolve_weights(d, m, weighting)
    a = 4.0 * b2 * m.mean_n2
    c = 4.0 * b2 * b2 * m.mean_n**2
    entries = a * np.eye(d) - c * np.ones((d, d))
    return QfiMatrix(entries)


def qcrb_trace_inverse(matrix: QfiMatrix) -> float:
    """Trace of the dense matrix inverse.

    Deliberately generic (LAPACK LU with pivoting, no use of the rank-one
    structure) so it can serve as an independent oracle for the closed form.
    """
    m = matrix.entries
    if np.linalg.cond(m) > _COND_LIMIT:
        raise SingularMatrix(f"condition number exceeds {_COND_LIMIT:.0e}")
    return float(np.trace(np.linalg.inv(m)))
