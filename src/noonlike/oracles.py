"""Numeric oracles for the closed forms: the one module that loads numpy on import.

``fock_amplitudes`` gives a state's truncated Fock expansion as a complex
array with the discarded tail mass, and ``moments_from_amplitudes``
recomputes the moments of ``states`` from such an array.
``qfi_matrix(d, state, weighting)`` gives the dense d x d Fisher matrix as a
float array, and ``qcrb_trace_inverse`` recomputes the bound of
``qcrb_closed_form(d, state, weighting)`` as the trace of its inverse.  All
of them are functions over plain numpy arrays.  ``noonlike`` serves these
names on first use, so neither ``import noonlike`` nor a command loads this
module, or numpy (the ``test`` extra).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterOutOfRange, SingularMatrix, TruncationInsufficient, ZeroPhotonState
from .qcrb import Balanced, Weighting, _require_d, resolve_weights
from .states import Moments, SingleModeState, _as_int, _require_real, moments

__all__ = ["fock_amplitudes", "moments_from_amplitudes", "qfi_matrix", "qcrb_trace_inverse"]

_COND_LIMIT = 1e12
# the largest expansion and the largest dense matrix built: 2**20 amplitudes
# (16 MiB) and 1024 x 1024 entries (8 MiB); a larger d or cutoff would ask
# for gigabytes, or fail inside numpy or a list naming no parameter
_CUTOFF_MAX = 2**20
_DENSE_D_MAX = 1024


def _default_start(state: SingleModeState) -> int:
    m = moments(state)
    spread = math.sqrt(max(m.variance, 0.0) + 1.0)
    return max(20, math.ceil(m.mean_n + 10.0 * spread))


def fock_amplitudes(
    state: SingleModeState,
    n_max: int | None = None,
    tail_tol: float = 1e-12,
) -> tuple[np.ndarray, float]:
    """Truncated Fock expansion of ``state``: (amplitudes c_0..c_n_max, tail mass).

    With ``n_max=None`` the cutoff is chosen adaptively: start at
    ``max(20, ceil(<n> + 10 sqrt(var + 1)))`` and double until the tail mass
    is at most ``tail_tol`` (coherent/squeezed tails decay
    super-geometrically, so a few doublings always suffice).  An explicit
    ``n_max``, a whole number >= 0, is honored as-is and raises
    TruncationInsufficient when the tail exceeds ``tail_tol``, a positive
    real; pass ``tail_tol=math.inf`` to accept any tail.  A cutoff above
    2**20, explicit or adaptive, raises ParameterOutOfRange.
    """
    if not isinstance(state, SingleModeState):
        raise TypeError(f"state must be a SingleModeState, got {type(state).__name__} {state!r}")
    if n_max is not None:
        n_max = _as_int("n_max", n_max)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
    tail_tol = _require_real("tail_tol", tail_tol)
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")

    cutoff = _default_start(state) if n_max is None else n_max
    for _ in range(8 if n_max is None else 1):
        if cutoff > _CUTOFF_MAX:
            raise ParameterOutOfRange(
                f"n_max = {cutoff} exceeds the largest expansion, {_CUTOFF_MAX}"
            )
        amps = np.array(state.amplitudes(cutoff), dtype=np.complex128)
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        tail = max(0.0, 1.0 - norm_sq)
        if tail <= tail_tol:
            if not (1.0 - tail - 1e-9) <= norm_sq <= 1.0 + 1e-9:
                raise ValueError(f"norm {norm_sq} inconsistent with tail_mass {tail}")
            return amps, tail
        cutoff *= 2
    raise TruncationInsufficient(
        f"tail mass {tail:.3e} exceeds tolerance {tail_tol:.3e} at n_max={len(amps) - 1}"
    )


def moments_from_amplitudes(amps: np.ndarray) -> Moments:
    """Numeric moment oracle: direct sums over ``amps``, a 1-D array c_0..c_n_max of numbers."""
    try:  # no bool or string is a number; an object array holds ints beyond int64, or None
        a = None if np.asarray(amps).dtype.kind in "bSU" else np.asarray(amps, np.complex128)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None:
        raise TypeError(f"amps must be an array of numbers, got {type(amps).__name__} {amps!r}")
    if a.ndim != 1:
        raise ValueError(f"amps must be a 1-D array, got shape {a.shape}")
    n = np.arange(len(a), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the overflow
        p = np.abs(a) ** 2
        total = float(np.sum(p))
        mean2 = float(np.sum(n * n * p)) / total if total > 0.0 else math.nan
    if not math.isfinite(mean2):  # a zero norm, a NaN or an inf, or a sum beyond the doubles
        raise ValueError(f"amps need a nonzero norm and finite moments, got sum |c_n|^2 {total!r}")
    mean = float(np.sum(n * p)) / total
    return Moments(mean, mean2, float(p[0]) / total)


def qfi_matrix(d: int, state: SingleModeState, weighting: Weighting = Balanced()) -> np.ndarray:
    """Fisher matrix 4 b^2 <n^2> I - 4 b^4 <n>^2 O for the d phases, a d x d float array."""
    d = _require_d(d)
    if d > _DENSE_D_MAX:
        raise ValueError(f"d must be <= {_DENSE_D_MAX} for a dense matrix, got {d}")
    m = moments(state)
    if m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent has no Fisher information")
    b2, _ = resolve_weights(d, m, weighting)
    a = 4.0 * b2 * m.mean_n2
    c = 4.0 * b2 * b2 * m.mean_n**2
    return a * np.eye(d) - c * np.ones((d, d))


def qcrb_trace_inverse(matrix: np.ndarray) -> float:
    """Trace of the dense matrix inverse of ``matrix``, a finite, square, symmetric array.

    Deliberately generic (LAPACK LU with pivoting, no use of the rank-one
    structure) so it can serve as an independent oracle for the closed form.
    """
    try:
        m = np.asarray(matrix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise TypeError(
            f"matrix must be an array of real numbers, got {type(matrix).__name__} {matrix!r}"
        ) from None
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1] or not np.isfinite(m).all():
        raise ValueError(f"matrix must be a finite square array, got shape {m.shape}")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(m))))):
        raise ValueError("matrix must be symmetric")
    if np.linalg.cond(m) > _COND_LIMIT:
        raise SingularMatrix(f"condition number exceeds {_COND_LIMIT:.0e}")
    return float(np.trace(np.linalg.inv(m)))
