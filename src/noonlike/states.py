"""Single-mode constituent states and their photon-number statistics.

Each state is described analytically, by closed-form moments of the photon
number operator, and by its Fock amplitudes, built as plain lists by
``_build_amps``.  The circuit simulator reads those lists directly, and
``noonlike.oracles`` turns them into truncated expansions whose moments
check the closed forms, and ``constituent`` builds each ``Family``'s state.

Conventions
-----------
* All displacement amplitudes and squeeze factors are real; any other input,
  such as a complex number, a numpy complex scalar, a string or a bool,
  raises TypeError at construction.
* ``SqueezedVacuum(r)`` is the state whose even Fock amplitudes follow
  ``c_{2m} = (cosh r)^{-1/2} (-tanh r)^m sqrt((2m)!)/(2^m m!)``.
* ``SqueezedCoherent(alpha, r)`` is displacement applied after squeezing,
  with the squeeze axis oriented so that the displacement sits on the
  anti-squeezed quadrature.  This fixes the vacuum overlap to
  ``exp(-alpha^2 (1 - tanh r)) / cosh r`` and the photon-number variance to
  ``alpha^2 e^{2r} + 2 sinh^2 r cosh^2 r``.  Relative to ``SqueezedVacuum``
  the internal squeeze generator carries the opposite sign, which only
  matters for the sign pattern of the amplitudes, not for any moment.

All values are immutable after construction and all functions are pure, so
everything here is safe to share across threads.  The value classes of the
package, these included, share one small base, ``_Frozen``: each lists
its fields in ``__slots__`` and sets them once in ``__init__``; the base
gives equality within one class, a hash over the fields, the
``Name(field=value)`` repr, copy and pickle through the constructor, and
raises AttributeError on any assignment or deletion.  Plain ``__slots__``
classes keep the import of these modules free of generated code.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Callable
from enum import Enum

from .errors import ParameterOutOfRange, ZeroPhotonState

__all__ = [
    "Family",
    "PARAMETERS",
    "constituent",
    "Fock",
    "Coherent",
    "SqueezedVacuum",
    "SqueezedCoherent",
    "FockSuperposition",
    "SingleModeState",
    "Moments",
    "moments",
    "f_factor",
]

_NORM_TOL = 1e-12

# The bound divides by <n>^2, and <n^2> holds terms of fourth order in the
# state's parameter: n^2 for a number state; alpha^4, sinh(r)^4 and
# alpha^2 e^(2r) otherwise.  A nonzero parameter keeps that fourth power
# between the smallest normal double, below which <n>^2 loses digits or
# vanishes, and 1/64 of the largest, which leaves room for the sums.  The
# ranges below bound the parameter's square, which is cheaper to test.
_P4_MIN, _P4_MAX = sys.float_info.min, sys.float_info.max / 64
_N_RANGE = (_P4_MIN, _P4_MAX)
_ALPHA_RANGE = (_P4_MIN**0.5, _P4_MAX**0.5)
_R_RANGE = (math.asinh(_P4_MIN**0.25) ** 2, math.asinh(_P4_MAX**0.25) ** 2)


def _require_number(name: str, value, kind: type = numbers.Real) -> None:
    """TypeError naming ``name`` unless ``value`` is a ``kind`` number; no bool is one."""
    if isinstance(value, bool) or not isinstance(value, kind):  # complex, str, numpy.bool_, ...
        noun = "a real number" if kind is numbers.Real else "a number"
        raise TypeError(f"{name} must be {noun}, got {type(value).__name__} {value!r}")


def _require_real(name: str, value, limits: tuple[float, float] | None = None) -> float:
    """``value`` as a float; with ``limits``, one that is 0 or whose square lies within them.

    A real number too large for a double raises ParameterOutOfRange naming
    ``name``; with no ``limits``, every float passes, NaN and inf too.
    """
    out = value
    if type(out) is not float:  # the solvers pass floats, which need no conversion
        _require_number(name, value)
        try:
            out = float(value)
        except OverflowError:  # an int or a fraction beyond the largest double
            raise ParameterOutOfRange(
                f"{name} must fit a double, got a {int(value).bit_length()}-bit {name}"
            ) from None
    if limits and not limits[0] <= out * out <= limits[1] and out:
        if not math.isfinite(out):
            raise ValueError(f"{name} must be finite, got {out}")
        lo, hi = (math.sqrt(limit) for limit in limits)
        raise ParameterOutOfRange(
            f"{name} = {out!r} is out of range: its magnitude must be 0"
            f" or within [{lo:.6g}, {hi:.6g}]"
        )
    return out


class _Frozen:
    """Immutable value whose fields are the names in ``__slots__``.

    A subclass sets each field once in its ``__init__`` with
    ``object.__setattr__``, the only way past ``__setattr__`` here, or all
    of them at once, in ``__slots__`` order, with ``_assign``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)


class Fock(_Frozen):
    """Number state |n>.

    ``n`` is an integer for a physical state; non-integer values are accepted
    as "effective" interpolation points for comparison curves (they support
    moments but have no Fock expansion).
    """

    __slots__ = ("n",)

    def __init__(self, n: float):
        n = _require_real("n", n, _N_RANGE)
        if n < 0:
            raise ValueError(f"photon count must be nonnegative, got {n}")
        object.__setattr__(self, "n", n)

    @property
    def is_effective(self) -> bool:
        return not float(self.n).is_integer()


class Coherent(_Frozen):
    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        object.__setattr__(self, "alpha", _require_real("alpha", alpha, _ALPHA_RANGE))


class SqueezedVacuum(_Frozen):
    __slots__ = ("r",)

    def __init__(self, r: float):
        object.__setattr__(self, "r", _require_real("r", r, _R_RANGE))


class SqueezedCoherent(_Frozen):
    __slots__ = ("alpha", "r")

    def __init__(self, alpha: float, r: float):
        object.__setattr__(self, "alpha", _require_real("alpha", alpha, _ALPHA_RANGE))
        object.__setattr__(self, "r", _require_real("r", r, _R_RANGE))


class FockSuperposition(_Frozen):
    """Explicit finite superposition sum_n amps[n] |n>, normalized to 1."""

    __slots__ = ("amps",)

    def __init__(self, amps: tuple[complex, ...]):
        amps = list(amps)
        for n, a in enumerate(amps):
            if type(a) is not complex:
                name = f"amps[{n}]"
                _require_number(name, a, numbers.Number)
                # a real too large for a double raises, naming it
                amps[n] = complex(_require_real(name, a) if isinstance(a, numbers.Real) else a)
        amps = tuple(amps)
        if not amps:
            raise ValueError("amplitude list must be non-empty")
        # products, not powers: a float power that overflows raises
        norm_sq = sum(a.real * a.real + a.imag * a.imag for a in amps)
        if not abs(norm_sq - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"amplitudes not normalized: sum |c_n|^2 = {norm_sq!r}")
        object.__setattr__(self, "amps", amps)


SingleModeState = Fock | Coherent | SqueezedVacuum | SqueezedCoherent | FockSuperposition


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


class Moments(_Frozen):
    """First two photon-number moments plus the vacuum overlap probability."""

    __slots__ = ("mean_n", "mean_n2", "vacuum_prob")

    def __init__(self, mean_n: float, mean_n2: float, vacuum_prob: float):
        if not mean_n >= 0:  # NaN fails too
            raise ValueError(f"mean_n must be nonnegative, got {mean_n}")
        if not mean_n2 >= mean_n**2 - 1e-9 * max(1.0, mean_n2):
            raise ValueError(f"mean_n2 must be at least mean_n^2 = {mean_n**2}, got {mean_n2}")
        if not -1e-12 <= vacuum_prob <= 1 + 1e-12:
            raise ValueError(f"vacuum_prob outside [0, 1]: {vacuum_prob}")
        object.__setattr__(self, "mean_n", mean_n)
        object.__setattr__(self, "mean_n2", mean_n2)
        object.__setattr__(self, "vacuum_prob", vacuum_prob)

    @property
    def variance(self) -> float:
        return self.mean_n2 - self.mean_n**2


def moments(state: SingleModeState) -> Moments:
    """Analytic photon-number moments of a constituent state."""
    if isinstance(state, Fock):
        n = state.n
        return Moments(n, n * n, 1.0 if n == 0 else 0.0)
    if isinstance(state, Coherent):
        a2 = state.alpha**2
        return Moments(a2, a2 + a2 * a2, math.exp(-a2))
    if isinstance(state, SqueezedVacuum):
        sh2 = math.sinh(state.r) ** 2
        return Moments(sh2, 3 * sh2 * sh2 + 2 * sh2, 1.0 / math.cosh(state.r))
    if isinstance(state, SqueezedCoherent):
        a2 = state.alpha**2
        r = state.r
        sh2 = math.sinh(r) ** 2
        ch2 = math.cosh(r) ** 2
        n_tilde = a2 + sh2
        var = a2 * math.exp(2 * r) + 2 * sh2 * ch2
        vac = math.exp(-a2 * (1.0 - math.tanh(r))) / math.cosh(r)
        return Moments(n_tilde, n_tilde**2 + var, vac)
    if isinstance(state, FockSuperposition):
        mean = sum(n * abs(c) ** 2 for n, c in enumerate(state.amps))
        mean2 = sum(n * n * abs(c) ** 2 for n, c in enumerate(state.amps))
        return Moments(mean, mean2, abs(state.amps[0]) ** 2)
    raise TypeError(f"state must be a SingleModeState, got {type(state).__name__} {state!r}")


def _coherent_amps(alpha: float, n_max: int) -> list[float]:
    # log-space accumulation keeps n ~ hundreds finite past the 170! overflow
    out = [0.0] * (n_max + 1)
    if alpha == 0.0:
        out[0] = 1.0
        return out
    a = abs(alpha)
    half_a2, log_a = -0.5 * a * a, math.log(a)
    sign = math.copysign(1.0, alpha)
    for n in range(n_max + 1):
        log_mag = half_a2 + n * log_a - 0.5 * math.lgamma(n + 1.0)
        out[n] = sign**n * math.exp(log_mag)
    return out


def _squeezed_vacuum_amps(r: float, n_max: int) -> list[float]:
    out = [0.0] * (n_max + 1)
    if r == 0.0:
        out[0] = 1.0
        return out
    th = math.tanh(r)
    log_ch = math.log(math.cosh(r))
    for m in range(n_max // 2 + 1):
        log_mag = (
            -0.5 * log_ch
            + m * math.log(abs(th))
            + 0.5 * math.lgamma(2 * m + 1.0)
            - m * math.log(2.0)
            - math.lgamma(m + 1.0)
        )
        out[2 * m] = (-math.copysign(1.0, th)) ** m * math.exp(log_mag)
    return out


def _squeezed_coherent_amps(alpha: float, r: float, n_max: int) -> list[float]:
    # Stable two-term recurrence from the transformed annihilation relation
    #   (a cosh r - a^dag sinh r) |psi> = alpha e^{-r} |psi>
    # valid for the displacement-after-squeeze ordering documented above.
    out = [0.0] * (n_max + 1)
    ch = math.cosh(r)
    sh = math.sinh(r)
    gamma = alpha * math.exp(-r)
    out[0] = math.exp(-0.5 * alpha * alpha * (1.0 - math.tanh(r))) / math.sqrt(ch)
    if n_max >= 1:
        out[1] = gamma * out[0] / ch
    for n in range(1, n_max):
        out[n + 1] = (gamma * out[n] + sh * math.sqrt(n) * out[n - 1]) / (
            ch * math.sqrt(n + 1)
        )
    return out


def _build_amps(state: SingleModeState, n_max: int) -> list:
    """Fock amplitudes c_0..c_n_max of ``state``: floats, or complex for a superposition."""
    if isinstance(state, Fock):
        if state.is_effective:
            raise ValueError("effective (non-integer) Fock states have no expansion")
        out = [0.0] * (n_max + 1)
        n = int(state.n)
        if n <= n_max:
            out[n] = 1.0
        return out
    if isinstance(state, Coherent):
        return _coherent_amps(state.alpha, n_max)
    if isinstance(state, SqueezedVacuum):
        return _squeezed_vacuum_amps(state.r, n_max)
    if isinstance(state, SqueezedCoherent):
        return _squeezed_coherent_amps(state.alpha, state.r, n_max)
    if isinstance(state, FockSuperposition):
        out = [0.0] * (n_max + 1)
        upto = min(n_max + 1, len(state.amps))
        out[:upto] = state.amps[:upto]
        return out
    raise TypeError(f"state must be a SingleModeState, got {type(state).__name__} {state!r}")


def f_factor(state: SingleModeState) -> float:
    """Sensitivity factor <n> / <n^2> of the constituent state.

    Equals 1/n for number states and is strictly smaller than 1/<n> whenever
    the photon number fluctuates.
    """
    m = moments(state)
    if m.mean_n2 <= 0.0:
        raise ZeroPhotonState("vacuum constituent: <n^2> = 0, probe carries no phase information")
    return m.mean_n / m.mean_n2
