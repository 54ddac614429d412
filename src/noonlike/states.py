"""Single-mode constituent states and their photon-number statistics.

Each state class computes its own closed-form moments of the photon number
operator and its own Fock amplitudes, as a plain list that the circuit
simulator reads directly and ``noonlike.oracles`` turns into truncated
expansions whose moments check the closed forms.  ``FAMILIES`` holds one row
per probe family of the paper: a family is its name, and ``constituent``
builds its state.

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
import operator
import sys

from .errors import BracketFailure, ParameterOutOfRange

__all__ = [
    "FAMILIES",
    "FamilyRow",
    "constituent",
    "Fock",
    "Coherent",
    "SqueezedVacuum",
    "SqueezedCoherent",
    "FockSuperposition",
    "SingleModeState",
    "Moments",
    "moments",
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


def _as_int(name: str, value) -> int:
    """``value`` through ``operator.index``; TypeError naming ``name`` if it is no integer."""
    try:  # a float would fail only inside a run, naming no field; a bool is no number
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


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


class SingleModeState(_Frozen):
    """A constituent state, with its ``moments()`` and its ``amplitudes(n_max)`` c_0..c_n_max."""

    __slots__ = ()


class Moments(_Frozen):
    """First two photon-number moments plus the vacuum overlap probability."""

    __slots__ = ("mean_n", "mean_n2", "vacuum_prob")

    def __init__(self, mean_n: float, mean_n2: float, vacuum_prob: float):
        if not type(mean_n) is type(mean_n2) is type(vacuum_prob) is float:  # the states pass floats
            mean_n = _require_real("mean_n", mean_n)
            mean_n2 = _require_real("mean_n2", mean_n2)
            vacuum_prob = _require_real("vacuum_prob", vacuum_prob)
        if not 0 <= mean_n < math.inf:  # NaN fails too
            raise ValueError(f"mean_n must be finite and nonnegative, got {mean_n}")
        square = mean_n * mean_n  # inf, not OverflowError, past the largest double
        if not square - 1e-9 * (mean_n2 if mean_n2 > 1.0 else 1.0) <= mean_n2 < math.inf:
            if mean_n2 == math.inf:
                raise ValueError(f"mean_n2 must be finite, got {mean_n2}")
            raise ValueError(f"mean_n2 must be at least mean_n^2 = {square}, got {mean_n2}")
        if not -1e-12 <= vacuum_prob <= 1 + 1e-12:
            raise ValueError(f"vacuum_prob outside [0, 1]: {vacuum_prob}")
        object.__setattr__(self, "mean_n", mean_n)
        object.__setattr__(self, "mean_n2", mean_n2)
        object.__setattr__(self, "vacuum_prob", vacuum_prob)

    @property
    def variance(self) -> float:
        return self.mean_n2 - self.mean_n * self.mean_n


class Fock(SingleModeState):
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

    def moments(self) -> Moments:
        n = self.n
        return Moments(n, n * n, 1.0 if n == 0 else 0.0)

    def amplitudes(self, n_max: int) -> list[float]:
        if not self.n.is_integer():
            raise ValueError("effective (non-integer) Fock states have no expansion")
        out = [0.0] * (n_max + 1)
        if self.n <= n_max:
            out[int(self.n)] = 1.0
        return out


class Coherent(SingleModeState):
    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        object.__setattr__(self, "alpha", _require_real("alpha", alpha, _ALPHA_RANGE))

    def moments(self) -> Moments:
        a2 = self.alpha**2
        return Moments(a2, a2 + a2 * a2, math.exp(-a2))

    def amplitudes(self, n_max: int) -> list[float]:
        # log-space accumulation keeps n ~ hundreds finite past the 170! overflow
        if self.alpha == 0.0:
            return [1.0] + [0.0] * n_max
        out = [0.0] * (n_max + 1)
        a = abs(self.alpha)
        half_a2, log_a = -0.5 * a * a, math.log(a)
        sign = math.copysign(1.0, self.alpha)
        for n in range(n_max + 1):
            log_mag = half_a2 + n * log_a - 0.5 * math.lgamma(n + 1.0)
            out[n] = sign**n * math.exp(log_mag)
        return out


class SqueezedVacuum(SingleModeState):
    __slots__ = ("r",)

    def __init__(self, r: float):
        object.__setattr__(self, "r", _require_real("r", r, _R_RANGE))

    def moments(self) -> Moments:
        sh2 = math.sinh(self.r) ** 2
        return Moments(sh2, 3 * sh2 * sh2 + 2 * sh2, 1.0 / math.cosh(self.r))

    def amplitudes(self, n_max: int) -> list[float]:
        if self.r == 0.0:
            return [1.0] + [0.0] * n_max
        out = [0.0] * (n_max + 1)
        th = math.tanh(self.r)
        log_ch = math.log(math.cosh(self.r))
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


class SqueezedCoherent(SingleModeState):
    __slots__ = ("alpha", "r")

    def __init__(self, alpha: float, r: float):
        object.__setattr__(self, "alpha", _require_real("alpha", alpha, _ALPHA_RANGE))
        object.__setattr__(self, "r", _require_real("r", r, _R_RANGE))

    def moments(self) -> Moments:
        a2 = self.alpha**2
        r = self.r
        sh2 = math.sinh(r) ** 2
        ch2 = math.cosh(r) ** 2
        n_tilde = a2 + sh2
        var = a2 * math.exp(2 * r) + 2 * sh2 * ch2
        vac = math.exp(-a2 * (1.0 - math.tanh(r))) / math.cosh(r)
        return Moments(n_tilde, n_tilde**2 + var, vac)

    def amplitudes(self, n_max: int) -> list[float]:
        # Stable two-term recurrence from the transformed annihilation relation
        #   (a cosh r - a^dag sinh r) |psi> = alpha e^{-r} |psi>
        # valid for the displacement-after-squeeze ordering documented above.
        alpha, r = self.alpha, self.r
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


class FockSuperposition(SingleModeState):
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

    def moments(self) -> Moments:
        mean = sum(n * abs(c) ** 2 for n, c in enumerate(self.amps))
        mean2 = sum(n * n * abs(c) ** 2 for n, c in enumerate(self.amps))
        return Moments(mean, mean2, abs(self.amps[0]) ** 2)

    def amplitudes(self, n_max: int) -> list:
        out = [0.0] * (n_max + 1)
        upto = min(n_max + 1, len(self.amps))
        out[:upto] = self.amps[:upto]
        return out


def moments(state: SingleModeState) -> Moments:
    """Analytic photon-number moments of a constituent state."""
    if not isinstance(state, SingleModeState):
        raise TypeError(f"state must be a SingleModeState, got {type(state).__name__} {state!r}")
    return state.moments()


_RESIDUAL_TOL = 1e-10
_MAX_DOUBLINGS = 200


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


def _ecs_inverse(d: int, r_prime: float | None, n_bar: float) -> float:
    # bisected on n_bar, mean_total_photons(d, Coherent(alpha)) bit for bit, from sqrt(n_bar)
    def ecs(alpha: float) -> float:
        a2 = _require_real("alpha", alpha, _ALPHA_RANGE) ** 2
        return a2 / (1.0 + d * math.exp(-a2))
    return _bisect_increasing(ecs, n_bar, math.sqrt(n_bar))


def _escs_inverse(d: int, r_prime: float | None, n_bar: float) -> float:
    # x = alpha^2 = X + W0(k a)/k, X = n_bar - sh2, a = n_bar c e^(-k X), is the root of the
    # concave, increasing h(x) = x + sh2 - n_bar (1 + c e^(-k x)).  From Winitzki's W0,
    # within 2 %, Newton's first step lands left of the root, and x then climbs to it.
    # Only ESCS has a floor: its n_bar at alpha = 0, the squeeze's own photons
    sh2, k, ch = math.sinh(r_prime) ** 2, 1.0 - math.tanh(r_prime), math.cosh(r_prime)
    floor = sh2 / (1.0 + d * (1.0 / ch))
    if floor - n_bar > _RESIDUAL_TOL:
        raise BracketFailure(
            f"n_bar = {n_bar} is below the floor {floor:.6g} of family escs at r_prime = {r_prime}"
        )
    c = d / ch
    a = n_bar * c * math.exp(-k * (n_bar - sh2))
    w = math.log1p(k * a)
    x = max(0.0, n_bar - sh2 + (w * (1.0 - math.log1p(w) / (2.0 + w)) / k if w else a))
    for step in range(8):  # at most eight Newton steps
        e = n_bar * c * math.exp(-k * x)
        dx = (n_bar - sh2 - x + e) / (1.0 + k * e)
        if step and not x + dx > x:  # converged, or held at 0 by the floor
            break
        x = max(0.0, x + dx)
    return math.sqrt(x)


def _esvs_inverse(d: int, r_prime: float | None, n_bar: float) -> float:
    # cosh r = 1 + w is the largest root u of u^3 - p u - q, p = 1 + n_bar, q = n_bar d: its
    # trigonometric form if q/2 <= (p/3)^(3/2), else hyperbolic.  u - 1 is off by ~1 ulp of
    # u, which one Newton step in w squares, so w is right to ~1 ulp at any r
    s = math.sqrt((1.0 + n_bar) / 3.0)
    t = 0.5 * n_bar * d / s / s / s
    w = 2.0 * s * (math.cos(math.acos(t) / 3.0) if t <= 1.0 else math.cosh(math.acosh(t) / 3.0))
    w -= 1.0
    f = ((w + 3.0) * w + 2.0 - n_bar) * w - n_bar * (1.0 + d)
    w -= f / ((3.0 * w + 6.0) * w + 2.0 - n_bar)
    return 2.0 * math.asinh(math.sqrt(0.5 * w))  # cosh r - 1 = 2 sinh^2(r/2)


class FamilyRow(_Frozen):
    """One probe family: ``parameter`` names its free parameter (the argument and
    attribute of its ``state`` class, and the ``qcrb`` flag); ``needs_r_prime``
    says whether ``state`` takes the squeeze factor ``r_prime`` second; and
    ``inverse(d, r_prime, n_bar)``, for checked inputs, is the parameter whose
    balanced probe carries n_bar, ``qcrb.mean_total_photons`` of its state.
    ESCS's raises BracketFailure below its floor, its n_bar at alpha = 0.  NOON
    has no inverse: its n is n_bar."""

    __slots__ = ("parameter", "needs_r_prime", "state", "inverse")

    def __init__(self, parameter: str, needs_r_prime: bool, state: type, inverse):
        self._assign(parameter, needs_r_prime, state, inverse)


# the paper's four families, in its order, keyed by name
FAMILIES = {
    "noon": FamilyRow("n", False, Fock, None),
    "ecs": FamilyRow("alpha", False, Coherent, _ecs_inverse),
    "escs": FamilyRow("alpha", True, SqueezedCoherent, _escs_inverse),
    "esvs": FamilyRow("r", False, SqueezedVacuum, _esvs_inverse),
}


def _row(family: str) -> FamilyRow:
    """The row of ``family``, named by the error unless it is one of ``FAMILIES``."""
    if not isinstance(family, str):
        raise TypeError(f"family must be a str, got {type(family).__name__} {family!r}")
    row = FAMILIES.get(family)
    if row is None:
        raise ValueError(f"family must be one of {', '.join(FAMILIES)}, got {family!r}")
    return row


def constituent(family: str, r_prime: float | None = None) -> Callable[[float], SingleModeState]:
    """Constructor of the family's state from its free parameter; ESCS squeezes by ``r_prime``."""
    row = _row(family)
    if row.needs_r_prime:
        return lambda p: row.state(p, r_prime)
    return row.state
