"""Heralded state-generation circuit, evaluated on its photon budget only.

The paper proposes one source: a coherent beam, a squeezed vacuum and a
vacuum mode meet in passive optics on three modes, and a photon count in
one of them heralds a two-mode state in the other two.  A
``CircuitConfig`` is one wiring of that source, and ``run_experiment``
simulates it at a squeeze factor r.

Every element is passive and conserves total photon number, so the whole
circuit is one 3 x 3 mode matrix U plus a global phase: input creation
operators map as a_j^dag -> sum_k U[k][j] a_k^dag, and the constant phase
of each phase shifter only multiplies the whole state.  Only two inputs
carry photons, so each kept output amplitude, with exactly
``herald_count`` photons in the herald mode and at most
``max_output_photons`` in the two others, is a fixed bilinear form
sum_{m,k} T[m, k] c_m s_k in the Fock amplitudes c_m of the coherent input
and s_k of the squeezed one, with m + k the sector's photon number.  T
depends on the config alone, so ``_compiled``, the module's one cache,
keyed on the ``CircuitConfig``, builds it in closed form on a config's
first run: its nonzero terms, 54 over the 15 kept sectors of the
reference circuit.  ``run_experiment`` then expands the two inputs up to
the photon budget and takes one short sum per kept sector.  Nothing above
the budget feeds a kept sector, so nothing is truncated: the ``cutoff``
keyword is inert.  The state is plain Python throughout, nested lists and
tuples.

Mode indexing is 0-based throughout.  ``default_circuit_config()`` returns
the reference wiring; another wiring of the three modes is another
``CircuitConfig``, passed to ``run_experiment`` as ``config``.  Its outputs
are the two modes other than the herald mode, in ascending order: the other
order is the same wiring with those two modes relabelled.

Beam splitter conventions (transmitted amplitude sqrt(T) on both ports):

* ``symmetric`` - reflection picks up a phase i from either side.
* ``real``      - reflection amplitudes -sqrt(1-T) from the first port and
  +sqrt(1-T) from the second.

The reference topology splits the squeezed-vacuum input first and
heralds on one photon in the trigger mode, which guarantees a vacuum-free
output: the trigger can only fire by consuming one photon of a squeezed
pair, never a lone coherent photon.  Combining the remaining half of the
pair with the coherent beam then cancels every mixed term up to four
photons precisely when the pump condition alpha^2 = 3 tanh(r) / 2 holds.
The resulting two-mode state is the antisymmetric superposition
(|phi>|0> - |0>|phi>)/sqrt(2); the relative branch phase is reported and
fitted by the verifier, since no passive relabeling can turn it into the
symmetric one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import EmptyPostSelection, ModeOutOfRange, NoonlikeError
from .families import SweepCurve, matched_report
from .qcrb import _check_ordered, noon_qcrb, qcrb_closed_form
from .states import Coherent, FockSuperposition, SqueezedVacuum
from .states import _R_RANGE, _Frozen, _require_real

__all__ = [
    "BeamSplitter",
    "PhaseShifter",
    "CircuitElement",
    "CircuitConfig",
    "ExperimentResult",
    "mode_matrix",
    "run_experiment",
    "experiment_qcrb_comparison",
    "default_circuit_config",
    "pump_amplitude",
    "heralded_target_amplitudes",
    "heralded_success_probability",
]


def _as_int(name: str, value) -> int:
    """``value`` through ``operator.index``; TypeError naming ``name`` if it is no integer."""
    try:  # a float would fail only inside a run, naming no field; a bool is no number
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


class BeamSplitter(_Frozen):
    __slots__ = ("mode_a", "mode_b", "transmissivity", "convention")

    def __init__(
        self, mode_a: int, mode_b: int, transmissivity: float = 0.5, convention: str = "symmetric"
    ):
        mode_a, mode_b = _as_int("mode_a", mode_a), _as_int("mode_b", mode_b)
        if mode_a == mode_b:
            raise ValueError("beam splitter needs two distinct modes")
        transmissivity = _require_real("transmissivity", transmissivity)
        if not 0.0 < transmissivity < 1.0:
            raise ValueError(f"transmissivity must be in (0, 1), got {transmissivity}")
        if convention not in ("symmetric", "real"):
            raise ValueError(f"unknown convention {convention!r}")
        self._assign(mode_a, mode_b, transmissivity, convention)

    def reflection_amplitudes(self) -> tuple[complex, complex]:
        """(from mode_a, from mode_b) reflection amplitudes."""
        rho = math.sqrt(1.0 - self.transmissivity)
        if self.convention == "symmetric":
            return 1j * rho, 1j * rho
        return -rho, rho


class PhaseShifter(_Frozen):
    __slots__ = ("mode", "const_phase", "per_photon_phase")

    def __init__(self, mode: int, const_phase: float = 0.0, per_photon_phase: float = 0.0):
        mode = _as_int("mode", mode)
        phases = dict(const_phase=const_phase, per_photon_phase=per_photon_phase)
        for name, phase in phases.items():
            phases[name] = phase = _require_real(name, phase)
            if not math.isfinite(phase):
                raise ValueError(f"{name} must be finite, got {phase}")
        self._assign(mode, *phases.values())


CircuitElement = BeamSplitter | PhaseShifter


def _check_element_modes(e: CircuitElement, mode_count: int) -> None:
    modes = (e.mode_a, e.mode_b) if isinstance(e, BeamSplitter) else (e.mode,)
    if any(not 0 <= m < mode_count for m in modes):
        raise ModeOutOfRange(f"element modes {modes} outside 0..{mode_count - 1}")


class ExperimentResult(_Frozen):
    """Decomposition of the heralded two-mode state.

    ``phi_amps`` holds the single-branch amplitudes c_0..c_4; the two-mode
    state is (|phi>|0> + e^{i branch_phase} |0>|phi>)/sqrt(2) up to the
    reported fidelity.
    """

    __slots__ = ("phi_amps", "fidelity_to_noonlike", "n_bar", "success_prob", "branch_phase")

    def __init__(
        self,
        phi_amps: tuple[complex, ...],
        fidelity_to_noonlike: float,
        n_bar: float,
        success_prob: float,
        branch_phase: float,
    ):
        self._assign(phi_amps, fidelity_to_noonlike, n_bar, success_prob, branch_phase)


class CircuitConfig(_Frozen):
    """A wiring of the heralded source on modes 0, 1 and 2 (see the module docstring)."""

    __slots__ = (
        "coherent_mode", "squeezed_mode", "elements", "herald_mode", "herald_count",
        "max_output_photons",
    )

    def __init__(
        self, coherent_mode: int, squeezed_mode: int, elements: tuple[CircuitElement, ...],
        herald_mode: int, herald_count: int, max_output_photons: int,
    ):
        coherent_mode, squeezed_mode, herald_mode, herald_count, max_output_photons = (
            _as_int(name, value)
            for name, value in (("coherent_mode", coherent_mode), ("squeezed_mode", squeezed_mode),
                                ("herald_mode", herald_mode), ("herald_count", herald_count),
                                ("max_output_photons", max_output_photons))
        )
        elements = tuple(elements)
        if any(not 0 <= m < 3 for m in (coherent_mode, squeezed_mode, herald_mode)):
            raise ModeOutOfRange("config references modes outside 0..2")
        for e in elements:
            _check_element_modes(e, 3)
        if coherent_mode == squeezed_mode:
            raise ValueError("coherent and squeezed inputs must enter distinct modes")
        for name, n in ("herald_count", herald_count), ("max_output_photons", max_output_photons):
            if n < 0:
                raise ValueError(f"{name} must be >= 0, got {n}")
        self._assign(
            coherent_mode, squeezed_mode, elements, herald_mode, herald_count, max_output_photons
        )


# The reference topology (see the module docstring): coherent -> mode 0,
# squeezed vacuum -> mode 1, vacuum -> mode 2, the herald.  The trailing phase
# shifter fixes the output-arm reference phase so the two branches differ by a
# single overall phase instead of a photon-number-dependent one.
_REFERENCE_CIRCUIT = CircuitConfig(
    coherent_mode=0,
    squeezed_mode=1,
    elements=(
        BeamSplitter(1, 2, 0.5, "real"),
        PhaseShifter(1, math.pi, -math.pi / 2),
        BeamSplitter(0, 1, 0.5, "real"),
        PhaseShifter(1, 0.0, math.pi),
    ),
    herald_mode=2,
    herald_count=1,
    max_output_photons=4,
)


def default_circuit_config() -> CircuitConfig:
    """The reference topology (see the module docstring); the config is frozen."""
    return _REFERENCE_CIRCUIT


def mode_matrix(
    elements: Iterable[CircuitElement], mode_count: int
) -> tuple[list[list[complex]], float]:
    """Compose passive elements, in order, into a mode matrix and a global phase.

    Column j of the nested lists u is the image of input mode j's creation
    operator, a_j^dag -> sum_k u[k][j] a_k^dag.  A phase shifter multiplies
    its mode's row by exp(i per_photon_phase); its ``const_phase`` multiplies
    every amplitude alike and is summed into the returned global phase.
    """
    u = [[1.0 + 0j if k == j else 0j for j in range(mode_count)] for k in range(mode_count)]
    phase = 0.0
    for e in elements:
        _check_element_modes(e, mode_count)
        if isinstance(e, BeamSplitter):
            tau = math.sqrt(e.transmissivity)
            rho_a, rho_b = e.reflection_amplitudes()
            row_a, row_b = u[e.mode_a], u[e.mode_b]
            u[e.mode_a] = [tau * x + rho_b * y for x, y in zip(row_a, row_b)]
            u[e.mode_b] = [rho_a * x + tau * y for x, y in zip(row_a, row_b)]
        else:
            turn = complex(math.cos(e.per_photon_phase), math.sin(e.per_photon_phase))
            u[e.mode] = [turn * x for x in u[e.mode]]
            phase += e.const_phase
    return u, phase


def _transfer_terms(
    occ: tuple[int, ...], u: Sequence[complex], v: Sequence[complex], phase: float
) -> tuple[tuple[int, int, complex], ...]:
    """The nonzero (m, k, T) of sector ``occ``'s amplitude sum_{m,k} T c_m s_k.

    c_m and s_k are the Fock amplitudes of the coherent and squeezed inputs,
    whose columns of the mode matrix are u and v; the third input is vacuum.
    Expanding exp(i phase) f_c(b_c^dag) f_s(b_s^dag) |0>, for f(x) = sum_n
    a_n x^n / sqrt(n!), gives T = exp(i phase) sqrt(m! k! prod_i occ_i!)
    sum_{p+q=occ, |p|=m} prod_i u_i^p_i v_i^q_i / (p_i! q_i!), where
    k = |occ| - m.
    """
    total, fact = sum(occ), math.factorial
    sums = [0j] * (total + 1)
    for p in itertools.product(*(range(n + 1) for n in occ)):
        sums[sum(p)] += math.prod(
            uc**pi * us ** (n - pi) / (fact(pi) * fact(n - pi))
            for uc, us, pi, n in zip(u, v, p, occ)
        )
    scale = complex(math.cos(phase), math.sin(phase)) * math.sqrt(math.prod(map(fact, occ)))
    return tuple(
        (m, total - m, scale * math.sqrt(fact(m) * fact(total - m)) * t)
        for m, t in enumerate(sums) if t
    )


def _heralded_state(
    kept: Sequence[tuple], c: Sequence[complex], s: Sequence[complex], cfg: CircuitConfig
) -> tuple[list[list[complex]], float]:
    """``cfg``'s heralded state from its transfer table and the two inputs' amplitudes.

    ``kept`` holds ``_compiled``'s (n_1, n_2, terms) and ``c`` and ``s`` the
    Fock amplitudes of the coherent and squeezed inputs up to the budget.
    Returns (state, success_prob): state[n_1][n_2] is the amplitude,
    renormalized over the kept mass, of n_1 and n_2 photons in the two
    output modes, and success_prob is that mass, an absolute probability.
    """
    side = cfg.max_output_photons + 1
    amps = [
        (n1, n2, sum((t * (c[m] * s[k]) for m, k, t in terms), 0j)) for n1, n2, terms in kept
    ]
    mass = sum(abs(a) ** 2 for _, _, a in amps)
    if not mass > 0.0:  # NaN fails too
        raise EmptyPostSelection(
            f"herald {cfg.herald_count} photon(s) in mode {cfg.herald_mode} kept no mass"
        )
    state = [[0j] * side for _ in range(side)]
    scale = 1.0 / math.sqrt(mass)
    for n1, n2, amp in amps:
        state[n1][n2] = amp * scale
    return state, mass


def _noonlike_decomposition(state: list[list[complex]]) -> tuple[list[complex], float, float]:
    """Extract (phi, fidelity, branch_phase) from a two-mode state.

    ``state[j][k]`` is the amplitude of j and k photons in the two modes, as
    ``_heralded_state`` returns it.  phi is read off column 0 (scaled by
    sqrt(2)); the branch phase beta is fitted so that
    (|phi>|0> + e^{i beta}|0>|phi>)/sqrt(2) best matches row 0, and the
    fidelity is the squared overlap with that reconstruction; a low
    fidelity is a returned value, never an error.
    """
    size = len(state)
    square = size and all(isinstance(row, list) and len(row) == size for row in state)
    if not square or isinstance(state[0][0], list):
        raise ValueError("decomposition requires a square two-mode amplitude array")
    root2 = math.sqrt(2.0)
    phi = [root2 * row[0] for row in state]
    overlap = sum(a.conjugate() * (root2 * b) for a, b in zip(phi[1:], state[0][1:]))
    beta = math.atan2(overlap.imag, overlap.real) if abs(overlap) > 1e-300 else 0.0

    # (reconstruction, state) amplitude pairs at (n, 0) and (0, n) for n >= 1,
    # then at the vacuum
    phase = complex(math.cos(beta), math.sin(beta))
    pairs = []
    for n in range(1, size):
        pairs += [(phi[n] / root2, state[n][0]), (phase * phi[n] / root2, state[0][n])]
    vac = state[0][0]
    pairs.append((vac, vac))

    dot = sum(a.conjugate() * b for a, b in pairs)
    norm_r = sum(abs(a) ** 2 for a, _ in pairs)
    norm_s = sum(abs(a) ** 2 for row in state for a in row)
    fidelity = abs(dot) ** 2 / (norm_r * norm_s) if norm_r > 0 else 0.0
    return phi, fidelity, beta


def _require_squeeze(r: float) -> float:
    """``r`` as a float, if it is positive (NaN is not) and ``SqueezedVacuum`` takes it."""
    r = _require_real("r", r)
    if not r > 0.0:
        raise ValueError(f"squeeze factor must be positive, got {r}")
    return _require_real("r", r, _R_RANGE)


def pump_amplitude(r: float) -> float:
    """Coherent amplitude matched to the squeeze factor: alpha^2 = 3 tanh(r)/2."""
    return math.sqrt(1.5 * math.tanh(_require_squeeze(r)))


def heralded_target_amplitudes(r: float) -> list[complex]:
    """Reference amplitudes c_0..c_4 of the heralded branch state.

    c_n = i^n |c_n| with magnitudes (2 sqrt(2), 2 sqrt(3 t), 2 sqrt(3) t,
    3 t^{3/2}) / g and g^2 = 8 + 12 t + 12 t^2 + 9 t^3, t = tanh(r).
    """
    t = math.tanh(_require_squeeze(r))
    g = math.sqrt(8.0 + 12.0 * t + 12.0 * t * t + 9.0 * t**3)
    mags = [
        0.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(3.0 * t), 2.0 * math.sqrt(3.0) * t, 3.0 * t**1.5
    ]
    return [mag / g * 1j**n for n, mag in enumerate(mags)]


def heralded_success_probability(r: float) -> float:
    """Closed-form herald-and-keep probability for the reference topology.

    Derived from the generating-function form of the circuit output:
    P = t^2 g(r)^2 exp(-3t/2) / (32 cosh r), t = tanh(r).
    """
    t = math.tanh(_require_squeeze(r))
    g2 = 8.0 + 12.0 * t + 12.0 * t * t + 9.0 * t**3
    return t * t * g2 * math.exp(-1.5 * t) / (32.0 * math.cosh(r))


@functools.lru_cache
def _compiled(cfg: CircuitConfig) -> tuple:
    """(budget, transfer table) of ``cfg``.

    The table holds, for each kept output, with exactly ``herald_count``
    photons in the herald mode and n_1 + n_2 <= ``max_output_photons`` in
    the two output modes, (n_1, n_2, ``_transfer_terms``) in the order of
    (n_1, n_2).
    """
    budget = cfg.herald_count + cfg.max_output_photons
    u, phase = mode_matrix(cfg.elements, 3)
    columns = [[row[j] for row in u] for j in (cfg.coherent_mode, cfg.squeezed_mode)]
    h = cfg.herald_mode
    a, b = (k for k in range(3) if k != h)
    kept = []
    for n1 in range(cfg.max_output_photons + 1):
        for n2 in range(cfg.max_output_photons + 1 - n1):
            occ = [0] * 3
            occ[h], occ[a], occ[b] = cfg.herald_count, n1, n2
            kept.append((n1, n2, _transfer_terms(tuple(occ), *columns, phase)))
    return budget, tuple(kept)


def run_experiment(
    r: float, config: CircuitConfig | None = None, cutoff: int | None = None
) -> ExperimentResult:
    """Simulate the heralded source at squeeze factor ``r``.

    The coherent amplitude is set by the pump condition.  Every kept
    amplitude is evaluated exactly from the inputs' Fock amplitudes up to
    the photon budget ``herald_count + max_output_photons`` (see the module
    docstring), so the result does not depend on ``cutoff``; a cutoff below
    the budget is still rejected.
    """
    cfg = config if config is not None else default_circuit_config()
    budget, kept = _compiled(cfg)
    if cutoff is not None and _as_int("cutoff", cutoff) < budget:
        raise ValueError("cutoff below the heralded photon budget")
    c = Coherent(pump_amplitude(r)).amplitudes(budget)
    s = SqueezedVacuum(r).amplitudes(budget)
    state, success_prob = _heralded_state(kept, c, s, cfg)
    phi, fidelity, beta = _noonlike_decomposition(state)

    probs = [abs(c) ** 2 for c in phi]
    norm = sum(probs)
    if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
        raise NoonlikeError(f"branch amplitudes not normalized: {norm}")
    if abs(phi[0]) > 1e-10:
        raise NoonlikeError(f"unexpected vacuum component |c_0| = {abs(phi[0]):.3e}")
    n_bar = sum(n * p for n, p in enumerate(probs)) / norm
    return ExperimentResult(
        phi_amps=tuple(phi),
        fidelity_to_noonlike=fidelity,
        n_bar=n_bar,
        success_prob=success_prob,
        branch_phase=beta,
    )


def experiment_qcrb_comparison(
    r_grid: Sequence[float], cutoff: int | None = None
) -> tuple[SweepCurve, SweepCurve, SweepCurve]:
    """Bound of the heralded state vs effective-NOON and ECS at matched n_bar.

    Returns (noon_curve, ecs_curve, phi_curve); enforces the strict ordering
    ECS < heralded state < NOON at every grid point.  n_bar rises with r,
    and the curves hold it non-decreasing, so ``r_grid`` must not decrease.
    """
    r_grid = tuple(_require_real(f"r_grid[{k}]", r) for k, r in enumerate(r_grid))
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("r_grid must be non-decreasing")
    noon_pts, ecs_pts, phi_pts = [], [], []
    for r in r_grid:
        result = run_experiment(r, cutoff=cutoff)
        scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in result.phi_amps))
        phi_state = FockSuperposition(tuple(c * scale for c in result.phi_amps))
        q_phi = qcrb_closed_form(1, phi_state).qcrb
        n_bar = result.n_bar
        q_noon = noon_qcrb(1, n_bar)
        q_ecs = matched_report("ecs", 1, n_bar).qcrb
        _check_ordered([q_ecs, q_phi, q_noon], "ECS < heralded < NOON", f"r={r}", increasing=True)
        noon_pts.append((n_bar, q_noon, r))
        ecs_pts.append((n_bar, q_ecs, r))
        phi_pts.append((n_bar, q_phi, r))
    return SweepCurve(tuple(noon_pts)), SweepCurve(tuple(ecs_pts)), SweepCurve(tuple(phi_pts))


