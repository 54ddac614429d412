"""Heralded state-generation circuit, evaluated on its photon budget only.

The paper proposes one source: a coherent beam, a squeezed vacuum and a
vacuum mode meet in passive optics on three modes, and a photon count in
one of them heralds a two-mode state in the other two.  ``run_experiment``
simulates that source at a squeeze factor r.

The wiring, with 0-based modes: the coherent beam enters mode 0, the
squeezed vacuum mode 1 and the vacuum mode 2.  A 50:50 beam splitter mixes
modes 1 and 2, a phase shifter on mode 1 adds a constant phase pi and a
per-photon phase -pi/2, a second 50:50 splitter mixes modes 0 and 1, and a
last per-photon phase pi on mode 1 fixes the output-arm reference phase, so
that the two branches differ by a single overall phase instead of a
photon-number-dependent one.  Each splitter transmits sqrt(1/2) and
reflects -sqrt(1/2) from its first mode and +sqrt(1/2) from its second.
One photon in mode 2 heralds; modes 0 and 1 keep at most four.

Every element is passive and conserves total photon number, so the whole
circuit is one 3 x 3 mode matrix U plus the global phase pi: input creation
operators map as a_j^dag -> sum_k U[k][j] a_k^dag.  Only two inputs carry
photons, so each kept output amplitude is a fixed bilinear form
sum_{m,k} T[m, k] c_m s_k in the Fock amplitudes c_m of the coherent input
and s_k of the squeezed one, with m + k the sector's photon number.
``_transfer_table`` builds T in closed form on the first run, 54 nonzero
terms over the 15 kept sectors, into one module global.  ``run_experiment``
then expands the two inputs up to the photon budget, five photons, and
takes one short loop per kept sector.  Nothing above the budget feeds a
kept sector, so nothing is truncated: the ``cutoff`` keyword is inert.
The state is plain Python throughout, nested lists and tuples.

This topology splits the squeezed-vacuum input first and heralds on one
photon in the trigger mode, which guarantees a vacuum-free output: the
trigger can only fire by consuming one photon of a squeezed pair, never a
lone coherent photon.  Combining the remaining half of the pair with the
coherent beam then cancels every mixed term up to four photons precisely
when the pump condition alpha^2 = 3 tanh(r) / 2 holds.  The resulting
two-mode state is the antisymmetric superposition
(|phi>|0> - |0>|phi>)/sqrt(2); the relative branch phase is fitted by the
two-branch decomposition (``_noonlike_decomposition``) and reported, since
no passive relabeling can turn it into the symmetric one.
"""

from __future__ import annotations

import itertools
import math

from .errors import EmptyPostSelection, NoonlikeError
from .families import SweepCurve, matched_report
from .qcrb import _check_ordered, noon_qcrb, qcrb_closed_form
from .states import Coherent, FockSuperposition, SqueezedVacuum
from .states import _R_RANGE, _Frozen, _as_int, _require_real

__all__ = [
    "ExperimentResult",
    "run_experiment",
    "experiment_qcrb_comparison",
    "default_circuit_config",
    "pump_amplitude",
    "heralded_target_amplitudes",
    "heralded_success_probability",
]

# the herald's mode and photon count, the most photons kept in the two output
# modes 0 and 1, and the modes of the coherent and squeezed inputs
_HERALD_MODE, _HERALD_COUNT, _MAX_OUTPUT_PHOTONS = 2, 1, 4
_COHERENT_MODE, _SQUEEZED_MODE = 0, 1
_BUDGET = _HERALD_COUNT + _MAX_OUTPUT_PHOTONS


class ExperimentResult(_Frozen):
    """Decomposition of the heralded two-mode state.

    ``phi_amps`` holds the single-branch amplitudes c_0..c_4; the two-mode
    state is (|phi>|0> + e^{i branch_phase} |0>|phi>)/sqrt(2) up to the
    reported fidelity.  ``fidelity_to_noonlike`` is the reference state's
    check value, at least 1 - 1e-8 on every tested r: a state far from the
    two-branch form fails ``run_experiment``'s norm check instead, so only
    a direct caller of ``_noonlike_decomposition`` sees a low fidelity.
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


def _reference_wiring() -> tuple[list[list[complex]], float]:
    """The circuit's 3 x 3 mode matrix U, as nested lists, and its global phase pi.

    Column j of U is the image of input mode j's creation operator.  Each
    stage is a 50:50 splitter on modes a and b, then a per-photon phase on
    mode 1, which multiplies that row by exp(i phase); the first shifter's
    constant phase pi multiplies every amplitude alike.
    """
    u = [[1.0 + 0j if k == j else 0j for j in range(3)] for k in range(3)]
    tau = rho = math.sqrt(0.5)
    for a, b, per_photon_phase in (1, 2, -math.pi / 2), (0, 1, math.pi):
        row_a, row_b = u[a], u[b]
        u[a] = [tau * x + rho * y for x, y in zip(row_a, row_b)]
        u[b] = [-rho * x + tau * y for x, y in zip(row_a, row_b)]
        turn = complex(math.cos(per_photon_phase), math.sin(per_photon_phase))
        u[1] = [turn * x for x in u[1]]
    return u, math.pi


def default_circuit_config() -> tuple[tuple[tuple[complex, ...], ...], float]:
    """The circuit's mode matrix U, as nested tuples, and its global phase; builds no table."""
    u, phase = _reference_wiring()
    return tuple(map(tuple, u)), phase


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
    kept: Sequence[tuple], c: Sequence[complex], s: Sequence[complex]
) -> tuple[list[list[complex]], float]:
    """The heralded state from the transfer table and the two inputs' amplitudes.

    ``kept`` holds ``_transfer_table``'s (n_1, n_2, terms) and ``c`` and
    ``s`` the Fock amplitudes of the coherent and squeezed inputs up to the
    budget.  Returns (state, success_prob): state[n_1][n_2] is the
    amplitude, renormalized over the kept mass, of n_1 and n_2 photons in
    the two output modes, and success_prob is that mass, an absolute
    probability.
    """
    side = _MAX_OUTPUT_PHOTONS + 1
    state = [[0j] * side for _ in range(side)]
    mass = 0.0
    for n1, n2, terms in kept:
        a = 0j
        for m, k, t in terms:
            a += t * (c[m] * s[k])
        state[n1][n2] = a
        mass += abs(a) ** 2
    if not mass > 0.0:  # NaN fails too
        raise EmptyPostSelection(
            f"herald {_HERALD_COUNT} photon(s) in mode {_HERALD_MODE} kept no mass"
        )
    scale = 1.0 / math.sqrt(mass)
    for n1, n2, _ in kept:
        state[n1][n2] *= scale
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

    # the reconstruction's overlap with the state and its norm, over its
    # amplitudes at (n, 0) and (0, n) for n >= 1, then at the vacuum
    phase = complex(math.cos(beta), math.sin(beta))
    dot, norm_r = 0j, 0.0
    for n in range(1, size):
        a, b = phi[n] / root2, phase * phi[n] / root2
        dot += a.conjugate() * state[n][0]
        dot += b.conjugate() * state[0][n]
        norm_r += abs(a) ** 2
        norm_r += abs(b) ** 2
    vac = state[0][0]
    dot += vac.conjugate() * vac
    norm_r += abs(vac) ** 2
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


_TABLE = None  # the transfer table, built by _transfer_table on the first run


def _transfer_table() -> tuple:
    """The circuit's transfer table, built into ``_TABLE``.

    It holds, for each kept output, with the heralded photon in mode 2 and
    n_1 + n_2 <= 4 in the output modes 0 and 1, (n_1, n_2,
    ``_transfer_terms``) in the order of (n_1, n_2).
    """
    global _TABLE
    u, phase = _reference_wiring()
    columns = [[row[j] for row in u] for j in (_COHERENT_MODE, _SQUEEZED_MODE)]
    _TABLE = table = tuple(
        (n1, n2, _transfer_terms((n1, n2, _HERALD_COUNT), *columns, phase))
        for n1 in range(_MAX_OUTPUT_PHOTONS + 1) for n2 in range(_MAX_OUTPUT_PHOTONS + 1 - n1)
    )
    return table


def run_experiment(r: float, cutoff: int | None = None) -> ExperimentResult:
    """Simulate the heralded source at squeeze factor ``r``.

    The coherent amplitude is set by the pump condition.  Every kept
    amplitude is evaluated exactly from the inputs' Fock amplitudes up to
    the photon budget, five photons (see the module docstring), so the
    result does not depend on ``cutoff``; a cutoff below the budget is
    still rejected.
    """
    kept = _TABLE or _transfer_table()
    if cutoff is not None and _as_int("cutoff", cutoff) < _BUDGET:
        raise ValueError("cutoff below the heralded photon budget")
    c = Coherent(pump_amplitude(r)).amplitudes(_BUDGET)
    s = SqueezedVacuum(r).amplitudes(_BUDGET)
    state, success_prob = _heralded_state(kept, c, s)
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


