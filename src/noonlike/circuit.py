"""Heralded state-generation circuit, evaluated on its photon budget only.

Every element is passive and conserves total photon number, so the whole
circuit is one m x m mode matrix U plus a global phase: input creation
operators map as a_j^dag -> sum_k U[k][j] a_k^dag, and the constant phase
of each phase shifter only multiplies the whole state.  Heralding on
``herald_count`` photons and keeping at most ``max_output_photons`` in the
output modes reads only sectors with exactly ``herald_count`` in the herald
mode and at most ``max_output_photons`` in the others.  Creation operators
only add photons, so only the sectors with at most as many in each group
feed them: a downward-closed set, 30 of the 56 sectors within the photon
budget (their sum, 5) of the reference topology.  The simulator therefore
expands each input mode's Fock amplitudes up to the budget, applies the
image of its creation operator under U to an amplitude vector over that
set, ``budget_amplitudes(states, u, budget, phase, herald=(mode, count))``,
and reads the heralded sectors off exactly.  Nothing above the budget is
built, so nothing is truncated: ``run_experiment``'s ``cutoff`` is still
accepted, and must still be at least the budget, but it changes no result.

Everything that depends on the config alone is built once, on its first
run, by ``_compiled``, the module's one cache, keyed on the
``CircuitConfig``: the budget, the global phase, the kept sectors with
their flat output indices, and per input mode j the table of
b_j^dag = sum_k U[k][j] a_k^dag over the sectors, indexed by source
sector, with U[k][j] times the creation operator's weight multiplied out
and the pairs of a zero U[k][j] dropped.  ``run_experiment`` then does
only the work that depends on r, in two kernels: one applies the tables,
with one complex multiply-add per nonzero amplitude and table pair (176
for the reference circuit at r = 1, where scanning every
creation-operator entry at each photon step reads 420), and one selects
the kept sectors.  ``budget_amplitudes`` and ``post_select`` share the
kernels but build their tables and index on each call.  The result is
bit-identical to applying a_0^dag, a_1^dag, ... one at a time, since the
sectors are in lexicographic order: the sources of a sector dst arrive as
dst - e_0 < dst - e_1 < ..., the order of k.

The state is plain Python throughout, nested lists and tuples, since the
reference circuit needs only 30 sectors.

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
from collections.abc import Iterable, Sequence

from .errors import EmptyPostSelection, ModeOutOfRange, NoonlikeError
from .families import Family, SweepCurve, matched_report
from .qcrb import Balanced, ProbeSpec, _check_ordered, noon_qcrb, qcrb_closed_form
from .states import Coherent, Fock, FockSuperposition, SingleModeState, SqueezedVacuum
from .states import _build_amps, _Frozen

__all__ = [
    "BeamSplitter",
    "PhaseShifter",
    "CircuitElement",
    "CircuitConfig",
    "ExperimentResult",
    "mode_matrix",
    "budget_amplitudes",
    "post_select",
    "run_experiment",
    "verify_noonlike_form",
    "experiment_qcrb_comparison",
    "default_circuit_config",
    "pump_amplitude",
    "heralded_target_amplitudes",
    "heralded_success_probability",
]


class BeamSplitter(_Frozen):
    __slots__ = ("mode_a", "mode_b", "transmissivity", "convention")

    def __init__(
        self, mode_a: int, mode_b: int, transmissivity: float = 0.5, convention: str = "symmetric"
    ):
        if mode_a == mode_b:
            raise ValueError("beam splitter needs two distinct modes")
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
        for name, phase in (("const_phase", const_phase), ("per_photon_phase", per_photon_phase)):
            if not math.isfinite(phase):
                raise ValueError(f"{name} must be finite, got {phase}")
        self._assign(mode, const_phase, per_photon_phase)


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
        ints = []
        for name, value in (("coherent_mode", coherent_mode), ("squeezed_mode", squeezed_mode),
                            ("herald_mode", herald_mode), ("herald_count", herald_count),
                            ("max_output_photons", max_output_photons)):
            try:  # a float would fail only inside a run, naming no field
                ints.append(operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
        coherent_mode, squeezed_mode, herald_mode, herald_count, max_output_photons = ints
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


def _raising_tables(
    u: Sequence[Sequence[complex]], budget: int, herald: tuple[int, int] | None
) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """Occupations within ``budget`` and, per input mode, its image b_j^dag on them.

    Returns (occs, tables).  occs[i] is the occupation tuple of sector i, in
    lexicographic order: every sector within the budget, or with
    ``herald=(mode, count)`` those that can feed that herald.
    tables[j][src] lists the (dst, w) pairs of b_j^dag = sum_k u[k][j] a_k^dag
    that map sector src to w times sector dst, w = u[k][j] * sqrt(occ[k] + 1),
    in k order, for every dst in the set.  A zero u[k][j] contributes no pair.
    """
    grid = itertools.product(range(budget + 1), repeat=len(u))
    if herald is None:
        occs = tuple(occ for occ in grid if sum(occ) <= budget)
    else:
        h, count = herald
        occs = tuple(o for o in grid if o[h] <= count and sum(o) - o[h] <= budget - count)
    index = {occ: i for i, occ in enumerate(occs)}
    tables = [[[] for _ in occs] for _ in u]
    for k, row in enumerate(u):
        for src, occ in enumerate(occs):
            dst = index.get(occ[:k] + (occ[k] + 1,) + occ[k + 1 :])
            if dst is not None:
                weight = math.sqrt(occ[k] + 1)
                for ukj, table in zip(row, tables):
                    if ukj:
                        table[src].append((dst, ukj * weight))
    return occs, tuple(tuple(map(tuple, table)) for table in tables)


def _apply_tables(
    states: Sequence[SingleModeState], tables: Sequence, size: int, budget: int, phase: float
) -> list[complex]:
    """``budget_amplitudes``'s amps over ``size`` sectors, from ``_raising_tables``'s tables."""
    vec = [0j] * size
    vec[0] = complex(math.cos(phase), math.sin(phase))
    for state, table in zip(states, tables):
        c = _build_amps(state, budget)
        acc = [c[0] * v for v in vec]
        term = vec  # (b_j^dag)^n / sqrt(n!) applied to the modes done so far
        for n in range(1, max((n for n, cn in enumerate(c) if cn), default=0) + 1):
            # w * term[src] * (1 / sqrt(n)), summed per dst from +0 in the
            # order of src, which is the order of k (see the module
            # docstring); a zero factor would add a signed zero, which
            # leaves such a sum unchanged, so it is skipped
            inv = 1.0 / math.sqrt(n)
            raised = [0j] * size
            for src, t in enumerate(term):
                if t:
                    for dst, w in table[src]:
                        raised[dst] += w * t * inv
            term = raised
            cn = c[n]
            if cn:  # a zero product could change only the sign of a zero amplitude
                for i, t in enumerate(term):
                    if t:
                        acc[i] += cn * t
        vec = acc
    return vec


def budget_amplitudes(
    per_mode_states: Sequence[SingleModeState],
    u: Sequence[Sequence[complex]],
    budget: int,
    global_phase: float = 0.0,
    herald: tuple[int, int] | None = None,
) -> tuple[tuple[tuple[int, ...], ...], list[complex]]:
    """Output amplitudes of every occupation with at most ``budget`` photons.

    The output state is exp(i global_phase) prod_j f_j(b_j^dag) |0>, where
    b_j^dag = sum_k u[k][j] a_k^dag is the image of input mode j and
    f_j(x) = sum_n c_jn x^n / sqrt(n!) holds its Fock amplitudes c_jn.
    Creation operators only add photons, so applying them on the sectors
    within the budget, and dropping what leaves it, gives those sectors'
    amplitudes exactly.

    ``herald=(mode, count)`` keeps only the sectors that can feed ``count``
    photons in ``mode``, a downward-closed set (see the module docstring);
    each kept amplitude is bit-identical to the one without it.

    Each call builds the tables that ``run_experiment`` compiles once per
    config (see the module docstring).

    Returns (occs, amps): amps[i] is the amplitude of the occupation occs[i],
    a tuple of tuples in lexicographic order.  Every sector has an entry,
    zero amplitudes included.
    """
    m = len(per_mode_states)
    if len(u) != m or any(len(row) != m for row in u):
        raise ValueError(f"mode matrix is not {m} x {m}, the number of input modes")
    if budget < 0 or herald and not (0 <= herald[0] < m and 0 <= herald[1] <= budget):
        raise ValueError(f"no sector within budget {budget} and herald {herald} on {m} modes")
    occs, tables = _raising_tables(u, budget, herald)
    return occs, _apply_tables(per_mode_states, tables, len(occs), budget, global_phase)


def _kept_sectors(
    occs: Sequence[Sequence[int]], herald_mode: int, herald_count: int,
    output_modes: Sequence[int], max_output_photons: int,
) -> tuple[tuple[int, int], ...]:
    """(sector, row-major output index) of each sector ``post_select`` keeps, in sector order."""
    side = max_output_photons + 1
    kept = []
    for src, occ in enumerate(occs):
        if occ[herald_mode] != herald_count:
            continue
        out = [occ[k] for k in output_modes]
        if sum(out) <= max_output_photons:
            i = 0
            for n in out:
                i = i * side + n
            kept.append((src, i))
    return tuple(kept)


def _select_kept(
    amps: Sequence[complex], kept: Sequence[tuple[int, int]], herald_mode: int,
    herald_count: int, output_count: int, max_output_photons: int,
) -> tuple[list, float]:
    """``post_select`` on the (sector, output index) pairs of ``_kept_sectors``."""
    side = max_output_photons + 1
    kept = [(i, amps[src]) for src, i in kept]
    mass = sum(abs(a) ** 2 for _, a in kept)
    if not mass > 0.0:  # NaN fails too
        raise EmptyPostSelection(
            f"herald {herald_count} photon(s) in mode {herald_mode} kept no mass"
        )
    state = [0j] * side ** output_count
    scale = 1.0 / math.sqrt(mass)
    for i, amp in kept:
        state[i] = amp * scale
    for _ in range(output_count - 1):  # nest the flat list, the last output mode innermost
        state = [state[i : i + side] for i in range(0, len(state), side)]
    return state, mass


def post_select(
    occs: Sequence[Sequence[int]],
    amps: Sequence[complex],
    herald_mode: int,
    herald_count: int,
    output_modes: Sequence[int],
    max_output_photons: int,
) -> tuple[list, float]:
    """Condition on an exact herald count and an output photon budget.

    ``occs`` and ``amps`` are the occupations and amplitudes that
    ``budget_amplitudes`` returns; the herald mode and one or more output
    modes must partition its modes.  Keeps the amplitudes with exactly
    ``herald_count`` photons in the herald mode and at most
    ``max_output_photons`` in the output modes combined, and renormalizes
    them over the kept mass.

    Returns (state, success_prob).  state is nested lists, one level per
    output mode, each of length ``max_output_photons + 1``:
    state[n_1][n_2]...[n_k] is the amplitude of n_i photons in
    ``output_modes[i]``.  success_prob is the kept mass, an absolute
    probability, since the amplitudes are those of the normalized circuit
    output.
    """
    if herald_count < 0:
        raise ValueError("herald_count must be >= 0")
    modes = list(output_modes)
    m = len(occs[0])
    if not modes or sorted(modes + [herald_mode]) != list(range(m)):
        raise ValueError(
            f"herald mode plus one or more output modes must partition the {m} modes"
        )
    kept = _kept_sectors(occs, herald_mode, herald_count, modes, max_output_photons)
    return _select_kept(amps, kept, herald_mode, herald_count, len(modes), max_output_photons)


def _noonlike_decomposition(state: list[list[complex]]) -> tuple[list[complex], float, float]:
    """Extract (phi, fidelity, branch_phase) from a two-mode state.

    ``state[j][k]`` is the amplitude of j and k photons in the two modes, as
    ``post_select`` returns it.  phi is read off column 0 (scaled by
    sqrt(2)); the branch phase beta is fitted so that
    (|phi>|0> + e^{i beta}|0>|phi>)/sqrt(2) best matches row 0, and the
    fidelity is the squared overlap with that reconstruction.
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


def verify_noonlike_form(state: list[list[complex]]) -> tuple[list[complex], float]:
    """Candidate branch amplitudes and fidelity to the two-branch form.

    ``state`` is a two-mode amplitude array as ``post_select`` returns it.
    Low fidelity is a returned value, never an error.
    """
    phi, fidelity, _ = _noonlike_decomposition(state)
    return phi, fidelity


def pump_amplitude(r: float) -> float:
    """Coherent amplitude matched to the squeeze factor: alpha^2 = 3 tanh(r)/2."""
    if r <= 0.0:
        raise ValueError(f"squeeze factor must be positive, got {r}")
    return math.sqrt(1.5 * math.tanh(r))


def heralded_target_amplitudes(r: float) -> list[complex]:
    """Reference amplitudes c_0..c_4 of the heralded branch state.

    c_n = i^n |c_n| with magnitudes (2 sqrt(2), 2 sqrt(3 t), 2 sqrt(3) t,
    3 t^{3/2}) / g and g^2 = 8 + 12 t + 12 t^2 + 9 t^3, t = tanh(r).
    """
    t = math.tanh(r)
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
    t = math.tanh(r)
    g2 = 8.0 + 12.0 * t + 12.0 * t * t + 9.0 * t**3
    return t * t * g2 * math.exp(-1.5 * t) / (32.0 * math.cosh(r))


@functools.lru_cache
def _compiled(cfg: CircuitConfig) -> tuple:
    """(budget, global phase, ``_raising_tables`` tables, ``_kept_sectors`` index) of ``cfg``.

    The tables span the sectors that can feed the herald.
    """
    budget = cfg.herald_count + cfg.max_output_photons
    u, phase = mode_matrix(cfg.elements, 3)
    occs, tables = _raising_tables(u, budget, (cfg.herald_mode, cfg.herald_count))
    outputs = [k for k in range(3) if k != cfg.herald_mode]
    kept = _kept_sectors(occs, cfg.herald_mode, cfg.herald_count, outputs, cfg.max_output_photons)
    return budget, phase, tables, kept


def run_experiment(
    r: float, config: CircuitConfig | None = None, cutoff: int | None = None
) -> ExperimentResult:
    """Simulate the heralded source at squeeze factor ``r``.

    The coherent amplitude is set by the pump condition.  Only the sectors
    within the photon budget ``herald_count + max_output_photons`` are
    evaluated, and exactly (see the module docstring), so the result does
    not depend on ``cutoff``; a cutoff below the budget is still rejected.
    """
    cfg = config if config is not None else default_circuit_config()
    budget, phase, tables, kept = _compiled(cfg)
    if cutoff is not None and cutoff < budget:
        raise ValueError("cutoff below the heralded photon budget")
    per_mode: list[SingleModeState] = [Fock(0)] * 3
    per_mode[cfg.squeezed_mode] = SqueezedVacuum(r)  # first, so that an r out of range is named
    per_mode[cfg.coherent_mode] = Coherent(pump_amplitude(r))
    amps = _apply_tables(per_mode, tables, len(tables[0]), budget, phase)
    state, success_prob = _select_kept(
        amps, kept, cfg.herald_mode, cfg.herald_count, 2, cfg.max_output_photons
    )
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
    r_grid = tuple(r_grid)
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("r_grid must be non-decreasing")
    noon_pts, ecs_pts, phi_pts = [], [], []
    for r in r_grid:
        result = run_experiment(r, cutoff=cutoff)
        scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in result.phi_amps))
        phi_state = FockSuperposition(tuple(c * scale for c in result.phi_amps))
        q_phi = qcrb_closed_form(ProbeSpec(1, phi_state, Balanced())).qcrb
        n_bar = result.n_bar
        q_noon = noon_qcrb(1, n_bar)
        q_ecs = matched_report(Family.ECS, 1, n_bar).qcrb
        _check_ordered([q_ecs, q_phi, q_noon], "ECS < heralded < NOON", f"r={r}", increasing=True)
        noon_pts.append((n_bar, q_noon, r))
        ecs_pts.append((n_bar, q_ecs, r))
        phi_pts.append((n_bar, q_phi, r))
    return SweepCurve(tuple(noon_pts)), SweepCurve(tuple(ecs_pts)), SweepCurve(tuple(phi_pts))


