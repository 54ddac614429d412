"""Heralded state-generation circuit, evaluated on its photon budget only.

Every element is passive and conserves total photon number, so the whole
circuit is one m x m mode matrix U plus a global phase: input creation
operators map as a_j^dag -> sum_k U[k][j] a_k^dag, and the constant phase
of each phase shifter only multiplies the whole state.  Heralding on
``herald_count`` photons and keeping at most ``max_output_photons`` in the
output modes reads only sectors with at most their sum (the photon budget,
5 for the reference topology) photons in total, and those sectors are fed
only by input terms with the same photon numbers.  The simulator therefore
expands each input mode's Fock amplitudes up to the budget, applies the
image of its creation operator under U to an amplitude vector over the
sectors within the budget, and reads the heralded sectors off exactly.
Nothing above the budget is built, so nothing is truncated: the config's
``cutoff`` is still accepted, and must still be at least the budget, but it
changes no result.

The state is plain Python throughout, since the reference budget holds
only 56 sectors: U is nested lists, ``budget_amplitudes`` gives one
amplitude per sector of a cached occupation tuple, and ``post_select``
gives nested lists indexed by the output occupations, whose column 0 and
row 0 hold the two branches that the decomposition reads.

Mode indexing is 0-based throughout the API; the circuit-config text format
uses 1-based labels (the conventional numbering of the three-mode setup)
and the parser converts.

Beam splitter conventions (transmitted amplitude sqrt(T) on both ports):

* ``symmetric`` - reflection picks up a phase i from either side.
* ``real``      - reflection amplitudes -sqrt(1-T) from the first port and
  +sqrt(1-T) from the second.

The shipped reference topology splits the squeezed-vacuum input first and
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
import re
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyPostSelection, ModeOutOfRange, NoonlikeError, OrderingViolation
from .families import Family, SweepCurve, matched_report
from .qcrb import Balanced, ProbeSpec, noon_qcrb, qcrb_closed_form
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
    "parse_circuit_config",
    "load_circuit_config",
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
        self._assign(mode, const_phase, per_photon_phase)


CircuitElement = BeamSplitter | PhaseShifter


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
    __slots__ = (
        "mode_count", "coherent_mode", "squeezed_mode", "elements", "herald_mode",
        "herald_count", "output_modes", "max_output_photons", "cutoff",
    )

    def __init__(
        self, mode_count: int, coherent_mode: int, squeezed_mode: int,
        elements: tuple[CircuitElement, ...], herald_mode: int, herald_count: int,
        output_modes: tuple[int, ...], max_output_photons: int, cutoff: int,
    ):
        modes = range(mode_count)
        used = (coherent_mode, squeezed_mode, herald_mode, *output_modes)
        if any(m not in modes for m in used):
            raise ModeOutOfRange(f"config references modes outside 0..{mode_count - 1}")
        if coherent_mode == squeezed_mode:
            raise ValueError("coherent and squeezed inputs must enter distinct modes")
        if set(output_modes) | {herald_mode} != set(modes) or len(set(output_modes)) != len(
            output_modes
        ) or herald_mode in output_modes:
            raise ValueError("herald mode plus output modes must partition the modes")
        if cutoff < herald_count + max_output_photons:
            raise ValueError("cutoff below herald_count + max_output_photons")
        self._assign(
            mode_count, coherent_mode, squeezed_mode, elements, herald_mode, herald_count,
            output_modes, max_output_photons, cutoff,
        )


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
        modes = (e.mode_a, e.mode_b) if isinstance(e, BeamSplitter) else (e.mode,)
        if any(not 0 <= m < mode_count for m in modes):
            raise ModeOutOfRange(f"element modes {modes} outside 0..{mode_count - 1}")
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


@functools.cache
def _creation_operators(mode_count: int, budget: int) -> tuple:
    """Occupations of at most ``budget`` photons and the entries of a_k^dag on them.

    Returns (occs, ops): occs[i] is the occupation tuple of sector i, and
    ops[k] lists the (src, dst, weight) entries of a_k^dag, which maps
    sector src to weight times sector dst, for every entry that stays
    within the budget.  Both are tuples, shared by every caller.
    """
    grid = itertools.product(range(budget + 1), repeat=mode_count)
    occs = tuple(occ for occ in grid if sum(occ) <= budget)
    index = {occ: i for i, occ in enumerate(occs)}
    ops = []
    for k in range(mode_count):
        entries = []
        for i, occ in enumerate(occs):
            raised = occ[:k] + (occ[k] + 1,) + occ[k + 1 :]
            if raised in index:
                entries.append((i, index[raised], math.sqrt(occ[k] + 1)))
        ops.append(tuple(entries))
    return occs, tuple(ops)


def budget_amplitudes(
    per_mode_states: Sequence[SingleModeState],
    u: Sequence[Sequence[complex]],
    budget: int,
    global_phase: float = 0.0,
) -> tuple[tuple[tuple[int, ...], ...], list[complex]]:
    """Output amplitudes of every occupation with at most ``budget`` photons.

    The output state is exp(i global_phase) prod_j f_j(b_j^dag) |0>, where
    b_j^dag = sum_k u[k][j] a_k^dag is the image of input mode j and
    f_j(x) = sum_n c_jn x^n / sqrt(n!) holds its Fock amplitudes c_jn.
    Creation operators only add photons, so applying them on the sectors
    within the budget, and dropping what leaves it, gives those sectors'
    amplitudes exactly.

    Returns (occs, amps): amps[i] is the amplitude of the occupation occs[i],
    a tuple of tuples shared by every call with the same mode count and
    budget.  Every sector has an entry, zero amplitudes included.
    """
    m = len(per_mode_states)
    if len(u) != m or any(len(row) != m for row in u):
        raise ValueError(f"mode matrix is not {m} x {m}, the number of input modes")
    occs, ops = _creation_operators(m, budget)
    size = len(occs)
    vec = [0j] * size
    vec[0] = complex(math.cos(global_phase), math.sin(global_phase))
    for j, state in enumerate(per_mode_states):
        c = _build_amps(state, budget)
        acc = [c[0] * v for v in vec]
        term = vec  # (b_j^dag)^n / sqrt(n!) applied to the modes done so far
        for n in range(1, max((n for n, cn in enumerate(c) if cn), default=0) + 1):
            # (u[k][j] * weight) * term[src] * (1 / sqrt(n)), summed per dst from +0
            # in entry order; a zero factor would add a signed zero, which
            # leaves such a sum unchanged, so it is skipped
            inv = 1.0 / math.sqrt(n)
            raised = [0j] * size
            for k, entries in enumerate(ops):
                ukj = u[k][j]
                if ukj:
                    for src, dst, weight in entries:
                        t = term[src]
                        if t:
                            raised[dst] += ukj * weight * t * inv
            term = raised
            cn = c[n]
            if cn:  # a zero product could change only the sign of a zero amplitude
                for i, t in enumerate(term):
                    if t:
                        acc[i] += cn * t
        vec = acc
    return occs, vec


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
    side = max_output_photons + 1
    kept = []  # (row-major index of the output occupation, amplitude)
    for occ, amp in zip(occs, amps):
        out = [occ[k] for k in modes]
        if occ[herald_mode] == herald_count and sum(out) <= max_output_photons:
            kept.append((functools.reduce(lambda i, n: i * side + n, out), amp))
    mass = sum(abs(a) ** 2 for _, a in kept)
    if mass < 1e-15:
        raise EmptyPostSelection(
            f"herald {herald_count} photon(s) in mode {herald_mode} kept no mass"
        )
    state = [0j] * side ** len(modes)
    scale = 1.0 / math.sqrt(mass)
    for i, amp in kept:
        state[i] = amp * scale
    for _ in modes[1:]:  # nest the flat list, the last output mode innermost
        state = [state[i : i + side] for i in range(0, len(state), side)]
    return state, mass


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


def run_experiment(
    r: float,
    config: CircuitConfig | None = None,
    cutoff: int | None = None,
) -> ExperimentResult:
    """Simulate the heralded source at squeeze factor ``r``.

    The coherent amplitude is set by the pump condition.  Only the sectors
    within the photon budget ``herald_count + max_output_photons`` are
    evaluated, and exactly (see the module docstring), so the result does
    not depend on ``cutoff``; a cutoff below the budget is still rejected.
    """
    cfg = config if config is not None else default_circuit_config()
    cut = cfg.cutoff if cutoff is None else cutoff
    budget = cfg.herald_count + cfg.max_output_photons
    if cut < budget:
        raise ValueError("cutoff below the heralded photon budget")
    per_mode: list[SingleModeState] = [Fock(0)] * cfg.mode_count
    per_mode[cfg.coherent_mode] = Coherent(pump_amplitude(r))
    per_mode[cfg.squeezed_mode] = SqueezedVacuum(r)
    u, phase = mode_matrix(cfg.elements, cfg.mode_count)
    occs, amps = budget_amplitudes(per_mode, u, budget, phase)
    state, success_prob = post_select(
        occs, amps, cfg.herald_mode, cfg.herald_count, cfg.output_modes, cfg.max_output_photons
    )
    phi, fidelity, beta = _noonlike_decomposition(state)

    probs = [abs(c) ** 2 for c in phi]
    norm = sum(probs)
    if abs(norm - 1.0) > 1e-10:
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
    r_grid: Sequence[float],
    config: CircuitConfig | None = None,
    cutoff: int | None = None,
) -> tuple[SweepCurve, SweepCurve, SweepCurve]:
    """Bound of the heralded state vs effective-NOON and ECS at matched n_bar.

    Returns (noon_curve, ecs_curve, phi_curve); enforces the strict ordering
    ECS < heralded state < NOON at every grid point.
    """
    noon_pts, ecs_pts, phi_pts = [], [], []
    for r in r_grid:
        result = run_experiment(r, config=config, cutoff=cutoff)
        scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in result.phi_amps))
        phi_state = FockSuperposition(tuple(c * scale for c in result.phi_amps))
        q_phi = qcrb_closed_form(ProbeSpec(1, phi_state, Balanced())).qcrb
        n_bar = result.n_bar
        q_noon = noon_qcrb(1, n_bar)
        q_ecs = matched_report(Family.ECS, 1, n_bar).qcrb
        if not q_ecs < q_phi < q_noon:
            raise OrderingViolation(
                f"expected ECS < heralded < NOON at r={r}: {q_ecs}, {q_phi}, {q_noon}"
            )
        noon_pts.append((n_bar, q_noon, r))
        ecs_pts.append((n_bar, q_ecs, r))
        phi_pts.append((n_bar, q_phi, r))
    return (
        SweepCurve(tuple(noon_pts), label="noon_effective"),
        SweepCurve(tuple(ecs_pts), label="ecs"),
        SweepCurve(tuple(phi_pts), label="heralded"),
    )


# --------------------------- config file handling ---------------------------

_PHASE_RE = re.compile(r"^(?P<sign>[+-]?)(?P<coef>\d+(?:\.\d+)?)?pi(?:/(?P<div>\d+))?$")


def _parse_phase(token: str) -> float:
    token = token.strip().lower()
    m = _PHASE_RE.match(token)
    if m:
        value = math.pi * float(m.group("coef") or 1.0)
        if m.group("div"):
            value /= float(m.group("div"))
        return -value if m.group("sign") == "-" else value
    return float(token)


def _value(rest: list[str]) -> str:
    """The one value token of a line; IndexError when it is missing."""
    if len(rest) > 1:
        raise ValueError(f"unexpected tokens {rest[1:]}")
    return rest[0]


def _kv(parts: Iterable[str], keys: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        if key not in keys:
            raise ValueError(f"unknown key {key!r}")
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = val
    return out


def _parse_line(
    words: list[str], fields: dict[str, object], elements: list[CircuitElement]
) -> None:
    """Parse one config line into ``fields`` or ``elements``."""
    head, *rest = words
    if head == "modes":
        fields["mode_count"] = int(_value(rest))
    elif head == "coherent-input":
        fields["coherent_mode"] = int(_value(rest)) - 1
    elif head == "squeezed-input":
        fields["squeezed_mode"] = int(_value(rest)) - 1
    elif head == "cutoff":
        fields["cutoff"] = int(_value(rest))
    elif head == "max-output-photons":
        fields["max_output_photons"] = int(_value(rest))
    elif head == "outputs":
        fields["output_modes"] = tuple(int(tok) - 1 for tok in _value(rest).split(","))
    elif head == "herald":
        kv = _kv(rest, ("mode", "count"))
        fields["herald_mode"] = int(kv["mode"]) - 1
        fields["herald_count"] = int(kv["count"])
    elif head == "element":
        kind, params = rest[0], rest[1:]
        if kind == "beamsplitter":
            kv = _kv(params, ("modes", "transmissivity", "convention"))
            a, b = (int(tok) - 1 for tok in kv["modes"].split(","))
            elements.append(
                BeamSplitter(
                    a,
                    b,
                    transmissivity=float(kv.get("transmissivity", 0.5)),
                    convention=kv.get("convention", "symmetric"),
                )
            )
        elif kind == "phaseshifter":
            kv = _kv(params, ("mode", "const", "per-photon"))
            elements.append(
                PhaseShifter(
                    int(kv["mode"]) - 1,
                    const_phase=_parse_phase(kv.get("const", "0")),
                    per_photon_phase=_parse_phase(kv.get("per-photon", "0")),
                )
            )
        else:
            raise ValueError(f"unknown element kind {kind!r}")
    else:
        raise ValueError(f"unknown keyword {head!r}")


def parse_circuit_config(text: str) -> CircuitConfig:
    """Parse the structured key-value circuit description.

    Lines (1-based mode labels; '#' starts a comment):

        modes N
        coherent-input M
        squeezed-input M
        cutoff N
        element beamsplitter modes=A,B transmissivity=T convention=symmetric|real
        element phaseshifter mode=M const=PHI per-photon=PHI
        herald mode=M count=N
        outputs A,B,...
        max-output-photons N

    Every line but ``element`` appears once and every key at most once per
    line; a repeated line or key, a missing one, an unknown one or a stray
    token is a ValueError that quotes the line.  Phases accept radians or
    'pi' fractions like -pi/2.  ``cutoff`` must be at least herald count +
    max-output-photons; it is kept for compatibility and changes no result,
    since the simulator evaluates only the heralded photon budget.
    """
    fields: dict[str, object] = {}
    elements: list[CircuitElement] = []
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] in seen and words[0] != "element":
            raise ValueError(f"config line {line!r}: repeated {words[0]!r} line")
        seen.add(words[0])
        try:
            _parse_line(words, fields, elements)
        except IndexError as exc:
            raise ValueError(f"config line {line!r}: missing value") from exc
        except KeyError as exc:
            raise ValueError(f"config line {line!r}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"config line {line!r}: {exc}") from exc
    missing = set(CircuitConfig.__slots__) - {"elements"} - set(fields)
    if missing:
        raise ValueError(f"config missing fields: {sorted(missing)}")
    return CircuitConfig(elements=tuple(elements), **fields)  # type: ignore[arg-type]


def load_circuit_config(path: str | Path) -> CircuitConfig:
    return parse_circuit_config(Path(path).read_text())


@functools.cache
def default_circuit_config() -> CircuitConfig:
    """The shipped reference topology (see the module docstring).

    Parsed on first use and shared afterwards; the config is frozen.
    """
    text = resources.files("noonlike").joinpath("data/reference_circuit.cfg").read_text()
    return parse_circuit_config(text)
