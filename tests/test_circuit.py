import functools
import itertools
import math
import re

import numpy as np
import pytest

from noonlike import (
    Coherent,
    EmptyPostSelection,
    Fock,
    ModeOutOfRange,
    NoonlikeError,
    ParameterOutOfRange,
    SqueezedVacuum,
    circuit,
    fock_amplitudes,
)
from noonlike.circuit import (
    BeamSplitter,
    CircuitConfig,
    ExperimentResult,
    PhaseShifter,
    default_circuit_config,
    experiment_qcrb_comparison,
    heralded_success_probability,
    heralded_target_amplitudes,
    mode_matrix,
    pump_amplitude,
    run_experiment,
)
from noonlike.states import _R_RANGE


def _heralded(cfg, coherent, squeezed):
    """``run_experiment``'s kernel on ``cfg`` with these states in its two input slots.

    Returns ``_heralded_state``'s (state, success_prob).
    """
    budget, kept = circuit._compiled(cfg)
    amps = (state.amplitudes(budget) for state in (coherent, squeezed))
    return circuit._heralded_state(kept, *amps, cfg)


def _nonzero(state):
    """The nonzero amplitudes of a two-mode state, keyed by (n_1, n_2)."""
    return {(n1, n2): a for n1, row in enumerate(state) for n2, a in enumerate(row) if a != 0}


class TestInject:
    """How the two inputs' Fock amplitudes enter the kept sectors."""

    def test_all_vacuum(self):
        state, prob = _heralded(CircuitConfig(0, 1, (), 2, 0, 5), Fock(0), Fock(0))
        assert prob == 1.0 and _nonzero(state) == {(0, 0): 1.0}

    def test_product_amplitudes(self):
        # no elements and no herald photon keep every product c_j s_k within the budget
        alpha, r, budget = 0.9, 0.8, 5
        cfg = CircuitConfig(0, 1, (), 2, 0, budget)
        state, prob = _heralded(cfg, Coherent(alpha), SqueezedVacuum(r))
        coh = fock_amplitudes(Coherent(alpha), n_max=budget, tail_tol=math.inf).amps
        sv = fock_amplitudes(SqueezedVacuum(r), n_max=budget, tail_tol=math.inf).amps
        expected = {
            (j, k): coh[j] * sv[k]
            for j in range(budget + 1)
            for k in range(budget + 1 - j)
            if coh[j] * sv[k] != 0
        }
        assert prob == pytest.approx(sum(abs(a) ** 2 for a in expected.values()), rel=1e-12)
        amps = _nonzero(state)
        assert set(amps) == set(expected)
        for occ, amp in amps.items():
            assert amp * math.sqrt(prob) == pytest.approx(expected[occ], rel=1e-12)

    def test_zero_budget_keeps_the_vacuum(self):
        state, prob = _heralded(CircuitConfig(0, 1, (), 2, 0, 0), Coherent(0.5), Fock(0))
        assert prob == pytest.approx(math.exp(-0.25), rel=1e-15)
        assert _nonzero(state) == {(0, 0): pytest.approx(1.0, rel=1e-15)}

    def test_transfer_table_layout(self):
        # one entry per kept output, in (n_1, n_2) order; each term reads the
        # inputs' amplitudes of the sector's photon number, herald photon included
        budget, kept = circuit._compiled(default_circuit_config())
        assert budget == 5
        assert [(n1, n2) for n1, n2, _ in kept] == [
            (n1, n2) for n1 in range(5) for n2 in range(5 - n1)
        ]
        for n1, n2, terms in kept:
            assert terms and all(m + k == 1 + n1 + n2 and t != 0 for m, k, t in terms)


def _no_herald(elements, max_out):
    """A config of ``elements`` that heralds no photon in mode 2.

    With the coherent and squeezed inputs in modes 0 and 1, it keeps every
    sector of those two modes within ``max_out`` photons.
    """
    return CircuitConfig(0, 1, tuple(elements), 2, 0, max_out)


class TestElements:
    def test_vacuum_unchanged(self):
        # vacuum survives any element (a constant phase is global)
        for element in (BeamSplitter(0, 1), PhaseShifter(0, 1.0, 2.0)):
            state, prob = _heralded(_no_herald([element], 4), Fock(0), Fock(0))
            amps = _nonzero(state)
            assert set(amps) == {(0, 0)} and prob == pytest.approx(1.0, abs=1e-14)
            assert abs(amps[(0, 0)]) == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_symmetric_split(self):
        u, phase = mode_matrix([BeamSplitter(0, 1)], 2)
        assert phase == 0.0
        column = [row[0] for row in u]
        assert column == pytest.approx([1 / math.sqrt(2), 1j / math.sqrt(2)], rel=1e-12)
        state, _ = _heralded(_no_herald([BeamSplitter(0, 1)], 2), Fock(1), Fock(0))
        assert state[1][0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert state[0][1] == pytest.approx(1j / math.sqrt(2), rel=1e-12)

    def test_single_photon_real_split(self):
        splitter = BeamSplitter(0, 1, convention="real")
        u, _ = mode_matrix([splitter], 2)
        column = [row[0] for row in u]
        assert column == pytest.approx([1 / math.sqrt(2), -1 / math.sqrt(2)], rel=1e-12)
        state, _ = _heralded(_no_herald([splitter], 2), Fock(1), Fock(0))
        assert state[1][0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert state[0][1] == pytest.approx(-1 / math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_phase_shifter_number_dependence(self, n):
        shifter = PhaseShifter(0, math.pi, -math.pi / 2)
        u, phase = mode_matrix([shifter], 1)
        assert phase == math.pi
        expected = -1.0 * (-1j) ** n
        state, _ = _heralded(_no_herald([shifter], 6), Fock(n), Fock(0))
        assert _nonzero(state) == {(n, 0): pytest.approx(expected, rel=1e-12)}

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_norm_preserved(self, convention):
        elements = (
            BeamSplitter(0, 1, convention=convention),
            PhaseShifter(1, 0.3, -1.1),
            BeamSplitter(1, 2, transmissivity=0.3, convention=convention),
        )
        u, phase = mode_matrix(elements, 3)
        assert phase == 0.3
        u = np.array(u)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-14
        # number states within the budget keep their whole mass, spread over
        # the photon counts in mode 2
        total = 0.0
        for count in range(4):
            state, prob = _heralded(CircuitConfig(0, 1, elements, 2, count, 3 - count),
                                    Fock(1), Fock(2))
            assert all(n1 + n2 + count == 3 for n1, n2 in _nonzero(state))
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_double_beam_splitter_is_mode_swap(self, convention):
        bs = BeamSplitter(0, 1, convention=convention)
        u, phase = mode_matrix([bs, bs], 2)
        assert phase == 0.0
        assert np.abs(np.abs(np.array(u)) - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-15
        state, _ = _heralded(_no_herald([bs, bs], 3), Fock(2), Fock(1))
        amps = _nonzero(state)
        assert abs(amps[(1, 2)]) == pytest.approx(1.0, abs=1e-14)
        assert all(abs(a) <= 1e-14 for occ, a in amps.items() if occ != (1, 2))

    def test_mode_out_of_range(self):
        with pytest.raises(ModeOutOfRange):
            mode_matrix([BeamSplitter(0, 2)], 2)
        with pytest.raises(ModeOutOfRange):
            mode_matrix([PhaseShifter(-1)], 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["const_phase", "per_photon_phase"])
    def test_non_finite_phase_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PhaseShifter(0, **{field: value})

    @pytest.mark.parametrize("value", [True, np.False_], ids=["True", "np.False_"])
    @pytest.mark.parametrize("field", ["const_phase", "per_photon_phase"])
    def test_bool_phase_rejected(self, field, value):
        # PhaseShifter(0, True) stored const_phase=True
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got bool {value!r}$"):
            PhaseShifter(0, **{field: value})

    @pytest.mark.parametrize("field", ["mode_a", "mode_b", "mode"])
    @pytest.mark.parametrize("mode", [1.0, "1", None, True])
    def test_non_integer_modes_rejected(self, field, mode):
        # a float would build, and fail only inside a run, with a TypeError
        # that names no field
        build = {"mode_a": lambda m: BeamSplitter(m, 2), "mode_b": lambda m: BeamSplitter(1, m),
                 "mode": PhaseShifter}[field]
        message = f"^{field} must be an integer, got {re.escape(repr(mode))}$"
        with pytest.raises(TypeError, match=message):
            build(mode)

    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(mode_a=1, mode_b=1), "beam splitter needs two distinct modes"),
         (dict(transmissivity=1.0), r"transmissivity must be in \(0, 1\), got 1.0"),
         (dict(transmissivity=math.nan), r"transmissivity must be in \(0, 1\), got nan"),
         (dict(convention="lossy"), "unknown convention 'lossy'")],
        ids=["equal-modes", "transmissivity-1", "transmissivity-nan", "convention"],
    )
    def test_invalid_beam_splitter_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BeamSplitter(**dict(mode_a=0, mode_b=1) | kwargs)

    def test_integer_like_modes_stored_as_ints(self):
        splitter, shifter = BeamSplitter(np.int64(1), np.int64(2)), PhaseShifter(np.int64(1))
        assert splitter == BeamSplitter(1, 2) and shifter == PhaseShifter(1)
        assert [type(m) for m in (splitter.mode_a, splitter.mode_b, shifter.mode)] == [int] * 3


def _permanent(m: np.ndarray) -> complex:
    """Ryser's formula."""
    n = m.shape[0]
    total = 0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** (n - size) * np.prod(m[:, cols].sum(axis=1))
    return total if n else 1.0 + 0j


def _element_matrix(element, mode_count):
    """One element's mode matrix, from the conventions in the circuit module."""
    e = np.eye(mode_count, dtype=complex)
    if isinstance(element, PhaseShifter):
        e[element.mode, element.mode] = np.exp(1j * element.per_photon_phase)
        return e
    a, b = element.mode_a, element.mode_b
    tau, rho = math.sqrt(element.transmissivity), math.sqrt(1.0 - element.transmissivity)
    from_a, from_b = (1j * rho, 1j * rho) if element.convention == "symmetric" else (-rho, rho)
    e[a, a], e[b, a], e[a, b], e[b, b] = tau, from_a, from_b, tau
    return e


def _heralded_by_permanents(elements, states, herald_mode, herald_count, output_modes, max_out):
    """Post-selected output amplitudes and success probability, sector by sector.

    The amplitude of output occupation o is the sum over input occupations n
    with the same photon number of prod_j c_j[n_j] perm(U[o, n]) /
    sqrt(o! n!), where U[o, n] repeats row k o_k times and column j n_j times.
    """
    m = len(states)
    u = np.eye(m, dtype=complex)
    for element in elements:
        u = _element_matrix(element, m) @ u
    phase = np.exp(1j * sum(e.const_phase for e in elements if isinstance(e, PhaseShifter)))
    budget = herald_count + max_out
    coeffs = [fock_amplitudes(s, n_max=budget, tail_tol=math.inf).amps for s in states]
    fact = [math.factorial(k) for k in range(budget + 1)]
    kept = {}
    for out in itertools.product(range(max_out + 1), repeat=len(output_modes)):
        if sum(out) > max_out:
            continue
        occ = [0] * m
        occ[herald_mode] = herald_count
        for mode, k in zip(output_modes, out):
            occ[mode] = k
        total = sum(occ)
        rows = [k for k in range(m) for _ in range(occ[k])]
        amp = 0j
        for inp in itertools.product(range(total + 1), repeat=m):
            if sum(inp) != total:
                continue
            weight = np.prod([coeffs[j][inp[j]] for j in range(m)])
            if weight == 0:
                continue
            cols = [j for j in range(m) for _ in range(inp[j])]
            norm = math.sqrt(math.prod(fact[k] for k in occ) * math.prod(fact[k] for k in inp))
            amp += weight * _permanent(u[np.ix_(rows, cols)]) / norm
        kept[out] = phase * amp
    prob = sum(abs(a) ** 2 for a in kept.values())
    return {k: a / math.sqrt(prob) for k, a in kept.items()}, prob


def _random_beam_splitter(rng, a, b):
    return BeamSplitter(
        int(a),
        int(b),
        transmissivity=float(rng.uniform(0.05, 0.95)),
        convention=str(rng.choice(["symmetric", "real"])),
    )


def _random_case(seed):
    """A random three-mode config and its input states; herald count ``seed % 3``.

    The coherent and squeezed inputs take random amplitudes in their modes;
    the third mode holds the vacuum.
    """
    rng = np.random.default_rng(seed)
    # a chain of splitters through every mode, then random elements
    order = rng.permutation(3)
    elements = [_random_beam_splitter(rng, a, b) for a, b in zip(order, order[1:])]
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            elements.append(_random_beam_splitter(rng, *rng.choice(3, size=2, replace=False)))
        else:
            elements.append(
                PhaseShifter(
                    int(rng.integers(3)),
                    const_phase=float(rng.uniform(-math.pi, math.pi)),
                    per_photon_phase=float(rng.uniform(-math.pi, math.pi)),
                )
            )
    coherent, squeezed, third = (int(k) for k in rng.permutation(3))
    states = [Fock(0)] * 3
    states[coherent] = Coherent(float(rng.uniform(0.3, 1.2)))
    states[squeezed] = SqueezedVacuum(float(rng.uniform(0.3, 1.2)))
    herald_count = seed % 3
    max_out = int(rng.integers(1, 6 - herald_count))
    cfg = CircuitConfig(
        coherent, squeezed, tuple(elements), int(rng.integers(3)), herald_count, max_out
    )
    return cfg, states


class TestPermanentOracle:
    """``run_experiment``'s kernel against sector-by-sector permanents on random configs."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_passive_circuit(self, seed):
        cfg, states = _random_case(seed)
        max_out = cfg.max_output_photons
        want, want_prob = _heralded_by_permanents(
            cfg.elements, states, cfg.herald_mode, cfg.herald_count, _output_modes(cfg), max_out
        )
        state, prob = _heralded(cfg, states[cfg.coherent_mode], states[cfg.squeezed_mode])
        assert set(_nonzero(state)) <= set(want)
        state = np.array(state)
        assert state.shape == (max_out + 1, max_out + 1)
        assert prob == pytest.approx(want_prob, rel=1e-12)
        for occ, amp in want.items():
            assert abs(state[occ] - amp) <= 1e-12

    def test_cases_cover_the_space(self):
        cases = [_random_case(seed)[0] for seed in range(24)]
        assert {cfg.herald_mode for cfg in cases} == {0, 1, 2}
        assert {cfg.herald_count for cfg in cases} == {0, 1, 2}
        assert {(cfg.coherent_mode, cfg.squeezed_mode) for cfg in cases} == {
            (a, b) for a in range(3) for b in range(3) if a != b
        }
        conventions = {e.convention for c in cases for e in c.elements
                       if isinstance(e, BeamSplitter)}
        assert conventions == {"symmetric", "real"}

    def test_mode_matrix_matches_element_matrices(self):
        for seed in range(24):
            elements = _random_case(seed)[0].elements
            want = np.eye(3, dtype=complex)
            for element in elements:
                want = _element_matrix(element, 3) @ want
            u = np.array(mode_matrix(elements, 3)[0])
            assert np.abs(u - want).max() <= 1e-14
            assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-13

    def test_reference_circuit(self):
        cfg = default_circuit_config()
        states = [Coherent(pump_amplitude(1.2)), SqueezedVacuum(1.2), Fock(0)]
        want, want_prob = _heralded_by_permanents(
            cfg.elements, states, cfg.herald_mode, cfg.herald_count, (0, 1), cfg.max_output_photons
        )
        assert want_prob == pytest.approx(heralded_success_probability(1.2), rel=1e-12)
        res = run_experiment(1.2)
        assert res.success_prob == pytest.approx(want_prob, rel=1e-12)
        phi = [math.sqrt(2.0) * want.get((n, 0), 0.0) for n in range(5)]
        assert np.abs(np.array(res.phi_amps) - phi).max() <= 1e-12


class TestPostSelect:
    # herald one photon in mode 0, the coherent input's; the outputs are modes 1 and 2
    config = CircuitConfig(0, 1, (), 0, 1, 4)

    def test_single_branch_heralds_with_certainty(self):
        state, prob = _heralded(self.config, Fock(1), Fock(2))
        assert prob == pytest.approx(1.0, abs=1e-12)
        want = [[0j] * 5 for _ in range(5)]
        want[2][0] = pytest.approx(1.0)
        assert state == want

    def test_empty_selection(self):
        with pytest.raises(EmptyPostSelection, match="^herald 1 photon.s. in mode 0 kept no mass$"):
            _heralded(self.config, Fock(0), Fock(2))

    def test_reference_circuit_success_probability(self):
        res = run_experiment(1.0)
        assert 0.0 < res.success_prob < 1.0
        assert res.success_prob == pytest.approx(heralded_success_probability(1.0), rel=1e-12)


class TestCutoff:
    """The library's cutoff keyword is validated but changes no result."""

    def test_large_cutoff_identical(self):
        assert run_experiment(1.3, cutoff=60) == run_experiment(1.3)

    def test_below_budget_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(1.0, cutoff=4)

    @pytest.mark.parametrize("field", ["herald_count", "max_output_photons"])
    def test_negative_count_rejected(self, field):
        cfg = default_circuit_config()
        fields = {name: getattr(cfg, name) for name in CircuitConfig.__slots__} | {field: -1}
        with pytest.raises(ValueError, match=f"^{field} must be >= 0, got -1$"):
            CircuitConfig(**fields)

    def test_default_config_parsed_once(self):
        assert default_circuit_config() is default_circuit_config()


class TestConfigFields:
    def test_sequences_stored_as_tuples(self):
        # stored lists would make the config unhashable
        ref = default_circuit_config()
        cfg = CircuitConfig(0, 1, list(ref.elements), 2, 1, 4)
        assert cfg.elements == ref.elements
        assert cfg == ref and hash(cfg) == hash(ref)
        assert run_experiment(1.0, config=cfg) == run_experiment(1.0)

    @pytest.mark.parametrize(
        "element, modes", [(BeamSplitter(0, 7), (0, 7)), (PhaseShifter(-1), (-1,))]
    )
    def test_element_modes_checked_when_built(self, element, modes):
        with pytest.raises(ModeOutOfRange, match=rf"^element modes {re.escape(str(modes))} "
                                                 r"outside 0\.\.2$"):
            CircuitConfig(0, 1, (element,), 2, 1, 4)

    @pytest.mark.parametrize("mode", [-1, 3])
    def test_config_modes_checked_when_built(self, mode):
        with pytest.raises(ModeOutOfRange, match=r"^config references modes outside 0\.\.2$"):
            CircuitConfig(0, 1, (), mode, 1, 4)

    def test_inputs_enter_distinct_modes(self):
        with pytest.raises(ValueError, match="^coherent and squeezed inputs must enter distinct"):
            CircuitConfig(1, 1, (), 2, 1, 4)

    @pytest.mark.parametrize(
        "field, value",
        [("coherent_mode", 0.0), ("squeezed_mode", 1.0), ("herald_mode", "2"),
         ("herald_count", 1.5), ("max_output_photons", 4.0),
         ("herald_count", True), ("squeezed_mode", False)],
    )
    def test_non_integer_fields_rejected(self, field, value):
        # a float would build, and fail only inside a run, with a TypeError
        # that names no field
        fields = {name: getattr(default_circuit_config(), name) for name in CircuitConfig.__slots__}
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            CircuitConfig(**fields | {field: value})

    def test_integer_like_fields_stored_as_ints(self):
        ints = [np.int64(k) for k in (0, 1, 2, 1, 4)]
        cfg = CircuitConfig(*ints[:2], default_circuit_config().elements, *ints[2:])
        assert cfg == default_circuit_config()
        fields = [getattr(cfg, name) for name in CircuitConfig.__slots__ if name != "elements"]
        assert [type(v) for v in fields] == [int] * 5 and fields == [0, 1, 2, 1, 4]

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_relabelled_outputs_give_the_same_state(self, r):
        # the outputs are the non-herald modes in ascending order; the other
        # order is the same wiring with modes 0 and 1 swapped, which reads
        # the branches the other way round: phi -> e^{i beta} phi = -phi
        swap = {0: 1, 1: 0, 2: 2}
        ref = default_circuit_config()
        elements = tuple(
            BeamSplitter(swap[e.mode_a], swap[e.mode_b], e.transmissivity, e.convention)
            if isinstance(e, BeamSplitter)
            else PhaseShifter(swap[e.mode], e.const_phase, e.per_photon_phase)
            for e in ref.elements
        )
        cfg = CircuitConfig(1, 0, elements, 2, ref.herald_count, ref.max_output_photons)
        got, want = run_experiment(r, config=cfg), run_experiment(r)
        assert [abs(c) for c in got.phi_amps] == pytest.approx(
            [abs(c) for c in want.phi_amps], rel=1e-15, abs=0
        )
        for name in ("n_bar", "success_prob", "fidelity_to_noonlike"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-15, abs=0)
        assert abs(math.remainder(got.branch_phase - want.branch_phase, 2 * math.pi)) <= 1e-15


class TestReferenceCircuit:
    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_magnitudes_match_target(self, r):
        res = run_experiment(r)
        ref = np.abs(heralded_target_amplitudes(r))
        sim = np.abs(np.array(res.phi_amps))
        assert float(np.max(np.abs(sim - ref))) <= 1e-8

    @pytest.mark.parametrize("r", [1.0, 1.3, 2.0])
    def test_no_vacuum_component(self, r):
        res = run_experiment(r)
        assert abs(res.phi_amps[0]) <= 1e-10

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
    def test_phases_match_up_to_per_photon_gauge(self, r):
        res = run_experiment(r)
        ref = heralded_target_amplitudes(r)
        sim = np.array(res.phi_amps)
        rel = np.angle(sim[1:] / ref[1:])
        increments = np.angle(np.exp(1j * np.diff(rel)))
        assert float(np.max(np.abs(increments - increments[0]))) <= 1e-8

    def test_mean_photons(self):
        assert run_experiment(1.0).n_bar == pytest.approx(2.2462, abs=1e-3)
        assert run_experiment(2.0).n_bar == pytest.approx(2.4971, abs=1e-3)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_fidelity_to_two_branch_form(self, r):
        res = run_experiment(r)
        assert res.fidelity_to_noonlike >= 1.0 - 1e-8
        # heralding one photon of a squeezed pair yields the antisymmetric
        # branch combination
        assert res.branch_phase == pytest.approx(math.pi, abs=1e-9)

    def test_amplitudes_exact_for_any_sufficient_cutoff(self):
        # number conservation: sectors above the heralded budget never feed
        # back, so the result is cutoff-independent from the minimum up
        res_small = run_experiment(2.0, cutoff=5)
        res_large = run_experiment(2.0, cutoff=16)
        a = np.array(res_small.phi_amps)
        b = np.array(res_large.phi_amps)
        assert float(np.max(np.abs(a - b))) <= 1e-12
        assert res_small.success_prob == pytest.approx(res_large.success_prob, rel=1e-12)

    @pytest.mark.parametrize("r", [0.8, 1.7])
    def test_success_probability_closed_form(self, r):
        assert run_experiment(r).success_prob == pytest.approx(
            heralded_success_probability(r), rel=1e-12
        )

    def test_nan_branch_amplitudes_fail_the_norm_check(self, monkeypatch):
        monkeypatch.setattr(
            circuit, "_noonlike_decomposition", lambda state: ([math.nan] * 5, math.nan, math.nan)
        )
        with pytest.raises(NoonlikeError, match="not normalized: nan"):
            run_experiment(1.0)

    # the kept mass is tiny at both ends (2.5e-17 at r = 1e-8, 7.7e-78 at
    # r = 177) but positive, and the normalized state is ordinary doubles;
    # the closed forms take the squeeze factors SqueezedVacuum takes
    @pytest.mark.parametrize("r", [math.sqrt(_R_RANGE[0]), 1e-8, 35.0, 177.0,
                                   math.sqrt(_R_RANGE[1])])
    def test_extreme_squeeze_factors_match_closed_forms(self, r):
        res = run_experiment(r)
        assert res.success_prob == pytest.approx(heralded_success_probability(r), rel=1e-12)
        ref = [abs(c) for c in heralded_target_amplitudes(r)]
        assert max(abs(abs(c) - m) for c, m in zip(res.phi_amps, ref, strict=True)) <= 1e-12

    def test_default_matches_shipped_wiring(self):
        cfg = default_circuit_config()
        assert (cfg.coherent_mode, cfg.squeezed_mode, cfg.herald_mode) == (0, 1, 2)
        first = cfg.elements[0]
        assert isinstance(first, BeamSplitter)
        assert (first.mode_a, first.mode_b) == (1, 2)
        shifter = cfg.elements[1]
        assert isinstance(shifter, PhaseShifter)
        assert (shifter.const_phase, shifter.per_photon_phase) == (math.pi, -math.pi / 2)

    def test_pump_condition(self):
        assert pump_amplitude(1.0) ** 2 == pytest.approx(1.5 * math.tanh(1.0), rel=1e-14)

    @pytest.mark.parametrize("r", [0.0, -1.0, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "closed_form", [pump_amplitude, heralded_target_amplitudes, heralded_success_probability]
    )
    def test_closed_forms_need_a_positive_squeeze_factor(self, closed_form, r):
        # NaN would give NaNs, and -1 a probability or a bare math domain error
        with pytest.raises(ValueError, match=rf"^squeeze factor must be positive, got {r}$"):
            closed_form(r)

    # 711 overflowed cosh r, and inf and 1e-200 gave a probability of 0
    @pytest.mark.parametrize("r", [177.2, 711.0, math.inf, 1e-200, "1", 1j, True])
    @pytest.mark.parametrize(
        "closed_form", [pump_amplitude, heralded_target_amplitudes, heralded_success_probability]
    )
    def test_closed_forms_take_the_squeeze_factors_of_squeezed_vacuum(self, closed_form, r):
        with pytest.raises((ValueError, TypeError, ParameterOutOfRange)) as expected:
            SqueezedVacuum(r)
        assert re.match(r"^r( = | must)", str(expected.value))
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            closed_form(r)


class TestVerifyNoonlikeForm:
    """``_noonlike_decomposition`` fits the two-branch form to a two-mode state."""

    def _two_branch_state(self, amps, branch_phase=0.0):
        phase = complex(math.cos(branch_phase), math.sin(branch_phase))
        state = np.zeros((len(amps), len(amps)), dtype=complex)
        for n, c in enumerate(amps):
            if n == 0 or c == 0:
                continue
            state[n, 0] = c / math.sqrt(2)
            state[0, n] = phase * c / math.sqrt(2)
        return state.tolist()

    def test_exact_state_has_unit_fidelity(self):
        amps = heralded_target_amplitudes(1.0)
        state = self._two_branch_state(amps)
        phi, fidelity, _ = circuit._noonlike_decomposition(state)
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(phi, amps, atol=1e-12)

    def test_antisymmetric_state_recovered_via_branch_phase(self):
        amps = heralded_target_amplitudes(1.0)
        state = self._two_branch_state(amps, branch_phase=math.pi)
        _, fidelity, beta = circuit._noonlike_decomposition(state)
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(math.pi, abs=1e-12)

    def test_product_state_scores_below_one(self):
        phi = fock_amplitudes(Coherent(0.9), n_max=3, tail_tol=math.inf).amps
        phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)))
        state = np.zeros((7, 7), dtype=complex)
        state[:4, :4] = np.outer(phi, phi)
        _, fidelity, _ = circuit._noonlike_decomposition(state.tolist())
        assert fidelity < 0.9

    def test_requires_a_square_two_mode_array(self):
        for shape in ((5,), (5, 4), (3, 3, 3)):
            with pytest.raises(ValueError):
                circuit._noonlike_decomposition(np.zeros(shape, dtype=complex).tolist())

    def test_circuit_output_regression(self):
        res = run_experiment(1.5)
        assert res.fidelity_to_noonlike >= 1.0 - 1e-8


class TestTopologySearch:
    """The wiring is data; these tests document the validation search.

    A valid topology must yield a vacuum-free output whose magnitudes match
    the closed-form amplitudes and whose two branches differ by a single
    overall phase.  Orderings that mix the coherent beam into the trigger
    mode before heralding can never achieve a vacuum-free output: a lone
    coherent photon would fire the trigger.
    """

    @staticmethod
    def _evaluate(elements):
        cfg = CircuitConfig(0, 1, tuple(elements), 2, 1, 4)
        try:
            res = run_experiment(1.0, cfg)
        except NoonlikeError:
            return False
        ref = np.abs(heralded_target_amplitudes(1.0))
        sim = np.abs(np.array(res.phi_amps))
        return (
            abs(res.phi_amps[0]) <= 1e-10
            and float(np.max(np.abs(sim - ref))) <= 1e-8
            and res.fidelity_to_noonlike >= 1.0 - 1e-8
        )

    def test_split_coherent_first_fails(self):
        # the wiring with the coherent beam mixed before the trigger splitter
        elements = [
            BeamSplitter(0, 1),
            PhaseShifter(1, math.pi, -math.pi / 2),
            BeamSplitter(1, 2),
        ]
        assert not self._evaluate(elements)

    def test_shipped_topology_passes(self):
        assert self._evaluate(list(default_circuit_config().elements))

    def test_search_finds_only_squeezed_first_orderings(self):
        valid = [key for key, elements in _searched_wirings() if self._evaluate(elements)]
        assert valid, "search found no working topology"
        assert all(order == "squeezed_first" for order, *_ in valid)
        shipped = ("squeezed_first", "real", -math.pi / 2, math.pi)
        assert shipped in valid


def _searched_wirings():
    """(order, convention, per-photon phase, trailing gauge) and the elements of each wiring."""
    per_photon_phases = (-math.pi / 2, math.pi / 2, math.pi, 0.0)
    trailing = (None, -math.pi / 2, math.pi / 2, math.pi)
    for order in ("coherent_first", "squeezed_first"):
        for convention in ("symmetric", "real"):
            for phase in per_photon_phases:
                for gauge in trailing:
                    first, last = (0, 1), (1, 2)
                    if order == "squeezed_first":
                        first, last = last, first
                    elements = [
                        BeamSplitter(*first, convention=convention),
                        PhaseShifter(1, math.pi, phase),
                        BeamSplitter(*last, convention=convention),
                    ]
                    if gauge is not None:
                        elements.append(PhaseShifter(1, 0.0, gauge))
                    yield (order, convention, phase, gauge), elements


def _inputs(cfg, r):
    """The per-mode input states of ``cfg`` at ``r``."""
    states = [Fock(0)] * 3
    states[cfg.squeezed_mode] = SqueezedVacuum(r)
    states[cfg.coherent_mode] = Coherent(pump_amplitude(r))
    return states


def _output_modes(cfg):
    """The two output modes of ``cfg``: the non-herald modes, ascending."""
    return tuple(k for k in range(3) if k != cfg.herald_mode)


def _dense_budget_amplitudes(per_mode_states, u, budget, global_phase=0.0, herald=None):
    """Reference amplitudes as one dense loop, sharing no sector or table code.

    The output state is exp(i global_phase) prod_j f_j(b_j^dag) |0> over
    every sector within ``budget``, or with ``herald=(mode, count)`` over
    those that can feed that herald, as (occs, amps).  The sectors and the
    (src, dst, weight) entries of each a_k^dag are enumerated here; every
    entry is scanned at each photon step, and u[k][j] * weight is
    multiplied there.
    """
    m = len(per_mode_states)
    occs = []
    for occ in itertools.product(range(budget + 1), repeat=m):
        if herald is None:
            feeds = sum(occ) <= budget
        else:
            mode, count = herald
            feeds = occ[mode] <= count and sum(occ) - occ[mode] <= budget - count
        if feeds:
            occs.append(occ)
    index = {occ: i for i, occ in enumerate(occs)}
    ops = []
    for k in range(m):
        entries = []
        for src, occ in enumerate(occs):
            raised = list(occ)
            raised[k] += 1
            raised = tuple(raised)
            if raised in index:
                entries.append((src, index[raised], math.sqrt(raised[k])))
        ops.append(entries)
    size = len(occs)
    vec = [0j] * size
    vec[0] = complex(math.cos(global_phase), math.sin(global_phase))
    for j, state in enumerate(per_mode_states):
        c = state.amplitudes(budget)
        acc = [c[0] * v for v in vec]
        term = vec
        for n in range(1, max((n for n, cn in enumerate(c) if cn), default=0) + 1):
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
            if cn:
                for i, t in enumerate(term):
                    if t:
                        acc[i] += cn * t
        vec = acc
    return tuple(occs), vec


def _dense_post_select(occs, amps, herald_mode, herald_count, output_modes, max_output_photons):
    """Reference post-selection, indexing every kept sector afresh.

    Returns (state, success_prob), state nested one level per output mode.
    """
    side = max_output_photons + 1
    kept = []
    for occ, amp in zip(occs, amps):
        out = [occ[k] for k in output_modes]
        if occ[herald_mode] == herald_count and sum(out) <= max_output_photons:
            kept.append((functools.reduce(lambda i, n: i * side + n, out), amp))
    mass = sum(abs(a) ** 2 for _, a in kept)
    if not mass > 0.0:
        raise EmptyPostSelection(
            f"herald {herald_count} photon(s) in mode {herald_mode} kept no mass"
        )
    state = [0j] * side ** len(output_modes)
    scale = 1.0 / math.sqrt(mass)
    for i, amp in kept:
        state[i] = amp * scale
    for _ in output_modes[1:]:
        state = [state[i : i + side] for i in range(0, len(state), side)]
    return state, mass


def _dense_run(r, cfg):
    """Reference: ``run_experiment`` through the dense references above."""
    u, phase = mode_matrix(cfg.elements, 3)
    herald = (cfg.herald_mode, cfg.herald_count)
    budget = cfg.herald_count + cfg.max_output_photons
    occs, amps = _dense_budget_amplitudes(_inputs(cfg, r), u, budget, phase, herald)
    state, mass = _dense_post_select(
        occs, amps, *herald, _output_modes(cfg), cfg.max_output_photons
    )
    phi, fidelity, beta = circuit._noonlike_decomposition(state)
    probs = [abs(c) ** 2 for c in phi]
    norm = sum(probs)
    if not abs(norm - 1.0) <= 1e-10:
        raise NoonlikeError(f"branch amplitudes not normalized: {norm}")
    if abs(phi[0]) > 1e-10:
        raise NoonlikeError(f"unexpected vacuum component |c_0| = {abs(phi[0]):.3e}")
    n_bar = sum(n * p for n, p in enumerate(probs)) / norm
    return ExperimentResult(tuple(phi), fidelity, n_bar, mass, beta)


def _outcome(fn, *args):
    """``fn``'s result, or the type and text of the NoonlikeError it raises."""
    try:
        return fn(*args)
    except NoonlikeError as exc:
        return type(exc).__name__, str(exc)


class TestCompiledCircuit:
    """The transfer table gives what the dense loops it replaces give, to rounding.

    ``run_experiment`` reads a per-config transfer table built once; the
    references above share no sector, table or index code with it.  It sums
    in another order, so results agree within the tightest bounds that hold
    over these cases: ``AMP_ABS`` absolute on each renormalized amplitude,
    ``PROB_REL`` relative on the success probability, n_bar and fidelity,
    and ``PHASE_ABS`` absolute on the branch phase.  An error agrees when
    its type and message do, up to ``PROB_REL`` on the numbers in it.  The
    heralded state must also match the references over the full budget,
    since nothing outside the kept sectors feeds them.
    """

    AMP_ABS = 3.4e-16
    PROB_REL = 1.1e-15
    PHASE_ABS = 1.5e-15

    # from the smallest to the largest squeeze factor SqueezedVacuum accepts
    r_extremes = [math.sqrt(_R_RANGE[0]), 1e-30, 1e-8, 1e-3, 0.3, 1, 2, 5, 20, 60,
                  math.sqrt(_R_RANGE[1])]

    @classmethod
    def _assert_close(cls, got, want):
        """``got`` and ``want``, each a result or ``_outcome``'s error, agree within the bounds."""
        if isinstance(want, tuple) and isinstance(want[0], str):
            assert isinstance(got, tuple) and got[0] == want[0]
            number = r"-?\d[\d.e+-]*"
            assert re.sub(number, "#", got[1]) == re.sub(number, "#", want[1])
            numbers = zip(re.findall(number, got[1]), re.findall(number, want[1]), strict=True)
            assert all(float(x) == pytest.approx(float(y), rel=cls.PROB_REL, abs=0)
                       for x, y in numbers)
            return
        if isinstance(want, ExperimentResult):
            amps = zip(got.phi_amps, want.phi_amps, strict=True)
            scalars = [(got.success_prob, want.success_prob), (got.n_bar, want.n_bar),
                       (got.fidelity_to_noonlike, want.fidelity_to_noonlike)]
            turn = math.remainder(got.branch_phase - want.branch_phase, 2 * math.pi)
            assert abs(turn) <= cls.PHASE_ABS
        else:
            (state, prob), (want_state, want_prob) = got, want
            amps = zip(sum(state, []), sum(want_state, []), strict=True)
            scalars = [(prob, want_prob)]
        assert max(abs(a - b) for a, b in amps) <= cls.AMP_ABS
        assert max(abs(a - b) / abs(b) for a, b in scalars) <= cls.PROB_REL

    @staticmethod
    def other_heralds():
        for herald_mode, herald_count, max_out in [(0, 0, 3), (1, 2, 2), (2, 3, 1), (2, 0, 0)]:
            yield CircuitConfig(0, 1, default_circuit_config().elements, herald_mode,
                                herald_count, max_out)

    @classmethod
    def _assert_same(cls, cfg, r):
        states = _inputs(cfg, r)
        u, phase = mode_matrix(cfg.elements, 3)
        budget = cfg.herald_count + cfg.max_output_photons
        selection = (cfg.herald_mode, cfg.herald_count, _output_modes(cfg), cfg.max_output_photons)
        got = _outcome(_heralded, cfg, states[cfg.coherent_mode], states[cfg.squeezed_mode])
        for herald in (None, (cfg.herald_mode, cfg.herald_count)):
            amps = _dense_budget_amplitudes(states, u, budget, phase, herald)
            want = _outcome(_dense_post_select, *amps, *selection)
            cls._assert_close(got, want)
        got, want = _outcome(run_experiment, r, cfg), _outcome(_dense_run, r, cfg)
        cls._assert_close(got, want)

    @pytest.mark.parametrize("r", r_extremes)
    def test_reference_config(self, r):
        self._assert_same(default_circuit_config(), r)

    def test_reference_config_dense_grid(self):
        for k in range(201):
            self._assert_same(default_circuit_config(), 1e-3 + k * (5.0 - 1e-3) / 200)

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.0])
    def test_searched_wirings(self, r):
        for _, elements in _searched_wirings():
            self._assert_same(CircuitConfig(0, 1, tuple(elements), 2, 1, 4), r)

    def test_other_heralds(self):
        for cfg in self.other_heralds():
            for r in (0.5, 1.5):
                self._assert_same(cfg, r)


@pytest.fixture(scope="module")
def curves():
    return experiment_qcrb_comparison([1.0, 1.25, 1.5, 1.75, 2.0])


class TestQcrbComparison:
    def test_spot_values(self, curves):
        noon, ecs, phi = curves
        nb, q_noon, _ = noon.points[0]
        assert nb == pytest.approx(2.2462, abs=1e-3)
        assert q_noon == pytest.approx(0.1982, abs=1e-3)
        assert ecs.points[0][1] == pytest.approx(0.0960, abs=1e-3)
        assert phi.points[0][1] == pytest.approx(0.1404, abs=1e-3)

    def test_ordering_everywhere(self, curves):
        noon, ecs, phi = curves
        for (_, qn, _), (_, qe, _), (_, qp, _) in zip(noon.points, ecs.points, phi.points):
            assert qe < qp < qn

    def test_decreasing_grid_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(circuit, "run_experiment", lambda r, **kw: runs.append(r))
        with pytest.raises(ValueError, match="^r_grid must be non-decreasing$"):
            experiment_qcrb_comparison([1.0, 2.0, 1.5])
        assert runs == []

    def test_curves_smooth_and_monotone(self, curves):
        _, _, phi = curves
        values = phi.qcrbs
        diffs = np.diff(values)
        assert all(d < 0 for d in diffs)  # bound improves with squeezing here
        assert float(np.max(np.abs(diffs))) < 0.02
