import itertools
import math

import numpy as np
import pytest

from noonlike import (
    Coherent,
    EmptyPostSelection,
    Fock,
    ModeOutOfRange,
    NoonlikeError,
    SqueezedVacuum,
    fock_amplitudes,
)
from noonlike.circuit import (
    BeamSplitter,
    CircuitConfig,
    PhaseShifter,
    budget_amplitudes,
    default_circuit_config,
    experiment_qcrb_comparison,
    heralded_success_probability,
    heralded_target_amplitudes,
    mode_matrix,
    parse_circuit_config,
    post_select,
    pump_amplitude,
    run_experiment,
    verify_noonlike_form,
)
from noonlike.cli import main


def _output(elements, states, budget):
    u, phase = mode_matrix(elements, len(states))
    return budget_amplitudes(states, u, budget, phase)


def _amp_dict(occs, amps):
    """The nonzero amplitudes keyed by occupation tuple."""
    return {tuple(occ): amp for occ, amp in zip(occs, amps) if amp != 0}


def _eye(m):
    return np.eye(m).tolist()


class TestInject:
    """How the per-mode input states enter the budget evaluation."""

    def test_all_vacuum(self):
        amps = _amp_dict(*budget_amplitudes([Fock(0)] * 3, _eye(3), 5))
        assert amps == {(0, 0, 0): 1.0}

    def test_product_amplitudes(self):
        alpha, r, budget = 0.9, 0.8, 5
        amps = _amp_dict(
            *budget_amplitudes([Coherent(alpha), SqueezedVacuum(r), Fock(0)], _eye(3), budget)
        )
        coh = fock_amplitudes(Coherent(alpha), n_max=budget, tail_tol=math.inf).amps
        sv = fock_amplitudes(SqueezedVacuum(r), n_max=budget, tail_tol=math.inf).amps
        expected = {
            (j, k, 0): coh[j] * sv[k]
            for j in range(budget + 1)
            for k in range(budget + 1 - j)
            if coh[j] * sv[k] != 0
        }
        assert set(amps) == set(expected)
        for occ, amp in amps.items():
            assert amp == pytest.approx(expected[occ], rel=1e-12)

    def test_zero_budget_keeps_the_vacuum(self):
        amps = _amp_dict(*budget_amplitudes([Coherent(0.5), Fock(0)], _eye(2), 0))
        assert amps == {(0, 0): pytest.approx(math.exp(-0.125), rel=1e-15)}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            budget_amplitudes([Fock(0), Fock(0)], _eye(3), 2)

    def test_occupations_shared_and_read_only(self):
        occs, amps = budget_amplitudes([Coherent(0.5), Fock(0), Fock(0)], _eye(3), 5)
        assert len(occs) == len(amps) == 56 and {len(o) for o in occs} == {3}
        assert max(map(sum, occs)) == 5 and len(set(occs)) == 56
        assert isinstance(occs, tuple) and all(isinstance(o, tuple) for o in occs)
        assert budget_amplitudes([Fock(1)] * 3, _eye(3), 5)[0] is occs


class TestElements:
    def test_vacuum_unchanged(self):
        # vacuum survives any element (a constant phase is global)
        for element in (BeamSplitter(0, 1), PhaseShifter(0, 1.0, 2.0)):
            amps = _amp_dict(*_output([element], [Fock(0), Fock(0)], 4))
            assert set(amps) == {(0, 0)}
            assert abs(amps[(0, 0)]) == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_symmetric_split(self):
        u, phase = mode_matrix([BeamSplitter(0, 1)], 2)
        assert phase == 0.0
        column = [row[0] for row in u]
        assert column == pytest.approx([1 / math.sqrt(2), 1j / math.sqrt(2)], rel=1e-12)
        amps = _amp_dict(*budget_amplitudes([Fock(1), Fock(0)], u, 2))
        assert amps[(1, 0)] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert amps[(0, 1)] == pytest.approx(1j / math.sqrt(2), rel=1e-12)

    def test_single_photon_real_split(self):
        u, _ = mode_matrix([BeamSplitter(0, 1, convention="real")], 2)
        column = [row[0] for row in u]
        assert column == pytest.approx([1 / math.sqrt(2), -1 / math.sqrt(2)], rel=1e-12)
        amps = _amp_dict(*budget_amplitudes([Fock(1), Fock(0)], u, 2))
        assert amps[(1, 0)] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert amps[(0, 1)] == pytest.approx(-1 / math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_phase_shifter_number_dependence(self, n):
        u, phase = mode_matrix([PhaseShifter(0, math.pi, -math.pi / 2)], 1)
        assert phase == math.pi
        amps = _amp_dict(*budget_amplitudes([Fock(n)], u, 6, phase))
        expected = -1.0 * (-1j) ** n
        assert amps == {(n,): pytest.approx(expected, rel=1e-12)}

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_norm_preserved(self, convention):
        elements = [
            BeamSplitter(0, 1, convention=convention),
            PhaseShifter(1, 0.3, -1.1),
            BeamSplitter(1, 2, transmissivity=0.3, convention=convention),
        ]
        u, phase = mode_matrix(elements, 3)
        assert phase == 0.3
        u = np.array(u)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-14
        # number states within the budget keep their whole mass
        amps = _amp_dict(*_output(elements, [Fock(1), Fock(2), Fock(1)], 4))
        assert sum(abs(a) ** 2 for a in amps.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(sum(occ) == 4 for occ in amps)

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_double_beam_splitter_is_mode_swap(self, convention):
        bs = BeamSplitter(0, 1, convention=convention)
        u, _ = mode_matrix([bs, bs], 2)
        assert np.abs(np.abs(np.array(u)) - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-15
        amps = _amp_dict(*_output([bs, bs], [Fock(2), Fock(1)], 3))
        assert abs(amps[(1, 2)]) == pytest.approx(1.0, abs=1e-14)
        assert all(abs(a) <= 1e-14 for occ, a in amps.items() if occ != (1, 2))

    def test_mode_out_of_range(self):
        with pytest.raises(ModeOutOfRange):
            mode_matrix([BeamSplitter(0, 2)], 2)
        with pytest.raises(ModeOutOfRange):
            mode_matrix([PhaseShifter(-1)], 2)


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
    """A random passive circuit on 2-4 modes; herald count ``seed % 3``."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    # a chain of splitters through every mode, then random elements
    order = rng.permutation(m)
    elements = [_random_beam_splitter(rng, a, b) for a, b in zip(order, order[1:])]
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            elements.append(_random_beam_splitter(rng, *rng.choice(m, size=2, replace=False)))
        else:
            elements.append(
                PhaseShifter(
                    int(rng.integers(m)),
                    const_phase=float(rng.uniform(-math.pi, math.pi)),
                    per_photon_phase=float(rng.uniform(-math.pi, math.pi)),
                )
            )
    pool = [
        Coherent(float(rng.uniform(0.3, 1.2))),
        SqueezedVacuum(float(rng.uniform(0.3, 1.2))),
        Fock(1),
    ]
    states = [pool[k] if k < len(pool) else Fock(0) for k in rng.permutation(max(m, 3))[:m]]
    herald_mode = int(rng.integers(m))
    output_modes = tuple(k for k in range(m) if k != herald_mode)
    herald_count = seed % 3
    max_out = int(rng.integers(1, 6 - herald_count))
    return elements, states, herald_mode, herald_count, output_modes, max_out


class TestPermanentOracle:
    """The budget evaluator against sector-by-sector permanents on random circuits."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_passive_circuit(self, seed):
        elements, states, herald_mode, herald_count, output_modes, max_out = _random_case(seed)
        want, want_prob = _heralded_by_permanents(
            elements, states, herald_mode, herald_count, output_modes, max_out
        )
        occs, amps = _output(elements, states, herald_count + max_out)
        state, prob = post_select(occs, amps, herald_mode, herald_count, output_modes, max_out)
        state = np.array(state)
        assert state.shape == (max_out + 1,) * len(output_modes)
        assert prob == pytest.approx(want_prob, rel=1e-12)
        for occ, amp in want.items():
            assert abs(state[occ] - amp) <= 1e-12
        assert set(_amp_dict(np.argwhere(state).tolist(), state[state != 0])) <= set(want)

    def test_cases_cover_the_space(self):
        cases = [_random_case(seed) for seed in range(24)]
        assert {len(c[1]) for c in cases} == {2, 3, 4}
        assert {c[3] for c in cases} == {0, 1, 2}
        conventions = {e.convention for c in cases for e in c[0] if isinstance(e, BeamSplitter)}
        assert conventions == {"symmetric", "real"}

    def test_mode_matrix_matches_element_matrices(self):
        for seed in range(24):
            elements, states, *_ = _random_case(seed)
            m = len(states)
            want = np.eye(m, dtype=complex)
            for element in elements:
                want = _element_matrix(element, m) @ want
            u = np.array(mode_matrix(elements, m)[0])
            assert np.abs(u - want).max() <= 1e-14
            assert np.abs(u @ u.conj().T - np.eye(m)).max() <= 1e-13

    def test_reference_circuit(self):
        cfg = default_circuit_config()
        states = [Coherent(pump_amplitude(1.2)), SqueezedVacuum(1.2), Fock(0)]
        want, want_prob = _heralded_by_permanents(
            cfg.elements, states, cfg.herald_mode, cfg.herald_count, cfg.output_modes,
            cfg.max_output_photons,
        )
        assert want_prob == pytest.approx(heralded_success_probability(1.2), rel=1e-12)
        res = run_experiment(1.2)
        assert res.success_prob == pytest.approx(want_prob, rel=1e-12)
        phi = [math.sqrt(2.0) * want.get((n, 0), 0.0) for n in range(5)]
        assert np.abs(np.array(res.phi_amps) - phi).max() <= 1e-12


class TestPostSelect:
    def test_single_branch_heralds_with_certainty(self):
        occs, amps = budget_amplitudes([Fock(1), Fock(2)], _eye(2), 4)
        state, prob = post_select(occs, amps, 0, 1, [1], max_output_photons=4)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert state == [0j, 0j, pytest.approx(1.0), 0j, 0j]

    def test_empty_selection(self):
        occs, amps = budget_amplitudes([Fock(0), Fock(2)], _eye(2), 4)
        with pytest.raises(EmptyPostSelection):
            post_select(occs, amps, 0, 1, [1], max_output_photons=4)

    def test_modes_must_partition(self):
        occs, amps = budget_amplitudes([Fock(0), Fock(2)], _eye(2), 4)
        with pytest.raises(ValueError):
            post_select(occs, amps, 0, 1, [0], max_output_photons=4)

    def test_partition_checked_against_amplitude_modes(self):
        # amplitudes over three modes: herald 1 plus outputs [0] leaves mode
        # 2 out, which must not be summed over silently
        occs, amps = budget_amplitudes([Fock(1), Fock(1), Fock(1)], _eye(3), 5)
        with pytest.raises(ValueError):
            post_select(occs, amps, 1, 1, [0], 4)
        with pytest.raises(ValueError):
            post_select(occs, amps, 1, 1, [0, 0, 2], 4)

    def test_reference_circuit_success_probability(self):
        res = run_experiment(1.0)
        assert 0.0 < res.success_prob < 1.0
        assert res.success_prob == pytest.approx(heralded_success_probability(1.0), rel=1e-12)


class TestCutoff:
    """The cutoff is validated and accepted but changes no result."""

    def test_large_cutoff_identical(self):
        assert run_experiment(1.3, cutoff=60) == run_experiment(1.3)

    def test_config_cutoff_key_identical(self, reference_config_text):
        for cutoff in (5, 40):
            again = parse_circuit_config(
                reference_config_text.replace("cutoff 14", f"cutoff {cutoff}")
            )
            assert again.cutoff == cutoff
            assert run_experiment(0.9, config=again) == run_experiment(0.9)

    def test_below_budget_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(1.0, cutoff=4)
        with pytest.raises(ValueError):
            cfg = default_circuit_config()
            CircuitConfig(*[getattr(cfg, name) for name in CircuitConfig.__slots__[:-1]], 4)

    def test_cli_below_budget_exit_code(self, capsys):
        assert main(["experiment", "--r", "1", "--cutoff", "4"]) == 1
        assert "cutoff below" in capsys.readouterr().err

    def test_cli_cutoff_and_config_accepted(self, tmp_path, capsys, reference_config_text):
        path = tmp_path / "circuit.cfg"
        path.write_text(reference_config_text.replace("cutoff 14", "cutoff 40"))
        assert main(["experiment", "--r", "1"]) == 0
        baseline = capsys.readouterr().out
        assert main(["experiment", "--r", "1", "--cutoff", "60"]) == 0
        assert capsys.readouterr().out == baseline
        assert main(["experiment", "--r", "1", "--circuit", str(path)]) == 0
        assert capsys.readouterr().out == baseline

    def test_default_config_parsed_once(self):
        assert default_circuit_config() is default_circuit_config()


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


class TestVerifyNoonlikeForm:
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
        phi, fidelity = verify_noonlike_form(state)
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(phi, amps, atol=1e-12)

    def test_antisymmetric_state_recovered_via_branch_phase(self):
        amps = heralded_target_amplitudes(1.0)
        state = self._two_branch_state(amps, branch_phase=math.pi)
        _, fidelity = verify_noonlike_form(state)
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    def test_product_state_scores_below_one(self):
        phi = fock_amplitudes(Coherent(0.9), n_max=3, tail_tol=math.inf).amps
        phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)))
        state = np.zeros((7, 7), dtype=complex)
        state[:4, :4] = np.outer(phi, phi)
        _, fidelity = verify_noonlike_form(state.tolist())
        assert fidelity < 0.9

    def test_requires_a_square_two_mode_array(self):
        for shape in ((5,), (5, 4), (3, 3, 3)):
            with pytest.raises(ValueError):
                verify_noonlike_form(np.zeros(shape, dtype=complex).tolist())

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
        cfg = CircuitConfig(3, 0, 1, tuple(elements), 2, 1, (0, 1), 4, 6)
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
        per_photon_phases = (-math.pi / 2, math.pi / 2, math.pi, 0.0)
        trailing = (None, -math.pi / 2, math.pi / 2, math.pi)
        valid = []
        for order in ("coherent_first", "squeezed_first"):
            for convention in ("symmetric", "real"):
                for phase in per_photon_phases:
                    for gauge in trailing:
                        if order == "coherent_first":
                            elements = [
                                BeamSplitter(0, 1, convention=convention),
                                PhaseShifter(1, math.pi, phase),
                                BeamSplitter(1, 2, convention=convention),
                            ]
                        else:
                            elements = [
                                BeamSplitter(1, 2, convention=convention),
                                PhaseShifter(1, math.pi, phase),
                                BeamSplitter(0, 1, convention=convention),
                            ]
                        if gauge is not None:
                            elements.append(PhaseShifter(1, 0.0, gauge))
                        if self._evaluate(elements):
                            valid.append((order, convention, phase, gauge))
        assert valid, "search found no working topology"
        assert all(order == "squeezed_first" for order, *_ in valid)
        shipped = ("squeezed_first", "real", -math.pi / 2, math.pi)
        assert shipped in valid


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

    def test_curves_smooth_and_monotone(self, curves):
        _, _, phi = curves
        values = phi.qcrbs
        diffs = np.diff(values)
        assert all(d < 0 for d in diffs)  # bound improves with squeezing here
        assert float(np.max(np.abs(diffs))) < 0.02


class TestConfigFormat:
    def test_default_matches_shipped_wiring(self):
        cfg = default_circuit_config()
        assert cfg.mode_count == 3
        assert (cfg.coherent_mode, cfg.squeezed_mode, cfg.herald_mode) == (0, 1, 2)
        first = cfg.elements[0]
        assert isinstance(first, BeamSplitter)
        assert (first.mode_a, first.mode_b) == (1, 2)
        shifter = cfg.elements[1]  # "const=pi per-photon=-pi/2": both pi-fraction forms
        assert isinstance(shifter, PhaseShifter)
        assert (shifter.const_phase, shifter.per_photon_phase) == (math.pi, -math.pi / 2)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            parse_circuit_config("modes 3\ncoherent-input 1\n")

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            parse_circuit_config("modes 3\nwibble 7\n")

    @pytest.mark.parametrize(
        "line, broken",
        [
            ("modes 3", "modes 3 junk"),
            ("outputs 1,2", "outputs 1,2 3"),
            ("cutoff 14", "cutoff 14 15"),
            (
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real",
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real wibble=1",
            ),
            (
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real",
                "element beamsplitter modes=2,3 transmissivity=0.5 convention=real modes=1,2",
            ),
            (
                "element phaseshifter mode=2 const=pi per-photon=-pi/2",
                "element phaseshifter mode=2 const=pi per-photon=-pi/2 per-photon=pi",
            ),
            ("herald mode=3 count=1", "herald mode=3 count=1 wibble=2"),
            ("herald mode=3 count=1", "herald mode=3 count=1 count=2"),
            ("modes 3", "modes 3\nmodes 4"),
            ("herald mode=3 count=1", "herald mode=3 count=1\nherald mode=3 count=2"),
        ],
    )
    def test_stray_or_repeated_token_rejected(self, reference_config_text, line, broken):
        text = reference_config_text
        assert line in text
        with pytest.raises(ValueError, match="config line") as info:
            parse_circuit_config(text.replace(line, broken, 1))
        assert repr(broken.split("\n")[-1]) in str(info.value)

    def test_pump_condition(self):
        assert pump_amplitude(1.0) ** 2 == pytest.approx(1.5 * math.tanh(1.0), rel=1e-14)
        with pytest.raises(ValueError):
            pump_amplitude(0.0)
