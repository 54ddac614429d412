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
    NoonlikeError,
    ParameterOutOfRange,
    SqueezedVacuum,
    circuit,
    fock_amplitudes,
)
from noonlike.circuit import (
    ExperimentResult,
    default_circuit_config,
    experiment_qcrb_comparison,
    heralded_success_probability,
    heralded_target_amplitudes,
    pump_amplitude,
    run_experiment,
)
from noonlike.states import _R_RANGE


BUDGET = 5  # the heralded photon plus at most four kept in the outputs

# the reference wiring as (kind, modes, value): a 50:50 splitter's value is its
# convention, a phase shifter's its per-photon phase; the first shifter's
# constant phase, pi, multiplies the whole state
REFERENCE_ELEMENTS = (
    ("splitter", (1, 2), "real"),
    ("shifter", (1,), -math.pi / 2),
    ("splitter", (0, 1), "real"),
    ("shifter", (1,), math.pi),
)
REFERENCE_PHASE = math.pi


def _element_matrix(element):
    """One element's 3 x 3 mode matrix, column j the image of input mode j.

    A splitter's optional fourth field is its transmissivity t, 1/2 if
    absent.  It transmits sqrt(t); it reflects i sqrt(1 - t) from both modes
    in the ``symmetric`` convention, and -sqrt(1 - t) from its first mode
    and +sqrt(1 - t) from its second in the ``real`` one.
    """
    kind, modes, value, *transmissivity = element
    e = np.eye(3, dtype=complex)
    if kind == "shifter":
        (mode,) = modes
        e[mode, mode] = np.exp(1j * value)
        return e
    a, b = modes
    t = transmissivity[0] if transmissivity else 0.5
    tau, rho = math.sqrt(t), math.sqrt(1.0 - t)
    from_a, from_b = (1j * rho, 1j * rho) if value == "symmetric" else (-rho, rho)
    e[a, a], e[b, a], e[a, b], e[b, b] = tau, from_a, from_b, tau
    return e


def _mode_matrix(elements):
    """The elements' product, the first applied first."""
    u = np.eye(3, dtype=complex)
    for element in elements:
        u = _element_matrix(element) @ u
    return u


def _heralded(coherent, squeezed):
    """``run_experiment``'s kernel with these states in its two input slots.

    Returns ``_heralded_state``'s (state, success_prob).
    """
    amps = (state.amplitudes(BUDGET) for state in (coherent, squeezed))
    return circuit._heralded_state(circuit._transfer_table(), *amps)


def _kernel(u, coherent, squeezed, phase=0.0, modes=(0, 1), herald=(2, 1), max_out=4):
    """The kernel on any wiring ``u``, with the third input mode in vacuum.

    ``_transfer_terms`` gives each kept sector's terms from the columns of
    the coherent and squeezed input ``modes``, and ``_heralded_state``
    evaluates them, as ``run_experiment`` does for the reference wiring.
    ``herald`` is (mode, count); the other two modes, in order, are the
    outputs and keep at most ``max_out`` <= 4 photons.  Returns
    ``_heralded_state``'s (state, success_prob).
    """
    herald_mode, herald_count = herald
    outputs = [k for k in range(3) if k != herald_mode]
    columns = [[complex(x) for x in np.asarray(u)[:, j]] for j in modes]
    kept = []
    for n1 in range(max_out + 1):
        for n2 in range(max_out + 1 - n1):
            occ = [0] * 3
            occ[herald_mode], occ[outputs[0]], occ[outputs[1]] = herald_count, n1, n2
            kept.append((n1, n2, circuit._transfer_terms(tuple(occ), *columns, phase)))
    amps = (state.amplitudes(herald_count + max_out) for state in (coherent, squeezed))
    return circuit._heralded_state(kept, *amps)


def _nonzero(state):
    """The nonzero amplitudes of a two-mode state, keyed by (n_1, n_2)."""
    return {(n1, n2): a for n1, row in enumerate(state) for n2, a in enumerate(row) if a != 0}


IDENTITY = np.eye(3, dtype=complex)


class TestInject:
    """How the two inputs' Fock amplitudes enter the kept sectors."""

    def test_all_vacuum(self):
        state, prob = _kernel(IDENTITY, Fock(0), Fock(0), herald=(2, 0))
        assert prob == 1.0 and _nonzero(state) == {(0, 0): 1.0}

    def test_product_amplitudes(self):
        # no elements and no herald photon keep every product c_j s_k within the cap
        alpha, r, cap = 0.9, 0.8, 4
        state, prob = _kernel(IDENTITY, Coherent(alpha), SqueezedVacuum(r), herald=(2, 0))
        coh, _ = fock_amplitudes(Coherent(alpha), n_max=cap, tail_tol=math.inf)
        sv, _ = fock_amplitudes(SqueezedVacuum(r), n_max=cap, tail_tol=math.inf)
        expected = {
            (j, k): coh[j] * sv[k]
            for j in range(cap + 1)
            for k in range(cap + 1 - j)
            if coh[j] * sv[k] != 0
        }
        assert prob == pytest.approx(sum(abs(a) ** 2 for a in expected.values()), rel=1e-12)
        amps = _nonzero(state)
        assert set(amps) == set(expected)
        for occ, amp in amps.items():
            assert amp * math.sqrt(prob) == pytest.approx(expected[occ], rel=1e-12)

    def test_zero_budget_keeps_the_vacuum(self):
        state, prob = _kernel(IDENTITY, Coherent(0.5), Fock(0), herald=(2, 0), max_out=0)
        assert prob == pytest.approx(math.exp(-0.25), rel=1e-15)
        assert _nonzero(state) == {(0, 0): pytest.approx(1.0, rel=1e-15)}

    def test_transfer_table_layout(self):
        # one entry per kept output, in (n_1, n_2) order; each term reads the
        # inputs' amplitudes of the sector's photon number, herald photon included
        kept = circuit._transfer_table()
        assert [(n1, n2) for n1, n2, _ in kept] == [
            (n1, n2) for n1 in range(5) for n2 in range(5 - n1)
        ]
        for n1, n2, terms in kept:
            assert terms and all(m + k == 1 + n1 + n2 and t != 0 for m, k, t in terms)


class TestElements:
    """The kernel on one or two elements, whose outputs are known in closed form."""

    def test_vacuum_unchanged(self):
        # vacuum survives any element (a constant phase is global)
        for element, phase in ((("splitter", (0, 1), "symmetric"), 0.0),
                               (("shifter", (0,), 2.0), 1.0)):
            u = _mode_matrix([element])
            state, prob = _kernel(u, Fock(0), Fock(0), phase, herald=(2, 0))
            amps = _nonzero(state)
            assert set(amps) == {(0, 0)} and prob == pytest.approx(1.0, abs=1e-14)
            assert abs(amps[(0, 0)]) == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_symmetric_split(self):
        u = _mode_matrix([("splitter", (0, 1), "symmetric")])
        state, _ = _kernel(u, Fock(1), Fock(0), herald=(2, 0), max_out=2)
        assert state[1][0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert state[0][1] == pytest.approx(1j / math.sqrt(2), rel=1e-12)

    def test_single_photon_real_split(self):
        u = _mode_matrix([("splitter", (0, 1), "real")])
        state, _ = _kernel(u, Fock(1), Fock(0), herald=(2, 0), max_out=2)
        assert state[1][0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert state[0][1] == pytest.approx(-1 / math.sqrt(2), rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_phase_shifter_number_dependence(self, n):
        # constant phase pi, per-photon phase -pi/2 on the occupied mode
        u = _mode_matrix([("shifter", (0,), -math.pi / 2)])
        expected = -1.0 * (-1j) ** n
        state, _ = _kernel(u, Fock(n), Fock(0), math.pi, herald=(2, 0))
        assert _nonzero(state) == {(n, 0): pytest.approx(expected, rel=1e-12)}

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_norm_preserved(self, convention):
        u = _mode_matrix([
            ("splitter", (0, 1), convention),
            ("shifter", (1,), -1.1),
            ("splitter", (1, 2), convention, 0.3),
        ])
        # number states within the budget keep their whole mass, spread over
        # the photon counts in mode 2
        total = 0.0
        for count in range(4):
            state, prob = _kernel(u, Fock(1), Fock(2), 0.3, herald=(2, count), max_out=3 - count)
            assert all(n1 + n2 + count == 3 for n1, n2 in _nonzero(state))
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("convention", ["symmetric", "real"])
    def test_double_beam_splitter_is_mode_swap(self, convention):
        splitter = ("splitter", (0, 1), convention)
        u = _mode_matrix([splitter, splitter])
        state, _ = _kernel(u, Fock(2), Fock(1), herald=(2, 0), max_out=3)
        amps = _nonzero(state)
        assert abs(amps[(1, 2)]) == pytest.approx(1.0, abs=1e-14)
        assert all(abs(a) <= 1e-14 for occ, a in amps.items() if occ != (1, 2))


def _permanent(m: np.ndarray) -> complex:
    """Ryser's formula."""
    n = m.shape[0]
    total = 0j
    for size in range(1, n + 1):
        for cols in itertools.combinations(range(n), size):
            total += (-1) ** (n - size) * np.prod(m[:, cols].sum(axis=1))
    return total if n else 1.0 + 0j


def _heralded_by_permanents(u, states, phase=0.0, herald=(2, 1), max_out=4):
    """Post-selected output amplitudes and success probability, sector by sector.

    ``u`` is a 3 x 3 mode matrix and ``states`` the inputs of modes 0, 1 and
    2.  ``herald`` is (mode, count); the other two modes, in order, are the
    outputs and keep at most ``max_out`` photons.  The amplitude of output
    occupation o is exp(i phase) times the sum over input occupations n
    with the same photon number of prod_j c_j[n_j] perm(U[o, n]) /
    sqrt(o! n!), where U[o, n] repeats row k o_k times and column j n_j
    times.  Returns ({(n_1, n_2): amplitude}, success_prob), the amplitudes
    renormalized over the kept mass.
    """
    herald_mode, herald_count = herald
    outputs = [k for k in range(3) if k != herald_mode]
    budget = herald_count + max_out
    coeffs = [fock_amplitudes(s, n_max=budget, tail_tol=math.inf)[0] for s in states]
    fact = [math.factorial(k) for k in range(budget + 1)]
    kept = {}
    for out in itertools.product(range(max_out + 1), repeat=2):
        if sum(out) > max_out:
            continue
        occ = [0] * 3
        occ[herald_mode], occ[outputs[0]], occ[outputs[1]] = herald_count, *out
        total = sum(occ)
        rows = [k for k in range(3) for _ in range(occ[k])]
        amp = 0j
        for inp in itertools.product(range(total + 1), repeat=3):
            if sum(inp) != total:
                continue
            weight = np.prod([coeffs[j][inp[j]] for j in range(3)])
            if weight == 0:
                continue
            cols = [j for j in range(3) for _ in range(inp[j])]
            norm = math.sqrt(math.prod(fact[k] for k in occ) * math.prod(fact[k] for k in inp))
            amp += weight * _permanent(u[np.ix_(rows, cols)]) / norm
        kept[out] = np.exp(1j * phase) * amp
    prob = sum(abs(a) ** 2 for a in kept.values())
    return {k: a / math.sqrt(prob) for k, a in kept.items()}, prob


def _random_case(seed):
    """A random three-mode wiring and its inputs; herald count ``seed % 3``.

    Returns (u, phase, modes, herald, max_out, states).  The wiring is a
    chain of splitters through every mode, then random splitters and phase
    shifters, whose constant phases sum to ``phase``.  The coherent and
    squeezed inputs take random amplitudes in the two ``modes``; the third
    mode holds the vacuum.
    """
    rng = np.random.default_rng(seed)

    def splitter(a, b):
        transmissivity = float(rng.uniform(0.05, 0.95))
        return ("splitter", (int(a), int(b)), str(rng.choice(["symmetric", "real"])),
                transmissivity)

    order = rng.permutation(3)
    elements = [splitter(a, b) for a, b in zip(order, order[1:])]
    phase = 0.0
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5:
            elements.append(splitter(*rng.choice(3, size=2, replace=False)))
        else:
            mode = int(rng.integers(3))
            phase += float(rng.uniform(-math.pi, math.pi))
            elements.append(("shifter", (mode,), float(rng.uniform(-math.pi, math.pi))))
    coherent, squeezed, third = (int(k) for k in rng.permutation(3))
    states = [Fock(0)] * 3
    states[coherent] = Coherent(float(rng.uniform(0.3, 1.2)))
    states[squeezed] = SqueezedVacuum(float(rng.uniform(0.3, 1.2)))
    herald = (int(rng.integers(3)), seed % 3)
    max_out = int(rng.integers(1, 5))
    return elements, phase, (coherent, squeezed), herald, max_out, states


class TestPermanentOracle:
    """``run_experiment``'s kernel against sector-by-sector permanents."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_passive_circuit(self, seed):
        # the kernel takes any passive wiring, herald and pair of input modes
        elements, phase, modes, herald, max_out, states = _random_case(seed)
        u = _mode_matrix(elements)
        want, want_prob = _heralded_by_permanents(u, states, phase, herald, max_out)
        coherent, squeezed = (states[j] for j in modes)
        state, prob = _kernel(u, coherent, squeezed, phase, modes, herald, max_out)
        assert set(_nonzero(state)) <= set(want)
        assert prob == pytest.approx(want_prob, rel=1e-12)
        for (n1, n2), amp in want.items():
            assert abs(state[n1][n2] - amp) <= 1e-12

    def test_cases_cover_the_space(self):
        cases = [_random_case(seed) for seed in range(24)]
        assert {herald for _, _, _, herald, _, _ in cases} == {
            (mode, count) for mode in range(3) for count in range(3)
        }
        assert {modes for _, _, modes, _, _, _ in cases} == {
            (a, b) for a in range(3) for b in range(3) if a != b
        }
        assert {max_out for *_, max_out, _ in cases} == {1, 2, 3, 4}
        conventions = {e[2] for elements, *_ in cases for e in elements if e[0] == "splitter"}
        assert conventions == {"symmetric", "real"}
        assert any(e[0] == "shifter" for elements, *_ in cases for e in elements)

    @pytest.mark.parametrize(
        "coherent, squeezed",
        [(Fock(1), Fock(2)), (Fock(2), Fock(1)), (Fock(0), Fock(3)),
         (Coherent(0.7), SqueezedVacuum(0.4)), (Coherent(1.1), Fock(2))],
        ids=repr,
    )
    def test_any_inputs(self, coherent, squeezed):
        # the kernel is linear in each input's amplitudes, physical or not
        want, want_prob = _heralded_by_permanents(
            _mode_matrix(REFERENCE_ELEMENTS), [coherent, squeezed, Fock(0)], REFERENCE_PHASE
        )
        state, prob = _heralded(coherent, squeezed)
        state = np.array(state)
        assert state.shape == (5, 5)
        assert prob == pytest.approx(want_prob, rel=1e-12)
        for occ in itertools.product(range(5), repeat=2):
            assert abs(state[occ] - want.get(occ, 0.0)) <= 1e-12

    def test_reference_circuit(self):
        states = [Coherent(pump_amplitude(1.2)), SqueezedVacuum(1.2), Fock(0)]
        want, want_prob = _heralded_by_permanents(
            _mode_matrix(REFERENCE_ELEMENTS), states, REFERENCE_PHASE
        )
        assert want_prob == pytest.approx(heralded_success_probability(1.2), rel=1e-12)
        res = run_experiment(1.2)
        assert res.success_prob == pytest.approx(want_prob, rel=1e-12)
        phi = [math.sqrt(2.0) * want.get((n, 0), 0.0) for n in range(5)]
        assert np.abs(np.array(res.phi_amps) - phi).max() <= 1e-12


class TestPostSelect:
    def test_single_branch_heralds_with_certainty(self):
        # herald one photon in mode 0, the coherent input's; the outputs are modes 1 and 2
        state, prob = _kernel(IDENTITY, Fock(1), Fock(2), herald=(0, 1))
        assert prob == pytest.approx(1.0, abs=1e-12)
        want = [[0j] * 5 for _ in range(5)]
        want[2][0] = pytest.approx(1.0)
        assert state == want

    def test_empty_selection(self):
        zeros = [0j] * (BUDGET + 1)
        with pytest.raises(EmptyPostSelection, match="^herald 1 photon.s. in mode 2 kept no mass$"):
            circuit._heralded_state(circuit._transfer_table(), zeros, zeros)

    @pytest.mark.parametrize("n", range(BUDGET + 1))
    def test_coherent_photons_alone_never_herald(self, n):
        # the coherent beam meets the trigger mode only after the first
        # splitter has mixed it with the squeezed input
        with pytest.raises(EmptyPostSelection, match="^herald 1 photon.s. in mode 2 kept no mass$"):
            _heralded(Fock(n), Fock(0))

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

    def test_default_is_the_reference_wiring(self):
        u, phase = default_circuit_config()
        assert phase == REFERENCE_PHASE
        assert type(u) is tuple and all(type(row) is tuple and len(row) == 3 for row in u)
        assert np.abs(np.array(u) - _mode_matrix(REFERENCE_ELEMENTS)).max() <= 1e-15

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
        phi, _ = fock_amplitudes(Coherent(0.9), n_max=3, tail_tol=math.inf)
        phi = phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)))
        state = np.zeros((7, 7), dtype=complex)
        state[:4, :4] = np.outer(phi, phi)
        _, fidelity, _ = circuit._noonlike_decomposition(state.tolist())
        assert fidelity < 0.9

    def test_requires_a_square_two_mode_array(self):
        for shape in ((5,), (5, 4), (3, 3, 3)):
            with pytest.raises(ValueError):
                circuit._noonlike_decomposition(np.zeros(shape, dtype=complex).tolist())

    def test_vacuum_alone_is_a_square_array(self):
        # one row and one column: no branch photon, so no phase to fit
        assert circuit._noonlike_decomposition([[1.0 + 0j]]) == ([math.sqrt(2.0)], 1.0, 0.0)

    def test_circuit_output_regression(self):
        res = run_experiment(1.5)
        assert res.fidelity_to_noonlike >= 1.0 - 1e-8


class TestTopologySearch:
    """Which orderings and phases of the two splitters give the paper's state.

    A wiring passes when its heralded state at r = 1, from the permanent
    oracle, is vacuum-free, its branch magnitudes match the closed-form
    amplitudes, and its two branches differ by a single overall phase, the
    fidelity of ``_noonlike_decomposition``'s fit.  Orderings that mix the
    coherent beam into the trigger mode before heralding can never give a
    vacuum-free output: a lone coherent photon would fire the trigger.
    """

    @staticmethod
    def _evaluate(elements):
        """(passes, branch phase) of the wiring ``elements``."""
        states = [Coherent(pump_amplitude(1.0)), SqueezedVacuum(1.0), Fock(0)]
        kept, _ = _heralded_by_permanents(_mode_matrix(elements), states)
        state = [[complex(kept.get((n1, n2), 0j)) for n2 in range(5)] for n1 in range(5)]
        phi, fidelity, beta = circuit._noonlike_decomposition(state)
        ref = np.abs(heralded_target_amplitudes(1.0))
        passes = (
            abs(phi[0]) <= 1e-10
            and float(np.max(np.abs(np.abs(phi) - ref))) <= 1e-8
            and fidelity >= 1.0 - 1e-8
        )
        return passes, beta

    def test_split_coherent_first_fails(self):
        # the wiring with the coherent beam mixed before the trigger splitter
        elements = [
            ("splitter", (0, 1), "symmetric"),
            ("shifter", (1,), -math.pi / 2),
            ("splitter", (1, 2), "symmetric"),
        ]
        assert not self._evaluate(elements)[0]

    def test_shipped_topology_passes(self):
        passes, beta = self._evaluate(REFERENCE_ELEMENTS)
        assert passes and abs(beta) == pytest.approx(math.pi, abs=1e-9)  # pi or -pi

    def test_search_finds_only_squeezed_first_orderings(self):
        found = {key: self._evaluate(elements) for key, elements in _searched_wirings()}
        valid = {key for key, (passes, _) in found.items() if passes}
        # the shipped wiring and three re-phasings of it; each heralds the
        # antisymmetric branch combination
        assert valid == {
            ("squeezed_first", "symmetric", math.pi, -math.pi / 2),
            ("squeezed_first", "symmetric", 0.0, -math.pi / 2),
            ("squeezed_first", "real", -math.pi / 2, math.pi),
            ("squeezed_first", "real", math.pi / 2, math.pi),
        }
        assert all(abs(found[key][1]) == pytest.approx(math.pi, abs=1e-9) for key in valid)


def _searched_wirings():
    """(order, convention, per-photon phase, trailing gauge) and the elements of each wiring.

    The middle shifter's constant phase pi multiplies the whole state, so
    it changes none of what the search checks, and the elements omit it.
    """
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
                        ("splitter", first, convention),
                        ("shifter", (1,), phase),
                        ("splitter", last, convention),
                    ]
                    if gauge is not None:
                        elements.append(("shifter", (1,), gauge))
                    yield (order, convention, phase, gauge), elements


def _inputs(r):
    """The per-mode input states at ``r``: coherent, squeezed vacuum, vacuum."""
    return [Coherent(pump_amplitude(r)), SqueezedVacuum(r), Fock(0)]


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


# the reference circuit's herald, (mode, count), and its output modes and cap
HERALD, OUTPUTS = (2, 1), ((0, 1), 4)


def _dense_run(r):
    """Reference: ``run_experiment`` through the dense references above."""
    u = _mode_matrix(REFERENCE_ELEMENTS).tolist()
    occs, amps = _dense_budget_amplitudes(_inputs(r), u, BUDGET, REFERENCE_PHASE, HERALD)
    state, mass = _dense_post_select(occs, amps, *HERALD, *OUTPUTS)
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

    ``run_experiment`` reads the transfer table built on its first run; the
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

    @classmethod
    def _assert_same(cls, r):
        states = _inputs(r)
        u = _mode_matrix(REFERENCE_ELEMENTS).tolist()
        got = _outcome(_heralded, *states[:2])
        for herald in (None, HERALD):
            amps = _dense_budget_amplitudes(states, u, BUDGET, REFERENCE_PHASE, herald)
            want = _outcome(_dense_post_select, *amps, *HERALD, *OUTPUTS)
            cls._assert_close(got, want)
        got, want = _outcome(run_experiment, r), _outcome(_dense_run, r)
        cls._assert_close(got, want)

    @pytest.mark.parametrize("r", r_extremes)
    def test_reference_config(self, r):
        self._assert_same(r)

    def test_reference_config_dense_grid(self):
        for k in range(201):
            self._assert_same(1e-3 + k * (5.0 - 1e-3) / 200)


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

    def test_repeated_squeeze_factor_accepted(self):
        # non-decreasing, not increasing: a repeated r gives the same point twice
        noon, ecs, phi = experiment_qcrb_comparison([1.0, 1.0])
        assert all(c.points[0] == c.points[1] for c in (noon, ecs, phi))

    def test_curves_smooth_and_monotone(self, curves):
        _, _, phi = curves
        values = phi.qcrbs
        diffs = np.diff(values)
        assert all(d < 0 for d in diffs)  # bound improves with squeezing here
        assert float(np.max(np.abs(diffs))) < 0.02
