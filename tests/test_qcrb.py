import math

import numpy as np
import pytest

from noonlike import (
    Balanced,
    Coherent,
    DenominatorNonPositive,
    FixedB,
    Fock,
    FockSuperposition,
    FOutOfRange,
    Moments,
    NonFiniteResult,
    NonPositivePhotonNumber,
    OptimizedB,
    ProbeSpec,
    QcrbReport,
    QfiMatrix,
    SingularMatrix,
    SqueezedCoherent,
    SqueezedVacuum,
    ZeroPhotonState,
    fock_amplitudes,
    mean_total_photons,
    moments,
    noon_bound_check,
    noon_qcrb,
    qcrb_closed_form,
    qcrb_from_f,
    qcrb_trace_inverse,
    qfi_matrix,
    resolve_weights,
)
from noonlike.qcrb import noon_ceiling

STATE_GRID = [
    Fock(1),
    Fock(2),
    Fock(5),
    Coherent(0.5),
    Coherent(1.0),
    Coherent(2.2),
    SqueezedVacuum(0.4),
    SqueezedVacuum(1.0),
    SqueezedVacuum(2.1),
    SqueezedCoherent(0.8, 0.5),
    SqueezedCoherent(1.5, 1.2),
]


def _balanced_b2(d, vacuum_prob):
    b2, c = resolve_weights(d, Moments(1.0, 1.0, vacuum_prob), Balanced())
    assert c == math.sqrt(b2)
    return b2


class TestBalancedWeight:
    def test_two_mode_noon(self):
        assert _balanced_b2(1, 0.0) == 0.5

    def test_six_mode_no_overlap(self):
        assert _balanced_b2(5, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_with_overlap(self):
        # frozen from direct evaluation
        assert _balanced_b2(5, math.exp(-1)) == pytest.approx(
            0.05869790472529191, rel=1e-14
        )


class TestMeanTotalPhotons:
    @pytest.mark.parametrize("d", [1, 3, 7])
    def test_fock_passthrough(self, d):
        assert mean_total_photons(d, Fock(3)) == 3.0

    def test_coherent(self):
        # frozen from direct evaluation of n / (1 + d exp(-alpha^2))
        assert mean_total_photons(5, Coherent(1.0)) == pytest.approx(
            0.35218742835175143, rel=1e-14
        )

    def test_squeezed_vacuum_near_four(self):
        assert mean_total_photons(5, SqueezedVacuum(1.87)) == pytest.approx(4.0, abs=0.01)


class TestQfiMatrix:
    def test_single_phase_single_photon(self):
        m = qfi_matrix(ProbeSpec(1, Fock(1)))
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_two_phase_single_photon(self):
        m = qfi_matrix(ProbeSpec(2, Fock(1)))
        assert np.allclose(np.diag(m.entries), 8.0 / 9.0)
        assert m.entries[0, 1] == pytest.approx(-4.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_structure(self, state, d):
        m = qfi_matrix(ProbeSpec(d, state)).entries
        mom = moments(state)
        b2 = _balanced_b2(d, mom.vacuum_prob)
        a = 4 * b2 * mom.mean_n2
        c = 4 * b2 * b2 * mom.mean_n**2
        assert np.allclose(m, a * np.eye(d) - c * np.ones((d, d)), rtol=1e-13)

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            qfi_matrix(ProbeSpec(3, Fock(0)))


class TestTraceInverse:
    def test_identity(self):
        assert qcrb_trace_inverse(QfiMatrix(np.eye(3))) == pytest.approx(3.0)

    def test_single_photon(self):
        m = qfi_matrix(ProbeSpec(1, Fock(1)))
        assert qcrb_trace_inverse(m) == pytest.approx(1.0, abs=1e-14)

    def test_ill_conditioned_rejected(self):
        entries = np.eye(3) - (1.0 - 1e-13) / 3.0 * np.ones((3, 3))
        with pytest.raises(SingularMatrix):
            qcrb_trace_inverse(QfiMatrix(entries))

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", list(range(1, 9)))
    def test_matches_closed_form(self, state, d):
        spec = ProbeSpec(d, state)
        cf = qcrb_closed_form(spec).qcrb
        ti = qcrb_trace_inverse(qfi_matrix(spec))
        assert abs(cf - ti) / cf <= 1e-9


class TestClosedForm:
    def test_noon_five_phases(self):
        assert qcrb_closed_form(ProbeSpec(5, Fock(2))).qcrb == pytest.approx(3.75, abs=1e-12)

    def test_two_mode_single_photon(self):
        assert qcrb_closed_form(ProbeSpec(1, Fock(1))).qcrb == pytest.approx(1.0, abs=1e-14)

    def test_esvs_example(self):
        rep = qcrb_closed_form(ProbeSpec(5, SqueezedVacuum(1.87)))
        assert rep.qcrb == pytest.approx(0.0598, abs=0.0005)

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            qcrb_closed_form(ProbeSpec(2, Fock(0)))

    def test_degenerate_weight_rejected(self):
        # at the ellipse boundary of a number state the denominator hits zero
        with pytest.raises(DenominatorNonPositive):
            qcrb_closed_form(ProbeSpec(2, Fock(1), FixedB(0.5)))

    def test_non_finite_field_rejected(self):
        # a subnormal weight overflows 1/b^2, so the bound itself is infinite
        with pytest.raises(NonFiniteResult, match="^qcrb = inf is not finite$"):
            qcrb_closed_form(ProbeSpec(5, SqueezedVacuum(2.0), FixedB(1e-320)))

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_report_invariants(self, state, d):
        rep = qcrb_closed_form(ProbeSpec(d, state))
        assert rep.qcrb > 0
        assert rep.R >= 1.0
        assert 0 < rep.f <= 1.0 / rep.n_bar + 1e-12
        assert rep.n_bar <= rep.n_tilde + 1e-12
        if moments(state).vacuum_prob == 0.0:
            assert rep.n_bar == pytest.approx(rep.n_tilde, rel=1e-14)

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 4])
    def test_balanced_weights_satisfy_ellipse(self, state, d):
        rep = qcrb_closed_form(ProbeSpec(d, state))
        v = moments(state).vacuum_prob
        a_coef = d + d * (d - 1) * v
        b_coef = 2 * d * v
        assert (a_coef + b_coef + 1.0) * rep.b2 == pytest.approx(1.0, abs=1e-12)


class TestBoundFromF:
    def test_consistency_with_noon(self):
        assert qcrb_from_f(5, 2.0, 0.5) == pytest.approx(3.75, abs=1e-12)

    def test_upper_limit_equals_noon_bound(self):
        for d, n_bar in [(1, 1.0), (5, 2.0), (8, 4.5)]:
            assert qcrb_from_f(d, n_bar, 1.0 / n_bar) == pytest.approx(
                d * (d + 1) / (2 * n_bar**2), rel=1e-12
            )

    def test_esvs_point(self):
        rep = qcrb_closed_form(ProbeSpec(5, SqueezedVacuum(1.8696812362638453)))
        assert qcrb_from_f(5, rep.n_bar, rep.f) == pytest.approx(rep.qcrb, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(FOutOfRange):
            qcrb_from_f(3, 2.0, 0.6)
        with pytest.raises(FOutOfRange):
            qcrb_from_f(3, 2.0, 0.0)

    @pytest.mark.parametrize("d,n_bar", [(1, 0.7), (3, 2.0), (5, 4.0), (10, 8.0)])
    def test_strictly_increasing_in_f(self, d, n_bar):
        # finite-difference check over the admissible interval
        fs = np.linspace(1e-4, 1.0 / n_bar, 200)
        values = [qcrb_from_f(d, n_bar, float(f)) for f in fs]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("state", STATE_GRID)
    def test_agrees_with_closed_form(self, state):
        rep = qcrb_closed_form(ProbeSpec(4, state))
        assert qcrb_from_f(4, rep.n_bar, rep.f) == pytest.approx(rep.qcrb, rel=1e-12)


class TestNoonBound:
    def test_unit(self):
        assert noon_qcrb(1, 1) == 1.0

    def test_five_phases(self):
        assert noon_qcrb(5, 4) == pytest.approx(0.9375, abs=1e-15)

    def test_effective_photon_number(self):
        assert noon_qcrb(1, 2.2462) == pytest.approx(0.19820, abs=1e-5)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositivePhotonNumber):
            noon_qcrb(3, 0.0)

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 3), (5, 2), (7, 6)])
    def test_noon_reports_saturate(self, d, n):
        rep = qcrb_closed_form(ProbeSpec(d, Fock(n)))
        assert abs(rep.qcrb - noon_qcrb(d, rep.n_bar)) <= 1e-12
        assert noon_bound_check(rep, d)

    @pytest.mark.parametrize(
        "state", [Coherent(1.0), SqueezedVacuum(1.0), SqueezedCoherent(1.0, 0.5)]
    )
    def test_fluctuating_states_strictly_below(self, state):
        rep = qcrb_closed_form(ProbeSpec(5, state))
        assert noon_bound_check(rep, 5)
        assert rep.qcrb < noon_qcrb(5, rep.n_bar) - 1e-6

    def test_ceiling_is_the_check_threshold(self):
        ceiling = noon_ceiling(5, 2.0)
        assert ceiling == noon_qcrb(5, 2.0) + 1e-12
        for qcrb, within in ((ceiling, True), (math.nextafter(ceiling, math.inf), False)):
            assert noon_bound_check(QcrbReport(qcrb, 0.5, 2.0, 0.1, 2.0, 2.0), 5) is within


def _probe_tensor(d, state, b2, c):
    """Explicit (d+1)-mode probe c|phi,0..0> + b sum_j |0..phi_j..0>.

    Axis 0 is the reference mode; axes 1..d carry the phases.
    """
    phi = fock_amplitudes(state).amps
    psi = np.zeros((len(phi),) * (d + 1), dtype=np.complex128)
    for mode in range(d + 1):
        index = [0] * (d + 1)
        index[mode] = slice(None)
        psi[tuple(index)] += (c if mode == 0 else math.sqrt(b2)) * phi
    return psi


ORACLE_STATES = [
    SqueezedVacuum(0.7),
    Coherent(1.1),
    SqueezedCoherent(0.9, 0.4),
    FockSuperposition((math.sqrt(0.2), math.sqrt(0.5), 0.0, math.sqrt(0.3))),
    FockSuperposition((0.0, math.sqrt(0.6), -math.sqrt(0.4))),
]


def _ellipse_boundary(d, state):
    v = moments(state).vacuum_prob
    return 1.0 / (d * (1 + d * v) * (1 - v))


class TestAmplitudeFisherOracle:
    """Norm, photon number and Fisher matrix from explicit amplitudes.

    The pure-state Fisher matrix is F_jk = 4 Re(<dj psi|dk psi> -
    <dj psi|psi><psi|dk psi>) with dj psi = i n_j psi (Liu et al., J. Phys. A
    53, 023001 (2020)).  Nothing here reuses the closed-form coefficients, so
    a wrong weight or photon number in the report cannot cancel out.
    """

    @pytest.mark.parametrize(
        "state", ORACLE_STATES, ids=["sv", "coherent", "sc", "superposition", "no_vacuum"]
    )
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("weighting", ["balanced", "half", "optimized", "boundary"])
    def test_report_matches_amplitudes(self, d, state, weighting):
        weighting = {
            "balanced": Balanced(),
            "half": FixedB(0.5 * _ellipse_boundary(d, state)),
            "optimized": OptimizedB(),
            "boundary": FixedB(_ellipse_boundary(d, state)),
        }[weighting]
        spec = ProbeSpec(d, state, weighting)
        report = qcrb_closed_form(spec)
        b2, c = resolve_weights(d, moments(state), weighting)
        assert b2 == report.b2

        psi = _probe_tensor(d, state, b2, c)
        prob = np.abs(psi) ** 2
        counts = np.indices(psi.shape)
        assert prob.sum() == pytest.approx(1.0, abs=1e-10)
        mean = (counts.sum(axis=0) * prob).sum()
        assert mean == pytest.approx((c * c + d * b2) * moments(state).mean_n, rel=1e-10)
        if isinstance(weighting, Balanced):
            assert mean == pytest.approx(report.n_bar, rel=1e-10)

        grads = [1j * counts[j] * psi for j in range(1, d + 1)]
        fisher = np.array(
            [
                [
                    4.0 * (np.vdot(gj, gk) - np.vdot(gj, psi) * np.vdot(psi, gk)).real
                    for gk in grads
                ]
                for gj in grads
            ]
        )
        assert np.allclose(fisher, qfi_matrix(spec).entries, rtol=1e-10, atol=0.0)
        assert np.trace(np.linalg.inv(fisher)) == pytest.approx(report.qcrb, rel=1e-10)


class TestUnbalancedPhotonNumber:
    def test_optimized_esvs_regression(self):
        # the probe's own mean is (c^2 + d b^2)<n>; the report's n_bar stays
        # the balanced <n>/(1 + d p0) of the same constituent
        state = SqueezedVacuum(2.0)
        m = moments(state)
        b2, c = resolve_weights(5, m, OptimizedB())
        mean = (c * c + 5 * b2) * m.mean_n
        assert mean == pytest.approx(10.4101362133664, rel=1e-12)
        assert f"{mean:.12g}" == "10.4101362134"
        rep = qcrb_closed_form(ProbeSpec(5, state, OptimizedB()))
        assert rep.n_bar == mean_total_photons(5, state)
        assert f"{rep.n_bar:.12g}" == "5.64794052228"
