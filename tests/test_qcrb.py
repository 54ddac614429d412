import math
import random
import re
import sys

import numpy as np
import pytest

from noonlike import (
    Balanced,
    Coherent,
    ConstraintInfeasible,
    DegenerateOverlap,
    DenominatorNonPositive,
    FixedB,
    Fock,
    FockSuperposition,
    FOutOfRange,
    Moments,
    NonFiniteResult,
    NonPositivePhotonNumber,
    OptimizedB,
    OrderingViolation,
    ParameterOutOfRange,
    QfiMatrix,
    SingularMatrix,
    SqueezedCoherent,
    SqueezedVacuum,
    ZeroPhotonState,
    fock_amplitudes,
    mean_total_photons,
    moments,
    noon_qcrb,
    qcrb_closed_form,
    qcrb_from_f,
    qcrb_trace_inverse,
    qfi_matrix,
    resolve_weights,
    solve_param_for_nbar,
)
from noonlike.families import (
    balanced_vs_unbalanced_sweep,
    compare_families_at_nbar,
    escs_sweep_r_prime,
    matched_report,
    nbar_map,
)
from noonlike.qcrb import _D_MAX, _check_below_noon, _check_ordered, noon_ceiling

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


class TestUnresolvableWeights:
    @pytest.mark.parametrize("weighting", [FixedB(0.1), OptimizedB()], ids=repr)
    def test_vacuum_overlap_of_one(self, weighting):
        with pytest.raises(DegenerateOverlap, match="^vacuum overlap of 1 leaves no photons"):
            resolve_weights(5, Moments(0.0, 0.0, 1.0), weighting)

    def test_optimized_weight_of_a_zero_photon_state(self):
        with pytest.raises(ZeroPhotonState, match="^cannot optimize weights for a zero-photon"):
            resolve_weights(5, Moments(0.0, 0.0, 0.5), OptimizedB())

    @pytest.mark.parametrize("weighting", [None, 0.1, "balanced"])
    def test_not_a_weighting(self, weighting):
        message = f"weighting must be a Weighting, got {type(weighting).__name__} {weighting!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            resolve_weights(5, Moments(1.0, 2.0, 0.5), weighting)


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
        m = qfi_matrix(1, Fock(1))
        assert m.entries.shape == (1, 1)
        assert m.entries[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_two_phase_single_photon(self):
        m = qfi_matrix(2, Fock(1))
        assert np.allclose(np.diag(m.entries), 8.0 / 9.0)
        assert m.entries[0, 1] == pytest.approx(-4.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_structure(self, state, d):
        m = qfi_matrix(d, state).entries
        mom = moments(state)
        b2 = _balanced_b2(d, mom.vacuum_prob)
        a = 4 * b2 * mom.mean_n2
        c = 4 * b2 * b2 * mom.mean_n**2
        assert np.allclose(m, a * np.eye(d) - c * np.ones((d, d)), rtol=1e-13)

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            qfi_matrix(3, Fock(0))

    def test_whole_float_d(self):
        assert np.array_equal(qfi_matrix(3.0, Fock(1)).entries, qfi_matrix(3, Fock(1)).entries)


class TestTraceInverse:
    def test_identity(self):
        assert qcrb_trace_inverse(QfiMatrix(np.eye(3))) == pytest.approx(3.0)

    def test_single_photon(self):
        m = qfi_matrix(1, Fock(1))
        assert qcrb_trace_inverse(m) == pytest.approx(1.0, abs=1e-14)

    def test_ill_conditioned_rejected(self):
        entries = np.eye(3) - (1.0 - 1e-13) / 3.0 * np.ones((3, 3))
        with pytest.raises(SingularMatrix):
            qcrb_trace_inverse(QfiMatrix(entries))

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", list(range(1, 9)))
    def test_matches_closed_form(self, state, d):
        cf = qcrb_closed_form(d, state).qcrb
        ti = qcrb_trace_inverse(qfi_matrix(d, state))
        assert abs(cf - ti) / cf <= 1e-9


class TestClosedForm:
    def test_noon_five_phases(self):
        assert qcrb_closed_form(5, Fock(2)).qcrb == pytest.approx(3.75, abs=1e-12)

    def test_two_mode_single_photon(self):
        assert qcrb_closed_form(1, Fock(1)).qcrb == pytest.approx(1.0, abs=1e-14)

    def test_esvs_example(self):
        rep = qcrb_closed_form(5, SqueezedVacuum(1.87))
        assert rep.qcrb == pytest.approx(0.0598, abs=0.0005)

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            qcrb_closed_form(2, Fock(0))

    def test_degenerate_weight_rejected(self):
        # at the ellipse boundary of a number state the denominator hits zero
        message = r"^b2 = 0\.5 is the boundary weight 1/d of a number state: .* \(c = 0\)"
        with pytest.raises(DenominatorNonPositive, match=message):
            qcrb_closed_form(2, Fock(1), FixedB(0.5))

    def test_zero_weight_rejected(self):
        # the range of b^2 is open at 0, where 1/b^2 would divide by zero
        with pytest.raises(ConstraintInfeasible, match=r"^b2=0\.0 outside \(0, "):
            qcrb_closed_form(2, Fock(1), FixedB(0.0))

    def test_non_finite_field_rejected(self):
        # a subnormal weight overflows 1/b^2, so the bound itself is infinite
        with pytest.raises(NonFiniteResult, match="^qcrb = inf is not finite$"):
            qcrb_closed_form(5, SqueezedVacuum(2.0), FixedB(1e-320))

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_report_invariants(self, state, d):
        rep = qcrb_closed_form(d, state)
        assert rep.qcrb > 0
        assert rep.R >= 1.0
        assert 0 < rep.f <= 1.0 / rep.n_bar + 1e-12
        assert rep.n_bar <= rep.n_tilde + 1e-12
        if moments(state).vacuum_prob == 0.0:
            assert rep.n_bar == pytest.approx(rep.n_tilde, rel=1e-14)

    @pytest.mark.parametrize("state", STATE_GRID)
    @pytest.mark.parametrize("d", [1, 4])
    def test_balanced_weights_satisfy_ellipse(self, state, d):
        rep = qcrb_closed_form(d, state)
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
        rep = qcrb_closed_form(5, SqueezedVacuum(1.8696812362638453))
        assert qcrb_from_f(5, rep.n_bar, rep.f) == pytest.approx(rep.qcrb, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(FOutOfRange, match=r"^f=0\.6 outside \(0, 1/n_bar=0\.5\]$"):
            qcrb_from_f(3, 2.0, 0.6)
        with pytest.raises(FOutOfRange):
            qcrb_from_f(3, 2.0, 0.0)

    def test_nan_n_bar_named(self):
        with pytest.raises(NonPositivePhotonNumber, match="^n_bar must be positive, got nan$"):
            qcrb_from_f(1, math.nan, 0.5)

    @pytest.mark.parametrize("d,n_bar", [(1, 0.7), (3, 2.0), (5, 4.0), (10, 8.0)])
    def test_strictly_increasing_in_f(self, d, n_bar):
        # finite-difference check over the admissible interval
        fs = np.linspace(1e-4, 1.0 / n_bar, 200)
        values = [qcrb_from_f(d, n_bar, float(f)) for f in fs]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("state", STATE_GRID)
    def test_agrees_with_closed_form(self, state):
        rep = qcrb_closed_form(4, state)
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

    def test_nan_rejected(self):
        with pytest.raises(NonPositivePhotonNumber, match="^photon number must be positive"):
            noon_qcrb(1, math.nan)

    @pytest.mark.parametrize(
        "d, n, bound", [(5, math.inf, "0.0"), (5, 1e200, "0.0"), (10**6, 1e-150, "inf"),
                        (5, 1e-200, "inf")],
    )
    def test_unrepresentable_bound_rejected(self, d, n, bound):
        # these gave 0.0, 0.0, inf and a bare ZeroDivisionError
        message = re.escape(f"photon number {n} gives the NOON bound {bound} at d={d}")
        with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
            noon_qcrb(d, n)
        with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
            noon_ceiling(d, n)

    def test_infinite_budget_is_no_ordering_violation(self):
        with pytest.raises(ParameterOutOfRange):
            _check_below_noon(1, math.inf, [1.0])

    def test_nan_budget_keeps_the_ceiling(self):
        # a NaN ceiling would let any value pass
        with pytest.raises(NonPositivePhotonNumber):
            _check_below_noon(1, math.nan, [1e9])

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 3), (5, 2), (7, 6)])
    def test_noon_reports_saturate(self, d, n):
        rep = qcrb_closed_form(d, Fock(n))
        assert abs(rep.qcrb - noon_qcrb(d, rep.n_bar)) <= 1e-12
        _check_below_noon(d, rep.n_bar, [rep.qcrb])

    @pytest.mark.parametrize(
        "state", [Coherent(1.0), SqueezedVacuum(1.0), SqueezedCoherent(1.0, 0.5)]
    )
    def test_fluctuating_states_strictly_below(self, state):
        rep = qcrb_closed_form(5, state)
        assert rep.qcrb < noon_qcrb(5, rep.n_bar) - 1e-6

    def test_ceiling_is_the_check_threshold(self):
        ceiling = noon_ceiling(5, 2.0)
        assert ceiling == noon_qcrb(5, 2.0) * (1.0 + 1e-12)
        _check_below_noon(5, 2.0, [1.0, ceiling])
        above = math.nextafter(ceiling, math.inf)
        message = f"^NOON ceiling exceeded at d=5, n_bar=2.0: {re.escape(str([1.0, above]))}$"
        with pytest.raises(OrderingViolation, match=message):
            _check_below_noon(5, 2.0, [1.0, above])

    def test_number_states_within_their_ceiling(self):
        # the closed form of a number state lands within a few ulp of the NOON
        # value; the ceiling's slack is relative, as an absolute 1e-12 falls
        # below one ulp once the bound passes ~1e4 (small budgets)
        rng = random.Random(15)
        for _ in range(4000):
            n = 10.0 ** rng.uniform(-4.0, 2.0)
            d = rng.choice((1, 2, 5, 50))
            assert qcrb_closed_form(d, Fock(n)).qcrb <= noon_ceiling(d, n), (d, n)


# every public function that takes d, called with a valid rest
D_TAKERS = {
    "qcrb_closed_form": lambda d: qcrb_closed_form(d, Coherent(1.0)),
    "resolve_weights": lambda d: resolve_weights(d, moments(Coherent(1.0)), Balanced()),
    "mean_total_photons": lambda d: mean_total_photons(d, Coherent(1.0)),
    "qcrb_from_f": lambda d: qcrb_from_f(d, 1.0, 0.5),
    "noon_qcrb": lambda d: noon_qcrb(d, 2.0),
    "solve_param_for_nbar": lambda d: solve_param_for_nbar("ecs", d, 3.0),
    "nbar_map": lambda d: nbar_map("ecs", d)(1.0),
    "matched_report": lambda d: matched_report("escs", d, 3.0, 1.0),
    "compare_families_at_nbar": lambda d: compare_families_at_nbar(d, 3.0),
    "escs_sweep_r_prime": lambda d: escs_sweep_r_prime(d, 3.0, [0.4, 1.2]),
    "balanced_vs_unbalanced_sweep": lambda d: balanced_vs_unbalanced_sweep(d, [0.5, 1.0]),
}


class TestPhaseCount:
    @pytest.mark.parametrize("take", D_TAKERS.values(), ids=D_TAKERS.keys())
    @pytest.mark.parametrize("d", [2.5, math.inf, math.nan, 1.0 + 1e-15])
    def test_non_whole_rejected(self, take, d):
        with pytest.raises(ValueError, match=f"^d must be a finite whole number, got {d}$"):
            take(d)

    @pytest.mark.parametrize("take", D_TAKERS.values(), ids=D_TAKERS.keys())
    @pytest.mark.parametrize("d", [0, -3, 0.5, -math.inf])
    def test_below_one_rejected(self, take, d):
        with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
            take(d)

    @pytest.mark.parametrize("take", D_TAKERS.values(), ids=D_TAKERS.keys())
    @pytest.mark.parametrize("d", [10**400, _D_MAX + 1, 1e300], ids=["10**400", "D_MAX+1", "1e300"])
    def test_numerator_beyond_a_double_rejected(self, take, d):
        # d * (d + 1) would fail to convert deep inside, with a bare OverflowError
        with pytest.raises(ValueError, match=r"^d must keep d \* \(d \+ 1\) within a double"):
            take(d)

    @pytest.mark.parametrize("take", D_TAKERS.values(), ids=D_TAKERS.keys())
    @pytest.mark.parametrize(
        "d", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"]
    )
    def test_bool_rejected(self, take, d):
        # a bool is no number: True passed as d = 1, and noon_qcrb(True, 2) gave
        # 0.25; so did noon_qcrb(numpy.True_, 2), numpy's bool being no int
        with pytest.raises(TypeError, match=f"^d must be a whole number, got bool {d!r}$"):
            take(d)

    @pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
    @pytest.mark.parametrize(
        "name, take",
        [("n", lambda v: noon_qcrb(1, v)), ("n_bar", lambda v: qcrb_from_f(1, v, 0.5)),
         ("f", lambda v: qcrb_from_f(1, 0.5, v)), ("b2", FixedB)],
        ids=["noon_qcrb-n", "qcrb_from_f-n_bar", "qcrb_from_f-f", "FixedB-b2"],
    )
    def test_bool_number_rejected(self, name, take, value):
        # noon_qcrb(1, True) gave 1.0, qcrb_from_f(1, True, 0.5) 0.333, and
        # FixedB(True) stored b2=True
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got bool {value!r}$"):
            take(value)

    def test_largest_numerator_accepted(self):
        assert _D_MAX * (_D_MAX + 1) <= sys.float_info.max < (_D_MAX + 1) * (_D_MAX + 2)
        assert noon_qcrb(_D_MAX, 2.0) == float(_D_MAX * (_D_MAX + 1)) / 8.0

    @pytest.mark.parametrize("take", D_TAKERS.values(), ids=D_TAKERS.keys())
    def test_whole_float_equals_int(self, take):
        assert take(5.0) == take(5)

    def test_numpy_int_equals_int(self):
        assert qcrb_closed_form(np.int64(3), Fock(1)) == qcrb_closed_form(3, Fock(1))

    @pytest.mark.parametrize("take", [qcrb_closed_form, qfi_matrix])
    @pytest.mark.parametrize("state", [Fock(0), "x"], ids=["vacuum", "str"])
    def test_d_checked_before_the_state(self, take, state):
        with pytest.raises(ValueError, match="^d must be >= 1, got 0$"):
            take(0, state)


class TestOrderingCheck:
    def test_strict_chains_pass(self):
        _check_ordered([3.0, 2.0, 1.0], "bound", "d=5")
        _check_ordered([1.0, 2.0, 3.0], "bound", "d=5", increasing=True)
        _check_ordered([1.0], "bound", "d=5")

    @pytest.mark.parametrize(
        "values, increasing",
        [([3.0, 3.0, 1.0], False), ([3.0, 1.0, 2.0], False), ([1.0, 2.0, 2.0], True),
         ([2.0, 1.0], True)],
    )
    def test_tie_or_reversal_raises(self, values, increasing):
        message = f"^bound ordering failed at d=5: {re.escape(str(values))}$"
        with pytest.raises(OrderingViolation, match=message):
            _check_ordered(values, "bound", "d=5", increasing)


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
        report = qcrb_closed_form(d, state, weighting)
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
        assert np.allclose(fisher, qfi_matrix(d, state, weighting).entries, rtol=1e-10, atol=0.0)
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
        rep = qcrb_closed_form(5, state, OptimizedB())
        assert rep.n_bar == mean_total_photons(5, state)
        assert f"{rep.n_bar:.12g}" == "5.64794052228"
