import math
import re

import numpy as np
import pytest

from noonlike import (
    FAMILIES,
    Balanced,
    BracketFailure,
    Coherent,
    ConstraintInfeasible,
    FixedB,
    Fock,
    Moments,
    OptimizedB,
    ParameterOutOfRange,
    QcrbReport,
    SqueezedCoherent,
    SqueezedVacuum,
    balanced_vs_unbalanced_sweep,
    compare_families_at_nbar,
    compare_sweeps_at_common_nbar,
    escs_ratio_bracket_check,
    escs_sweep_r_prime,
    matched_report,
    mean_total_photons,
    moments,
    noon_qcrb,
    qcrb_closed_form,
    resolve_weights,
    solve_param_for_nbar,
)
from noonlike.families import SweepCurve, constituent, nbar_map
from noonlike.qcrb import _REPORTED

FEASIBLE_GRID = [
    (d, nb)
    for d in (1, 2, 5, 10)
    for nb in (0.5, 1.0, 2.0, 4.0, 8.0)
    if not (nb == 0.5 and d in (1, 2))  # below the ESCS floor at unit squeeze
]


def _golden_section_min(fn, lo, hi, tol=1e-12):
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


class TestFamilyTable:
    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("p", [0.3, 2.0])
    def test_constituent_carries_its_parameter(self, family, p):
        assert getattr(constituent(family, 0.7)(p), FAMILIES[family].parameter) == p

    # 0, the smallest and largest representable parameters (alpha, then r),
    # and quarter decades in between, where d * (1 / cosh r) and d / cosh r
    # round apart; ESVS skips the alphas above its range
    MAP_GRID = (
        [0.0, 1.2214e-77, 1e-9]
        + [10 ** (k / 4) for k in range(-12, 9)]
        + [177.09, 1e20, 4.0938e76]
    )

    @pytest.mark.parametrize("family", ["ecs", "escs", "esvs"])
    @pytest.mark.parametrize("d", [1, 2, 5, 50, 10**6])
    @pytest.mark.parametrize("r_prime", [0.05, 0.4, 1.0, 2.0])
    def test_nbar_map_is_the_general_path_bit_for_bit(self, family, d, r_prime):
        nbar = nbar_map(family, d, r_prime)
        build = constituent(family, r_prime)
        grid = [p for p in self.MAP_GRID if family != "esvs" or p <= 177.09]
        for p in grid:
            assert nbar(p) == mean_total_photons(d, build(p)), p

    @pytest.mark.parametrize(
        "family, p",
        [(fam, p) for fam in ("ecs", "escs", "esvs") for p in (1e-80, 5e76)]
        + [("esvs", 177.2), ("esvs", -177.2)],
    )
    def test_nbar_map_rejects_what_the_constructor_rejects(self, family, p):
        with pytest.raises(ParameterOutOfRange) as built:
            constituent(family, 1.0)(p)
        with pytest.raises(ParameterOutOfRange, match=f"^{re.escape(str(built.value))}$"):
            nbar_map(family, 5, 1.0)(p)


class TestEscsAtZeroDisplacement:
    """ESCS at zero displacement is the ESVS probe of the same squeeze factor."""

    R_GRID = [1e-6, 0.05, 0.4, 1.0, 2.0, 3.9]

    @pytest.mark.parametrize("r", R_GRID)
    def test_moments_equal(self, r):
        escs, esvs = moments(SqueezedCoherent(0.0, r)), moments(SqueezedVacuum(r))
        assert escs.mean_n == esvs.mean_n
        assert escs.vacuum_prob == esvs.vacuum_prob

    @pytest.mark.parametrize("r", R_GRID)
    @pytest.mark.parametrize("d", [1, 5, 50, 10**6])
    def test_nbar_maps_and_bounds_agree(self, r, d):
        assert nbar_map("escs", d, r)(0.0) == nbar_map("esvs", d)(r)
        escs = qcrb_closed_form(d, SqueezedCoherent(0.0, r)).qcrb
        esvs = qcrb_closed_form(d, SqueezedVacuum(r)).qcrb
        assert escs == pytest.approx(esvs, rel=4e-15, abs=0.0)


class TestSolve:
    def test_noon_effective(self):
        state = solve_param_for_nbar("noon", 5, 2.0)
        assert isinstance(state, Fock) and state.n == 2.0

    def test_ecs_example(self):
        state = solve_param_for_nbar("ecs", 1, 2.2462)
        assert state.alpha**2 == pytest.approx(2.442, abs=1e-3)

    def test_esvs_example(self):
        state = solve_param_for_nbar("esvs", 5, 4.0)
        assert state.r == pytest.approx(1.87, abs=0.01)
        assert state.r == pytest.approx(1.8696812362638453, abs=1e-9)

    @pytest.mark.parametrize("d,nb", FEASIBLE_GRID)
    @pytest.mark.parametrize("family", ["ecs", "escs", "esvs"])
    def test_residuals(self, family, d, nb):
        r_prime = 1.0 if family == "escs" else None
        state = solve_param_for_nbar(family, d, nb, r_prime)
        assert abs(mean_total_photons(d, state) - nb) <= 1e-10 * max(1.0, nb)

    @pytest.mark.parametrize("d,floor", [(1, 0.838017), (2, 0.601495)])
    def test_escs_floor_unreachable(self, d, floor):
        # at zero displacement the family degenerates to the matched
        # squeezed vacuum, so targets below that value have no solution
        with pytest.raises(BracketFailure):
            solve_param_for_nbar("escs", d, 0.9 * floor, 1.0)
        state = solve_param_for_nbar("escs", d, floor * 1.001, 1.0)
        assert state.alpha > 0


    @pytest.mark.parametrize("d", [0, -3])
    def test_d_below_one_rejected(self, d):
        with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
            solve_param_for_nbar("ecs", d, 4.0)

    @pytest.mark.parametrize("n_bar", [0.0, -2.0])
    def test_nonpositive_n_bar_rejected(self, n_bar):
        with pytest.raises(ValueError, match="^n_bar must be positive"):
            solve_param_for_nbar("esvs", 5, n_bar)

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("n_bar", [1e300, 1e-160])
    def test_unrepresentable_n_bar_named(self, family, n_bar):
        with pytest.raises(ParameterOutOfRange, match=r"^n_bar = .* is out of range"):
            solve_param_for_nbar(family, 5, n_bar, 1.0)

    def test_large_esvs_budgets_solve(self):
        # r <= 177.1 holds the ESVS solution of every budget up to the top of
        # n_bar's range, where a bisection's first doubling of its bracket would
        # leave r's range
        rng = np.random.default_rng(2016)
        budgets = np.exp(rng.uniform(np.log(2.05e76), np.log(1.675e153), 2000))
        for d, n_bar in zip(rng.choice([1, 5, 50, 10**6], 2000), budgets):
            state = solve_param_for_nbar("esvs", int(d), float(n_bar))
            assert 0.0 < state.r <= 177.1

    @pytest.mark.parametrize("r_prime", [None, -0.5])
    def test_escs_needs_nonnegative_squeeze(self, r_prime):
        with pytest.raises(ValueError, match="nonnegative squeeze factor"):
            solve_param_for_nbar("escs", 5, 4.0, r_prime)


class TestMatchedReport:
    @pytest.mark.parametrize("d, n_bar", [(5, 4.0), (1, 2.2462)])
    def test_equals_the_comparison_row(self, d, n_bar):
        rows = compare_families_at_nbar(d, n_bar, 1.0)
        for family, row in zip(FAMILIES, rows):
            report = matched_report(family, d, n_bar, 1.0)
            for field in QcrbReport.__slots__:
                assert getattr(report, field) == getattr(row, field), field
            assert report.family == family

    @pytest.mark.parametrize("r_prime", [0.0, 0.4, 1.2])
    @pytest.mark.parametrize("d", [1, 5, 50, 10**6])
    def test_is_the_closed_form_of_the_solved_state(self, d, r_prime):
        # the one pass gives, bit for bit, what the public path gives from
        # the solved state; n_bar runs from just above the ESCS floor at the
        # largest squeeze factor to 1e6
        floor = nbar_map("escs", d, 1.2)(0.0)
        n_bars = [floor * (1.0 + 1e-9), *(float(n) for n in np.geomspace(1.01 * floor, 1e6, 12))]
        for family in FAMILIES:
            for n_bar in n_bars:
                state = solve_param_for_nbar(family, d, n_bar, r_prime)
                bound = qcrb_closed_form(d, state)
                expected = QcrbReport(*(getattr(bound, k) for k in _REPORTED), family,
                                      getattr(state, FAMILIES[family].parameter))
                assert repr(matched_report(family, d, n_bar, r_prime)) == repr(expected)

    @pytest.mark.parametrize("r_prime", [0.4, 1.2])
    @pytest.mark.parametrize("d", [1, 5, 50, 10**6])
    def test_below_the_floor_both_paths_raise_alike(self, d, r_prime):
        n_bar = 0.5 * nbar_map("escs", d, r_prime)(0.0)
        with pytest.raises(BracketFailure, match="^n_bar = .* is below the floor ") as solved:
            solve_param_for_nbar("escs", d, n_bar, r_prime)
        with pytest.raises(BracketFailure) as matched:
            matched_report("escs", d, n_bar, r_prime)
        assert str(matched.value) == str(solved.value)

    def test_parameter_is_the_solved_one(self):
        report = matched_report("esvs", 5, 4.0)
        assert report.parameter == solve_param_for_nbar("esvs", 5, 4.0).r
        assert report.qcrb == pytest.approx(0.0598, abs=0.0005)
        assert report.n_bar == pytest.approx(4.0, rel=1e-10)


class TestCompareFamilies:
    def test_five_phase_example(self):
        reports = compare_families_at_nbar(5, 4.0, 1.0)
        noon, ecs, escs, esvs = reports
        assert noon.qcrb == pytest.approx(0.9375, abs=1e-12)
        assert esvs.qcrb == pytest.approx(0.0598, abs=0.0005)
        assert noon.qcrb / esvs.qcrb > 10

    def test_default_escs_squeeze_factor_is_one(self):
        default = compare_families_at_nbar(5, 4.0)
        assert repr(default) == repr(compare_families_at_nbar(5, 4.0, 1.0))

    def test_single_phase(self):
        reports = compare_families_at_nbar(1, 1.0, 1.0)
        q = [r.qcrb for r in reports]
        assert q[0] > q[1] > q[2] > q[3]

    @pytest.mark.parametrize("d,nb", FEASIBLE_GRID)
    def test_orderings_on_feasible_grid(self, d, nb):
        reports = compare_families_at_nbar(d, nb, 1.0)
        fams = [r.family for r in reports]
        assert fams == ["noon", "ecs", "escs", "esvs"]
        # compare_families_at_nbar raises OrderingViolation internally;
        # re-assert the three chains explicitly
        q = [r.qcrb for r in reports]
        nt = [r.n_tilde for r in reports]
        fs = [r.f for r in reports]
        assert all(a > b for a, b in zip(q, q[1:]))
        assert all(a < b for a, b in zip(nt, nt[1:]))
        assert all(a > b for a, b in zip(fs, fs[1:]))


class TestEscsSweep:
    def test_zero_squeeze_equals_ecs(self):
        curve = escs_sweep_r_prime(5, 2.0, [0.0])
        ecs = qcrb_closed_form(5, solve_param_for_nbar("ecs", 5, 2.0))
        assert curve.points[0][1] == pytest.approx(ecs.qcrb, abs=1e-10)

    def test_strictly_decreasing(self):
        curve = escs_sweep_r_prime(5, 2.0, [0.4, 0.8, 1.2])
        values = [q for _, q, _ in curve.points]
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("grid", [[1.2, 0.8, 0.4], [1.0, 1.0, 1.0], [0.4, 1.2, 0.8]])
    def test_grid_not_increasing_rejected(self, grid):
        # a reversed or flat grid is an input error, not an ordering fault
        with pytest.raises(ValueError, match="strictly increasing"):
            escs_sweep_r_prime(5, 4.0, grid)

    def test_generator_grid_read_once(self):
        # the checks must not consume a one-shot grid before the sweep reads it
        grid = (0.4, 0.8, 1.2)
        assert escs_sweep_r_prime(5, 2.0, (x for x in grid)) == escs_sweep_r_prime(5, 2.0, grid)

    @pytest.mark.parametrize("grid", [(1.2, 0.4), (0.4, -0.8)])
    def test_invalid_generator_grid_rejected(self, grid):
        with pytest.raises(ValueError):
            escs_sweep_r_prime(5, 4.0, (x for x in grid))

    def test_approaches_esvs_at_matched_squeeze(self):
        # the family degenerates to the matched squeezed vacuum as the
        # displacement shrinks to zero
        r_matched = solve_param_for_nbar("esvs", 5, 2.0).r
        esvs = qcrb_closed_form(5, SqueezedVacuum(r_matched)).qcrb
        curve = escs_sweep_r_prime(5, 2.0, [0.99 * r_matched])
        assert curve.points[0][1] == pytest.approx(esvs, rel=0.02)
        assert curve.points[0][1] > esvs

    def test_bounded_by_ecs_and_esvs(self):
        r_matched = solve_param_for_nbar("esvs", 5, 2.0).r
        esvs = qcrb_closed_form(5, SqueezedVacuum(r_matched)).qcrb
        ecs = qcrb_closed_form(5, solve_param_for_nbar("ecs", 5, 2.0)).qcrb
        curve = escs_sweep_r_prime(5, 2.0, [0.4, 0.8, 1.2])
        for _, q, _ in curve.points:
            assert esvs < q < ecs


class TestRatioBracket:
    def test_example_point(self):
        nb = mean_total_photons(5, SqueezedCoherent(1.0, 1.0))
        r_matched = solve_param_for_nbar("esvs", 5, nb).r
        assert escs_ratio_bracket_check(1.0, 1.0, r_matched)

    def test_large_displacement_limit(self):
        # ratio tends to e^{2 r'} > 1 as the displacement dominates
        r_p = 0.8
        a = 50.0
        sh2, ch2 = math.sinh(r_p) ** 2, math.cosh(r_p) ** 2
        ratio = (a**2 * math.exp(2 * r_p) + 2 * sh2 * ch2) / (a**2 + sh2)
        assert ratio == pytest.approx(math.exp(2 * r_p), rel=1e-3)
        assert ratio > 1.0

    @pytest.mark.parametrize("alpha_p", np.linspace(0.2, 2.0, 7))
    @pytest.mark.parametrize("r_p", np.linspace(0.2, 2.0, 7))
    def test_grid(self, alpha_p, r_p):
        nb = mean_total_photons(5, SqueezedCoherent(alpha_p, r_p))
        r_matched = solve_param_for_nbar("esvs", 5, nb).r
        assert escs_ratio_bracket_check(alpha_p, r_p, r_matched)


def _boundary(d, vacuum_prob):
    """Largest b^2 on the normalization ellipse, from its closed form."""
    return 1.0 / (d * (1 + d * vacuum_prob) * (1 - vacuum_prob))


def _optimal_b2(d, state):
    return resolve_weights(d, moments(state), OptimizedB())[0]


class TestUnbalancedWeights:
    @staticmethod
    def _capped_boundary(d, vacuum_prob):
        # a large R puts the stationary point beyond the ellipse, so the
        # optimized weight is capped at the boundary; a fixed weight just
        # past it is rejected
        m = Moments(1.0, 1e6, vacuum_prob)
        b2, c = resolve_weights(d, m, OptimizedB())
        assert resolve_weights(d, m, FixedB(b2)) == (b2, c)
        with pytest.raises(ConstraintInfeasible):
            resolve_weights(d, m, FixedB(b2 * (1 + 1e-8)))
        return b2, c

    def test_boundary_no_overlap(self):
        b2, c = self._capped_boundary(4, 0.0)
        assert b2 == pytest.approx(0.25, abs=1e-15)
        assert c == 0.0  # the tangency root -B b/2 with B = 0

    def test_boundary_example(self):
        # frozen from direct evaluation at v = 1/cosh(1)
        b2, _ = self._capped_boundary(5, 1 / math.cosh(1.0))
        assert b2 == pytest.approx(0.1340172334084228, rel=1e-12)

    def test_tangency_satisfies_constraint(self):
        d, v = 5, 1 / math.cosh(1.0)
        b2, c = resolve_weights(d, moments(SqueezedVacuum(1.0)), FixedB(_boundary(d, v)))
        a_coef, b_coef = d + d * (d - 1) * v, 2 * d * v
        b = math.sqrt(b2)
        assert abs(a_coef * b2 + b_coef * b * c + c * c - 1.0) <= 1e-10
        assert c == pytest.approx(-b_coef * b / 2, rel=1e-9)

    @pytest.mark.parametrize("state", [SqueezedVacuum(1.0), Coherent(1.2), Fock(3)])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_interior_weights_satisfy_constraint(self, state, frac):
        # the larger root of the ellipse, on the branch through c = b
        d = 5
        m = moments(state)
        v = m.vacuum_prob
        b2, c = resolve_weights(d, m, FixedB(frac * _boundary(d, v)))
        b = math.sqrt(b2)
        assert abs((d + d * (d - 1) * v) * b2 + 2 * d * v * b * c + c * c - 1.0) <= 1e-12
        assert c > -d * v * b

    def test_optimal_fock(self):
        assert _optimal_b2(4, Fock(3)) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_optimal_esvs_hits_boundary(self):
        v = moments(SqueezedVacuum(1.0)).vacuum_prob
        assert _optimal_b2(5, SqueezedVacuum(1.0)) == pytest.approx(
            _boundary(5, v), rel=1e-14
        )

    @pytest.mark.parametrize(
        "d,state",
        [
            (4, Fock(3)),
            (5, SqueezedVacuum(1.0)),
            (5, SqueezedVacuum(0.5)),
            (3, Coherent(1.3)),
            (6, SqueezedCoherent(1.0, 0.8)),
        ],
    )
    def test_matches_golden_section_oracle(self, d, state):
        bo = _boundary(d, moments(state).vacuum_prob)

        def bound_at(b2):
            return qcrb_closed_form(d, state, FixedB(b2)).qcrb

        oracle = _golden_section_min(bound_at, 1e-6 * bo, bo)
        assert _optimal_b2(d, state) == pytest.approx(oracle, abs=1e-8)
        report = qcrb_closed_form(d, state, OptimizedB())
        assert report.qcrb <= bound_at(oracle) * (1 + 1e-12)

    def test_stationary_point_derivative_vanishes(self):
        d, state = 4, Fock(2)
        b_star = _optimal_b2(d, state)
        assert b_star < _boundary(d, 0.0)  # interior branch
        h = 1e-5

        def bound_at(b2):
            return qcrb_closed_form(d, state, FixedB(b2)).qcrb

        deriv = (bound_at(b_star + h) - bound_at(b_star - h)) / (2 * h)
        assert abs(deriv) <= 1e-6

    def test_balanced_point_is_on_the_branch(self):
        b2, c = resolve_weights(5, moments(SqueezedVacuum(1.0)), Balanced())
        assert c == math.sqrt(b2)
        b2_fixed, c_fixed = resolve_weights(5, moments(SqueezedVacuum(1.0)), FixedB(b2))
        assert b2_fixed == b2
        assert c_fixed == pytest.approx(c, rel=1e-12)


def _probe_mean(d, state, weighting):
    """Mean total photons (c^2 + d b^2)<n> of the probe with resolved weights."""
    m = moments(state)
    b2, c = resolve_weights(d, m, weighting)
    return (c * c + d * b2) * m.mean_n


class TestUnbalancedMeanPhotons:
    @pytest.mark.parametrize("state", [SqueezedVacuum(1.0), Coherent(1.2)])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_balanced_weight_reduces_to_balanced_value(self, state, d):
        m = moments(state)
        b2_bal = 1.0 / ((d + 1) * (1 + d * m.vacuum_prob))
        expected = mean_total_photons(d, state)
        assert _probe_mean(d, state, FixedB(b2_bal)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("b2", [0.05, 0.1, 0.2])
    def test_fock_no_overlap(self, b2):
        # with zero vacuum overlap the ellipse gives c^2 = 1 - d b^2
        d, n = 4, 3
        expected = ((1 - d * b2) + d * b2) * n
        assert _probe_mean(d, Fock(n), FixedB(b2)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("r", np.linspace(0.3, 3.0, 10))
    def test_boundary_weight_exceeds_two_photons(self, r):
        state = SqueezedVacuum(float(r))
        bo = _boundary(5, moments(state).vacuum_prob)
        assert _probe_mean(5, state, FixedB(bo)) > 2.0

    def test_infeasible_weight_rejected(self):
        state = SqueezedVacuum(1.0)
        bo = _boundary(5, moments(state).vacuum_prob)
        with pytest.raises(ConstraintInfeasible):
            qcrb_closed_form(5, state, FixedB(1.5 * bo))

    def test_unbalanced_sweep_reports_true_photon_number(self):
        # the regression: the unbalanced n_bar is (c^2 + d b^2)<n>, not the
        # balanced <n>/(1 + d p0) of the same constituent
        bal, unb = balanced_vs_unbalanced_sweep(5, [2.0])
        assert bal.points[0][0] == pytest.approx(5.64794052228, rel=1e-11)
        assert unb.points[0][0] == pytest.approx(10.4101362133664, rel=1e-12)


@pytest.fixture(scope="module")
def sweep():
    return balanced_vs_unbalanced_sweep(5, list(np.linspace(0.3, 3.0, 60)))


class TestBalancedVsUnbalanced:
    def test_unbalanced_equals_balanced_formula_at_same_b2(self, sweep):
        # same closed form, same b2 => identical value
        state = SqueezedVacuum(1.0)
        b2 = qcrb_closed_form(5, state).b2
        fixed = qcrb_closed_form(5, state, FixedB(b2))
        balanced = qcrb_closed_form(5, state, Balanced())
        assert fixed.qcrb == balanced.qcrb

    def test_balanced_at_or_below_in_low_region(self, sweep):
        bal, unb = sweep
        points, crossover = compare_sweeps_at_common_nbar(5, bal, unb)
        assert points, "curves share no n_bar overlap"
        assert crossover is None  # crossover sits above this sweep (~92)
        assert all(q_bal <= q_unb for _, q_bal, q_unb in points)

    @pytest.mark.parametrize(
        "d, r_grid",
        [
            (5, list(np.linspace(0.3, 6.0, 120))),
            (5, list(np.linspace(0.5, 5.0, 8))),
            (10, list(np.linspace(0.3, 5.0, 3))),
            (1, list(np.linspace(0.3, 6.0, 120))),
        ],
    )
    def test_compared_at_exactly_matched_budgets(self, d, r_grid):
        bal, unb = balanced_vs_unbalanced_sweep(d, r_grid)
        points, crossover = compare_sweeps_at_common_nbar(d, bal, unb)
        assert points
        for n_bar, q_bal, _ in points:
            assert q_bal == matched_report("esvs", d, n_bar).qcrb
        # the crossover is the first compared point past the 1e-9 margin
        past = [nb for nb, q_bal, q_unb in points if q_bal > q_unb * (1.0 + 1e-9)]
        assert crossover == (past[0] if past else None)

    def test_empty_grid_compares_nothing(self):
        bal, unb = balanced_vs_unbalanced_sweep(5, [])
        assert bal.points == unb.points == ()
        assert compare_sweeps_at_common_nbar(5, bal, unb) == ([], None)

    def test_generator_grid_read_once(self):
        grid = (0.5, 1.0, 2.0)
        want = balanced_vs_unbalanced_sweep(5, grid)
        assert balanced_vs_unbalanced_sweep(5, (x for x in grid)) == want
        assert len(want[0].points) == len(want[1].points) == 3

    @pytest.mark.parametrize("grid", [(1.0, 0.5, -1.0), (0.5, 0.5), (-1.0, 0.5)])
    def test_invalid_generator_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            balanced_vs_unbalanced_sweep(5, (x for x in grid))

    def test_crossover_found_on_extended_sweep(self):
        bal, unb = balanced_vs_unbalanced_sweep(5, list(np.linspace(0.3, 6.0, 120)))
        points, crossover = compare_sweeps_at_common_nbar(5, bal, unb)
        assert crossover is not None and 60 < crossover < 130
        high = [p for p in points if p[0] > crossover * 1.5]
        assert all(q_bal > q_unb for _, q_bal, q_unb in high)

    def test_both_curves_respect_noon_bound(self, sweep):
        bal, unb = sweep
        for (nb_b, q_b, r), (_, q_u, _) in zip(bal.points, unb.points):
            bound = noon_qcrb(5, nb_b)
            assert q_b <= bound + 1e-12
            # weight optimization only lowers the bound at fixed r, so the
            # balanced-probe budget bound applies to both columns
            assert q_u <= bound + 1e-12

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            SweepCurve(((2.0, 1.0, 0.1), (1.0, 1.0, 0.2)))

    def test_curve_columns(self):
        curve = SweepCurve(((1.0, 2.0, 0.1), (3.0, 4.0, 0.2)))
        assert (curve.n_bars, curve.qcrbs) == ((1.0, 3.0), (2.0, 4.0))
