import math
import sys

import numpy as np
import pytest

from noonlike import (
    Coherent,
    Fock,
    FockSuperposition,
    Moments,
    ParameterOutOfRange,
    SqueezedCoherent,
    SqueezedVacuum,
    TruncationInsufficient,
    ZeroPhotonState,
    fock_amplitudes,
    moments,
    moments_from_amplitudes,
    qcrb_closed_form,
)
from noonlike.oracles import _CUTOFF_MAX
from noonlike.states import _ALPHA_RANGE, _N_RANGE, _R_RANGE

PARAM_GRID = [0.1, 0.35, 0.8, 1.3, 2.0, 2.6, 3.0]


class TestMoments:
    def test_fock_eigenstate(self):
        m = moments(Fock(3))
        assert (m.mean_n, m.mean_n2, m.vacuum_prob) == (3.0, 9.0, 0.0)

    def test_fock_vacuum(self):
        m = moments(Fock(0))
        assert (m.mean_n, m.mean_n2, m.vacuum_prob) == (0.0, 0.0, 1.0)

    def test_coherent_unit_amplitude(self):
        # frozen from the amplitude-sum oracle at n_max=60
        m = moments(Coherent(1.0))
        assert m.mean_n == pytest.approx(1.0, abs=1e-12)
        assert m.mean_n2 == pytest.approx(2.0, abs=1e-12)
        assert m.vacuum_prob == pytest.approx(0.36787944117144233, abs=1e-12)

    def test_squeezed_vacuum_unit_squeeze(self):
        # frozen from the amplitude-sum oracle; second moment cross-checked
        # against the closed-form factor 1/(n + 2 cosh^2 r)
        m = moments(SqueezedVacuum(1.0))
        assert m.mean_n == pytest.approx(1.3810978455418155, rel=1e-12)
        assert m.mean_n2 == pytest.approx(8.484489467964364, rel=1e-12)
        assert m.vacuum_prob == pytest.approx(0.6480542736638855, rel=1e-12)

    @pytest.mark.parametrize("r", PARAM_GRID)
    def test_squeezed_vacuum_second_moment_closed_form(self, r):
        m = moments(SqueezedVacuum(r))
        sh2 = math.sinh(r) ** 2
        assert m.mean_n2 == pytest.approx(3 * sh2**2 + 2 * sh2, rel=1e-12)
        assert qcrb_closed_form(5, SqueezedVacuum(r)).f == pytest.approx(
            1.0 / (sh2 + 2 * math.cosh(r) ** 2), rel=1e-12
        )

    def test_superposition_direct_sums(self):
        amps = (0.0, 0.6, 0.0, 0.8)
        m = moments(FockSuperposition(amps))
        assert m.mean_n == pytest.approx(0.36 + 3 * 0.64)
        assert m.mean_n2 == pytest.approx(0.36 + 9 * 0.64)
        assert m.vacuum_prob == 0.0

    @pytest.mark.parametrize(
        "args, field",
        [((math.nan, math.nan, 0.5), "mean_n"), ((1.0, math.nan, 0.5), "mean_n2"),
         ((-1.0, 1.0, 0.5), "mean_n"), ((2.0, 3.0, 0.5), "mean_n2")],
        ids=["nan-mean", "nan-second-moment", "negative-mean", "negative-variance"],
    )
    def test_invalid_moments_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Moments(*args)

    def test_negative_variance_message_gives_the_floor(self):
        floor = r"^mean_n2 must be at least mean_n\^2 = 4.0, got 3.0$"
        with pytest.raises(ValueError, match=floor):
            Moments(2.0, 3.0, 0.5)


class TestVacuumOverlaps:
    @pytest.mark.parametrize("alpha", PARAM_GRID)
    def test_coherent(self, alpha):
        assert moments(Coherent(alpha)).vacuum_prob == pytest.approx(
            math.exp(-alpha**2), rel=1e-12
        )

    @pytest.mark.parametrize("r", PARAM_GRID)
    def test_squeezed_vacuum(self, r):
        assert moments(SqueezedVacuum(r)).vacuum_prob == pytest.approx(
            1.0 / math.cosh(r), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.4, 1.0, 2.1])
    @pytest.mark.parametrize("r", [0.3, 1.0, 1.8])
    def test_squeezed_coherent(self, alpha, r):
        expected = math.exp(-alpha**2 * (1 - math.tanh(r))) / math.cosh(r)
        assert moments(SqueezedCoherent(alpha, r)).vacuum_prob == pytest.approx(
            expected, rel=1e-12
        )


class TestFockAmplitudes:
    def test_fock_delta(self):
        amps, tail = fock_amplitudes(Fock(2), n_max=4)
        assert np.allclose(amps, [0, 0, 1, 0, 0])
        assert tail == 0.0

    def test_coherent_vacuum_amplitude(self):
        amps, _ = fock_amplitudes(Coherent(1.0))
        assert amps[0].real == pytest.approx(math.exp(-0.5), rel=1e-14)

    @pytest.mark.parametrize("r", PARAM_GRID)
    def test_squeezed_vacuum_recurrence(self, r):
        amps, _ = fock_amplitudes(SqueezedVacuum(r))
        ratio = (amps[2] / amps[0]).real
        assert ratio == pytest.approx(-math.tanh(r) / math.sqrt(2), rel=1e-12)

    def test_squeezed_vacuum_odd_terms_vanish(self):
        amps, _ = fock_amplitudes(SqueezedVacuum(1.4))
        assert np.max(np.abs(amps[1::2])) == 0.0

    def test_explicit_cutoff_too_small(self):
        # one pass, no doubling: the tail is reported at n_max itself
        with pytest.raises(TruncationInsufficient, match=r" at n_max=3$"):
            fock_amplitudes(Coherent(2.0), n_max=3)

    def test_tail_mass_monotone_in_cutoff(self):
        tails = [
            fock_amplitudes(Coherent(1.5), n_max=n, tail_tol=math.inf)[1]
            for n in (4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("state", [Coherent(0.0), SqueezedVacuum(0.0)], ids=repr)
    def test_zero_parameter_is_the_vacuum(self, state):
        assert state.amplitudes(4) == [1.0, 0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_superposition_cut_below_its_length(self, n_max):
        # an explicit cutoff keeps c_0..c_n_max and leaves the rest as tail mass
        amps = (0.1, 0.2, 0.3j, 0.4, math.sqrt(0.7))
        kept, tail = fock_amplitudes(FockSuperposition(amps), n_max=n_max, tail_tol=math.inf)
        assert kept.tolist() == list(amps[: n_max + 1])
        assert tail == pytest.approx(sum(abs(c) ** 2 for c in amps[n_max + 1 :]), abs=1e-15)

    def test_effective_fock_has_no_expansion(self):
        with pytest.raises(ValueError):
            fock_amplitudes(Fock(1.5), n_max=10)

    @pytest.mark.parametrize("n_max", [2.5, 3.0, math.nan, True, np.True_, "3"], ids=repr)
    def test_cutoff_is_a_whole_number(self, n_max):
        # a float raised a bare "can't multiply sequence by non-int", and True passed as 1
        with pytest.raises(TypeError, match="^n_max must be an integer, got "):
            fock_amplitudes(Coherent(1.0), n_max=n_max)

    def test_largest_expansion_accepted(self):
        amps, tail = fock_amplitudes(Fock(1), n_max=_CUTOFF_MAX)
        assert (len(amps), amps[1], tail) == (_CUTOFF_MAX + 1, 1.0, 0.0)

    @pytest.mark.parametrize("n_max", [_CUTOFF_MAX + 1, 2**70, 10**400], ids=repr)
    def test_cutoff_beyond_the_largest_expansion(self, n_max):
        with pytest.raises(ParameterOutOfRange, match=f"^n_max = {n_max} exceeds the largest"):
            fock_amplitudes(Fock(1), n_max=n_max, tail_tol=math.inf)

    @pytest.mark.parametrize("n_max", [None, 3], ids=["adaptive", "explicit"])
    @pytest.mark.parametrize("tail_tol", [math.nan, 0.0, -1.0, -math.inf], ids=repr)
    def test_tolerance_is_positive(self, n_max, tail_tol):
        # an explicit cutoff with NaN accepted any tail; the adaptive one expanded
        # 2560 amplitudes and then reported "tail mass still 0.000e+00"
        with pytest.raises(ValueError, match=f"^tail_tol must be positive, got {tail_tol}$"):
            fock_amplitudes(Coherent(1.0), n_max=n_max, tail_tol=tail_tol)

    @pytest.mark.parametrize("tail_tol", [True, "1e-12", 1j], ids=repr)
    def test_tolerance_is_a_real_number(self, tail_tol):
        with pytest.raises(TypeError, match="^tail_tol must be a real number"):
            fock_amplitudes(Coherent(1.0), n_max=30, tail_tol=tail_tol)


class TestMomentOracle:
    def test_vacuum_vector(self):
        m = moments_from_amplitudes(np.array([1.0 + 0j, 0, 0]))
        assert (m.mean_n, m.mean_n2, m.vacuum_prob) == (0.0, 0.0, 1.0)

    @pytest.mark.parametrize("amps", [np.eye(2), [[1.0, 0.0]], 1.0], ids=["square", "row", "scalar"])
    def test_one_dimensional(self, amps):
        with pytest.raises(ValueError, match=r"^amps must be a 1-D array, got shape \("):
            moments_from_amplitudes(amps)

    def test_agrees_with_analytic_coherent(self):
        a = moments(Coherent(1.0))
        b = moments_from_amplitudes(fock_amplitudes(Coherent(1.0))[0])
        assert b.mean_n == pytest.approx(a.mean_n, rel=1e-8)
        assert b.mean_n2 == pytest.approx(a.mean_n2, rel=1e-8)

    def test_heralded_superposition_mean(self):
        # amplitudes of the heralded source at unit squeeze factor
        from noonlike.circuit import heralded_target_amplitudes

        amps = np.array(heralded_target_amplitudes(1.0))
        assert moments_from_amplitudes(amps).mean_n == pytest.approx(2.2461859078, abs=1e-9)

    @pytest.mark.parametrize("param", PARAM_GRID)
    @pytest.mark.parametrize(
        "build",
        [
            Coherent,
            SqueezedVacuum,
            lambda p: SqueezedCoherent(p, 0.7),
            lambda p: SqueezedCoherent(1.1, p),
        ],
    )
    def test_dual_route_consistency(self, build, param):
        state = build(param)
        analytic = moments(state)
        numeric = moments_from_amplitudes(fock_amplitudes(state)[0])
        assert numeric.mean_n == pytest.approx(analytic.mean_n, rel=1e-8)
        assert numeric.mean_n2 == pytest.approx(analytic.mean_n2, rel=1e-8)
        assert numeric.vacuum_prob == pytest.approx(analytic.vacuum_prob, rel=1e-8)


class TestFFactor:
    # the sensitivity factor <n> / <n^2> of the constituent, as the bound reports it
    def test_fock(self):
        assert qcrb_closed_form(5, Fock(4)).f == pytest.approx(0.25, abs=1e-15)

    def test_coherent(self):
        assert qcrb_closed_form(5, Coherent(1.0)).f == pytest.approx(0.5, abs=1e-14)

    def test_squeezed_vacuum(self):
        assert qcrb_closed_form(5, SqueezedVacuum(1.0)).f == pytest.approx(
            0.16277913370704844, rel=1e-12
        )

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            qcrb_closed_form(5, Fock(0))

    @pytest.mark.parametrize("param", PARAM_GRID)
    @pytest.mark.parametrize(
        "build", [Coherent, SqueezedVacuum, lambda p: SqueezedCoherent(p, 1.0)]
    )
    def test_bounded_by_inverse_mean(self, build, param):
        state = build(param)
        m = moments(state)
        assert qcrb_closed_form(5, state).f <= 1.0 / m.mean_n + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_equality_only_for_fock(self, n):
        assert qcrb_closed_form(5, Fock(n)).f == pytest.approx(1.0 / n, abs=1e-15)


class TestValidation:
    def test_complex_alpha_rejected(self):
        with pytest.raises(TypeError):
            Coherent(1.0 + 2.0j)

    def test_complex_squeeze_rejected(self):
        with pytest.raises(TypeError):
            SqueezedCoherent(1.0, 1.0j)

    def test_non_normalized_superposition_rejected(self):
        with pytest.raises(ValueError):
            FockSuperposition((0.5, 0.5))

    def test_negative_fock_rejected(self):
        with pytest.raises(ValueError):
            Fock(-1)

    @pytest.mark.parametrize(
        "amps", [(math.nan,), (math.nan, 1.0), (1.0, complex(0.0, math.nan))],
        ids=["nan", "nan-and-finite", "nan-imaginary"],
    )
    def test_nan_superposition_rejected(self, amps):
        with pytest.raises(ValueError, match="^amplitudes not normalized"):
            FockSuperposition(amps)

    # a bool is no number either: Fock(True) built Fock(n=1.0)
    @pytest.mark.parametrize(
        "value", [np.complex64(1 + 2j), np.complex64(1.5), "1.5", b"1.5", True, False],
        ids=["complex64", "complex64-real", "str", "bytes", "True", "False"],
    )
    @pytest.mark.parametrize(
        "name, build",
        [("alpha", Coherent), ("r", SqueezedVacuum), ("n", Fock),
         ("r", lambda r: SqueezedCoherent(1.0, r))],
        ids=["Coherent", "SqueezedVacuum", "Fock", "ESCS-r"],
    )
    def test_non_real_rejected(self, name, build, value):
        with pytest.raises(TypeError, match=f"^{name} must be a real number"):
            build(value)

    @pytest.mark.parametrize("amps", [(False, True), (0.0, np.True_)], ids=["bool", "np.bool"])
    def test_bool_amplitude_rejected(self, amps):
        # FockSuperposition((False, True)) built the state |1>
        with pytest.raises(TypeError, match=r"^amps\[[01]\] must be a number, got bool "):
            FockSuperposition(amps)

    @pytest.mark.parametrize("value", [2, np.float32(2.0), np.int64(2)])
    def test_real_numbers_accepted(self, value):
        assert Coherent(value).alpha == float(value)
        assert type(Coherent(value).alpha) is float


def _accepted_magnitudes(limits):
    """The smallest and the largest magnitude whose square lies within ``limits``."""
    lo, hi = (math.sqrt(limit) for limit in limits)
    while lo * lo < limits[0]:
        lo = math.nextafter(lo, math.inf)
    while hi * hi > limits[1]:
        hi = math.nextafter(hi, 0.0)
    return lo, hi


class TestParameterRange:
    """A nonzero parameter whose moments would overflow or lose <n>^2 is rejected by name."""

    BUILDS = [
        pytest.param("n", Fock, _N_RANGE, id="Fock"),
        pytest.param("alpha", Coherent, _ALPHA_RANGE, id="Coherent"),
        pytest.param("r", SqueezedVacuum, _R_RANGE, id="SqueezedVacuum"),
        pytest.param("alpha", lambda a: SqueezedCoherent(a, 0.5), _ALPHA_RANGE, id="ESCS-alpha"),
        pytest.param("r", lambda r: SqueezedCoherent(0.5, r), _R_RANGE, id="ESCS-r"),
    ]

    @pytest.mark.parametrize("name, build, limits", BUILDS)
    def test_outside_rejected(self, name, build, limits):
        lo, hi = _accepted_magnitudes(limits)
        for value in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf), 1e-300, 1e300):
            with pytest.raises(ParameterOutOfRange) as info:
                build(value)
            assert str(info.value).startswith(f"{name} = {value!r} is out of range")

    def _check_representable(self, state):
        m = moments(state)
        assert all(math.isfinite(v) for v in (m.mean_n, m.mean_n2, m.vacuum_prob))
        assert m.mean_n**2 >= sys.float_info.min

    @pytest.mark.parametrize("name, build, limits", BUILDS)
    def test_edges_representable(self, name, build, limits):
        for value in _accepted_magnitudes(limits):
            self._check_representable(build(value))

    def test_largest_parameters(self):
        # the fourth powers alpha^4 and sinh(r)^4 reach 1/64 of the largest double
        assert _accepted_magnitudes(_ALPHA_RANGE)[1] == pytest.approx(4.093868575373206e76, 1e-12)
        assert _accepted_magnitudes(_R_RANGE)[1] == pytest.approx(177.09910463306602, 1e-12)

    def test_squeezed_coherent_corners_representable(self):
        alphas, rs = _accepted_magnitudes(_ALPHA_RANGE), _accepted_magnitudes(_R_RANGE)
        for alpha in (0.0, *alphas, -alphas[1]):
            for r in (0.0, *rs, -rs[1]):
                if alpha or r:
                    self._check_representable(SqueezedCoherent(alpha, r))

    def test_zero_and_non_finite(self):
        assert moments(Coherent(0.0)).mean_n == 0.0
        assert moments(SqueezedVacuum(0.0)).mean_n == 0.0
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="must be finite"):
                Coherent(value)
