import math
import sys

import numpy as np
import pytest

from noonlike import (
    Coherent,
    Fock,
    FockSuperposition,
    FockVector,
    ParameterOutOfRange,
    SqueezedCoherent,
    SqueezedVacuum,
    TruncationInsufficient,
    ZeroPhotonState,
    f_factor,
    fock_amplitudes,
    moments,
    moments_from_amplitudes,
)
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
        assert f_factor(SqueezedVacuum(r)) == pytest.approx(
            1.0 / (sh2 + 2 * math.cosh(r) ** 2), rel=1e-12
        )

    def test_superposition_direct_sums(self):
        amps = (0.0, 0.6, 0.0, 0.8)
        m = moments(FockSuperposition(amps))
        assert m.mean_n == pytest.approx(0.36 + 3 * 0.64)
        assert m.mean_n2 == pytest.approx(0.36 + 9 * 0.64)
        assert m.vacuum_prob == 0.0


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
        v = fock_amplitudes(Fock(2), n_max=4)
        assert np.allclose(v.amps, [0, 0, 1, 0, 0])
        assert v.tail_mass == 0.0

    def test_coherent_vacuum_amplitude(self):
        v = fock_amplitudes(Coherent(1.0))
        assert v.amps[0].real == pytest.approx(math.exp(-0.5), rel=1e-14)

    @pytest.mark.parametrize("r", PARAM_GRID)
    def test_squeezed_vacuum_recurrence(self, r):
        v = fock_amplitudes(SqueezedVacuum(r))
        ratio = (v.amps[2] / v.amps[0]).real
        assert ratio == pytest.approx(-math.tanh(r) / math.sqrt(2), rel=1e-12)

    def test_squeezed_vacuum_odd_terms_vanish(self):
        v = fock_amplitudes(SqueezedVacuum(1.4))
        assert np.max(np.abs(v.amps[1::2])) == 0.0

    def test_explicit_cutoff_too_small(self):
        with pytest.raises(TruncationInsufficient):
            fock_amplitudes(Coherent(2.0), n_max=3)

    def test_tail_mass_monotone_in_cutoff(self):
        tails = [
            fock_amplitudes(Coherent(1.5), n_max=n, tail_tol=math.inf).tail_mass
            for n in (4, 8, 16, 32)
        ]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_effective_fock_has_no_expansion(self):
        with pytest.raises(ValueError):
            fock_amplitudes(Fock(1.5), n_max=10)


class TestMomentOracle:
    def test_vacuum_vector(self):
        v = FockVector(np.array([1.0 + 0j, 0, 0]), 2, 0.0)
        m = moments_from_amplitudes(v)
        assert (m.mean_n, m.mean_n2, m.vacuum_prob) == (0.0, 0.0, 1.0)

    def test_agrees_with_analytic_coherent(self):
        a = moments(Coherent(1.0))
        b = moments_from_amplitudes(fock_amplitudes(Coherent(1.0)))
        assert b.mean_n == pytest.approx(a.mean_n, rel=1e-8)
        assert b.mean_n2 == pytest.approx(a.mean_n2, rel=1e-8)

    def test_heralded_superposition_mean(self):
        # amplitudes of the heralded source at unit squeeze factor
        from noonlike.circuit import heralded_target_amplitudes

        amps = heralded_target_amplitudes(1.0)
        v = FockVector(amps, 4, 0.0)
        assert moments_from_amplitudes(v).mean_n == pytest.approx(2.2461859078, abs=1e-9)

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
        numeric = moments_from_amplitudes(fock_amplitudes(state))
        assert numeric.mean_n == pytest.approx(analytic.mean_n, rel=1e-8)
        assert numeric.mean_n2 == pytest.approx(analytic.mean_n2, rel=1e-8)
        assert numeric.vacuum_prob == pytest.approx(analytic.vacuum_prob, rel=1e-8)


class TestFFactor:
    def test_fock(self):
        assert f_factor(Fock(4)) == pytest.approx(0.25, abs=1e-15)

    def test_coherent(self):
        assert f_factor(Coherent(1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_squeezed_vacuum(self):
        assert f_factor(SqueezedVacuum(1.0)) == pytest.approx(
            0.16277913370704844, rel=1e-12
        )

    def test_vacuum_rejected(self):
        with pytest.raises(ZeroPhotonState):
            f_factor(Fock(0))

    @pytest.mark.parametrize("param", PARAM_GRID)
    @pytest.mark.parametrize(
        "build", [Coherent, SqueezedVacuum, lambda p: SqueezedCoherent(p, 1.0)]
    )
    def test_bounded_by_inverse_mean(self, build, param):
        state = build(param)
        m = moments(state)
        assert f_factor(state) <= 1.0 / m.mean_n + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_equality_only_for_fock(self, n):
        assert f_factor(Fock(n)) == pytest.approx(1.0 / n, abs=1e-15)


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
