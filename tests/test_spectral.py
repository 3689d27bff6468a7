import math
import re
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetlab import (
    CurlGaussian,
    PairInvariants,
    ProtocolConfig,
    ToleranceFailure,
    ValidationError,
    brute_force_overlap_oracle,
    commutator_residual,
    overlap_kernel,
    separation_scaling_fit,
    weighted_spectral_integral,
)
from qetlab import spectral
from qetlab.spectral import _SERIES_X, _integrand, d2_delta_offcone, min_oracle_wait
from qetlab.verify import _fourier_moment, d2_delta_fourier

from oracles import (
    angular_components_reference,
    commutator_reference,
    curl_gaussian_spectrum,
    displaced_kernel_reference,
    grid_norm_reference,
    kernel_reference,
    kernel_series_reference,
    mc_batch_reference,
    pairing_quadrature_reference,
    pauli_jordan_delta_reference,
    position_norm_reference,
    weighted_norm_reference,
)

CANONICAL = CurlGaussian(1.0, 1.0)
DISPLACED_TILTED = CurlGaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))


class TestWeightedIntegral:
    def test_damping_moment_canonical(self, canonical_field):
        # closed radial form: (4 pi/3) Gamma(3) = 8 pi/3
        res = weighted_spectral_integral(canonical_field, 1)
        np.testing.assert_allclose(res, 8.0 * np.pi / 3.0, rtol=1e-10)
        np.testing.assert_allclose(
            res, weighted_norm_reference(1.0, 1.0, 1), rtol=1e-10
        )

    def test_energy_moment_canonical(self, canonical_field):
        # (4 pi/3) Gamma(7/2) = 5 pi^{3/2}/2, so E_m = 5 pi^{3/2}/4
        res = weighted_spectral_integral(canonical_field, 2)
        np.testing.assert_allclose(res, 2.5 * np.pi**1.5, rtol=1e-10)

    @pytest.mark.parametrize(
        "field, power",
        [pytest.param(CANONICAL, p, id=str(p)) for p in (0, 1, 2)]
        + [pytest.param(DISPLACED_TILTED, p, id=f"displaced-tilted-{p}") for p in (0, 1, 2)],
    )
    def test_grid_sum_agrees(self, field, power):
        res = weighted_spectral_integral(field, power)
        grid = grid_norm_reference(field, power)
        np.testing.assert_allclose(res, grid, rtol=1e-6)

    @pytest.mark.parametrize("power", [0, 1, 2])
    def test_general_field_against_reference(self, power):
        a = CurlGaussian(1.7, 0.6, center=(1.0, 2.0, 3.0), axis=(1.0, 1.0, 0.0))
        res = weighted_spectral_integral(a, power)
        np.testing.assert_allclose(
            res, weighted_norm_reference(1.7, 0.6, power), rtol=1e-10
        )

    def test_zero_field(self):
        for p in (0, 1, 2):
            assert weighted_spectral_integral(CurlGaussian(0.0, 1.0), p) == 0.0

    @pytest.mark.parametrize(
        "field, overflowing",
        [
            (CurlGaussian(1e155, 1.0), (0, 1, 2)),
            (CurlGaussian(1e160, 2.0), (0, 1, 2)),
            (CurlGaussian(1.0, 1e-310), (2,)),
        ],
    )
    def test_overflow_gives_inf(self, field, overflowing):
        # the powers are products, so an out-of-range norm is inf, not an
        # OverflowError; PairInvariants then rejects it by name
        for p in (0, 1, 2):
            assert (weighted_spectral_integral(field, p) == math.inf) == (p in overflowing)

    def test_parseval_against_position_quadrature(self):
        for field in (CANONICAL, DISPLACED_TILTED):
            spec_val = weighted_spectral_integral(field, 0)
            np.testing.assert_allclose(spec_val, position_norm_reference(field), rtol=1e-6)

    def test_norms_are_quadrature_free(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("QUADPACK called on the norm path")

        monkeypatch.setattr("scipy.integrate.quad", no_quadrature)
        for field in (CANONICAL, DISPLACED_TILTED):
            for power in (0, 1, 2):
                assert type(weighted_spectral_integral(field, power)) is float
        inv = PairInvariants.of(DISPLACED_TILTED, CANONICAL)
        np.testing.assert_allclose(
            [inv.E_m, inv.I1, inv.xi],
            [0.5 * weighted_norm_reference(1.3, 0.9, 2), weighted_norm_reference(1.3, 0.9, 1), np.pi**1.5],
            rtol=1e-14,
        )

    def test_within_8_ulp_of_40_digit_arithmetic(self):
        # the float64 closed form against the same Gamma moment in 40 digits,
        # over amplitudes 1e-3..5e3, widths 0.01..50 and every power
        worst = 0.0
        for amp in np.geomspace(1e-3, 5e3, 9):
            for sigma in np.geomspace(0.01, 50.0, 9):
                field = CurlGaussian(float(amp), float(sigma))
                for power in (0, 1, 2):
                    value = weighted_spectral_integral(field, power)
                    with mp.workdps(40):
                        A, s = mp.mpf(field.amplitude), mp.mpf(field.sigma)
                        exact = A * A * s ** (1 - power) * (4 * mp.pi / 3) * mp.gamma(mp.mpf(power + 5) / 2)
                        err = float(abs(mp.mpf(value) - exact)) / math.ulp(float(exact))
                    worst = max(worst, err)
        assert worst <= 8.0, worst

    def test_rejects_bad_power(self, canonical_field):
        with pytest.raises(ValidationError):
            weighted_spectral_integral(canonical_field, 3)


class TestPauliJordanDelta:
    """The kernel d_t^2 Delta the Monte Carlo oracle integrates, and its Fourier reference."""

    def test_fourier_rule_constants(self):
        # int_0^inf k^2 sin k dk = -2 and int_0^inf k^3 cos k dk = 6 (Abel); the
        # rule scales exactly with the frequency, so these pin it everywhere
        np.testing.assert_allclose(_fourier_moment(2, 1.0, False), -2.0, rtol=1e-9)
        np.testing.assert_allclose(_fourier_moment(3, 1.0, True), 6.0, rtol=1e-9)

    @pytest.mark.parametrize(
        "t,r",
        [(2.0, 1.0), (1.0, 2.0), (10.0, 0.0), (14.0, 3.0), (-2.0, 1.0), (0.5, 0.0), (50.0, 0.0)]
        + [(14.0, r) for r in (0.5, 2.0, 5.0, 8.0, 12.0)]
        + [(50.0, r) for r in (1.0, 10.0, 30.0)],
    )
    def test_fourier_reference_matches_offcone(self, t, r):
        np.testing.assert_allclose(d2_delta_fourier(t, r), float(d2_delta_offcone(t, r * r)), rtol=1e-9)

    # -(3t^2 + r^2)/(pi^2 (t^2 - r^2)^3) by hand at the three points verify checked before
    def test_timelike_value(self):
        np.testing.assert_allclose(float(d2_delta_offcone(2.0, 1.0)), -13.0 / (27.0 * np.pi**2), rtol=1e-14)
        np.testing.assert_allclose(d2_delta_fourier(2.0, 1.0), -13.0 / (27.0 * np.pi**2), rtol=1e-9)

    def test_spacelike_value(self):
        np.testing.assert_allclose(float(d2_delta_offcone(1.0, 4.0)), 7.0 / (27.0 * np.pi**2), rtol=1e-14)
        np.testing.assert_allclose(d2_delta_fourier(1.0, 2.0), 7.0 / (27.0 * np.pi**2), rtol=1e-9)

    def test_coincident_point(self):
        np.testing.assert_allclose(float(d2_delta_offcone(10.0, 0.0)), -3e-4 / np.pi**2, rtol=1e-14)
        np.testing.assert_allclose(d2_delta_fourier(10.0, 0.0), -3e-4 / np.pi**2, rtol=1e-9)

    @given(
        t=st.floats(0.05, 60.0),
        r=st.one_of(st.just(0.0), st.floats(0.05, 60.0)),
    )
    def test_fourier_reference_matches_offcone_anywhere_off_the_cone(self, t, r):
        # near the cone the two sgn(a) terms have opposite signs and both grow,
        # and for r << t they nearly cancel; these bounds keep rounding under 1e-11
        if abs(t * t - r * r) <= 1e-3 * (t * t + r * r) or 0.0 < r < 1e-3 * t:
            return
        np.testing.assert_allclose(d2_delta_fourier(t, r), float(d2_delta_offcone(t, r * r)), rtol=1e-9)

    @given(t=st.floats(0.05, 60.0), r=st.one_of(st.just(0.0), st.floats(0.05, 60.0)))
    def test_even_in_time(self, t, r):
        # swapping t -> -t swaps the two frequencies r +- t, so the sum is the same
        if abs(t * t - r * r) <= 1e-6 * (t * t + r * r):
            return
        assert d2_delta_fourier(-t, r) == d2_delta_fourier(t, r)

    @pytest.mark.parametrize("t,r", [(2.0, 1.0), (1.0, 2.0), (10.0, 0.0), (14.0, 3.0)])
    @pytest.mark.parametrize("scale", [1e-2, 7.0])
    def test_scales_as_inverse_fourth_power(self, t, r, scale):
        # d_t^2 Delta is homogeneous of degree -4 in (t, r)
        np.testing.assert_allclose(d2_delta_fourier(scale * t, scale * r), d2_delta_fourier(t, r) / scale**4,
                                   rtol=1e-9)

    def test_on_cone_rejected(self):
        # there a frequency r - t is zero and the reference would divide by it
        for t, r in [(3.0, 3.0), (1.0, 1.0 + 1e-12), (0.0, 0.0), (-2.0, 2.0)]:
            with pytest.raises(ValidationError, match="on the light cone; the kernel is distributional"):
                d2_delta_fourier(t, r)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError, match="r: must be a nonnegative finite number"):
            d2_delta_fourier(2.0, -1.0)

    @pytest.mark.parametrize("t,r", [(4.0, 1.0), (6.0, 2.0), (1.0, 2.0), (10.0, 0.0)])
    def test_d2_delta_offcone_is_second_time_derivative(self, t, r):
        # the kernel the Monte Carlo oracle integrates is d_t^2 of the closed form
        h = 1e-3
        delta = pauli_jordan_delta_reference
        central = (delta(t + h, r) - 2.0 * delta(t, r) + delta(t - h, r)) / (h * h)
        np.testing.assert_allclose(float(d2_delta_offcone(t, r * r)), central, rtol=1e-6)


class TestAngularFactor:
    @staticmethod
    def angular(x, c_a, c_d):
        # the integrand at real k with alpha = t = 0 and |d| = 1 is k^5 A(k)
        k = np.asarray(x, dtype=complex)
        return _integrand(k, 0.0, 0.0, 1.0, c_a, c_d) / k**5

    def test_components_against_scipy(self):
        # dense grid plus the ulps either side of the series/closed-form switch
        switch = _SERIES_X + np.arange(-20, 21) * np.spacing(_SERIES_X)
        x = np.concatenate([np.linspace(1e-3, 200.0, 200_001), np.geomspace(1e-8, 1.0, 2001), switch])
        j01, j2 = angular_components_reference(x)
        for (c_a, c_d), ref in (((1.0, 0.0), j01), ((0.0, 1.0), j2), ((0.6, -0.3), 0.6 * j01 - 0.3 * j2)):
            A = self.angular(x, c_a, c_d)
            np.testing.assert_allclose(A.real, ref, rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(A.imag, 0.0, rtol=0.0, atol=1e-14)

    def test_exact_at_zero(self):
        # at d = 0 the series leaves A = (2/3)(n1.n2) exactly
        k = np.array([0.5, 1.0, 3.0], dtype=complex)
        for cos_axes in (1.0, -0.3, 0.7071067811865476):
            f = _integrand(k, 0.0, 0.0, 0.0, cos_axes, 0.6 * -0.8)
            assert np.array_equal(f, k**5 * ((2.0 / 3.0) * cos_axes))


class TestOverlapKernel:
    def test_against_dawson_reference(self, canonical_field):
        for T in (5.0, 8.0, 12.0, 16.0):
            K = overlap_kernel(canonical_field, canonical_field, T)
            np.testing.assert_allclose(K.value, kernel_reference(T), rtol=1e-8)

    def test_against_monte_carlo(self, canonical_field):
        T = 14.0
        K = overlap_kernel(canonical_field, canonical_field, T)
        mc = brute_force_overlap_oracle(canonical_field, canonical_field, T, samples=400_000, seed=3)
        assert abs(K.value - mc.value) <= 3.0 * mc.estimated_error

    @pytest.mark.parametrize("sigma, T", [(1e160, 1e162), (1e110, 1e112), (1e-90, 1.0)])
    def test_width_beyond_the_float_range_is_named(self, sigma, T):
        # sigma^2 raises, (2 pi sigma^2)^(3/2) raises, or the prefactor underflows
        wide = CurlGaussian(1.0, sigma)
        for integral in (overlap_kernel, commutator_residual):
            with pytest.raises(ValidationError, match=re.escape(f"widths sigma = {sigma!r} and {sigma!r}")):
                integral(wide, wide, T)

    @pytest.mark.parametrize(
        "dist, sigma, earlier",
        [(1.0, 1e-4, 1.241123415338954e-22), (1.25, 1e-4, 4.466241633932964e-22),
         (1.3, 1e-4, None), (1.0, 1e-8, None)],
    )
    def test_horizontal_panel_count_is_bounded(self, dist, sigma, earlier):
        # `earlier` is K from one horizontal leg at the saddle height cut into
        # 3,200 and 4,000 panels, a second evaluation of the same integral
        f = CurlGaussian(1.0, sigma, center=(dist, 0.0, 0.0))
        a = CurlGaussian(1.0, sigma)
        K = overlap_kernel(f, a, 2.0)
        assert K.samples_or_nodes <= 7 * 64
        assert math.isfinite(K.value) and K.estimated_error <= 1e-6 * abs(K.value)
        if earlier is not None:
            assert abs(K.value - earlier) <= K.estimated_error

    @pytest.mark.parametrize("sigma", [1e-6, 1e-3, 1.0, 10.0])
    def test_node_count_is_bounded_for_every_pair(self, sigma):
        # inside, at and past the separation, for pairs up to |d|/sigma = 1e8
        a = CurlGaussian(1.0, 1.1 * sigma, axis=(1.0, 0.5, 0.0))
        for dist in (0.0, 1e-3, 0.1, 1.0, 20.0, 100.0):
            f = CurlGaussian(1.0, sigma, center=(dist, 0.0, 0.0), axis=(0.3, 1.0, 0.2))
            near = [dist * (1 - 1e-3), dist, dist * (1 + 1e-3)] if dist else []
            for T in [1e-3, 0.1, 1.0, 10.0, 1e3, 1e4] + near:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    J, err, n = spectral._contour_pairing(f, a, T)
                assert n <= 7 * 64 and math.isfinite(abs(J)) and math.isfinite(err), (dist, T)

    @pytest.mark.parametrize("pair", ["displaced", "cocentred"])
    def test_benchmark_sweep_pairs_take_three_panels(self, pair):
        # the shapes of perfbench's sweep pairs on their T grids, up to rotation
        # and translation; a path change there would move the benchmark
        if pair == "displaced":
            f = CurlGaussian(1.0, 0.9, center=(0.0, 0.0, 1.5), axis=(0.0, math.sin(2.1), math.cos(2.1)))
            a = CurlGaussian(1.0, 1.1, axis=(math.sin(0.9), 0.0, math.cos(0.9)))
        else:
            f = CurlGaussian(1.0, 1.0, axis=(math.sin(0.6), 0.0, math.cos(0.6)))
            a = CurlGaussian(1.0, 1.3)
        floor = float(np.linalg.norm(f.center_vec - a.center_vec)) + 3.0 * (f.sigma + a.sigma)
        for T in np.geomspace(1.2 * floor, 400.0, 6):
            assert overlap_kernel(f, a, float(T)).samples_or_nodes == 3 * 64

    @pytest.mark.parametrize(
        "center, T, rejected, sigma",
        [
            ((0.0, 0.0, 0.0), 1e61, False, 1.0),
            ((0.0, 0.0, 0.0), 1e62, True, 1.0),
            ((0.0, 0.0, 0.0), 1e100, True, 1.0),
            # a displaced pair forms k^5 only below |k| = 2/|d|, so the gate passes it
            ((1.0, 0.0, 0.0), 1e62, False, 1.0),
            ((1.0, 0.0, 0.0), 1e154, False, 1.0),
            # ... and k^2 past it, which leaves the float range near T = 2.7e154
            ((1.0, 0.0, 0.0), 1e155, True, 1.0),
            # a nearly co-centred pair's k^2/(2|d|^3) overflows first
            ((1e-61, 0.0, 0.0), 1e63, False, 1.0),
            ((1e-61, 0.0, 0.0), 1e64, True, 1.0),
            # a wide pair (alpha = 100): the saddle exponent, about T^2/(4 alpha),
            # overflows while k^2 is still near 1e306
            ((1.0, 0.0, 0.0), 1e154, False, 10.0),
            ((1.0, 0.0, 0.0), 1e155, False, 10.0),
            ((1.0, 0.0, 0.0), 4e155, True, 10.0),
            ((1.0, 0.0, 0.0), 1e156, True, 10.0),
        ],
    )
    def test_T_whose_contour_overflows_k5_is_named(self, center, T, rejected, sigma):
        # the saddle height is about T/2 at sigma = 1; its fifth power passes the
        # float range near T = 9e61, where K ~ 1005 T^-6 is long below it
        f, a = CurlGaussian(1.0, sigma, center=center), CurlGaussian(1.0, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rejected:
                for integral in (overlap_kernel, commutator_residual):
                    with pytest.raises(ValidationError, match=re.escape(f"K(T={T!r}): the contour reaches")):
                        integral(f, a, T)
            else:
                assert overlap_kernel(f, a, T).value == 0.0

    @pytest.mark.parametrize("T", [13.0, 50.0])
    def test_cocentred_pair_takes_one_horizontal_panel_however_narrow(self, T):
        # a co-centred pair has no beat on the horizontal leg, however narrow
        K = overlap_kernel(CurlGaussian(1.0, 1e-20), CurlGaussian(1.0, 3e-20), T)
        assert K.samples_or_nodes == 3 * 64

    def test_perpendicular_axes_cancel(self):
        a = CurlGaussian(1.0, 1.0, axis=(0.0, 0.0, 1.0))
        f = CurlGaussian(1.0, 1.0, axis=(1.0, 0.0, 0.0))
        K = overlap_kernel(f, a, 8.0)
        assert abs(K.value) < 1e-12
        # the angular cancellation also holds on a plain k-lattice sum
        k = 2 * np.pi * np.fft.fftfreq(48, d=np.pi / 6.0)
        kvec = np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1)
        f_k, a_k = curl_gaussian_spectrum(f, kvec), curl_gaussian_spectrum(a, kvec)
        dot = np.sum(np.real(np.conj(f_k) * a_k), axis=-1)
        dk = k[1] - k[0]
        total = np.sum(dot * np.linalg.norm(kvec, axis=-1)) * dk**3
        assert abs(total) < 1e-8 * np.max(np.abs(dot)) * dot.size * dk**3 + 1e-12

    def test_bilinear_in_amplitude(self, canonical_field):
        K1 = overlap_kernel(canonical_field, canonical_field, 9.0).value
        K3 = overlap_kernel(canonical_field, canonical_field.scaled(3.0), 9.0).value
        np.testing.assert_allclose(K3, 3.0 * K1, rtol=1e-12)

    def test_symmetric_in_arguments(self):
        f = CurlGaussian(1.1, 0.8, center=(0.5, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = CurlGaussian(0.9, 1.2, center=(0.0, 0.3, 0.0), axis=(0.0, 0.0, 1.0))
        K_fa = overlap_kernel(f, a, 11.0).value
        K_af = overlap_kernel(a, f, 11.0).value
        np.testing.assert_allclose(K_fa, K_af, rtol=1e-12)

    def test_displaced_pair_against_monte_carlo(self):
        f = CurlGaussian(1.0, 1.0, center=(1.0, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = CurlGaussian(1.3, 0.9, center=(-0.5, 0.5, 0.0))
        T = 16.0
        K = overlap_kernel(f, a, T)
        mc = brute_force_overlap_oracle(f, a, T, samples=600_000, seed=17)
        assert abs(K.value - mc.value) <= 3.0 * mc.estimated_error

    @pytest.mark.parametrize("T", [4.0, 6.0, 10.0])
    def test_displaced_pair_against_scipy_integrand(self, T):
        f = CurlGaussian(1.0, 1.0, center=(1.0, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = CurlGaussian(1.3, 0.9, center=(-0.5, 0.5, 0.0))
        K = overlap_kernel(f, a, T)
        assert K.estimated_error <= 1e-9 * abs(K.value)
        np.testing.assert_allclose(K.value, displaced_kernel_reference(f, a, T), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pair", ["cocentred", "displaced"])
    @pytest.mark.parametrize("T", [8.0, 50.0, 400.0])
    def test_node_count_is_integrand_calls(self, monkeypatch, pair, T):
        # samples_or_nodes must count every node the integrand is evaluated at
        f, a = (CANONICAL, CANONICAL) if pair == "cocentred" else MC_DISPLACED_TILTED
        nodes = []

        def counted(k, *args):
            nodes.append(len(k))
            return _integrand(k, *args)

        monkeypatch.setattr(spectral, "_integrand", counted)
        assert overlap_kernel(f, a, T).samples_or_nodes == sum(nodes) > 0

    def test_spectrum_hop_is_identity(self):
        # perfbench passes f.spectrum() to overlap_kernel; it must be the field itself
        f, a = MC_DISPLACED_TILTED
        assert f.spectrum() is f and a.spectrum() is a
        for T in (9.0, 40.0):
            assert overlap_kernel(f.spectrum(), a.spectrum(), T) == overlap_kernel(f, a, T)

    def test_rejects_nonpositive_T(self, canonical_field):
        with pytest.raises(ValidationError):
            overlap_kernel(canonical_field, canonical_field, 0.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_rejects_non_finite_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match="finite"):
            overlap_kernel(canonical_field, canonical_field, T)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    def test_commutator_rejects_non_finite_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match="finite"):
            commutator_residual(canonical_field, canonical_field, T)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_oracle_rejects_non_finite_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match="finite"):
            brute_force_overlap_oracle(canonical_field, canonical_field, T, samples=100)

    @pytest.mark.parametrize("value, err", [(np.nan, 1e-12), (1e-3, np.nan)])
    def test_nan_quadrature_fails_the_gate(self, canonical_field, monkeypatch, value, err):
        monkeypatch.setattr(spectral, "_contour_pairing", lambda *args: (complex(-value, 0.0), err, 1))
        with pytest.raises(ToleranceFailure):
            overlap_kernel(canonical_field, canonical_field, 14.0)

    def test_flags_quadrature_error_above_tolerance(self):
        # the gate is relative with no absolute floor: at a zero of K(T) the
        # estimated error exceeds 1e-6 |K|, so it raises instead of returning
        f, a = README_PAIR
        lo, hi = 6.0, 8.0  # K(6) > 0 > K(8)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if spectral._contour_pairing(f, a, mid)[0].real < 0.0 else (lo, mid)
        assert overlap_kernel(f, a, 6.0).value > 0.0 > overlap_kernel(f, a, 8.0).value
        with pytest.raises(ToleranceFailure, match="estimated error"):
            overlap_kernel(f, a, 0.5 * (lo + hi))


MC_DISPLACED_TILTED = (
    CurlGaussian(0.9, 1.1, center=(0.3, -0.2, 0.5), axis=(0.2, 0.3, 1.0)),
    CurlGaussian(1.3, 0.8, center=(1.5, 0.7, -0.4), axis=(1.0, 0.0, 0.5)),
)
MC_T = 18.0
# the README's displaced/tilted pair: f_o off-centre and tilted, a_m canonical
README_PAIR = (
    CurlGaussian(1.3, 0.8, center=(0.5, -0.3, 0.2), axis=(1.0, 1.0, 0.0)),
    CurlGaussian(1.0, 1.0),
)


class TestBruteForceOracle:
    def test_deterministic_bit_exact(self, canonical_field):
        a = canonical_field
        r1 = brute_force_overlap_oracle(a, a, 13.0, samples=100_000, seed=42)
        r2 = brute_force_overlap_oracle(a, a, 13.0, samples=100_000, seed=42)
        assert r1.value == r2.value
        assert r1.estimated_error == r2.estimated_error

    def test_worker_count_invariance(self, canonical_field):
        a = canonical_field
        r1 = brute_force_overlap_oracle(a, a, 13.0, samples=200_000, seed=7, workers=1)
        r4 = brute_force_overlap_oracle(a, a, 13.0, samples=200_000, seed=7, workers=4)
        assert r1.value == r4.value
        # displaced, tilted, unequal widths, and a last batch that is not full
        f, m = MC_DISPLACED_TILTED
        samples = 3 * spectral._MC_BATCH + 12_345
        runs = [
            brute_force_overlap_oracle(f, m, MC_T, samples=samples, seed=7, workers=w)
            for w in (1, 2, 3)
        ]
        for r in runs[1:]:
            assert r.value == runs[0].value
            assert r.estimated_error == runs[0].estimated_error

    @pytest.mark.parametrize("workers", [0, -3, 2.5])
    def test_rejects_a_worker_count_that_is_no_positive_integer(self, canonical_field, workers):
        with pytest.raises(ValidationError, match=r"workers: must be an integer >= 1"):
            brute_force_overlap_oracle(canonical_field, canonical_field, 13.0, samples=100, workers=workers)

    @pytest.mark.parametrize("seed", [4, 29])
    def test_matches_per_sample_reference(self, seed):
        f, m = MC_DISPLACED_TILTED
        samples = 2 * spectral._MC_BATCH + 5_000
        res = brute_force_overlap_oracle(f, m, MC_T, samples=samples, seed=seed)
        value, stderr = mc_batch_reference(f, m, MC_T, samples, seed)
        np.testing.assert_allclose(res.value, value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.estimated_error, stderr, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("T", [14.0, 30.0])
    @pytest.mark.parametrize(
        "pair", [(CANONICAL, CANONICAL), README_PAIR], ids=["canonical", "readme-displaced"]
    )
    def test_control_variate_halves_stderr(self, pair, T):
        # verify's default sample count and seed; the plain per-sample estimator
        # sees the same draws without the subtracted kernel constant
        f, m = pair
        res = brute_force_overlap_oracle(f, m, T, samples=200_000, seed=11)
        plain, plain_err = mc_batch_reference(f, m, T, 200_000, 11, control_variate=False)
        assert abs(res.value - plain) <= 3.0 * np.hypot(res.estimated_error, plain_err)
        assert res.estimated_error <= 0.5 * plain_err

    @pytest.mark.parametrize("T", [14.0, 30.0])
    def test_canonical_relative_stderr_at_verify_default(self, T):
        res = brute_force_overlap_oracle(CANONICAL, CANONICAL, T, samples=200_000, seed=11)
        assert res.estimated_error <= 0.02 * abs(overlap_kernel(CANONICAL, CANONICAL, T).value)

    def test_zero_field_returns_zero(self, canonical_field):
        res = brute_force_overlap_oracle(
            CurlGaussian(0.0, 1.0), canonical_field, 13.0, samples=1000, seed=1
        )
        assert res.value == 0.0 and res.estimated_error == 0.0

    def test_error_scaling_with_samples(self, canonical_field):
        a = canonical_field
        se1 = brute_force_overlap_oracle(a, a, 13.0, samples=100_000, seed=5).estimated_error
        se2 = brute_force_overlap_oracle(a, a, 13.0, samples=200_000, seed=5).estimated_error
        assert 0.6 <= se2 / se1 / (1.0 / np.sqrt(2.0)) <= 1.4

    def test_rejects_cone_regime(self, canonical_field):
        a = canonical_field
        with pytest.raises(ValidationError):
            brute_force_overlap_oracle(a, a, 0.9 * min_oracle_wait(a, a), samples=1000, seed=0)


class TestCommutatorResidual:
    def test_negligible_at_strict_separation(self, canonical_field):
        T = 2.0 * canonical_field.effective_radius + 6.0
        K = overlap_kernel(canonical_field, canonical_field, T).value
        res = commutator_residual(canonical_field, canonical_field, T)
        assert abs(res) < 1e-6 * abs(K)

    @pytest.mark.parametrize("T", [0.0, -8.0])
    def test_rejects_a_time_that_is_not_positive(self, canonical_field, T):
        with pytest.raises(ValidationError, match=f"T: must be a positive finite number, got {T!r}"):
            commutator_residual(canonical_field, canonical_field, T)

    def test_zero_field(self, canonical_field):
        res = commutator_residual(
            canonical_field, CurlGaussian(0.0, 1.0), 10.0
        )
        assert res == 0.0


@settings(max_examples=10)
@given(
    amp=st.floats(0.2, 2.0),
    sigma=st.floats(0.5, 1.6),
    T=st.floats(10.0, 25.0),
)
def test_kernel_matches_reference_over_family(amp, sigma, T):
    a = CurlGaussian(amp, sigma)
    K = overlap_kernel(a, a, T)
    ref = kernel_reference(T, amp, sigma, amp, sigma)
    np.testing.assert_allclose(K.value, ref, rtol=1e-7, atol=1e-16)


def test_kernel_large_separation_prefactor(canonical_field):
    """Moment oracle for the far-separation law.

    Expanding the off-cone kernel in |x-y|/T, the zeroth moment cancels (the
    fields integrate to zero), leaving K(T) -> -(10/pi^2 T^6) M1 with
    M1 = -2 sum_jl [int x_j f_l d^3x][int y_j a_l d^3y].  The moments come
    from direct lattice quadrature, independent of the quadrature engine.
    """
    half, n = 8.0, 64
    ax = np.linspace(-half, half, n, endpoint=False) + half / n
    xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([xs, ys, zs], axis=-1)
    vals = canonical_field(pts)
    dx3 = (ax[1] - ax[0]) ** 3
    moments = np.einsum("xyzj,xyzl->jl", pts, vals) * dx3
    M1 = -2.0 * float(np.sum(moments * moments))
    coeff = -10.0 * M1 / np.pi**2
    assert coeff > 0.0
    for T in (200.0, 400.0):
        K = overlap_kernel(canonical_field, canonical_field, T).value
        np.testing.assert_allclose(K, coeff / T**6, rtol=2e-2)


# a |d| = 6 pair with unequal widths and tilted axes, and a |d| = 20 pair
# evaluated inside, near and past the separation, where each part of the
# integrand leaves the shared leg for its own saddle
D6_PAIR = (
    CurlGaussian(1.0, 0.7, center=(6.0, 0.0, 0.0), axis=(0.3, 1.0, 0.2)),
    CurlGaussian(1.0, 1.2, axis=(1.0, 0.5, 0.0)),
)
D20_PAIR = (
    CurlGaussian(1.1, 0.9, center=(20.0, 0.0, 0.0), axis=(0.0, 1.0, 0.4)),
    CurlGaussian(0.8, 1.0, axis=(0.3, 1.0, 0.0)),
)
REFERENCE_PAIRS = {
    "mc-displaced-tilted": MC_DISPLACED_TILTED,
    "readme": README_PAIR,
    "d6": D6_PAIR,
    "d20": D20_PAIR,
}
# (pair, T, digits) of the real-axis mpmath references; 50 digits for the
# MC pair because its commutator falls to 7.8e-21 at T = 16
QUADRATURE_POINTS = [
    ("mc-displaced-tilted", 4.0, 50), ("mc-displaced-tilted", 8.0, 50),
    ("mc-displaced-tilted", 12.0, 50), ("mc-displaced-tilted", 16.0, 50),
    ("readme", 6.0, 30), ("readme", 8.0, 30), ("readme", 14.0, 30),
    ("d6", 4.0, 30), ("d6", 8.0, 30), ("d6", 14.0, 30),
    ("d20", 0.5, 30), ("d20", 8.0, 30), ("d20", 19.9, 30), ("d20", 20.01, 30),
]


@lru_cache(maxsize=None)
def quadrature_reference(name: str, T: float, dps: int) -> tuple[float, float]:
    return pairing_quadrature_reference(*REFERENCE_PAIRS[name], T, dps)


def assert_within_estimate(K, ref):
    # the returned estimate bounds the error, which is also <= 1e-12 relative
    assert abs(K.value - ref) <= K.estimated_error
    assert abs(K.value - ref) <= 1e-12 * abs(ref)


class TestContourAccuracy:
    @pytest.mark.parametrize("name, T, dps", QUADRATURE_POINTS)
    def test_against_real_axis_quadrature(self, name, T, dps):
        f, a = REFERENCE_PAIRS[name]
        K = overlap_kernel(f, a, T)
        assert K.method == "steepest-descent"
        assert_within_estimate(K, quadrature_reference(name, T, dps)[0])

    @pytest.mark.parametrize("T", [50.0, 400.0, 3200.0, 1e4])
    @pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
    def test_against_watson_series(self, name, T):
        f, a = REFERENCE_PAIRS[name]
        K = overlap_kernel(f, a, T)
        assert_within_estimate(K, kernel_series_reference(f, a, T))

    @pytest.mark.parametrize("T", [0.5, 4.0, 8.0, 20.0, 400.0, 3200.0, 1e4])
    def test_cocentred_against_dawson(self, T):
        for amp_f, sig_f, amp_a, sig_a in ((1.0, 1.0, 1.0, 1.0), (1.3, 0.6, 0.7, 1.9)):
            K = overlap_kernel(CurlGaussian(amp_f, sig_f), CurlGaussian(amp_a, sig_a), T)
            assert_within_estimate(K, kernel_reference(T, amp_f, sig_f, amp_a, sig_a))

    @pytest.mark.parametrize("T", [8.0, 14.0, 20.0])
    def test_commutator_cocentred(self, T):
        # down to -2.6e-38 at T = 20, where a real-axis quadrature floors near 1e-16
        ref = commutator_reference(T)
        np.testing.assert_allclose(commutator_residual(CANONICAL, CANONICAL, T), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("T", [8.0, 12.0, 16.0])
    def test_commutator_displaced(self, T):
        f, a = MC_DISPLACED_TILTED
        ref = quadrature_reference("mc-displaced-tilted", T, 50)[1]
        np.testing.assert_allclose(commutator_residual(f, a, T), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name, T", [("d20", 0.5), ("d20", 8.0), ("d6", 4.0)])
    def test_commutator_inside_the_separation(self, name, T):
        # at T < |d| the commutator is Gaussian-tail small (2.0e-33 for d20 at
        # T = 0.5); the contour gives it to within its rounding bound
        J, err, _ = spectral._contour_pairing(*REFERENCE_PAIRS[name], T)
        assert abs(-J.imag - quadrature_reference(name, T, 30)[1]) <= err <= 1e-13 * abs(J.real)

    def test_no_quadpack_on_the_kernel_path(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("QUADPACK called on the K(T) path")

        monkeypatch.setattr("scipy.integrate.quad", no_quadrature)
        for f, a in ((CANONICAL, CANONICAL), MC_DISPLACED_TILTED, D20_PAIR):
            for T in (0.5, 8.0, 14.0, 400.0):
                overlap_kernel(f, a, T)
                commutator_residual(f, a, T)


class TestOrientationLaws:
    """K ~ T^-6 when n_f.n_a != 0, T^-8 when only (d^.n_f)(d^.n_a) != 0, else K = 0."""

    T = np.geomspace(50.0, 5000.0, 12)

    @pytest.mark.parametrize("pair, kernel_slope", [(MC_DISPLACED_TILTED, -6.0), (README_PAIR, -8.0)],
                             ids=["parallel-part", "perpendicular-axes"])
    def test_fitted_slopes(self, pair, kernel_slope):
        f_o, a_m = pair
        cfg = ProtocolConfig(a_m=a_m, f_o=f_o, T=float(self.T[0]), lam=1.0)
        for quantity, slope in (("kernel", kernel_slope), ("spin", 2 * kernel_slope),
                                ("oscillator", 2 * kernel_slope)):
            fit = separation_scaling_fit(cfg, self.T, quantity=quantity)
            assert fit.n_dropped == 0
            assert fit.slope == pytest.approx(slope, abs=0.01)

    def test_vanishes_when_both_couplings_vanish(self):
        # n_f . n_a = 0 and d perpendicular to both axes: A(x) = 0 for every x
        f = CurlGaussian(1.0, 0.9, center=(0.0, 0.0, 1.5), axis=(1.0, 0.0, 0.0))
        a = CurlGaussian(1.2, 1.1, axis=(0.0, 1.0, 0.0))
        for T in (10.0, 14.0, 20.0):
            assert overlap_kernel(f, a, T).value == 0.0
