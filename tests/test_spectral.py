import math
import re
import tracemalloc
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qetlab import (
    CurlGaussian,
    PairInvariants,
    ProtocolConfig,
    ToleranceFailure,
    ValidationError,
    brute_force_overlap_oracle,
    overlap_kernel,
    separation_scaling_fit,
    weighted_spectral_integral,
)
from qetlab import spectral
from qetlab.spectral import _SERIES_X, KernelResult, _integrand, d2_delta_offcone, min_oracle_wait
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
    mc_six_normal_reference,
    mc_three_normal_reference,
    pairing_quadrature_reference,
    pauli_jordan_delta_reference,
    position_norm_reference,
    weighted_norm_reference,
)

CANONICAL = CurlGaussian(1.0, 1.0)
# the shapes of perfbench's sweep pairs, up to rotation and translation
SWEEP_PAIRS = {
    "displaced": (
        CurlGaussian(1.0, 0.9, center=(0.0, 0.0, 1.5), axis=(0.0, math.sin(2.1), math.cos(2.1))),
        CurlGaussian(1.0, 1.1, axis=(math.sin(0.9), 0.0, math.cos(0.9))),
    ),
    "cocentred": (CurlGaussian(1.0, 1.0, axis=(math.sin(0.6), 0.0, math.cos(0.6))), CurlGaussian(1.0, 1.3)),
}


def sweep_T_grid(pair: str, n: int) -> list:
    """n T's from 1.2 times the pair's causal floor to 400, as perfbench's sweep takes 6."""
    f, a = SWEEP_PAIRS[pair]
    floor = float(np.linalg.norm(f.center_vec - a.center_vec)) + 3.0 * (f.sigma + a.sigma)
    return [float(T) for T in np.geomspace(1.2 * floor, 400.0, n)]

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

    @pytest.mark.parametrize("power", [3, -1, 1.0, np.float64(2.0), True, False, np.bool_(True), "1"])
    def test_rejects_bad_power(self, canonical_field, power):
        # a bool, a float or a text power is refused, not read as an index
        # the message shows the power as given: the text '1' is not the integer 1
        with pytest.raises(ValidationError, match=rf"power must be in \{{0, 1, 2\}}, got {re.escape(repr(power))}$"):
            weighted_spectral_integral(canonical_field, power)

    @pytest.mark.parametrize("cast", [np.int64, np.int32, np.uint8])
    def test_numpy_int_power_keeps_bits(self, cast):
        for field in (CANONICAL, DISPLACED_TILTED):
            for power in (0, 1, 2):
                assert weighted_spectral_integral(field, cast(power)) == weighted_spectral_integral(field, power)


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
        return _integrand(k, np.zeros(k.shape), 0.0, 1.0, c_a, c_d) / k**5

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
            f = _integrand(k, np.zeros(3), 0.0, 0.0, cos_axes, 0.6 * -0.8)
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

    @pytest.mark.parametrize("sigma", [1e160, 1e110])
    def test_width_past_the_float_range_of_its_powers_is_computed(self, sigma):
        # sigma^2 and (2 pi sigma^2)^(3/2) overflow, but K(100 sigma) is 1.0095e-9
        # at every width, and the contour runs in units of the width
        wide = CurlGaussian(1.0, sigma)
        K = overlap_kernel(wide, wide, 100.0 * sigma)
        assert_within_estimate(K, kernel_series_reference(wide, wide, 100.0 * sigma))

    def test_narrow_width_whose_K_underflows_names_T(self):
        # at T/sigma = 1e90 the series nodes' k^5 overflows, and K ~ 1005 (sigma/T)^6 is 0
        narrow = CurlGaussian(1.0, 1e-90)
        with pytest.raises(ValidationError, match=re.escape("K(T=1.0): the contour reaches |k| = 5e+179, where")):
            overlap_kernel(narrow, narrow, 1.0)

    @pytest.mark.parametrize(
        "f1, f2, cause",
        [(CurlGaussian(1.0, 1.0), CurlGaussian(1.0, 1e-120), "widths sigma = 1.0 and 1e-120"),
         (CurlGaussian(1e160, 1.0), CurlGaussian(1e160, 1.0), "amplitudes 1e+160 and 1e+160")],
        ids=["width-factor-underflows", "amplitude-product-overflows"],
    )
    def test_prefactor_past_the_float_range_names_its_cause(self, f1, f2, cause):
        # (2 pi sigma^2)^(3/2) of the narrow width underflows to 0; 1e160 * 1e160 is inf
        with pytest.raises(ValidationError, match=re.escape(f"{cause}: the K(T) prefactor leaves the float range")):
            overlap_kernel(f1, f2, 40.0)

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
            Ts = [1e-3, 0.1, 1.0, 10.0, 1e3, 1e4] + near
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results = list(spectral._contour_pairing(f, a, Ts))
            for T, (J, err, n) in zip(Ts, results, strict=True):
                assert n <= 7 * 64 and math.isfinite(abs(J)) and math.isfinite(err), (dist, T)

    @pytest.mark.parametrize("pair", SWEEP_PAIRS)
    def test_benchmark_sweep_pairs_take_three_panels(self, pair):
        # perfbench's sweep pairs on their T grids; a path change there would
        # move the benchmark
        f, a = SWEEP_PAIRS[pair]
        for T in sweep_T_grid(pair, 6):
            assert overlap_kernel(f, a, T).samples_or_nodes == 3 * 64

    def test_a_long_T_list_keeps_a_bounded_peak(self):
        # the T's are taken in chunks, so 4,000 of them hold about as much as
        # one chunk's nodes, not 4,000 T's worth (~150 MB)
        f, a = SWEEP_PAIRS["displaced"]
        Ts = sweep_T_grid("displaced", 4000)
        tracemalloc.start()
        try:
            results = spectral.overlap_kernels(f, a, Ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 4000
        assert peak < 20e6

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_a_list_about_a_chunk_gives_each_T_alone_bit_for_bit(self, n):
        # at and across the chunk boundaries, in reverse order and with repeats
        f, a = SWEEP_PAIRS["displaced"]
        Ts = sweep_T_grid("displaced", n - 6)[::-1] + sweep_T_grid("displaced", 6)
        batch = spectral.overlap_kernels(f, a, Ts)
        assert [_bits(K) for K in batch] == [_bits(overlap_kernel(f, a, T)) for T in Ts]

    @pytest.mark.parametrize("earlier", [None, 3, 255, 256])
    def test_the_first_T_that_fails_is_raised_whatever_its_chunk(self, earlier):
        # at T = 1e62 the canonical pair's contour terms overflow (see below);
        # the first failing T in list order is the error, in the first chunk or past it
        Ts = [8.0 + 0.01 * i for i in range(600)]
        Ts[400] = 1e62
        if earlier is not None:
            Ts[earlier] = 1e70
        first = Ts[400 if earlier is None else earlier]
        with pytest.raises(ValidationError, match=re.escape(f"K(T={first!r}): the contour reaches")):
            spectral.overlap_kernels(CANONICAL, CANONICAL, Ts)

    @pytest.mark.parametrize(
        "center, sigma, first",
        [
            # the series nodes reach the saddle height, about T/2, whose k^5 overflows
            ((0.0, 0.0, 0.0), 1.0, 8.9531e61),
            # a nearly co-centred pair's k^2/(2|d|^3) overflows first
            ((1e-61, 0.0, 0.0), 1.0, 1.19923e63),
            # a displaced pair forms k^5 only below |k| = 2/|d|; past it k^2 overflows
            ((1.0, 0.0, 0.0), 1.0, 2.68156e154),
            # in units of 8, sigma = 1.25 and |d| = 1/8, so k^2/(2|d|^3) overflows first
            ((1.0, 0.0, 0.0), 10.0, 2.09497e154),
        ],
    )
    @pytest.mark.parametrize("factor, rejected", [(1.0 - 1e-3, False), (1.0 + 1e-3, True), (1e100, True)])
    def test_first_T_whose_contour_terms_overflow_is_named(self, center, sigma, first, factor, rejected):
        # `first` is the pair's first refused T, by bisection; K ~ 1005 (sigma/T)^6
        # is long below the float range there, so it is 0 just before
        f, a = CurlGaussian(1.0, sigma, center=center), CurlGaussian(1.0, sigma)
        T = factor * first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rejected:
                with pytest.raises(ValidationError, match=re.escape(f"K(T={T!r}): the contour reaches")):
                    overlap_kernel(f, a, T)
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

    @pytest.mark.parametrize("name", ["cocentred", "mc-displaced-tilted", "d20"])
    @pytest.mark.parametrize("T", [0.5, 8.0, 50.0])
    def test_opposite_sign_amplitudes_negate_K_and_keep_the_estimate(self, name, T):
        # a negated amplitude negates both parts of the pairing bit for bit;
        # the rounding bound is the same nonnegative number
        f, a = (CANONICAL, CANONICAL) if name == "cocentred" else REFERENCE_PAIRS[name]
        same, opposite = overlap_kernel(f, a, T), overlap_kernel(f.scaled(-1.0), a, T)
        assert opposite.value == -same.value and opposite.commutator == -same.commutator
        assert opposite.estimated_error == same.estimated_error >= 0.0
        assert opposite.samples_or_nodes == same.samples_or_nodes

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

    @pytest.mark.parametrize("T", [0.0, -8.0])
    def test_rejects_nonpositive_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match=f"T: must be a positive finite number, got {T!r}"):
            overlap_kernel(canonical_field, canonical_field, T)

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match="finite"):
            overlap_kernel(canonical_field, canonical_field, T)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_oracle_rejects_non_finite_T(self, canonical_field, T):
        with pytest.raises(ValidationError, match="finite"):
            brute_force_overlap_oracle(canonical_field, canonical_field, T, samples=100)

    @pytest.mark.parametrize("value, err", [(np.nan, 1e-12), (1e-3, np.nan)])
    def test_nan_quadrature_fails_the_gate(self, canonical_field, monkeypatch, value, err):
        monkeypatch.setattr(spectral, "_contour_pairing", lambda f1, f2, ts: [(complex(-value, 0.0), err, 1)] * len(ts))
        with pytest.raises(ToleranceFailure):
            overlap_kernel(canonical_field, canonical_field, 14.0)

    def test_flags_quadrature_error_above_tolerance(self):
        # the gate is relative with no absolute floor: at a zero of K(T) the
        # estimated error exceeds 1e-6 |K|, so it raises instead of returning
        f, a = README_PAIR
        lo, hi = 6.0, 8.0  # K(6) > 0 > K(8)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if next(spectral._contour_pairing(f, a, [mid]))[0].real < 0.0 else (lo, mid)
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
SIX_NORMAL_PAIRS = {
    "canonical": ((CANONICAL, CANONICAL), 14.0),
    "readme-displaced": (README_PAIR, 14.0),
    "displaced-tilted": (MC_DISPLACED_TILTED, MC_T),
}
# MC_DISPLACED_TILTED's fields moved onto one centre: d = 0 with axes that are not parallel
COCENTRED_TILTED = tuple(CurlGaussian(f.amplitude, f.sigma, axis=f.axis) for f in MC_DISPLACED_TILTED)
THREE_NORMAL_PAIRS = {**SIX_NORMAL_PAIRS, "cocentred-tilted": (COCENTRED_TILTED, 14.0)}


# (pair, samples, value.hex(), estimated_error.hex()) at seed 11, recorded when each batch
# was one block.  In blocks of 2^14: 2 and 8_193 samples are one short block, 16_389 a full
# block and a short one, 65_536 + 8_193 + 3 a full batch and a short one, and 2e5 three
# full batches and a short one
MC_BITS = [
    ("canonical", 2, "-0x1.e5da193e12fabp-15", "0x1.db203d248712dp-18"),
    ("canonical", 8193, "0x1.57ec9975eb1c6p-13", "0x1.d133ac29e234cp-18"),
    ("canonical", 16389, "0x1.563a599d951a4p-13", "0x1.4e4099d4980f3p-18"),
    ("canonical", 73732, "0x1.64500fc2796acp-13", "0x1.428b3360d9f2cp-19"),
    ("canonical", 200000, "0x1.62e905d01be7fp-13", "0x1.874b213b018bap-20"),
    ("displaced-tilted", 2, "-0x1.2f384ac056f0bp-17", "0x1.950fc58b7edbbp-19"),
    ("displaced-tilted", 8193, "0x1.1b4f541c07243p-16", "0x1.f45de10207434p-21"),
    ("displaced-tilted", 16389, "0x1.129d89b6e3598p-16", "0x1.641dcd3696c1ap-21"),
    ("displaced-tilted", 73732, "0x1.23916462c4dd5p-16", "0x1.5e05ce69678a4p-22"),
    ("displaced-tilted", 200000, "0x1.247b740cb8a76p-16", "0x1.acc7c6a26cff9p-23"),
    ("cocentred-tilted", 2, "-0x1.c6efcc03823e0p-16", "0x1.ba73afec69344p-19"),
    ("cocentred-tilted", 8193, "0x1.3d0b68934d69cp-14", "0x1.aa03193d089c2p-19"),
    ("cocentred-tilted", 16389, "0x1.3b60a89be1024p-14", "0x1.319fa8bb68123p-19"),
    ("cocentred-tilted", 73732, "0x1.4857f4e7fef22p-14", "0x1.26fe6b980710dp-20"),
    ("cocentred-tilted", 200000, "0x1.470d7acb67105p-14", "0x1.65b42f674de60p-21"),
]


class TestBruteForceOracle:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name, samples, value, err", MC_BITS, ids=[f"{r[0]}-{r[1]}" for r in MC_BITS])
    def test_bits_pinned(self, name, samples, value, err, workers):
        # the blocks inside a batch, and the thread count, change no bit
        (f, m), T = THREE_NORMAL_PAIRS[name]
        res = brute_force_overlap_oracle(f, m, T, samples=samples, seed=11, workers=workers)
        assert (res.value.hex(), res.estimated_error.hex()) == (value, err)

    @pytest.mark.parametrize("block", [1000, spectral._MC_BATCH])
    @pytest.mark.parametrize("name, samples, value, err", MC_BITS[3::5], ids=[r[0] for r in MC_BITS[3::5]])
    def test_bits_do_not_depend_on_the_block_size(self, name, samples, value, err, block, monkeypatch):
        monkeypatch.setattr(spectral, "_MC_BLOCK", block)
        (f, m), T = THREE_NORMAL_PAIRS[name]
        res = brute_force_overlap_oracle(f, m, T, samples=samples, seed=11, workers=2)
        assert (res.value.hex(), res.estimated_error.hex()) == (value, err)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("samples", [2, spectral._MC_BATCH + 1])
    def test_sample_on_the_cone_is_refused(self, samples, workers, monkeypatch):
        # with CONE_EPS = 1 every |T^2 - r^2| <= T^2 + r^2, so every sample is on the cone
        monkeypatch.setattr(spectral, "CONE_EPS", 1.0)
        with pytest.raises(ValidationError, match="sampled pair fell on the light cone"):
            brute_force_overlap_oracle(*MC_DISPLACED_TILTED, MC_T, samples=samples, seed=11, workers=workers)

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

    @pytest.mark.parametrize(
        "pair, T, seed",
        [(MC_DISPLACED_TILTED, MC_T, 4), (MC_DISPLACED_TILTED, MC_T, 29),
         (COCENTRED_TILTED, 14.0, 4), ((CANONICAL, CANONICAL), 14.0, 4)],
        ids=["4", "29", "cocentred-tilted-4", "canonical-4"],
    )
    def test_matches_per_sample_reference(self, pair, T, seed):
        # the reference rebuilds each sample in 6D around its own centre-line
        # frame; co-centred pairs take the axes' normal, or any normal if parallel
        f, m = pair
        samples = 2 * spectral._MC_BATCH + 5_000
        res = brute_force_overlap_oracle(f, m, T, samples=samples, seed=seed)
        value, stderr = mc_batch_reference(f, m, T, samples, seed)
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

    @pytest.mark.parametrize("pair, T", THREE_NORMAL_PAIRS.values(), ids=THREE_NORMAL_PAIRS.keys())
    def test_agrees_with_three_normal_estimator(self, pair, T):
        # verify's default sample count and seed; the three-normal estimator
        # draws the direction of u_perp where the oracle averages over it
        f, m = pair
        res = brute_force_overlap_oracle(f, m, T, samples=200_000, seed=11)
        three, three_err = mc_three_normal_reference(f, m, T, 200_000, 11)
        assert abs(res.value - three) <= 3.0 * np.hypot(res.estimated_error, three_err)

    @pytest.mark.parametrize("pair, T", THREE_NORMAL_PAIRS.values(), ids=THREE_NORMAL_PAIRS.keys())
    def test_stderr_not_above_three_normal_estimator(self, pair, T):
        f, m = pair
        res = brute_force_overlap_oracle(f, m, T, samples=200_000, seed=11)
        assert res.estimated_error <= mc_three_normal_reference(f, m, T, 200_000, 11)[1]

    def test_rigid_motion_invariance(self):
        # the oracle reads only |d|, (d^.n_f)(d^.n_a) and n_f.n_a, so at one seed a
        # rotated and shifted pair gives the same value up to rounding
        angle, (x, y, z) = 1.1, np.array([1.0, -2.0, 0.5]) / np.linalg.norm([1.0, -2.0, 0.5])
        cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        rotation = np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * cross @ cross
        moved = [CurlGaussian(f.amplitude, f.sigma, center=rotation @ f.center_vec + (3.0, -1.5, 7.25),
                              axis=rotation @ f.axis_vec) for f in MC_DISPLACED_TILTED]
        res = brute_force_overlap_oracle(*MC_DISPLACED_TILTED, MC_T, samples=200_000, seed=11)
        res_moved = brute_force_overlap_oracle(*moved, MC_T, samples=200_000, seed=11)
        np.testing.assert_allclose(res_moved.value, res.value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res_moved.estimated_error, res.estimated_error, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pair, T", SIX_NORMAL_PAIRS.values(), ids=SIX_NORMAL_PAIRS.keys())
    def test_agrees_with_six_normal_estimator(self, pair, T):
        # verify's default sample count and seed; the six-normal estimator
        # draws v where the oracle averages over it
        f, m = pair
        res = brute_force_overlap_oracle(f, m, T, samples=200_000, seed=11)
        six, six_err = mc_six_normal_reference(f, m, T, 200_000, 11)
        assert abs(res.value - six) <= 3.0 * np.hypot(res.estimated_error, six_err)

    @pytest.mark.parametrize("pair, T", SIX_NORMAL_PAIRS.values(), ids=SIX_NORMAL_PAIRS.keys())
    def test_stderr_not_above_six_normal_estimator(self, pair, T):
        f, m = pair
        res = brute_force_overlap_oracle(f, m, T, samples=200_000, seed=11)
        assert res.estimated_error <= mc_six_normal_reference(f, m, T, 200_000, 11)[1]

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
        K = overlap_kernel(canonical_field, canonical_field, T)
        assert abs(K.commutator) < 1e-6 * abs(K.value)

    def test_zero_field(self, canonical_field):
        K = overlap_kernel(canonical_field, CurlGaussian(0.0, 1.0), 10.0)
        assert K.commutator == 0.0 and K.value == 0.0


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
        np.testing.assert_allclose(overlap_kernel(CANONICAL, CANONICAL, T).commutator, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("T", [8.0, 12.0, 16.0])
    def test_commutator_displaced(self, T):
        f, a = MC_DISPLACED_TILTED
        ref = quadrature_reference("mc-displaced-tilted", T, 50)[1]
        np.testing.assert_allclose(overlap_kernel(f, a, T).commutator, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name, T", [("d20", 0.5), ("d20", 8.0), ("d6", 4.0)])
    def test_commutator_inside_the_separation(self, name, T):
        # at T < |d| the commutator is Gaussian-tail small (2.0e-33 for d20 at
        # T = 0.5); the contour gives it to within its rounding bound
        K = overlap_kernel(*REFERENCE_PAIRS[name], T)
        assert abs(K.commutator - quadrature_reference(name, T, 30)[1]) <= K.estimated_error <= 1e-13 * abs(K.value)

    def test_no_quadpack_on_the_kernel_path(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("QUADPACK called on the K(T) path")

        monkeypatch.setattr("scipy.integrate.quad", no_quadrature)
        for f, a in ((CANONICAL, CANONICAL), MC_DISPLACED_TILTED, D20_PAIR):
            for T in (0.5, 8.0, 14.0, 400.0):
                overlap_kernel(f, a, T)


# the smallest normal float: below it K's rounding is not held to 1e-12
TINY = 2.0**-1022


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def kernel_draws(draw):
    """(f_o, a_m, T): widths 1e-3..1e3, |d| 0 or 1e-3..1e2, an f_o amplitude of
    either sign, T from where the Watson series holds to 1e300."""
    s_f, s_a = draw(_log_uniform(1e-3, 1e3)), draw(_log_uniform(1e-3, 1e3))
    dist = draw(st.just(0.0) | _log_uniform(1e-3, 1e2))
    direction = draw(_DIRECTIONS)
    center = tuple(dist * direction / np.linalg.norm(direction))
    amplitude = draw(st.sampled_from([1.0, -1.0])) * draw(_log_uniform(1e-3, 1e3))
    f = CurlGaussian(amplitude, s_f, center=center, axis=tuple(draw(_DIRECTIONS)))
    a = CurlGaussian(1.0, s_a, axis=tuple(draw(_DIRECTIONS)))
    floor = max(30.0 * math.sqrt(0.5 * (s_f**2 + s_a**2)), 3.0 * dist, min_oracle_wait(f, a))
    return f, a, math.exp(draw(st.floats(math.log(floor), math.log(1e300))))


@settings(max_examples=400, derandomize=True)
@example(draw=(CurlGaussian(1.0, 1e3), CurlGaussian(1.0, 1e3), 1e54))
@example(draw=(CurlGaussian(1.0, 1e110), CurlGaussian(1.0, 1e110), 1e112))
@given(draw=kernel_draws())
def test_kernel_meets_the_watson_series_or_names_T(draw):
    # K is within 1e-12 of the 50-digit series wherever that is a normal
    # float; the contour refuses a T only where it is not, and both parts of
    # the pairing come from that one contour
    f, a, T = draw
    try:
        ref = kernel_series_reference(f, a, T)
    except ValueError:
        assume(False)  # the asymptotic series grows before it converges
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = overlap_kernel(f, a, T)
        except ValidationError:
            assert abs(ref) < TINY
            return
    K = result.value
    assert math.isfinite(result.commutator)
    if abs(ref) >= TINY:
        assert abs(K - ref) <= 1e-12 * abs(ref)
    else:
        assert abs(K) < TINY


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValidationError, ToleranceFailure) as exc:
        return type(exc), str(exc)


def _bits(K: KernelResult) -> tuple:
    return K.value.hex(), K.commutator.hex(), K.estimated_error.hex(), K.samples_or_nodes


@st.composite
def pair_T_lists(draw):
    """(f_o, a_m, Ts): widths 0.1..10, |d| 0 or up to 100 sigma, so that T < |d|
    takes the separate legs, and 1-8 T's from 1e-2 to 1e3 sigma past |d|, in any
    order and with repeats."""
    s_f, s_a = draw(_log_uniform(0.1, 10.0)), draw(_log_uniform(0.1, 10.0))
    sigma = max(s_f, s_a)
    dist = draw(st.just(0.0) | _log_uniform(1e-2 * sigma, 1e2 * sigma))
    direction = draw(_DIRECTIONS)
    center = tuple(dist * direction / np.linalg.norm(direction))
    f = CurlGaussian(draw(_log_uniform(0.1, 10.0)), s_f, center=center, axis=tuple(draw(_DIRECTIONS)))
    a = CurlGaussian(1.0, s_a, axis=tuple(draw(_DIRECTIONS)))
    pool = draw(st.lists(_log_uniform(1e-2 * sigma, dist + 1e3 * sigma), min_size=1, max_size=5))
    return f, a, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(draw=pair_T_lists())
def test_a_batch_gives_each_T_alone_bit_for_bit(draw):
    # one contour pass over a T list gives, for every T, the value,
    # commutator, estimate and node count of that T's own contour; where a T
    # fails, the batch raises the error of the first that fails alone
    f, a, Ts = draw
    alone = [_outcome(overlap_kernel, f, a, T) for T in Ts]
    batch = _outcome(spectral.overlap_kernels, f, a, Ts)
    failed = [K for K in alone if isinstance(K, tuple)]
    if failed:
        assert batch == failed[0]
    else:
        assert [_bits(K) for K in batch] == [_bits(K) for K in alone]


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
