import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qetlab import (
    LightConeError,
    PairInvariants,
    ValidationError,
    brute_force_overlap_oracle,
    commutator_residual,
    make_curl_gaussian,
    overlap_kernel,
    pauli_jordan_delta,
    pauli_jordan_delta_quadrature,
    weighted_spectral_integral,
)
from qetlab import spectral
from qetlab.spectral import _SERIES_X, _angular_factor, min_oracle_wait

from oracles import (
    angular_components_reference,
    curl_gaussian_spectrum,
    displaced_kernel_reference,
    grid_norm_reference,
    kernel_reference,
    mc_batch_reference,
    position_norm_reference,
    weighted_norm_reference,
)

CANONICAL = make_curl_gaussian(1.0, 1.0)
DISPLACED_TILTED = make_curl_gaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))


class TestWeightedIntegral:
    def test_damping_moment_canonical(self, canonical_field):
        # closed radial form: (4 pi/3) Gamma(3) = 8 pi/3
        res = weighted_spectral_integral(canonical_field, 1)
        assert res.method == "closed-form"
        np.testing.assert_allclose(res.value, 8.0 * np.pi / 3.0, rtol=1e-10)
        np.testing.assert_allclose(
            res.value, weighted_norm_reference(1.0, 1.0, 1), rtol=1e-10
        )

    def test_energy_moment_canonical(self, canonical_field):
        # (4 pi/3) Gamma(7/2) = 5 pi^{3/2}/2, so E_m = 5 pi^{3/2}/4
        res = weighted_spectral_integral(canonical_field, 2)
        np.testing.assert_allclose(res.value, 2.5 * np.pi**1.5, rtol=1e-10)

    @pytest.mark.parametrize(
        "field, power",
        [pytest.param(CANONICAL, p, id=str(p)) for p in (0, 1, 2)]
        + [pytest.param(DISPLACED_TILTED, p, id=f"displaced-tilted-{p}") for p in (0, 1, 2)],
    )
    def test_grid_sum_agrees(self, field, power):
        res = weighted_spectral_integral(field, power)
        grid = grid_norm_reference(field, power)
        np.testing.assert_allclose(res.value, grid, rtol=1e-6)

    @pytest.mark.parametrize("power", [0, 1, 2])
    def test_general_field_against_reference(self, power):
        a = make_curl_gaussian(1.7, 0.6, center=(1.0, 2.0, 3.0), axis=(1.0, 1.0, 0.0))
        res = weighted_spectral_integral(a, power)
        np.testing.assert_allclose(
            res.value, weighted_norm_reference(1.7, 0.6, power), rtol=1e-10
        )

    def test_zero_field(self):
        for p in (0, 1, 2):
            assert weighted_spectral_integral(make_curl_gaussian(0.0, 1.0), p).value == 0.0

    def test_parseval_against_position_quadrature(self):
        for field in (CANONICAL, DISPLACED_TILTED):
            spec_val = weighted_spectral_integral(field, 0).value
            np.testing.assert_allclose(spec_val, position_norm_reference(field), rtol=1e-6)

    def test_norms_are_quadrature_free(self, monkeypatch):
        import qetlab.spectral

        def no_quadrature(*args, **kwargs):
            raise AssertionError("QUADPACK called on the norm path")

        monkeypatch.setattr(qetlab.spectral, "quad", no_quadrature)
        for field in (CANONICAL, DISPLACED_TILTED):
            for power in (0, 1, 2):
                res = weighted_spectral_integral(field, power)
                assert res.method == "closed-form" and res.samples_or_nodes == 0
                assert 0.0 < res.estimated_error <= 1e-14 * res.value
        inv = PairInvariants.of(DISPLACED_TILTED, CANONICAL)
        np.testing.assert_allclose(
            [inv.E_m, inv.I1, inv.xi],
            [0.5 * weighted_norm_reference(1.3, 0.9, 2), weighted_norm_reference(1.3, 0.9, 1), np.pi**1.5],
            rtol=1e-14,
        )

    def test_rejects_bad_power(self, canonical_field):
        with pytest.raises(ValidationError):
            weighted_spectral_integral(canonical_field, 3)


class TestPauliJordanDelta:
    def test_timelike_value(self):
        np.testing.assert_allclose(pauli_jordan_delta(2.0, 1.0), -1.0 / (6.0 * np.pi**2), rtol=1e-14)

    def test_spacelike_value(self):
        np.testing.assert_allclose(pauli_jordan_delta(1.0, 2.0), 1.0 / (6.0 * np.pi**2), rtol=1e-14)

    def test_coincident_point(self):
        np.testing.assert_allclose(pauli_jordan_delta(10.0, 0.0), -1.0 / (200.0 * np.pi**2), rtol=1e-14)

    @given(t=st.floats(0.3, 20.0), r=st.floats(0.0, 20.0))
    def test_antisymmetric_under_interval_flip(self, t, r):
        # swapping t <-> r flips the sign of t^2 - r^2
        if abs(t * t - r * r) <= 1e-6 * (t * t + r * r):
            return
        np.testing.assert_allclose(
            pauli_jordan_delta(t, r), -pauli_jordan_delta(r, t), rtol=1e-12
        )

    def test_on_cone_rejected(self):
        with pytest.raises(LightConeError):
            pauli_jordan_delta(3.0, 3.0)
        with pytest.raises(LightConeError):
            pauli_jordan_delta(1.0, 1.0 + 1e-12)

    @pytest.mark.parametrize("t,r", [(2.0, 1.0), (1.0, 2.0), (10.0, 0.0), (5.0, 3.0)])
    def test_quadrature_route_agrees(self, t, r):
        closed = pauli_jordan_delta(t, r)
        quadr = pauli_jordan_delta_quadrature(t, r)
        np.testing.assert_allclose(quadr.value, closed, rtol=1e-6)

    @pytest.mark.parametrize("t,r", [(4.0, 1.0), (6.0, 2.0), (1.0, 2.0), (10.0, 0.0)])
    def test_d2_delta_offcone_is_second_time_derivative(self, t, r):
        # the kernel the Monte Carlo oracle integrates is d_t^2 of the closed form
        from qetlab.spectral import d2_delta_offcone

        h = 1e-3
        central = (
            pauli_jordan_delta(t + h, r) - 2.0 * pauli_jordan_delta(t, r) + pauli_jordan_delta(t - h, r)
        ) / (h * h)
        np.testing.assert_allclose(float(d2_delta_offcone(t, r * r)), central, rtol=1e-6)


class TestAngularFactor:
    def test_components_against_scipy(self):
        # dense grid plus the ulps either side of the series/closed-form switch
        switch = _SERIES_X + np.arange(-20, 21) * np.spacing(_SERIES_X)
        x = np.concatenate([np.linspace(0.0, 200.0, 200_001), np.geomspace(1e-8, 1.0, 2001), switch])
        j01, j2 = angular_components_reference(x)
        axes = np.array([_angular_factor(float(v), 1.0, 0.0, 0.0) for v in x])
        dd = np.array([_angular_factor(float(v), 0.0, 1.0, 1.0) for v in x])
        np.testing.assert_allclose(axes, j01, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(dd, j2, rtol=0.0, atol=1e-14)

    def test_exact_at_zero(self):
        for cos_axes in (1.0, -0.3, 0.7071067811865476):
            assert _angular_factor(0.0, cos_axes, 0.6, -0.8) == (2.0 / 3.0) * cos_axes


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

    def test_perpendicular_axes_cancel(self):
        a = make_curl_gaussian(1.0, 1.0, axis=(0.0, 0.0, 1.0))
        f = make_curl_gaussian(1.0, 1.0, axis=(1.0, 0.0, 0.0))
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
        f = make_curl_gaussian(1.1, 0.8, center=(0.5, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = make_curl_gaussian(0.9, 1.2, center=(0.0, 0.3, 0.0), axis=(0.0, 0.0, 1.0))
        K_fa = overlap_kernel(f, a, 11.0).value
        K_af = overlap_kernel(a, f, 11.0).value
        np.testing.assert_allclose(K_fa, K_af, rtol=1e-12)

    def test_displaced_pair_against_monte_carlo(self):
        f = make_curl_gaussian(1.0, 1.0, center=(1.0, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = make_curl_gaussian(1.3, 0.9, center=(-0.5, 0.5, 0.0))
        T = 16.0
        K = overlap_kernel(f, a, T)
        mc = brute_force_overlap_oracle(f, a, T, samples=600_000, seed=17)
        assert abs(K.value - mc.value) <= 3.0 * mc.estimated_error

    @pytest.mark.parametrize("T", [4.0, 6.0, 10.0])
    def test_displaced_pair_against_scipy_integrand(self, T):
        f = make_curl_gaussian(1.0, 1.0, center=(1.0, 0.0, 0.0), axis=(0.0, 1.0, 1.0))
        a = make_curl_gaussian(1.3, 0.9, center=(-0.5, 0.5, 0.0))
        K = overlap_kernel(f, a, T)
        assert K.estimated_error <= 1e-9 * abs(K.value)
        ref, nodes = displaced_kernel_reference(f, a, T)
        np.testing.assert_allclose(K.value, ref, rtol=1e-12, atol=0.0)
        assert K.samples_or_nodes == nodes

    def test_spectrum_hop_is_identity(self):
        # perfbench passes f.spectrum() to overlap_kernel; it must be the field itself
        f, a = MC_DISPLACED_TILTED
        assert f.spectrum() is f and a.spectrum() is a
        for T in (9.0, 40.0):
            assert overlap_kernel(f.spectrum(), a.spectrum(), T) == overlap_kernel(f, a, T)

    def test_rejects_nonpositive_T(self, canonical_field):
        with pytest.raises(ValidationError):
            overlap_kernel(canonical_field, canonical_field, 0.0)

    def test_flags_quadrature_error_above_tolerance(self, canonical_field, monkeypatch):
        # at T=200 the kernel is ~1e-11 while the quadrature error is ~1e-14;
        # with the tolerance floor removed the flag must fire, not silently return
        from qetlab import ToleranceFailure

        monkeypatch.setattr(spectral, "_KERNEL_ATOL", 0.0)
        with pytest.raises(ToleranceFailure):
            overlap_kernel(canonical_field, canonical_field, 200.0)


MC_DISPLACED_TILTED = (
    make_curl_gaussian(0.9, 1.1, center=(0.3, -0.2, 0.5), axis=(0.2, 0.3, 1.0)),
    make_curl_gaussian(1.3, 0.8, center=(1.5, 0.7, -0.4), axis=(1.0, 0.0, 0.5)),
)
MC_T = 18.0


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

    @pytest.mark.parametrize("seed", [4, 29])
    def test_matches_per_sample_reference(self, seed):
        f, m = MC_DISPLACED_TILTED
        samples = 2 * spectral._MC_BATCH + 5_000
        res = brute_force_overlap_oracle(f, m, MC_T, samples=samples, seed=seed)
        value, stderr = mc_batch_reference(f, m, MC_T, samples, seed)
        np.testing.assert_allclose(res.value, value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(res.estimated_error, stderr, rtol=1e-12, atol=0.0)

    def test_zero_field_returns_zero(self, canonical_field):
        res = brute_force_overlap_oracle(
            make_curl_gaussian(0.0, 1.0), canonical_field, 13.0, samples=1000, seed=1
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

    def test_seed_recorded(self, canonical_field):
        res = brute_force_overlap_oracle(canonical_field, canonical_field, 13.0, samples=1000, seed=99)
        assert res.seed == 99


class TestCommutatorResidual:
    def test_negligible_at_strict_separation(self, canonical_field):
        T = 2.0 * canonical_field.effective_radius + 6.0
        K = overlap_kernel(canonical_field, canonical_field, T).value
        res = commutator_residual(canonical_field, canonical_field, T)
        assert abs(res) < 1e-6 * abs(K)

    def test_zero_time(self, canonical_field):
        assert commutator_residual(canonical_field, canonical_field, 0.0) == 0.0

    def test_zero_field(self, canonical_field):
        res = commutator_residual(
            canonical_field, make_curl_gaussian(0.0, 1.0), 10.0
        )
        assert res == 0.0


@settings(max_examples=10)
@given(
    amp=st.floats(0.2, 2.0),
    sigma=st.floats(0.5, 1.6),
    T=st.floats(10.0, 25.0),
)
def test_kernel_matches_reference_over_family(amp, sigma, T):
    a = make_curl_gaussian(amp, sigma)
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
