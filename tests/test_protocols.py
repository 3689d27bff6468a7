import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qetlab import (
    CausalityError,
    DegenerateFieldError,
    PairInvariants,
    ProtocolConfig,
    ValidationError,
    crossover_amplitude,
    damping_oscillator,
    damping_spin,
    input_energy,
    large_amplitude_limit,
    make_curl_gaussian,
    povm_identity_check,
    run_protocols,
    separation_scaling_fit,
    teleport,
    weighted_spectral_integral,
)
from qetlab.protocols import (
    CROSSOVER_U,
    input_energy_position_oracle,
    min_causal_wait,
    spin_objective,
)

from oracles import grid_norm_reference, input_energy_position_reference

I1_CANONICAL = 8.0 * np.pi / 3.0
DISPLACED_TILTED = make_curl_gaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))


def scaled_I1(a, lam: float = 1.0) -> float:
    """I1 in closed form evaluated at a.scaled(lam), not lam^2 times I1 of a.

    `teleport` applies the lam^2 law, so tests that compare against this keep
    that law under test.
    """
    return weighted_spectral_integral(a.scaled(lam), 1).value


@pytest.fixture(scope="module")
def canonical_cfg():
    a = make_curl_gaussian(1.0, 1.0)
    return ProtocolConfig(a_m=a, f_o=a, T=8.0)


def random_config(rng) -> ProtocolConfig:
    def fld():
        axis = rng.normal(size=3)
        return make_curl_gaussian(
            float(rng.uniform(0.2, 1.8)),
            float(rng.uniform(0.5, 1.6)),
            center=tuple(rng.uniform(-0.5, 0.5, size=3)),
            axis=tuple(axis / np.linalg.norm(axis)),
        )

    a, f = fld(), fld()
    T = min_causal_wait(a, f) * float(rng.uniform(1.2, 3.0))
    lam = float(rng.uniform(0.2, 1.5))
    return ProtocolConfig(a_m=a, f_o=f, T=T, lam=lam)


class TestInputEnergy:
    def test_canonical_value(self, canonical_field):
        # 5 pi^{3/2}/4, cross-checked by position-space quadrature of (curl a)^2/2
        E = input_energy(canonical_field)
        np.testing.assert_allclose(E, 1.25 * np.pi**1.5, rtol=1e-10)
        np.testing.assert_allclose(E, input_energy_position_oracle(canonical_field), rtol=1e-6)

    def test_zero_field(self):
        assert input_energy(make_curl_gaussian(0.0, 1.0)) == 0.0

    @pytest.mark.parametrize(
        "field", [make_curl_gaussian(1.0, 1.0), DISPLACED_TILTED], ids=["canonical", "displaced"]
    )
    def test_position_oracle_matches_full_lattice(self, field):
        np.testing.assert_allclose(
            input_energy_position_oracle(field),
            input_energy_position_reference(field),
            rtol=1e-13,
            atol=0.0,
        )

    def test_position_oracle_is_plane_wise(self, canonical_field):
        # the oracle must never hold an array as large as one n^3 float64 lattice
        tracemalloc.start()
        try:
            input_energy_position_oracle(canonical_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96**3 * 8

    @given(lam=st.floats(0.1, 5.0))
    def test_quadratic_scaling(self, lam):
        a = make_curl_gaussian(1.0, 1.0)
        np.testing.assert_allclose(
            input_energy(a.scaled(lam)), lam * lam * input_energy(a), rtol=1e-9
        )


class TestDamping:
    def test_spin_zero_field(self):
        assert damping_spin(scaled_I1(make_curl_gaussian(0.0, 1.0))) == 1.0

    def test_spin_canonical(self, canonical_field):
        np.testing.assert_allclose(
            damping_spin(scaled_I1(canonical_field)), math.exp(-16.0 * np.pi / 3.0), rtol=1e-9
        )

    @given(lam=st.floats(0.1, 2.0))
    def test_spin_power_law_in_amplitude(self, lam):
        a = make_curl_gaussian(1.0, 1.0)
        np.testing.assert_allclose(
            damping_spin(scaled_I1(a, lam)), damping_spin(scaled_I1(a)) ** (lam * lam), rtol=1e-9
        )

    def test_oscillator_zero_field(self):
        np.testing.assert_allclose(
            damping_oscillator(scaled_I1(make_curl_gaussian(0.0, 1.0))),
            1.0 / (1.0 + np.pi**2 / 4.0),
            rtol=1e-14,
        )

    def test_oscillator_canonical(self, canonical_field):
        np.testing.assert_allclose(
            damping_oscillator(scaled_I1(canonical_field)),
            1.0 / (1.0 + np.pi**2 / 4.0 + 16.0 * np.pi / 3.0),
            rtol=1e-9,
        )
        assert damping_oscillator(scaled_I1(canonical_field)) == pytest.approx(0.049450, abs=5e-7)

    def test_oscillator_large_amplitude_decay(self, canonical_field):
        lams = np.array([10.0, 20.0, 40.0])
        d = np.array([damping_oscillator(scaled_I1(canonical_field, l)) for l in lams])
        assert np.all(np.diff(d) < 0.0) and d[-1] > 0.0
        np.testing.assert_allclose(d, 1.0 / (2.0 * lams**2 * I1_CANONICAL), rtol=0.05)

    def test_invariant_I1_oracle(self, canonical_field):
        # against the k-lattice sum, then the spin-probe identity <0|(0,2a)> = e^{-I1}
        # in eta = <0|(0,2 lam a)> lam K1
        lam = 1.3
        for a in (canonical_field, DISPLACED_TILTED):
            I1_grid = grid_norm_reference(a, 1)
            inv = PairInvariants.of(a, a)
            np.testing.assert_allclose(inv.I1, I1_grid, rtol=1e-6)
            K1 = inv.kernel(8.0)
            spin, _ = teleport(inv, K1, lam)
            np.testing.assert_allclose(spin.eta, math.exp(-lam * lam * I1_grid) * lam * K1, rtol=1e-6)


class TestSpinProtocol:
    def test_canonical_outcome(self, canonical_cfg):
        out = run_protocols(canonical_cfg)[0]
        assert out.E_o < 0.0
        assert abs(out.E_o) < out.E_m
        assert out.p_plus == out.p_minus == 0.5
        np.testing.assert_allclose(out.E_o, -out.eta**2 / (2.0 * out.xi), rtol=1e-14)
        np.testing.assert_allclose(out.xi, np.pi**1.5, rtol=1e-9)

    def test_zero_overlap_configuration(self):
        # perpendicular co-centered axes: K(T) = 0, so no information, no energy
        a = make_curl_gaussian(1.0, 1.0, axis=(0.0, 0.0, 1.0))
        f = make_curl_gaussian(1.0, 1.0, axis=(1.0, 0.0, 0.0))
        out = run_protocols(ProtocolConfig(a_m=a, f_o=f, T=8.0))[0]
        assert out.eta == pytest.approx(0.0, abs=1e-16)
        assert out.theta_star == pytest.approx(0.0, abs=1e-16)
        assert out.E_o == pytest.approx(0.0, abs=1e-30)

    def test_optimal_theta_is_quadratic_minimum(self, canonical_cfg):
        out = run_protocols(canonical_cfg)[0]
        best = spin_objective(out.theta_star, out.eta, out.xi)
        np.testing.assert_allclose(best, out.E_o, rtol=1e-12)
        for bump in (-0.1, 0.1):
            perturbed = out.theta_star * (1.0 + bump)
            assert spin_objective(perturbed, out.eta, out.xi) > best

    def test_degenerate_operation_profile_rejected(self, canonical_field):
        cfg = ProtocolConfig(a_m=canonical_field, f_o=make_curl_gaussian(0.0, 1.0), T=8.0)
        with pytest.raises(DegenerateFieldError):
            run_protocols(cfg)

    def test_causality_violation_rejected(self, canonical_field):
        with pytest.raises(CausalityError):
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=5.0)

    def test_negative_lambda_rejected(self, canonical_field):
        with pytest.raises(ValidationError):
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=8.0, lam=-1.0)

    def test_assembly_mismatch_is_tolerance_failure(self):
        # the sign guard reports through the numerical-tolerance exit path
        from qetlab import ToleranceFailure
        from qetlab.protocols import _check_assembly

        _check_assembly(-1.0, -1.0 * (1.0 + 1e-13), "spin teleported energy")
        with pytest.raises(ToleranceFailure, match="spin teleported energy"):
            _check_assembly(-1.0, 1.0, "spin teleported energy")


class TestOscillatorProtocol:
    def test_canonical_outcome(self, canonical_cfg):
        out = run_protocols(canonical_cfg)[1]
        assert out.E_o_prime < 0.0
        assert abs(out.E_o_prime) < out.E_m
        np.testing.assert_allclose(
            out.G2_vev, np.pi**2 / 16.0 + 0.5 * I1_CANONICAL, rtol=1e-9
        )

    def test_shared_input_energy(self, canonical_cfg):
        spin, osc = run_protocols(canonical_cfg)
        assert osc.E_m == spin.E_m

    def test_ratio_law(self, rng):
        # E_o'/E_o = D_ho/D_q: the bracketed kernel and xi cancel exactly
        for _ in range(4):
            cfg = random_config(rng)
            spin, osc = run_protocols(cfg)
            if spin.E_o == 0.0:
                continue
            np.testing.assert_allclose(
                osc.E_o_prime / spin.E_o, osc.D_ho / spin.D_q, rtol=1e-12
            )

    def test_eta_relation(self, rng):
        # eta = 2 sqrt(D_q) eta' since <0|(0,2a)> = sqrt(D_q)
        for _ in range(4):
            cfg = random_config(rng)
            spin, osc = run_protocols(cfg)
            np.testing.assert_allclose(
                spin.eta, 2.0 * math.sqrt(spin.D_q) * osc.eta_prime, rtol=1e-12, atol=1e-300
            )

    def test_optimal_theta_prime_is_quadratic_minimum(self, canonical_cfg):
        # objective theta' eta' + (1/2) theta'^2 xi (<G^2> + 1/4); guards the
        # sign of eta' exactly as the spin-side regression does for eta
        from qetlab import weighted_spectral_integral

        out = run_protocols(canonical_cfg)[1]
        xi = weighted_spectral_integral(canonical_cfg.f_o, 0).value
        curvature = xi * (out.G2_vev + 0.25)

        def objective(theta):
            return theta * out.eta_prime + 0.5 * theta * theta * curvature

        best = objective(out.theta_prime_star)
        np.testing.assert_allclose(best, out.E_o_prime, rtol=1e-12)
        for bump in (-0.1, 0.1):
            assert objective(out.theta_prime_star * (1.0 + bump)) > best


class TestRandomizedBounds:
    def test_negativity_and_energy_bound(self, rng):
        # teleported energy is negative and strictly below the input energy
        for _ in range(25):
            cfg = random_config(rng)
            spin, osc = run_protocols(cfg)
            assert spin.E_o <= 0.0 and osc.E_o_prime <= 0.0
            if spin.E_o != 0.0:
                assert abs(spin.E_o) < spin.E_m
                assert abs(osc.E_o_prime) < osc.E_m


class TestAmplitudeScalingLaws:
    def test_spin_scaling_invariant(self, canonical_field):
        # E_o(lam) e^{2 lam^2 I1} / lam^2 is lambda-independent
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=8.0)
        vals = []
        for lam in (0.3, 0.7, 1.0, 1.6):
            out = run_protocols(replace(cfg, lam=lam))[0]
            I1 = lam * lam * I1_CANONICAL
            vals.append(out.E_o * math.exp(2.0 * I1) / lam**2)
        np.testing.assert_allclose(vals, vals[0], rtol=1e-10)

    def test_oscillator_scaling_invariant(self, canonical_field):
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=8.0)
        vals = []
        for lam in (0.3, 0.7, 1.0, 1.6, 3.0):
            out = run_protocols(replace(cfg, lam=lam))[1]
            I1 = lam * lam * I1_CANONICAL
            vals.append(out.E_o_prime * (1.0 + np.pi**2 / 4.0 + 2.0 * I1) / lam**2)
        np.testing.assert_allclose(vals, vals[0], rtol=1e-10)

    def test_log_damping_linearity(self, canonical_field):
        # log D_q linear in lam^2 with slope -2 I1; 1/D_ho affine with the same slope
        lams = np.linspace(0.2, 2.0, 12)
        lam2 = lams**2
        logdq = np.array([math.log(damping_spin(scaled_I1(canonical_field, l))) for l in lams])
        coeffs = np.polyfit(lam2, logdq, 1)
        resid = logdq - np.polyval(coeffs, lam2)
        np.testing.assert_allclose(coeffs[0], -2.0 * I1_CANONICAL, rtol=1e-9)
        assert np.max(np.abs(resid)) < 1e-8

        inv_dho = np.array([1.0 / damping_oscillator(scaled_I1(canonical_field, l)) for l in lams])
        coeffs = np.polyfit(lam2, inv_dho, 1)
        resid = inv_dho - np.polyval(coeffs, lam2)
        np.testing.assert_allclose(coeffs[0], 2.0 * I1_CANONICAL, rtol=1e-9)
        np.testing.assert_allclose(coeffs[1], 1.0 + np.pi**2 / 4.0, atol=1e-8)
        assert np.max(np.abs(resid)) < 1e-8


class TestLargeAmplitudeLimit:
    def test_convergence_at_lambda_100(self, canonical_cfg):
        limit = large_amplitude_limit(canonical_cfg)
        at_100 = abs(run_protocols(replace(canonical_cfg, lam=100.0))[1].E_o_prime)
        assert abs(at_100 - limit) <= 0.01 * limit

    def test_invariant_under_amplitude_rescaling(self, canonical_cfg):
        base = large_amplitude_limit(canonical_cfg)
        scaled = large_amplitude_limit(replace(canonical_cfg, lam=7.0))
        np.testing.assert_allclose(scaled, base, rtol=1e-10)

    def test_zero_operation_profile(self, canonical_field):
        cfg = ProtocolConfig(a_m=canonical_field, f_o=make_curl_gaussian(0.0, 1.0), T=8.0)
        assert large_amplitude_limit(cfg) == 0.0

    def test_zero_measurement_profile_rejected(self, canonical_field):
        cfg = ProtocolConfig(a_m=make_curl_gaussian(0.0, 1.0), f_o=canonical_field, T=8.0)
        with pytest.raises(DegenerateFieldError):
            large_amplitude_limit(cfg)


class TestCrossover:
    def test_ratio_at_zero_amplitude(self, canonical_field):
        np.testing.assert_allclose(
            damping_oscillator(scaled_I1(canonical_field, 0.0))
            / damping_spin(scaled_I1(canonical_field, 0.0)),
            1.0 / (1.0 + np.pi**2 / 4.0),
            rtol=1e-14,
        )

    def test_root_satisfies_transcendental_equation(self, canonical_cfg):
        lam_c = crossover_amplitude(canonical_cfg)
        u = 2.0 * lam_c**2 * I1_CANONICAL
        assert abs(math.exp(u) - (1.0 + np.pi**2 / 4.0 + u)) < 1e-10

    def test_crossover_exponent_is_the_root(self):
        # e^u = 1 + pi^2/4 + u, solved to 50 digits
        with mp.workdps(50):
            root = mp.findroot(lambda u: mp.exp(u) - 1 - mp.pi**2 / 4 - u, 2)
            assert abs(CROSSOVER_U - root) <= 2 * math.ulp(float(root))

    def test_weak_field_has_crossover(self):
        # lam_c ~ 312: far outside any fixed search bracket
        weak = make_curl_gaussian(1e-3, 1.0)
        lam_c = crossover_amplitude(ProtocolConfig(a_m=weak, f_o=weak, T=8.0))
        with mp.workdps(50):
            I1 = mp.mpf(1e-3) ** 2 * 8 * mp.pi / 3  # A^2 (4 pi/3) Gamma(3)
            u = mp.findroot(lambda u: mp.exp(u) - 1 - mp.pi**2 / 4 - u, 2)
            ref = mp.sqrt(u / (2 * I1))
            assert abs(lam_c - ref) <= 1e-14 * ref

    def test_oscillator_wins_beyond_crossover(self, canonical_cfg):
        lam_c = crossover_amplitude(canonical_cfg)
        cfg = replace(canonical_cfg, lam=2.0 * lam_c)
        spin, osc = run_protocols(cfg)
        assert abs(osc.E_o_prime) > abs(spin.E_o)

    def test_spin_wins_below_crossover(self, canonical_cfg):
        lam_c = crossover_amplitude(canonical_cfg)
        cfg = replace(canonical_cfg, lam=0.5 * lam_c)
        spin, osc = run_protocols(cfg)
        assert abs(osc.E_o_prime) < abs(spin.E_o)

    def test_zero_measurement_profile_rejected(self, canonical_field):
        cfg = ProtocolConfig(a_m=make_curl_gaussian(0.0, 1.0), f_o=canonical_field, T=8.0)
        with pytest.raises(DegenerateFieldError):
            crossover_amplitude(cfg)


class TestSeparationScaling:
    def test_kernel_slope_short_range(self, canonical_cfg):
        fit = separation_scaling_fit(canonical_cfg, np.geomspace(20.0, 200.0, 9), quantity="kernel")
        assert fit.slope == pytest.approx(-6.0, abs=0.15)

    def test_teleported_energy_slope(self, canonical_cfg):
        fit = separation_scaling_fit(canonical_cfg, np.geomspace(20.0, 200.0, 9), quantity="spin")
        assert fit.slope == pytest.approx(-12.0, abs=0.3)
        fit2 = separation_scaling_fit(
            canonical_cfg, np.geomspace(20.0, 200.0, 9), quantity="oscillator"
        )
        np.testing.assert_allclose(fit2.slope, fit.slope, rtol=1e-9)

    def test_slope_stable_under_range_doubling(self, canonical_cfg):
        f1 = separation_scaling_fit(canonical_cfg, np.geomspace(40.0, 400.0, 9), quantity="kernel")
        f2 = separation_scaling_fit(canonical_cfg, np.geomspace(80.0, 800.0, 9), quantity="kernel")
        assert abs(f1.slope - f2.slope) < 0.05

    def test_needs_two_points(self, canonical_cfg):
        with pytest.raises(ValidationError):
            separation_scaling_fit(canonical_cfg, [20.0], quantity="spin")

    def test_narrow_range_warns(self, canonical_cfg):
        with pytest.warns(UserWarning, match="decade"):
            separation_scaling_fit(canonical_cfg, [20.0, 40.0], quantity="kernel")

    def test_underflowed_points_dropped_with_warning(self, canonical_field):
        # lam = 8 puts exp(-2 lam^2 I1) far below the double-precision floor
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=20.0, lam=8.0)
        with pytest.warns(UserWarning, match="floor"):
            with pytest.raises(ValidationError, match="too few"):
                separation_scaling_fit(cfg, np.geomspace(20.0, 200.0, 5), quantity="spin")


class TestMeasurementIdentities:
    def test_zero_eigenvalue_moments(self):
        report = povm_identity_check([0.0])
        assert report.completeness < 1e-12
        assert report.first_moment < 1e-12
        assert report.second_moment < 1e-12

    def test_shifted_eigenvalue_moments(self):
        report = povm_identity_check([3.7])
        assert report.completeness < 1e-10
        assert report.first_moment < 1e-10
        assert report.second_moment < 1e-10

    def test_wide_eigenvalue_range(self):
        report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
        assert max(report.completeness, report.first_moment, report.second_moment) < 1e-10

    def test_spin_identities(self):
        report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
        assert report.spin_completeness < 1e-15
        assert report.spin_signed_sum < 1e-14
