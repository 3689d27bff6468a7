import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qetlab import (
    CurlGaussian,
    PairInvariants,
    ProtocolConfig,
    ToleranceFailure,
    ValidationError,
    crossover_amplitude,
    damping_oscillator,
    damping_spin,
    separation_scaling_fit,
    teleport,
    weighted_spectral_integral,
)
from qetlab.protocols import CROSSOVER_U, min_causal_wait
from qetlab.verify import input_energy_position_oracle, povm_identity_check

from qetlab.scenario import scenario_from_dict

from oracles import grid_norm_reference, input_energy_position_reference

I1_CANONICAL = 8.0 * np.pi / 3.0
DISPLACED_TILTED = CurlGaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))


def scaled_I1(a, lam: float = 1.0) -> float:
    """I1 in closed form evaluated at a.scaled(lam), not lam^2 times I1 of a.

    `teleport` applies the lam^2 law, so tests that compare against this keep
    that law under test.
    """
    return weighted_spectral_integral(a.scaled(lam), 1)


def input_energy(a) -> float:
    """E_m of a as the pair invariants hold it; a unit operation profile keeps xi > 0."""
    return PairInvariants.of(a, CurlGaussian(1.0, 1.0)).E_m


def both_protocols(cfg: ProtocolConfig):
    """Both probes' outcome at cfg's (T, lam), through the config's checked pair."""
    return teleport(cfg.pair, cfg.pair.kernel(cfg.T).value, cfg.lam)


def G2_closed_form(I1: float) -> float:
    """The oscillator pointer's <G^2> = pi^2/16 + I1/2 at damping exponent I1."""
    return np.pi**2 / 16.0 + 0.5 * I1


@pytest.fixture(scope="module")
def canonical_cfg():
    a = CurlGaussian(1.0, 1.0)
    return ProtocolConfig(a_m=a, f_o=a, T=8.0)


def random_config(rng) -> ProtocolConfig:
    def fld():
        axis = rng.normal(size=3)
        return CurlGaussian(
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
        assert input_energy(CurlGaussian(0.0, 1.0)) == 0.0

    @pytest.mark.parametrize(
        "field", [CurlGaussian(1.0, 1.0), DISPLACED_TILTED], ids=["canonical", "displaced"]
    )
    def test_position_oracle_matches_full_lattice(self, field):
        np.testing.assert_allclose(
            input_energy_position_oracle(field),
            input_energy_position_reference(field),
            rtol=1e-13,
            atol=0.0,
        )

    @given(
        amplitude=st.floats(-100.0, 100.0).filter(lambda v: abs(v) > 1e-3),
        sigma=st.floats(0.05, 20.0),
        center=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
        axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    )
    def test_position_oracle_is_exact(self, amplitude, sigma, center, axis):
        # the Gauss-Hermite rule integrates (curl a)^2 exactly, so only
        # rounding separates it from the closed form
        field = CurlGaussian(amplitude, sigma, center=center, axis=axis)
        np.testing.assert_allclose(
            input_energy_position_oracle(field), input_energy(field), rtol=1e-13, atol=0.0
        )

    @given(lam=st.floats(0.1, 5.0))
    def test_quadratic_scaling(self, lam):
        a = CurlGaussian(1.0, 1.0)
        np.testing.assert_allclose(
            input_energy(a.scaled(lam)), lam * lam * input_energy(a), rtol=1e-9
        )


class TestDamping:
    def test_spin_zero_field(self):
        assert damping_spin(scaled_I1(CurlGaussian(0.0, 1.0))) == 1.0

    def test_spin_canonical(self, canonical_field):
        np.testing.assert_allclose(
            damping_spin(scaled_I1(canonical_field)), math.exp(-16.0 * np.pi / 3.0), rtol=1e-9
        )

    @given(lam=st.floats(0.1, 2.0))
    def test_spin_power_law_in_amplitude(self, lam):
        a = CurlGaussian(1.0, 1.0)
        np.testing.assert_allclose(
            damping_spin(scaled_I1(a, lam)), damping_spin(scaled_I1(a)) ** (lam * lam), rtol=1e-9
        )

    def test_oscillator_zero_field(self):
        np.testing.assert_allclose(
            damping_oscillator(scaled_I1(CurlGaussian(0.0, 1.0))),
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
            K1 = inv.kernel(8.0).value
            out = teleport(inv, K1, lam)
            np.testing.assert_allclose(out.eta, math.exp(-lam * lam * I1_grid) * lam * K1, rtol=1e-6)


class TestSpinProtocol:
    def test_canonical_outcome(self, canonical_cfg):
        out = both_protocols(canonical_cfg)
        assert out.E_o < 0.0
        assert abs(out.E_o) < out.E_m
        np.testing.assert_allclose(out.E_o, -out.eta**2 / (2.0 * out.xi), rtol=1e-14)
        np.testing.assert_allclose(out.xi, np.pi**1.5, rtol=1e-9)

    def test_zero_overlap_configuration(self):
        # perpendicular co-centered axes: K(T) = 0, so no information, no energy
        a = CurlGaussian(1.0, 1.0, axis=(0.0, 0.0, 1.0))
        f = CurlGaussian(1.0, 1.0, axis=(1.0, 0.0, 0.0))
        out = both_protocols(ProtocolConfig(a_m=a, f_o=f, T=8.0))
        assert out.eta == pytest.approx(0.0, abs=1e-16)
        assert out.theta_star == pytest.approx(0.0, abs=1e-16)
        assert out.E_o == pytest.approx(0.0, abs=1e-30)

    def test_optimal_theta_is_quadratic_minimum(self, canonical_cfg):
        out = both_protocols(canonical_cfg)

        def spin_objective(theta, eta, xi):
            # energy cost of the displacement theta: theta eta + (1/2) theta^2 xi
            return theta * eta + 0.5 * theta * theta * xi

        best = spin_objective(out.theta_star, out.eta, out.xi)
        np.testing.assert_allclose(best, out.E_o, rtol=1e-12)
        for bump in (-0.1, 0.1):
            perturbed = out.theta_star * (1.0 + bump)
            assert spin_objective(perturbed, out.eta, out.xi) > best

    def test_degenerate_operation_profile_rejected(self, canonical_field):
        with pytest.raises(ValidationError, match="f_o.xi: must be a positive"):
            PairInvariants.of(canonical_field, CurlGaussian(0.0, 1.0))

    def test_causality_violation_rejected(self, canonical_field):
        with pytest.raises(ValidationError, match="T: must exceed the causal wait"):
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=5.0)

    def test_every_bad_field_is_reported_at_once(self, canonical_field):
        with pytest.raises(ValidationError) as bad:
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=2.0, lam=-1.0)
        assert [e.split(":")[0] for e in bad.value.errors] == ["T", "lam"]

    # 2 lam^2 I1, the term of D_ho, leaves the float range at lam = 3.275e153 on
    # the canonical measurement.  A small xi keeps E_o' from underflowing with
    # D_ho, so past that lam the damping-factor assembly would fail.
    SMALL_XI = {"T": 8.0, "fields": {"a_m": {"sigma": 1.0}, "f_o": {"amplitude": 0.01, "sigma": 1.0}}}

    def test_largest_lambda_the_rule_passes_runs(self):
        scenario = scenario_from_dict({**self.SMALL_XI, "lambda": 3.27e153})
        cfg = ProtocolConfig(a_m=scenario.a_m, f_o=scenario.f_o, T=8.0, lam=3.27e153)
        assert math.isfinite(both_protocols(cfg).E_o_prime)

    @pytest.mark.parametrize("lam", [3.28e153, 1e200])
    def test_lambda_whose_scaled_norms_overflow_rejected(self, lam):
        with pytest.raises(ValidationError) as parsed:
            scenario_from_dict({**self.SMALL_XI, "lambda": lam})
        (message,) = parsed.value.errors
        assert message.startswith("scenario.lambda: lambda^2 E_m and 2 lambda^2 I1 must be finite")
        with pytest.raises(ValidationError) as built:
            ProtocolConfig(a_m=CurlGaussian(1.0, 1.0), f_o=CurlGaussian(0.01, 1.0), T=8.0, lam=lam)
        assert built.value.errors == [message.replace("scenario.lambda:", "lam:")]

    def test_parser_words_the_causal_gate_as_protocol_config_does(self, canonical_field):
        with pytest.raises(ValidationError, match="causal wait") as built:
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=5.0)
        with pytest.raises(ValidationError) as parsed:
            scenario_from_dict({"T": 5.0, "fields": {"a_m": {"sigma": 1.0}}})
        assert parsed.value.errors == [f"scenario.{built.value}"]

    @pytest.mark.parametrize(
        "T, lam", [(np.nan, 1.0), (np.inf, 1.0), (8.0, np.nan), (8.0, np.inf)]
    )
    def test_non_finite_T_or_lambda_rejected(self, canonical_field, T, lam):
        # a NaN T would otherwise pass the causal gate, since nan <= floor is False
        with pytest.raises(ValidationError, match="finite"):
            ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=T, lam=lam)

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

    @pytest.mark.parametrize("direct, assembled", [(math.nan, -1.0), (-1.0, math.nan), (-math.inf, -math.inf)])
    def test_assembly_fails_a_nan_or_infinite_energy(self, direct, assembled):
        from qetlab import ToleranceFailure
        from qetlab.protocols import _check_assembly

        with pytest.raises(ToleranceFailure, match="oscillator teleported energy"):
            _check_assembly(direct, assembled, "oscillator teleported energy")

    def test_assembly_passes_a_subnormal_energy(self):
        # at large lambda E_o underflows to a subnormal, whose last bit is a
        # large relative step; the 1e-300 floor lets one such step pass
        from qetlab.protocols import _check_assembly

        _check_assembly(-5e-320, -5e-320 - 5e-324, "spin teleported energy")

    @pytest.mark.parametrize(
        "a_m, f_o, lam",
        [
            (CurlGaussian(1e100, 1.0), CurlGaussian(1e100, 1.0), 1.0),
            (CurlGaussian(1.0, 1.0), CurlGaussian(1e10, 1.0), 1e153),
        ],
        ids=["amplitude-1e100", "lambda-1e153"],
    )
    def test_energy_past_overflowing_squares_is_finite(self, a_m, f_o, lam):
        # the norms are finite and eta'^2 and xi (<G^2> + 1/4) overflow, but E_o'
        # matches the damping-factor assembly and, since <G^2> ~ I1/2, its limit
        # -K^2/(4 xi I1), which is the same at unit amplitudes
        cfg = ProtocolConfig(a_m=a_m, f_o=f_o, T=8.0, lam=lam)
        K1 = cfg.pair.kernel(8.0).value
        out = teleport(cfg.pair, K1, lam)
        K = lam * K1
        assert out.E_o_prime == pytest.approx(-out.D_ho * K * K / (2.0 * out.xi), rel=1e-12, abs=0.0)
        unit = PairInvariants.of(CurlGaussian(1.0, 1.0), CurlGaussian(1.0, 1.0))
        assert out.E_o_prime == pytest.approx(-unit.kernel(8.0).value ** 2 / (4.0 * unit.xi * unit.I1), rel=1e-12)


class TestOscillatorProtocol:
    def test_canonical_outcome(self, canonical_cfg):
        out = both_protocols(canonical_cfg)
        assert out.E_o_prime < 0.0
        assert abs(out.E_o_prime) < out.E_m
        # <G^2> as theta'* = -eta'/(xi (<G^2> + 1/4)) holds it
        G2 = -out.eta_prime / (out.xi * out.theta_prime_star) - 0.25
        np.testing.assert_allclose(G2, G2_closed_form(I1_CANONICAL), rtol=1e-9)

    def test_ratio_law(self, rng):
        # E_o'/E_o = D_ho/D_q: the bracketed kernel and xi cancel exactly
        for _ in range(4):
            cfg = random_config(rng)
            out = both_protocols(cfg)
            if out.E_o == 0.0:
                continue
            np.testing.assert_allclose(
                out.E_o_prime / out.E_o, out.D_ho / out.D_q, rtol=1e-12
            )

    def test_eta_relation(self, rng):
        # eta = 2 sqrt(D_q) eta' since <0|(0,2a)> = sqrt(D_q)
        for _ in range(4):
            cfg = random_config(rng)
            out = both_protocols(cfg)
            np.testing.assert_allclose(
                out.eta, 2.0 * math.sqrt(out.D_q) * out.eta_prime, rtol=1e-12, atol=1e-300
            )

    def test_optimal_theta_prime_is_quadratic_minimum(self, canonical_cfg):
        # objective theta' eta' + (1/2) theta'^2 xi (<G^2> + 1/4); guards the
        # sign of eta' exactly as the spin-side regression does for eta
        from qetlab import weighted_spectral_integral

        out = both_protocols(canonical_cfg)
        xi = weighted_spectral_integral(canonical_cfg.f_o, 0)
        curvature = xi * (G2_closed_form(I1_CANONICAL) + 0.25)

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
            out = both_protocols(cfg)
            assert out.E_o <= 0.0 and out.E_o_prime <= 0.0
            if out.E_o != 0.0:
                assert abs(out.E_o) < out.E_m
                assert abs(out.E_o_prime) < out.E_m


class TestAmplitudeScalingLaws:
    def test_spin_scaling_invariant(self, canonical_field):
        # E_o(lam) e^{2 lam^2 I1} / lam^2 is lambda-independent
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=8.0)
        vals = []
        for lam in (0.3, 0.7, 1.0, 1.6):
            out = both_protocols(replace(cfg, lam=lam))
            I1 = lam * lam * I1_CANONICAL
            vals.append(out.E_o * math.exp(2.0 * I1) / lam**2)
        np.testing.assert_allclose(vals, vals[0], rtol=1e-10)

    def test_oscillator_scaling_invariant(self, canonical_field):
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=8.0)
        vals = []
        for lam in (0.3, 0.7, 1.0, 1.6, 3.0):
            out = both_protocols(replace(cfg, lam=lam))
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
    """|E_o'| = D_ho lam^2 K1^2/(2 xi) tends to K1^2/(4 I1 xi) as lam grows."""

    def test_convergence_at_lambda_100(self, canonical_cfg):
        inv = PairInvariants.of(canonical_cfg.a_m, canonical_cfg.f_o)
        K1 = inv.kernel(canonical_cfg.T).value
        limit = K1 * K1 / (4.0 * inv.I1 * inv.xi)
        at_100 = abs(teleport(inv, K1, 100.0).E_o_prime)
        assert abs(at_100 - limit) <= 0.01 * limit

    def test_invariant_under_amplitude_rescaling(self, canonical_cfg):
        # the outcomes approach one value, and the limit read from a pair
        # whose measurement field is 7x stronger is the same
        inv = PairInvariants.of(canonical_cfg.a_m, canonical_cfg.f_o)
        K1 = inv.kernel(canonical_cfg.T).value
        limit = K1 * K1 / (4.0 * inv.I1 * inv.xi)
        far = [abs(teleport(inv, K1, lam).E_o_prime) for lam in (1e3, 1e4, 1e5)]
        np.testing.assert_allclose(far, limit, rtol=1e-5)
        strong = PairInvariants.of(canonical_cfg.a_m.scaled(7.0), canonical_cfg.f_o)
        K7 = strong.kernel(canonical_cfg.T).value
        np.testing.assert_allclose(K7 * K7 / (4.0 * strong.I1 * strong.xi), limit, rtol=1e-10)


class TestPairRule:
    """E_m, I1 >= 0 and xi > 0, all finite, checked once when the pair is built."""

    def test_zero_measurement_profile_is_a_valid_pair(self, canonical_field):
        inv = PairInvariants.of(CurlGaussian(0.0, 1.0), canonical_field)
        assert (inv.E_m, inv.I1) == (0.0, 0.0)
        out = teleport(inv, inv.kernel(8.0).value, 1.0)
        assert out.E_o == 0.0 and out.E_o_prime == 0.0

    @pytest.mark.parametrize("amplitude", [1e155, 1e160])
    def test_overflowing_norms_are_named(self, amplitude):
        huge = CurlGaussian(amplitude, 1.0)
        with pytest.raises(ValidationError) as err:
            PairInvariants.of(huge, huge)
        assert err.value.errors == [
            "a_m.E_m: must be a nonnegative finite number, got inf",
            "a_m.I1: must be a nonnegative finite number, got inf",
            "f_o.xi: must be a positive finite number, got inf",
        ]

    def test_subnormal_width_overflows_E_m_only(self, canonical_field):
        with pytest.raises(ValidationError) as err:
            PairInvariants.of(CurlGaussian(1.0, 1e-310), canonical_field)
        assert [e.split(":")[0] for e in err.value.errors] == ["a_m.E_m"]

    @pytest.mark.parametrize(
        "E_m, I1, xi, named",
        [
            (math.nan, 1.0, 1.0, "a_m.E_m"),
            (-1.0, 1.0, 1.0, "a_m.E_m"),
            (1.0, math.inf, 1.0, "a_m.I1"),
            (1.0, -0.5, 1.0, "a_m.I1"),
            (1.0, 1.0, 0.0, "f_o.xi"),
            (1.0, 1.0, -1.0, "f_o.xi"),
            (1.0, 1.0, math.nan, "f_o.xi"),
        ],
    )
    def test_rule_applies_to_direct_construction(self, canonical_field, E_m, I1, xi, named):
        with pytest.raises(ValidationError) as err:
            PairInvariants(canonical_field, canonical_field, E_m=E_m, I1=I1, xi=xi)
        assert [e.split(":")[0] for e in err.value.errors] == [named]


class TestConfigPair:
    """ProtocolConfig builds its checked pair once; the fit and the crossover read it."""

    def test_overflowing_measurement_field_stops_the_config(self):
        # I1 = inf once made crossover_amplitude return 0.0 for this config
        with pytest.raises(ValidationError) as err:
            ProtocolConfig(a_m=CurlGaussian(1e155, 1.0), f_o=CurlGaussian(1.0, 1.0), T=8.0)
        assert [e.split(":")[0] for e in err.value.errors] == ["a_m.E_m", "a_m.I1"]

    def test_replace_rebuilds_the_pair(self, canonical_cfg):
        cfg = replace(canonical_cfg, a_m=canonical_cfg.a_m.scaled(2.0))
        assert cfg.pair == PairInvariants.of(cfg.a_m, cfg.f_o)
        assert cfg.pair.I1 == 4.0 * canonical_cfg.pair.I1

    def test_fit_and_crossover_read_the_config_pair(self, canonical_cfg, monkeypatch):
        import qetlab.protocols as protocols

        def rebuilt(*args):
            raise AssertionError("the pair's norms were computed again")

        monkeypatch.setattr(PairInvariants, "of", rebuilt)
        monkeypatch.setattr(protocols, "weighted_spectral_integral", rebuilt)
        for quantity in ("spin", "oscillator", "kernel"):
            separation_scaling_fit(canonical_cfg, [20.0, 200.0], quantity=quantity)
        assert crossover_amplitude(canonical_cfg) > 0.0

    def test_fits_on_one_config_compute_each_kernel_once(self, monkeypatch):
        import qetlab.protocols as protocols

        def config():
            f = CurlGaussian(1.0, 0.9, center=(0.0, 0.0, 1.5), axis=(0.0, math.sin(2.1), math.cos(2.1)))
            a = CurlGaussian(1.0, 1.1, axis=(math.sin(0.9), 0.0, math.cos(0.9)))
            return ProtocolConfig(a_m=a, f_o=f, T=20.0, lam=0.7)

        T_values = np.geomspace(20.0, 200.0, 6)
        quantities = ("kernel", "spin", "oscillator")
        # each fit on a fresh config computes its own six K(T)
        fresh = [separation_scaling_fit(config(), T_values, quantity=q) for q in quantities]
        real, calls = protocols.overlap_kernels, []

        def counted(f_o, a_m, Ts):
            calls.append(list(Ts))
            return real(f_o, a_m, Ts)

        monkeypatch.setattr(protocols, "overlap_kernels", counted)
        cfg = config()
        assert [separation_scaling_fit(cfg, T_values, quantity=q) for q in quantities] == fresh
        # the first fit takes all six in one contour pass; the others find them kept
        assert calls == [[float(T) for T in T_values]]

    def test_a_kernel_that_raises_is_not_kept(self, canonical_field, monkeypatch):
        import qetlab.protocols as protocols

        calls = []

        def failing(f_o, a_m, Ts):
            calls.append(list(Ts))
            raise ToleranceFailure(f"K(T={Ts[-1]}) misses its gate")

        inv = PairInvariants.of(canonical_field, canonical_field)
        monkeypatch.setattr(protocols, "overlap_kernels", failing)
        for _ in range(2):
            with pytest.raises(ToleranceFailure):
                inv.kernel(12.0)
        with pytest.raises(ToleranceFailure):
            inv.kernels([8.0, 12.0])
        assert calls == [[12.0], [12.0], [8.0, 12.0]]

    def test_a_pass_takes_only_the_Ts_not_yet_kept(self, canonical_field, monkeypatch):
        import qetlab.protocols as protocols
        from qetlab.spectral import overlap_kernel

        real, calls = protocols.overlap_kernels, []

        def counted(f_o, a_m, Ts):
            calls.append(list(Ts))
            return real(f_o, a_m, Ts)

        monkeypatch.setattr(protocols, "overlap_kernels", counted)
        inv = PairInvariants.of(canonical_field, canonical_field)
        K10 = inv.kernel(10.0)
        got = inv.kernels([12.0, 10.0, 8.0, 12.0])
        assert calls == [[10.0], [12.0, 8.0]]
        assert got[1] is K10 and got[0] is got[3]
        assert got == [overlap_kernel(canonical_field, canonical_field, T) for T in (12.0, 10.0, 8.0, 12.0)]


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

    def test_crossover_exponent_is_the_nearest_float(self):
        with mp.workdps(50):
            root = mp.findroot(lambda u: mp.exp(u) - 1 - mp.pi**2 / 4 - u, 2)
        assert CROSSOVER_U == float(root)

    def test_weak_field_has_crossover(self):
        # lam_c ~ 312: far outside any fixed search bracket
        weak = CurlGaussian(1e-3, 1.0)
        lam_c = crossover_amplitude(ProtocolConfig(a_m=weak, f_o=weak, T=8.0))
        with mp.workdps(50):
            I1 = mp.mpf(1e-3) ** 2 * 8 * mp.pi / 3  # A^2 (4 pi/3) Gamma(3)
            u = mp.findroot(lambda u: mp.exp(u) - 1 - mp.pi**2 / 4 - u, 2)
            ref = mp.sqrt(u / (2 * I1))
            assert abs(lam_c - ref) <= 1e-14 * ref

    def test_oscillator_wins_beyond_crossover(self, canonical_cfg):
        lam_c = crossover_amplitude(canonical_cfg)
        cfg = replace(canonical_cfg, lam=2.0 * lam_c)
        out = both_protocols(cfg)
        assert abs(out.E_o_prime) > abs(out.E_o)

    def test_spin_wins_below_crossover(self, canonical_cfg):
        lam_c = crossover_amplitude(canonical_cfg)
        cfg = replace(canonical_cfg, lam=0.5 * lam_c)
        out = both_protocols(cfg)
        assert abs(out.E_o_prime) < abs(out.E_o)

    def test_zero_measurement_profile_rejected(self, canonical_field):
        cfg = ProtocolConfig(a_m=CurlGaussian(0.0, 1.0), f_o=canonical_field, T=8.0)
        with pytest.raises(ValidationError, match="crossover undefined for a zero measurement profile"):
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

    def test_T_inside_the_causal_wait_rejected(self, canonical_cfg):
        with pytest.raises(ValidationError, match="causal wait"):
            separation_scaling_fit(canonical_cfg, [50.0, 5.0], quantity="kernel")

    @pytest.mark.parametrize(
        "T_values, match",
        [
            (["20", "200"], "T: must be a finite number, got '20' \\(YAML read"),
            ([20.0, "200"], "got '200'"),
            ([True, 200.0], "T: must be a finite number, got True"),
            ([20.0, np.bool_(True)], "T: must be a finite number, got"),
        ],
        ids=["text", "one-text", "bool", "numpy-bool"],
    )
    def test_text_and_bool_T_rejected(self, canonical_cfg, T_values, match):
        # every T passes the same rule as a scenario's T, not float()
        with pytest.raises(ValidationError, match=match):
            separation_scaling_fit(canonical_cfg, T_values, quantity="kernel")

    def test_needs_two_points(self, canonical_cfg):
        with pytest.raises(ValidationError):
            separation_scaling_fit(canonical_cfg, [20.0], quantity="spin")

    def test_narrow_range_warns(self, canonical_cfg):
        with pytest.warns(UserWarning, match="decade"):
            separation_scaling_fit(canonical_cfg, [20.0, 40.0], quantity="kernel")

    @pytest.mark.parametrize(
        "T_values, quantity, match",
        [
            ([8.0, 9.0], "energy", "unknown quantity"),
            ([1.0, 2.0], "energy", "unknown quantity"),
            ([1.0, 2.0], "spin", "causal wait"),
            ([1.0, 2.0], "kernel", "causal wait"),
        ],
    )
    def test_a_rejected_narrow_range_raises_without_warning(self, canonical_cfg, T_values, quantity, match):
        # the arguments are checked before the range warns, so under
        # warnings-as-errors the warning does not stand in for the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                separation_scaling_fit(canonical_cfg, T_values, quantity=quantity)

    def test_underflowed_points_dropped_with_warning(self, canonical_field):
        # lam = 8 puts exp(-2 lam^2 I1) far below the double-precision floor
        cfg = ProtocolConfig(a_m=canonical_field, f_o=canonical_field, T=20.0, lam=8.0)
        with pytest.warns(UserWarning, match="floor"):
            with pytest.raises(ValidationError, match="too few"):
                separation_scaling_fit(cfg, np.geomspace(20.0, 200.0, 5), quantity="spin")


class TestMeasurementIdentities:
    def test_zero_eigenvalue_moments(self):
        report = povm_identity_check([0.0])
        assert report["completeness"] < 1e-12
        assert report["first_moment"] < 1e-12
        assert report["second_moment"] < 1e-12

    def test_shifted_eigenvalue_moments(self):
        report = povm_identity_check([3.7])
        assert report["completeness"] < 1e-10
        assert report["first_moment"] < 1e-10
        assert report["second_moment"] < 1e-10

    def test_wide_eigenvalue_range(self):
        report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
        assert max(report["completeness"], report["first_moment"], report["second_moment"]) < 1e-10

    def test_one_residual_per_identity_by_name(self):
        report = povm_identity_check([0.0, 3.7])
        assert list(report) == [
            "completeness", "first_moment", "second_moment", "spin_completeness", "spin_signed_sum"
        ]
        assert all(type(v) is float for v in report.values())

    def test_spin_identities(self):
        report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
        assert report["spin_completeness"] < 1e-15
        assert report["spin_signed_sum"] < 1e-14
