"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N ...: PASS` line (run with
`pytest -v -s` to see them live) and enforces the stated runtime budget.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qetlab import (
    CurlGaussian,
    PairInvariants,
    ProtocolConfig,
    RadialWindow,
    brute_force_overlap_oracle,
    crossover_amplitude,
    damping_oscillator,
    damping_spin,
    energy_density_frame,
    overlap_kernel,
    separation_scaling_fit,
    weighted_spectral_integral,
)
from qetlab.dynamics import default_frame_grid
from qetlab.negative_energy import min_energy_density
from qetlab.protocols import min_causal_wait
from qetlab.results import emit_records, run_scenario
from qetlab.scenario import scenario_from_dict
from qetlab.verify import input_energy_position_oracle, povm_identity_check

from oracles import residual_window_energy, total_energy
from test_negative_energy import random_mode_set
from test_protocols import both_protocols

I1 = 8.0 * np.pi / 3.0


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded runtime budget"
        return False


@pytest.fixture(scope="module")
def canonical():
    return CurlGaussian(1.0, 1.0)


@pytest.fixture(scope="module")
def canonical_cfg(canonical):
    return ProtocolConfig(a_m=canonical, f_o=canonical, T=8.0)


def _random_cfg(rng) -> ProtocolConfig:
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
    return ProtocolConfig(a_m=a, f_o=f, T=T, lam=float(rng.uniform(0.2, 1.5)))


def test_criterion_01_input_energy_oracle(canonical):
    with _Budget("criterion 01 input-energy oracle", 1.0):
        spectral = PairInvariants.of(canonical, canonical).E_m
        position = input_energy_position_oracle(canonical)
        expected = 1.25 * np.pi**1.5
        assert abs(spectral - position) <= 1e-6 * abs(position)
        assert abs(spectral - expected) <= 1e-6 * expected


def test_criterion_02_overlap_oracle(canonical):
    with _Budget("criterion 02 overlap kernel vs Monte Carlo", 30.0):
        R = canonical.effective_radius
        T_values = [12.0, 16.0, 24.0, 40.0, 80.0]
        assert all(2.0 * R < T <= 20.0 * R for T in T_values)
        for i, T in enumerate(T_values):
            K = overlap_kernel(canonical, canonical, T).value
            mc = brute_force_overlap_oracle(canonical, canonical, T, samples=1_000_000, seed=100 + i)
            assert abs(K - mc.value) <= 3.0 * mc.estimated_error, (
                f"T={T}: K={K:.6e}, mc={mc.value:.6e} +- {mc.estimated_error:.2e}"
            )


def test_criterion_03_negativity_and_bound():
    with _Budget("criterion 03 negativity and energy bound (100 configs)", 60.0):
        rng = np.random.default_rng(314159)
        checked = 0
        while checked < 100:
            cfg = _random_cfg(rng)
            out = both_protocols(cfg)
            if out.eta == 0.0:
                continue  # measure-zero orthogonal draw carries no information
            assert out.E_o < 0.0 and out.E_o_prime < 0.0
            assert abs(out.E_o) < out.E_m
            assert abs(out.E_o_prime) < out.E_m
            checked += 1


def test_criterion_04_damping_laws(canonical):
    with _Budget("criterion 04 damping laws", 5.0):
        lams = np.linspace(0.15, 2.2, 16)
        lam2 = lams**2
        # I1 by quadrature at each scaled field, so the lambda^2 law is tested
        I1s = [weighted_spectral_integral(canonical.scaled(l), 1) for l in lams]
        log_dq = np.array([math.log(damping_spin(i1)) for i1 in I1s])
        slope, intercept = np.polyfit(lam2, log_dq, 1)
        assert np.max(np.abs(log_dq - (slope * lam2 + intercept))) < 1e-8
        assert abs(slope - (-2.0 * I1)) <= 1e-6 * abs(2.0 * I1)

        inv_dho = np.array([1.0 / damping_oscillator(i1) for i1 in I1s])
        slope, intercept = np.polyfit(lam2, inv_dho, 1)
        assert np.max(np.abs(inv_dho - (slope * lam2 + intercept))) < 1e-8
        assert abs(slope - 2.0 * I1) <= 1e-6 * 2.0 * I1
        assert abs(intercept - (1.0 + np.pi**2 / 4.0)) <= 1e-8


def test_criterion_05_ratio_identity():
    with _Budget("criterion 05 shared-kernel ratio identity", 10.0):
        rng = np.random.default_rng(271828)
        for _ in range(20):
            cfg = _random_cfg(rng)
            out = both_protocols(cfg)
            if out.E_o == 0.0:
                continue
            lhs = out.E_o_prime / out.E_o
            rhs = out.D_ho / out.D_q
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_criterion_06_crossover(canonical_cfg):
    with _Budget("criterion 06 protocol crossover", 5.0):
        lam_c = crossover_amplitude(canonical_cfg)
        u = 2.0 * lam_c**2 * I1
        assert abs(math.exp(u) - (1.0 + np.pi**2 / 4.0 + u)) <= 1e-10
        cfg2 = replace(canonical_cfg, lam=2.0 * lam_c)
        out = both_protocols(cfg2)
        assert abs(out.E_o_prime) > abs(out.E_o)


def test_criterion_07_separation_scaling(canonical_cfg):
    with _Budget("criterion 07 separation scaling", 60.0):
        T_values = np.geomspace(20.0, 200.0, 13)
        fit_E = separation_scaling_fit(canonical_cfg, T_values, quantity="spin")
        assert abs(fit_E.slope - (-12.0)) <= 0.3, f"E_o slope {fit_E.slope}"
        fit_K = separation_scaling_fit(canonical_cfg, T_values, quantity="kernel")
        assert abs(fit_K.slope - (-6.0)) <= 0.15, f"kernel slope {fit_K.slope}"


def test_criterion_08_dynamics_conservation(canonical):
    with _Budget("criterion 08 dynamics conservation", 120.0):
        E_m = PairInvariants.of(canonical, canonical).E_m
        for t in (0.0, 2.0, 4.0, 8.0, 12.0):
            frame = energy_density_frame(canonical, t, default_frame_grid(canonical, t, n=128))
            total = total_energy(frame)
            assert abs(total - E_m) <= 1e-3 * E_m, f"t={t}: {total} vs {E_m}"
        residual = residual_window_energy(
            canonical, 10.0, RadialWindow(radius=3.0), default_frame_grid(canonical, 10.0, n=128)
        )
        assert residual < 1e-4 * E_m


def test_criterion_09_measurement_identities():
    with _Budget("criterion 09 measurement identities", 1.0):
        report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
        assert report["completeness"] <= 1e-10
        assert report["first_moment"] <= 1e-10
        assert report["second_moment"] <= 1e-10
        assert report["spin_completeness"] <= 1e-14
        assert report["spin_signed_sum"] <= 1e-14


def test_criterion_10_negative_energy_demo():
    with _Budget("criterion 10 negative-energy demo", 10.0):
        for A, B, expected in (
            (3.0, 2.0 + 0.0j, -1.0),
            (0.0, 1.0j, -1.0),
            (2.0, 0.3 - 0.4j, -0.5 * (math.hypot(2.0, 1.0) - 2.0)),
        ):
            eps_min = min_energy_density(A, B)
            assert abs(eps_min - expected) <= 1e-12

        rng = np.random.default_rng(1618)
        for n_modes in (1, 2, 3):
            ms = random_mode_set(rng, n_modes)
            x = rng.normal(size=3)
            Aw, Bw = ms.wick_matrix_elements(x)
            from qetlab import fock_matrix_elements

            Af, Bf = fock_matrix_elements(ms, x)
            scale = max(abs(Aw), abs(Bw), 1.0)
            assert abs(Aw - Af) <= 1e-10 * scale
            assert abs(Bw - Bf) <= 1e-10 * scale

        from qetlab import GaussianPhotonMode
        from qetlab.negative_energy import demo_rows

        xs = np.zeros((9, 3))
        xs[:, 0] = np.linspace(-2.0, 2.0, 9)
        rows = demo_rows(GaussianPhotonMode(sigma=1.0), xs)
        assert np.any(rows[:, 6] < 0.0)


def test_criterion_11_determinism(tmp_path):
    with _Budget("criterion 11 end-to-end determinism", 10.0):
        raw = {
            "seed": 42,
            "probe": "both",
            "T": [8.0, 10.0],
            "lambda": [0.5, 1.0],
            "fields": {"a_m": {"sigma": 1.0}},
        }
        blobs = []
        for tag in ("a", "b"):
            scenario = scenario_from_dict(raw)
            path = tmp_path / f"records_{tag}.jsonl"
            emit_records(run_scenario(scenario), path)
            blobs.append(path.read_bytes())
        assert all(b == blobs[0] for b in blobs[1:])
