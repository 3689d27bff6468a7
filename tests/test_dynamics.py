import re

import numpy as np
import pytest

from qetlab import (
    CurlGaussian,
    FrameGrid,
    RadialWindow,
    PairInvariants,
    energy_density_frame,
)
from qetlab import dynamics
from qetlab.dynamics import _blend, _radial_profile, default_frame_grid
from qetlab.errors import ValidationError

from oracles import (
    density_reference,
    energy_in_shell,
    fft_frame_reference,
    grid_positions,
    residual_window_energy,
    total_energy,
)

DISPLACED_TILTED = CurlGaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))


@pytest.fixture(scope="module")
def source():
    return CurlGaussian(1.0, 1.0)


@pytest.fixture(scope="module")
def E_source(source):
    return PairInvariants.of(source, source).E_m


class TestFrameConstruction:
    def test_initial_frame_carries_input_energy(self, source, E_source):
        frame = energy_density_frame(source, 0.0, default_frame_grid(source, 0.0, n=96))
        np.testing.assert_allclose(total_energy(frame), E_source, rtol=1e-3)

    @pytest.mark.parametrize(
        "field",
        [CurlGaussian(1.0, 1.0), DISPLACED_TILTED],
        ids=["canonical", "displaced-tilted"],
    )
    def test_initial_field_data(self, field):
        # at t=0 the magnetic part is curl(a) and the electric part vanishes; a
        # displaced, tilted field also pins the spectrum's phase convention
        grid = default_frame_grid(field, 0.0, n=96)
        eps_fft, b, Pi = fft_frame_reference(field, 0.0, grid)
        np.testing.assert_allclose(Pi, 0.0, atol=1e-12)
        direct = field.curl(grid_positions(grid, field.center))
        np.testing.assert_allclose(b, direct, atol=1e-8 * np.max(np.abs(direct)))
        frame = energy_density_frame(field, 0.0, grid)
        half_curl2 = 0.5 * np.sum(direct * direct, axis=-1)
        np.testing.assert_allclose(frame.eps, half_curl2, rtol=0, atol=1e-12 * half_curl2.max())
        np.testing.assert_allclose(frame.eps, eps_fft, rtol=0, atol=1e-12 * eps_fft.max())

    @pytest.mark.parametrize(
        "sigma, grid",
        [(1e160, FrameGrid(n=128, half_extent=1e161)), (1e-90, FrameGrid(n=32, half_extent=6e-90))],
        ids=["sigma^4-overflows", "sigma^4-underflows"],
    )
    def test_density_scale_beyond_the_float_range_is_named(self, sigma, grid):
        with pytest.raises(ValidationError, match=re.escape(f"amplitude = 1.0, sigma = {sigma!r}")):
            energy_density_frame(CurlGaussian(1.0, sigma), 0.0, grid)

    @pytest.mark.parametrize("n", [1_048_576, 3_000_000, 10**25, 10**400], ids=["2^20", "3e6", "1e25", "1e400"])
    def test_n_past_numpy_index_range_is_refused(self, n):
        # 8 n^3 bytes past intp's maximum, where np.empty raises ValueError and dx OverflowError
        with pytest.raises(ValidationError, match=re.escape("n: one frame takes 8 n^3 bytes, past numpy's largest array")):
            FrameGrid(n=n, half_extent=1.0)

    def test_n_just_inside_numpy_index_range_is_a_grid(self):
        # 8 (2^20 - 1)^3 < 2^63 - 1; only the allocation, never made here, could refuse it
        assert FrameGrid(n=1_048_575, half_extent=1.0).n == 1_048_575

    def test_zero_source_gives_vacuum_frame(self):
        zero = CurlGaussian(0.0, 1.0)
        frame = energy_density_frame(zero, 4.0, FrameGrid(n=64, half_extent=12.0))
        assert np.all(frame.eps == 0.0)

    def test_density_is_half_sum_of_squares(self, source):
        grid = default_frame_grid(source, 3.0, n=64)
        frame = energy_density_frame(source, 3.0, grid)
        _, b, Pi = fft_frame_reference(source, 3.0, grid)
        recomputed = 0.5 * (np.sum(Pi**2, axis=-1) + np.sum(b**2, axis=-1))
        np.testing.assert_allclose(frame.eps, recomputed, rtol=0, atol=1e-12 * recomputed.max())
        assert np.all(frame.eps >= 0.0)

    @pytest.mark.parametrize(
        "field, t, n",
        [
            (CurlGaussian(1.0, 1.0), 4.0, 96),
            (CurlGaussian(1.3, 1.1, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0)), 8.0, 128),
        ],
        ids=["canonical-t4", "displaced-tilted-t8"],
    )
    def test_matches_fft_oracle(self, field, t, n):
        # every node, the source centre included
        grid = default_frame_grid(field, t, n=n)
        eps_fft, _, _ = fft_frame_reference(field, t, grid)
        frame = energy_density_frame(field, t, grid)
        np.testing.assert_allclose(frame.eps, eps_fft, rtol=0, atol=1e-12 * eps_fft.max())

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_odd_n_half_step_lattice_matches_fft_oracle(self, t):
        # odd n puts the source between nodes: the lattice runs in half steps
        grid = FrameGrid(n=33, half_extent=5.8)
        eps_fft, _, _ = fft_frame_reference(DISPLACED_TILTED, t, grid)
        frame = energy_density_frame(DISPLACED_TILTED, t, grid)
        np.testing.assert_allclose(frame.eps, eps_fft, rtol=0, atol=1e-12 * eps_fft.max())

    @pytest.mark.parametrize(
        "grid, radii",
        [
            (default_frame_grid(DISPLACED_TILTED, 0.5, n=128), 3 * 64**2 + 1),
            (FrameGrid(n=33, half_extent=5.8), 3 * 33**2 + 1),
        ],
        ids=["n128", "n33"],
    )
    def test_profile_is_evaluated_once_per_lattice_radius(self, grid, radii, monkeypatch):
        evaluated = []

        def counting(tau, r2):
            evaluated.append(np.size(r2))
            return _radial_profile(tau, r2)

        monkeypatch.setattr(dynamics, "_radial_profile", counting)
        frame = energy_density_frame(DISPLACED_TILTED, 0.5, grid)
        assert sum(evaluated) <= radii < frame.eps.size // 2

    def test_frame_carries_the_source_centre(self):
        frame = energy_density_frame(DISPLACED_TILTED, 0.0, FrameGrid(n=36, half_extent=5.0))
        assert frame.center == DISPLACED_TILTED.center
        # the centre is a tuple, so eps stays the one array a frame computes
        assert [name for name, v in vars(frame).items() if isinstance(v, np.ndarray)] == ["eps"]

    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 8.0])
    def test_small_radius_against_50_digit_density(self, t):
        # the d'Alembert quotients cancel as r -> 0; the series branch must
        # hold the removable limit down to r = 0 on every axis angle
        field = DISPLACED_TILTED
        n = field.axis_vec
        perp = np.cross(n, [1.0, 0.0, 0.0])
        perp /= np.linalg.norm(perp)
        radii = np.concatenate([[0.0], np.geomspace(1e-8, 2.0 * field.sigma, 33)])
        points = np.array(
            [
                field.center_vec + r * (mu * n + np.sqrt(1.0 - mu * mu) * perp)
                for r in radii
                for mu in (-1.0, 0.0, 0.3, 1.0)
            ]
        )
        ref = np.array([density_reference(field, t, p) for p in points])
        u = (points - field.center_vec) / field.sigma
        r2 = np.sum(u * u, axis=1)
        across, along = _radial_profile(t / field.sigma, r2)
        got = field.amplitude**2 / field.sigma**4 * _blend(across, along, (u @ n) ** 2, r2)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * ref.max())

    def test_rejects_shell_escaping_grid(self, source):
        with pytest.raises(ValidationError, match="light shell .* leaves the grid"):
            energy_density_frame(source, 20.0, FrameGrid(n=64, half_extent=10.0))

    def test_rejects_underresolved_grid(self, source):
        with pytest.raises(ValidationError, match="grid Nyquist .* under-resolves sigma"):
            energy_density_frame(source, 2.0, FrameGrid(n=16, half_extent=12.0))


class TestConservationAndCausality:
    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 8.0, 12.0])
    def test_total_energy_conserved(self, source, E_source, t):
        frame = energy_density_frame(source, t, default_frame_grid(source, t, n=128))
        np.testing.assert_allclose(total_energy(frame), E_source, rtol=1e-3)

    def test_energy_leaves_source_region(self, source, E_source):
        frame = energy_density_frame(source, 10.0, default_frame_grid(source, 10.0, n=128))
        assert energy_in_shell(frame, 0.0, 3.0) < 1e-4 * E_source

    def test_energy_rides_the_light_shell(self, source):
        t = 12.0
        frame = energy_density_frame(source, t, default_frame_grid(source, t, n=128))
        R = source.effective_radius
        shell = energy_in_shell(frame, t - 2.0 * R, t + 2.0 * R)
        assert shell >= (1.0 - 1e-3) * total_energy(frame)

    def test_grid_refinement_converges(self, source):
        t = 4.0
        half = default_frame_grid(source, t, n=128).half_extent
        e96 = total_energy(energy_density_frame(source, t, FrameGrid(n=96, half_extent=half)))
        e128 = total_energy(energy_density_frame(source, t, FrameGrid(n=128, half_extent=half)))
        assert abs(e128 - e96) < 1e-3 * abs(e96)


class TestWindowedResidual:
    def test_residual_negligible_after_escape(self, source, E_source):
        res = residual_window_energy(
            source, 10.0, RadialWindow(radius=3.0), default_frame_grid(source, 10.0, n=128)
        )
        assert res < 1e-4 * E_source

    def test_initial_window_holds_everything(self, source, E_source):
        res = residual_window_energy(
            source, 0.0, RadialWindow(radius=3.0), default_frame_grid(source, 0.0, n=96)
        )
        np.testing.assert_allclose(res, E_source, rtol=1e-2)

    def test_window_builds_no_mesh(self, source, E_source, monkeypatch):
        # the window is evaluated plane by plane; an (n^3, 3) mesh is never built
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.meshgrid called")

        monkeypatch.setattr(np, "meshgrid", refuse)
        res = residual_window_energy(
            source, 0.0, RadialWindow(radius=3.0), default_frame_grid(source, 0.0, n=64)
        )
        np.testing.assert_allclose(res, E_source, rtol=1e-2)

    def test_zero_source(self):
        zero = CurlGaussian(0.0, 1.0)
        res = residual_window_energy(
            zero, 8.0, RadialWindow(radius=3.0), FrameGrid(n=96, half_extent=16.0)
        )
        assert res == 0.0
