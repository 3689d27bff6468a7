import numpy as np
import pytest

from qetlab import (
    FrameGrid,
    RadialWindow,
    energy_density_frame,
    input_energy,
    make_curl_gaussian,
    residual_window_energy,
    total_energy,
)
from qetlab.dynamics import default_frame_grid, energy_in_shell, energy_within_radius
from qetlab.errors import ResolutionError


@pytest.fixture(scope="module")
def source():
    return make_curl_gaussian(1.0, 1.0)


@pytest.fixture(scope="module")
def E_source(source):
    return input_energy(source)


class TestFrameConstruction:
    def test_initial_frame_carries_input_energy(self, source, E_source):
        frame = energy_density_frame(source, 0.0, default_frame_grid(source, 0.0, n=96))
        np.testing.assert_allclose(total_energy(frame), E_source, rtol=1e-3)

    @pytest.mark.parametrize(
        "field",
        [
            make_curl_gaussian(1.0, 1.0),
            make_curl_gaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0)),
        ],
        ids=["canonical", "displaced-tilted"],
    )
    def test_initial_field_data(self, field):
        # at t=0 the magnetic part is curl(a) and the electric part vanishes; a
        # displaced, tilted field also pins the spectrum's phase convention
        grid = default_frame_grid(field, 0.0, n=96)
        frame = energy_density_frame(field, 0.0, grid)
        np.testing.assert_allclose(frame.Pi, 0.0, atol=1e-12)
        direct = field.curl(grid.position_mesh())
        np.testing.assert_allclose(frame.b, direct, atol=1e-8 * np.max(np.abs(direct)))

    def test_zero_source_gives_vacuum_frame(self):
        zero = make_curl_gaussian(0.0, 1.0)
        frame = energy_density_frame(zero, 4.0, FrameGrid(n=64, half_extent=12.0))
        assert np.all(frame.eps == 0.0)

    def test_density_is_half_sum_of_squares(self, source):
        frame = energy_density_frame(source, 3.0, default_frame_grid(source, 3.0, n=64))
        recomputed = 0.5 * (
            np.sum(frame.Pi**2, axis=-1) + np.sum(frame.b**2, axis=-1)
        )
        np.testing.assert_allclose(frame.eps, recomputed, rtol=1e-14)
        assert np.all(frame.eps >= 0.0)

    def test_rejects_shell_escaping_grid(self, source):
        with pytest.raises(ResolutionError, match="half extent"):
            energy_density_frame(source, 20.0, FrameGrid(n=64, half_extent=10.0))

    def test_rejects_underresolved_grid(self, source):
        with pytest.raises(ResolutionError, match="Nyquist|resolves|under-resolves"):
            energy_density_frame(source, 2.0, FrameGrid(n=16, half_extent=12.0))


class TestConservationAndCausality:
    @pytest.mark.parametrize("t", [0.0, 2.0, 4.0, 8.0, 12.0])
    def test_total_energy_conserved(self, source, E_source, t):
        frame = energy_density_frame(source, t)
        np.testing.assert_allclose(total_energy(frame), E_source, rtol=1e-3)

    def test_energy_leaves_source_region(self, source, E_source):
        frame = energy_density_frame(source, 10.0)
        assert energy_within_radius(frame, 3.0) < 1e-4 * E_source

    def test_energy_rides_the_light_shell(self, source):
        t = 12.0
        frame = energy_density_frame(source, t)
        R = source.effective_radius
        shell = energy_in_shell(frame, t - 2.0 * R, t + 2.0 * R)
        assert shell >= (1.0 - 1e-3) * total_energy(frame)

    def test_grid_refinement_converges(self, source):
        t = 4.0
        half = default_frame_grid(source, t).half_extent
        e96 = total_energy(energy_density_frame(source, t, FrameGrid(n=96, half_extent=half)))
        e128 = total_energy(energy_density_frame(source, t, FrameGrid(n=128, half_extent=half)))
        assert abs(e128 - e96) < 1e-3 * abs(e96)


class TestWindowedResidual:
    def test_residual_negligible_after_escape(self, source, E_source):
        res = residual_window_energy(source, 10.0, RadialWindow(radius=3.0))
        assert res < 1e-4 * E_source

    def test_initial_window_holds_everything(self, source, E_source):
        res = residual_window_energy(
            source, 0.0, RadialWindow(radius=3.0), default_frame_grid(source, 0.0, n=96)
        )
        np.testing.assert_allclose(res, E_source, rtol=1e-2)

    def test_zero_source(self):
        zero = make_curl_gaussian(0.0, 1.0)
        res = residual_window_energy(
            zero, 8.0, RadialWindow(radius=3.0), FrameGrid(n=96, half_extent=16.0)
        )
        assert res == 0.0
