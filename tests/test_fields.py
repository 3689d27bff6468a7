import warnings

import numpy as np
import pytest
import scipy.special
import yaml
from hypothesis import given
from hypothesis import strategies as st

from qetlab import (
    CurlGaussian,
    FrameGrid,
    IntegralResult,
    PlaneWaveMode,
    ProtocolConfig,
    RadialWindow,
    ValidationError,
    brute_force_overlap_oracle,
    energy_density_frame,
    fields,
    overlap_kernel,
)

from qetlab.verify import d2_delta_fourier

from oracles import curl_gaussian_spectrum

unit_axes = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestCurlGaussian:
    def test_hand_evaluated_point(self):
        # curl(psi z) = (d_y psi, -d_x psi, 0); at (1,0,0) this is (0, e^{-1/2}, 0)
        a = CurlGaussian(1.0, 1.0)
        val = a(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(val, [0.0, np.exp(-0.5), 0.0], atol=1e-15)

    def test_zero_amplitude_is_zero_field(self, rng):
        a = CurlGaussian(0.0, 1.0)
        pts = rng.normal(size=(20, 3))
        assert np.all(a(pts) == 0.0)

    def test_vanishes_on_symmetry_axis(self):
        a = CurlGaussian(2.0, 0.7, center=(1.0, -2.0, 0.5), axis=(0.0, 1.0, 0.0))
        for s in (-3.0, -0.5, 0.0, 1.2, 4.0):
            x = np.array([1.0, -2.0 + s, 0.5])
            np.testing.assert_allclose(a(x), 0.0, atol=1e-15)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValidationError):
            CurlGaussian(1.0, 0.0)
        with pytest.raises(ValidationError):
            CurlGaussian(1.0, -2.0)

    @pytest.mark.parametrize(
        "amplitude, sigma", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_rejects_non_finite_parameters(self, amplitude, sigma):
        with pytest.raises(ValidationError, match="finite"):
            CurlGaussian(amplitude, sigma)

    def test_rejects_zero_axis(self):
        with pytest.raises(ValidationError):
            CurlGaussian(1.0, 1.0, axis=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "axis, like",
        [((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)), ((3e-170, 0.0, 0.0), (1.0, 0.0, 0.0)),
         ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)), ((1e160, 1e160, 0.0), (1.0, 1.0, 0.0))],
    )
    def test_axis_whose_squares_leave_the_float_range_is_normalised(self, axis, like):
        # the norm is taken of the axis scaled by a power of two, so its square
        # neither underflows to 0 nor overflows, and the unit vector keeps the bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unit = CurlGaussian(1.0, 1.0, axis=axis).axis
        assert [v.hex() for v in unit] == [v.hex() for v in CurlGaussian(1.0, 1.0, axis=like).axis]

    def test_plane_wave_beyond_the_square_range_keeps_its_length(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mode = PlaneWaveMode(k=(1e200, 0.0, 0.0), polarization=(0.0, 1e-200, 0.0))
        assert (mode.omega, mode.polarization) == (1e200, (0.0, 1.0, 0.0))

    def test_axis_whose_length_leaves_the_float_range_is_refused(self):
        with pytest.raises(ValidationError, match="axis: must be a nonzero vector of finite length"):
            CurlGaussian(1.0, 1.0, axis=(1.7e308, 1.7e308, 0.0))

    @given(sigma=st.floats(0.2, 3.0))
    def test_effective_radius_monotone_in_sigma(self, sigma):
        a = CurlGaussian(1.0, sigma)
        b = CurlGaussian(1.0, sigma * 1.5)
        assert np.isfinite(a.effective_radius)
        assert b.effective_radius > a.effective_radius

    def test_effective_radius_constant_is_the_gamma_tail_root(self):
        # the stored literal is sqrt(Q^{-1}(5/2, TAIL_TOL)), bit for bit
        expected = float(np.sqrt(scipy.special.gammainccinv(2.5, fields.TAIL_TOL)))
        assert fields._EFFECTIVE_RADIUS_SIGMAS == expected

    def test_component_integrals_vanish(self, canonical_field):
        # forced by divergence-freedom plus localization
        a = canonical_field
        half = 8.0
        n = 64
        ax = np.linspace(-half, half, n, endpoint=False) + half / n
        xs, ys, zs = np.meshgrid(ax, ax, ax, indexing="ij")
        vals = a(np.stack([xs, ys, zs], axis=-1))
        dx = ax[1] - ax[0]
        integrals = np.sum(vals, axis=(0, 1, 2)) * dx**3
        assert np.all(np.abs(integrals) <= fields.TAIL_TOL * a.amplitude * a.sigma**3)


# displaced, tilted, unequal widths: the pair that pins the transform's phase
PAIR = (
    CurlGaussian(0.9, 1.1, center=(0.3, -0.2, 0.5), axis=(0.2, 0.3, 1.0)),
    CurlGaussian(1.3, 0.8, center=(1.5, 0.7, -0.4), axis=(1.0, 0.0, 0.5)),
)


class TestSpectralTransform:
    """The closed-form transform the test references use, tied to the position field."""

    def test_closed_form_magnitude(self, canonical_field, rng):
        # |a~(k)|^2 = |k x z|^2 (2 pi)^3 e^{-k^2}
        ks = rng.normal(size=(50, 3))
        vals = curl_gaussian_spectrum(canonical_field, ks)
        expected = (
            np.sum(np.cross(ks, [0.0, 0.0, 1.0]) ** 2, axis=-1)
            * (2 * np.pi) ** 3
            * np.exp(-np.sum(ks * ks, axis=-1))
        )
        np.testing.assert_allclose(np.sum(np.abs(vals) ** 2, axis=-1), expected, rtol=1e-12)

    def test_k_parallel_to_axis_gives_zero(self, canonical_field):
        vals = curl_gaussian_spectrum(canonical_field, np.array([0.0, 0.0, 2.3]))
        np.testing.assert_allclose(vals, 0.0, atol=1e-300)

    def test_dc_node_is_zero(self, canonical_field):
        np.testing.assert_allclose(curl_gaussian_spectrum(canonical_field, np.zeros(3)), 0.0, atol=1e-300)

    @pytest.mark.parametrize("field", PAIR, ids=["f_o", "a_m"])
    def test_matches_fourier_sum_of_position_field(self, field, rng):
        # midpoint 64^3 lattice over +-9 sigma: aliasing and truncation are far below 1e-12
        n, half = 64, 9.0 * field.sigma
        ax = np.linspace(-half, half, n, endpoint=False) + half / n
        xs = np.stack(np.meshgrid(*(ax + c for c in field.center), indexing="ij"), axis=-1)
        vals = field(xs)
        dx3 = (ax[1] - ax[0]) ** 3
        ks = rng.normal(size=(4, 3)) / field.sigma
        direct = np.array([np.einsum("xyzj,xyz->j", vals, np.exp(-1j * (xs @ k))) * dx3 for k in ks])
        closed = curl_gaussian_spectrum(field, ks)
        assert np.max(np.abs(direct - closed)) <= 1e-12 * np.max(np.abs(closed))


def _divergence_residual(field, center, length, n=13):
    """Central-difference max |div f| on a box of +-3 length, and the scale max|f|/length."""
    ax = np.linspace(-3.0 * length, 3.0 * length, n)
    xs, ys, zs = np.meshgrid(*(ax + c for c in center), indexing="ij")
    pts = np.stack([xs, ys, zs], axis=-1)
    h = 1e-4 * length
    div = np.zeros(pts.shape[:-1])
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        div += (field(pts + step)[..., axis] - field(pts - step)[..., axis]) / (2.0 * h)
    fmax = float(np.max(np.linalg.norm(field(pts), axis=-1)))
    return float(np.max(np.abs(div))), fmax / length


class TestDivergence:
    def test_curl_gaussian_passes(self, canonical_field):
        tilted = CurlGaussian(1.3, 0.9, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))
        for a in (canonical_field, tilted):
            residual, scale = _divergence_residual(a, a.center, a.sigma)
            assert residual <= 1e-6 * scale

    def test_constructed_counterexample_fails(self):
        # f = (x, 0, 0) * bump has div f = bump + x d_x bump != 0
        def bad(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = x[..., 0] * np.exp(-np.sum(x * x, axis=-1))
            return out

        residual, scale = _divergence_residual(bad, (0.0, 0.0, 0.0), 1.0)
        assert residual > 1e-6 * scale

    def test_zero_field_residual_zero(self):
        a = CurlGaussian(0.0, 1.0)
        residual, _ = _divergence_residual(a, a.center, a.sigma)
        assert residual == 0.0


class TestWindow:
    def test_plateau_and_rolloff(self):
        w = RadialWindow(radius=3.0)
        assert w(np.array([1.0, 2.0, 0.0])) == 1.0
        assert w(np.array([7.0, 0.0, 0.0])) == 0.0
        mid = w(np.array([4.5, 0.0, 0.0]))
        assert 0.0 < mid < 1.0

    def test_continuity_at_edges(self):
        w = RadialWindow(radius=2.0)
        inner = w(np.array([2.0 - 1e-9, 0.0, 0.0]))
        outer = w(np.array([2.0 + 1e-9, 0.0, 0.0]))
        assert abs(inner - outer) < 1e-6


# Every constructor and entry point that takes a number, with one valid value
# for the parameter under test.  Vectors take the value as one component.
_A = CurlGaussian(1.0, 1.0)
_SMALL_GRID = FrameGrid(n=64, half_extent=8.0)
PARAMETERS = {
    "CurlGaussian.amplitude": (lambda v: CurlGaussian(amplitude=v, sigma=1.0), 1.0),
    "CurlGaussian.sigma": (lambda v: CurlGaussian(amplitude=1.0, sigma=v), 1.0),
    "CurlGaussian.center": (lambda v: CurlGaussian(1.0, 1.0, center=(v, 0.0, 0.0)), 1.0),
    "CurlGaussian.axis": (lambda v: CurlGaussian(1.0, 1.0, axis=(0.0, v, 1.0)), 1.0),
    "RadialWindow.radius": (lambda v: RadialWindow(radius=v), 1.0),
    "RadialWindow.center": (lambda v: RadialWindow(1.0, center=(0.0, 0.0, v)), 1.0),
    "FrameGrid.n": (lambda v: FrameGrid(n=v, half_extent=1.0), 8),
    "FrameGrid.half_extent": (lambda v: FrameGrid(n=8, half_extent=v), 1.0),
    "PlaneWaveMode.k": (lambda v: PlaneWaveMode(k=(1.0, 0.0, v), polarization=(0.0, 1.0, 0.0)), 1.0),
    "PlaneWaveMode.polarization": (
        lambda v: PlaneWaveMode(k=(1.0, 0.0, 0.0), polarization=(0.0, 1.0, v)),
        1.0,
    ),
    "PlaneWaveMode.volume": (
        lambda v: PlaneWaveMode(k=(1.0, 0.0, 0.0), polarization=(0.0, 1.0, 0.0), volume=v),
        1.0,
    ),
    "ProtocolConfig.T": (lambda v: ProtocolConfig(a_m=_A, f_o=_A, T=v), 8.0),
    "ProtocolConfig.lam": (lambda v: ProtocolConfig(a_m=_A, f_o=_A, T=8.0, lam=v), 1.0),
    "IntegralResult.estimated_error": (lambda v: IntegralResult(0.0, v), 0.0),
    "energy_density_frame.t": (lambda v: energy_density_frame(_A, v, _SMALL_GRID), 1.0),
    "d2_delta_fourier.t": (lambda v: d2_delta_fourier(v, 1.0), 2.0),
    "d2_delta_fourier.r": (lambda v: d2_delta_fourier(2.0, v), 1.0),
    "overlap_kernel.T": (lambda v: overlap_kernel(_A, _A, v), 8.0),
    "brute_force_overlap_oracle.T": (lambda v: brute_force_overlap_oracle(_A, _A, v, samples=100), 14.0),
    "brute_force_overlap_oracle.workers": (
        lambda v: brute_force_overlap_oracle(_A, _A, 14.0, samples=100, workers=v),
        2,
    ),
}
BAD_NUMBERS = [np.nan, np.inf, -np.inf, True, "1.0", None]


class TestValueRules:
    @pytest.mark.parametrize("bad", BAD_NUMBERS, ids=repr)
    @pytest.mark.parametrize("where", PARAMETERS)
    def test_rejects_what_is_not_a_finite_number(self, where, bad):
        build, _ = PARAMETERS[where]
        name = where.split(".")[-1]
        with pytest.raises(ValidationError) as err:
            build(bad)
        assert any(e.startswith(f"{name}: ") for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("where", PARAMETERS)
    def test_accepts_the_valid_value(self, where):
        build, good = PARAMETERS[where]
        build(good)

    @pytest.mark.parametrize("text", ["1e100", "2.5e-7", "1E5", "1e0", "+3e2"])
    def test_a_number_read_as_text_gets_a_spelling_yaml_reads(self, text):
        # PyYAML reads a float only with a dot and a signed exponent
        with pytest.raises(ValidationError) as err:
            CurlGaussian(amplitude=text, sigma=1.0)
        (message,) = err.value.errors
        assert f"got {text!r} (YAML read the value as text; write it as " in message
        spelled = message.split("write it as ")[1].rstrip(")")
        assert yaml.safe_load(f"v: {spelled}")["v"] == float(text)

    @pytest.mark.parametrize("text", ["abc", "1e1000", "nan"])
    def test_text_that_is_no_finite_number_gets_no_spelling(self, text):
        with pytest.raises(ValidationError) as err:
            CurlGaussian(amplitude=1.0, sigma=text)
        assert err.value.errors == [
            f"sigma: must be a positive finite number, got {text!r} (YAML read the value as text)"
        ]

    @pytest.mark.parametrize("text", ["1e-3", "1E5", "+3e2"])
    @pytest.mark.parametrize("where", ["center", "axis"])
    def test_a_vector_item_read_as_text_gets_the_same_note(self, where, text):
        with pytest.raises(ValidationError) as err:
            CurlGaussian(1.0, 1.0, **{where: [1.0, text, 0.0]})
        (message,) = err.value.errors
        assert message.startswith(f"{where}: must be a list of three finite numbers, got [1.0, {text!r}, 0.0]")
        assert f" (YAML read {text!r} as text; write it as " in message
        spelled = message.split("write it as ")[1].rstrip(")")
        assert yaml.safe_load(f"v: {spelled}")["v"] == float(text)

    def test_a_vector_item_that_is_no_number_gets_no_spelling(self):
        with pytest.raises(ValidationError) as err:
            CurlGaussian(1.0, 1.0, center=["x", 0.0, "nan"])
        assert err.value.errors == [
            "center: must be a list of three finite numbers, got ['x', 0.0, 'nan']"
            " (YAML read 'x' as text) (YAML read 'nan' as text)"
        ]

    def test_every_failing_parameter_reported_at_once(self):
        with pytest.raises(ValidationError) as err:
            CurlGaussian(amplitude=np.nan, sigma=-1.0, center=(1.0, 2.0), axis=(0.0, 0.0, 0.0))
        names = [e.split(":")[0] for e in err.value.errors]
        assert names == ["amplitude", "sigma", "center", "axis"]

    def test_stores_floats(self):
        a = CurlGaussian(amplitude=2, sigma=np.float32(0.5), center=np.array([1, 0, 0]), axis=[0, 0, 2])
        assert (a.amplitude, a.sigma, a.center, a.axis) == (2.0, 0.5, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        assert all(type(v) is float for v in (a.amplitude, a.sigma, *a.center, *a.axis))
