import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qetlab import (
    DiscreteModeSet,
    PlaneWaveMode,
    ValidationError,
    fock_matrix_elements,
    min_energy_density,
)
from qetlab.negative_energy import (
    _KUMMER_SWITCH,
    _annihilators,
    _density_operator,
    _kummer_m_of_negative,
    demo_rows,
    matrix_elements_from_amplitudes,
    packet_amplitudes,
)

from oracles import (
    packet_amplitudes_grid_reference,
    packet_amplitudes_reference,
    photon_mode_norm_reference,
    truncated_annihilators,
    vacuum_probe_functional_moments,
)

def random_mode_set(rng, n_modes: int) -> DiscreteModeSet:
    modes = []
    for _ in range(n_modes):
        k = rng.normal(size=3)
        while np.linalg.norm(k) < 0.3:
            k = rng.normal(size=3)
        pol = np.cross(k, rng.normal(size=3))
        pol /= np.linalg.norm(pol)
        modes.append(PlaneWaveMode(k=tuple(k), polarization=tuple(pol), volume=float(rng.uniform(0.5, 3.0))))
    c = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    c /= np.linalg.norm(c)
    return DiscreteModeSet(modes=tuple(modes), coeffs=tuple(c))


def lowest_eigenvalue(A: float, B: complex) -> float:
    """Lowest mean density over a|0> + b|2>, |a|^2 + |b|^2 = 1, by diagonalization."""
    return float(np.linalg.eigvalsh(np.array([[0.0, np.conj(B)], [B, A]]))[0])


def superposition_energy(A: float, B: complex, theta: float, delta: float) -> float:
    """Mean density of cos(theta)|0> + e^{i delta} sin(theta)|2>:
    2 cos(t)sin(t)[cos(d) Re B - sin(d) Im B] + sin^2(t) A."""
    ct, st = math.cos(theta), math.sin(theta)
    cross = math.cos(delta) * B.real - math.sin(delta) * B.imag
    return 2.0 * ct * st * cross + st * st * A


def optimal_angles(A: float, B: complex) -> tuple[float, float]:
    """Angles of the lowest superposition: e^{i delta} B = -|B|, tan(2 theta) = 2|B|/A."""
    theta = 0.5 * math.atan2(2.0 * abs(B), A)
    delta = (math.pi - math.atan2(B.imag, B.real)) % (2.0 * math.pi)
    return theta, delta


class TestOptimalSuperposition:
    def test_analytic_triple(self):
        assert min_energy_density(3.0, 2.0 + 0.0j) == pytest.approx(-1.0, abs=1e-15)

    def test_no_offdiagonal_no_negativity(self):
        assert min_energy_density(2.5, 0.0j) == 0.0

    def test_pure_offdiagonal(self):
        assert min_energy_density(0.0, 1.0j) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_pair_gives_zero(self):
        # the vacuum is then the optimum; nothing is undefined
        assert min_energy_density(0.0, 0.0j) == 0.0

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            min_energy_density(-1.0, 1.0 + 0.0j)
        with pytest.raises(ValidationError):
            min_energy_density(np.array([1.0, -1.0]), np.array([0.0j, 1.0j]))

    @pytest.mark.parametrize("A, B", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_rejected(self, A, B):
        with pytest.raises(ValidationError):
            min_energy_density(A, B)
        with pytest.raises(ValidationError):
            min_energy_density(np.array([1.0, A]), np.array([0.5, B]))

    # components are zero or large enough that sqrt(A^2+4|B|^2) - A does not
    # underflow; below that the strict-negativity claim drowns in round-off
    _component = st.one_of(
        st.just(0.0), st.floats(1e-5, 3.0), st.floats(-3.0, -1e-5)
    )

    @given(A=st.floats(0.0, 5.0), re=_component, im=_component)
    def test_is_lowest_eigenvalue_over_all_superpositions(self, A, re, im):
        # every superposition of |0> and |2> has mean density in the range of
        # [[0, conj(B)], [B, A]], so its lower eigenvalue is the optimum
        B = complex(re, im)
        eps_min = min_energy_density(A, B)
        assert eps_min == pytest.approx(lowest_eigenvalue(A, B), abs=1e-12)
        assert eps_min <= 0.0
        assert (eps_min < 0.0) == (B != 0.0)

    @given(A=st.floats(0.0, 5.0), re=_component, im=_component)
    def test_self_consistency_and_sign(self, A, re, im):
        B = complex(re, im)
        eps_min = min_energy_density(A, B)
        # the objective at the optimal angles reaches eps_min
        assert superposition_energy(A, B, *optimal_angles(A, B)) == pytest.approx(eps_min, abs=1e-12)
        assert eps_min <= 0.0
        assert (eps_min < 0.0) == (B != 0.0)
        # closed form
        assert eps_min == pytest.approx(-0.5 * (math.hypot(A, 2 * abs(B)) - A), abs=1e-13)

    @given(
        A=st.floats(0.01, 5.0),
        re=st.floats(-3.0, 3.0),
        im=st.floats(-3.0, 3.0),
        dt=st.floats(-0.2, 0.2),
        dd=st.floats(-0.2, 0.2),
    )
    def test_returned_angles_are_a_minimum(self, A, re, im, dt, dd):
        # no superposition near the optimal angles lies below eps_min
        B = complex(re, im)
        eps_min = min_energy_density(A, B)
        theta, delta = optimal_angles(A, B)
        theta = min(max(theta + dt, 0.0), math.pi)
        assert superposition_energy(A, B, theta, delta + dd) >= eps_min - 1e-12

    def test_elementwise_over_arrays(self, rng):
        A = np.concatenate([[0.0, 0.0, 2.5], rng.uniform(0.0, 5.0, 20)])
        B = np.concatenate([[0.0, 1.0j, 0.0], rng.normal(size=20) + 1j * rng.normal(size=20)])
        eps = min_energy_density(A, B)
        assert eps.shape == A.shape
        for a, b, e in zip(A, B, eps):
            assert e == min_energy_density(a, b)
            assert e == pytest.approx(lowest_eigenvalue(a, b), abs=1e-12)


class TestKummerFunction:
    # x = 0, a log grid out to 5e4 (r = 316 sigma), and the ulps around the switch
    X = np.sort(np.concatenate([
        [0.0, np.nextafter(_KUMMER_SWITCH, 0.0), _KUMMER_SWITCH, np.nextafter(_KUMMER_SWITCH, np.inf)],
        np.geomspace(1e-8, 5e4, 3000),
    ]))

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_matches_40_digit_reference_within_the_local_envelope(self, l):
        # M(a, b, -x) changes sign for l = 0, 1, so the error is measured against
        # max_{y >= x} |M(a, b, -y)|, the size the amplitudes' sums work at
        a, b = (l + 4.5) / 2.0, l + 1.5
        with mp.workdps(40):
            ref = np.array([float(mp.hyp1f1(a, b, -mp.mpf(x))) for x in self.X])
        envelope = np.maximum.accumulate(np.abs(ref)[::-1])[::-1]
        err = np.abs(_kummer_m_of_negative(a, b, self.X) - ref) / envelope
        assert err.max() <= 4e-15, f"x = {self.X[err.argmax()]!r}"


LATTICE_POINTS = np.array([[0.0, 0.0, 0.0], [0.4, -0.3, 0.2], [-1.1, 0.5, 0.9], [2.0, 1.0, -1.5]])


class TestContinuumMode:
    # the demo's packet: width 1 (the unit of length), centred at the origin, axis z;
    # the references default to that mode
    def test_normalization(self):
        assert photon_mode_norm_reference() == pytest.approx(1.0, abs=1e-8)

    def test_amplitudes_match_30_digit_reference(self):
        # r = 0 and r = 1e-9 probe the removable limits; 12 widths is the far tail
        rng = np.random.default_rng(31)
        radii = np.concatenate([[0.0, 1e-9], np.geomspace(1e-3, 12.0, 6)])
        dirs = rng.normal(size=(len(radii), 3))
        pts = radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        uE, uB = packet_amplitudes(pts)
        refs = [packet_amplitudes_reference(p) for p in pts]
        scale = max(max(np.abs(rE).max(), np.abs(rB).max()) for rE, rB in refs)
        for i, (rE, rB) in enumerate(refs):
            np.testing.assert_allclose(uE[i], rE, rtol=0, atol=1e-11 * scale)
            np.testing.assert_allclose(uB[i], rB, rtol=0, atol=1e-11 * scale)

    def test_amplitudes_match_lattice_reference(self):
        uE, uB = packet_amplitudes(LATTICE_POINTS)
        gE, gB = packet_amplitudes_grid_reference(LATTICE_POINTS, n=96)
        scale = max(np.abs(gE).max(), np.abs(gB).max())
        np.testing.assert_allclose(uE, gE, rtol=0, atol=1e-6 * scale)
        np.testing.assert_allclose(uB, gB, rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize(
        "x",
        [
            # 25 widths off the axis, then 40 widths at 30 degrees to it
            25.0 * np.array([1.0, 0.0, 0.0]),
            40.0 * np.array([0.5, 0.0, math.sqrt(3.0) / 2.0]),
        ],
        ids=["25-widths-off-axis", "40-widths-oblique"],
    )
    def test_far_field_matches_reference_to_the_local_amplitude(self, x):
        # the amplitudes fall like r^-4.5, so the bound is relative to the point's own size
        uE, uB = packet_amplitudes(x)
        rE, rB = packet_amplitudes_reference(x)
        local = max(np.abs(rE).max(), np.abs(rB).max())
        np.testing.assert_allclose(uE, rE, rtol=0, atol=1e-12 * local)
        np.testing.assert_allclose(uB, rB, rtol=0, atol=1e-12 * local)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_fails_the_gate(self, bad):
        # a NaN or infinite coordinate raises instead of returning NaN amplitudes
        with pytest.raises(ValidationError, match="^x: "):
            packet_amplitudes(np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize(
        "build, x, item",
        [
            (packet_amplitudes, [0.0, True, 0.0], "True"),
            (packet_amplitudes, ["0.5", 0.0, 0.0], "'0.5'"),
            (demo_rows, [[True, 0.0, 0.0]], "True"),
        ],
        ids=["bool", "text", "demo-rows-bool"],
    )
    def test_bool_and_text_are_no_coordinates(self, build, x, item):
        # they used to be read as 1 and 0.5
        with pytest.raises(ValidationError, match=f"^x: need finite numbers as coordinates, got {re.escape(item)}$"):
            build(x)

    @pytest.mark.parametrize("p", LATTICE_POINTS.tolist())
    @pytest.mark.parametrize(
        "sigma, center, axis",
        [(0.8, (0.3, -0.2, 0.5), (1.0, 2.0, -1.0)), (2.5, (-1.0, 0.0, 4.0), (1.0, 0.0, 0.0))],
        ids=["displaced-tilted", "wide-along-x"],
    )
    def test_any_width_centre_and_axis_is_a_change_of_units_and_frame(self, sigma, center, axis, p):
        # the mode of width sigma, centre c and axis n = R z^ has
        # u(c + sigma R p) = sigma^-2 R u_unit(p), so the unit packet is each such mode
        n = np.asarray(axis) / np.linalg.norm(axis)
        e1 = np.cross(n, [0.0, 1.0, 0.0] if abs(n[1]) < 0.9 else [1.0, 0.0, 0.0])
        e1 /= np.linalg.norm(e1)
        R = np.column_stack([e1, np.cross(n, e1), n])
        x = np.asarray(center) + sigma * R @ np.asarray(p)
        rE, rB = packet_amplitudes_reference(x, sigma, center, tuple(n))
        uE, uB = packet_amplitudes(np.asarray(p))
        scale = max(np.abs(rE).max(), np.abs(rB).max())
        np.testing.assert_allclose(R @ uE / sigma**2, rE, rtol=0, atol=1e-11 * scale)
        np.testing.assert_allclose(R @ uB / sigma**2, rB, rtol=0, atol=1e-11 * scale)

    @pytest.mark.parametrize(
        "x", [np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), np.zeros((2, 2))], ids=["flat-two-points", "2x2"]
    )
    def test_points_need_a_last_axis_of_three(self, x):
        # a flat vector of two points used to return the origin's amplitudes
        # alone, and shape (2, 2) raised numpy's own reshape error
        with pytest.raises(ValidationError, match="^x: .*length 3"):
            packet_amplitudes(x)

    def test_amplitudes_keep_the_points_shape(self, rng):
        x = rng.normal(size=(2, 4, 3))
        uE, uB = packet_amplitudes(x)
        assert uE.shape == uB.shape == (2, 4, 3)
        flat_E, flat_B = packet_amplitudes(x.reshape(-1, 3))
        np.testing.assert_array_equal(uE.reshape(-1, 3), flat_E)
        np.testing.assert_array_equal(uB.reshape(-1, 3), flat_B)

    def test_matrix_elements_at_center(self):
        A, B = matrix_elements_from_amplitudes(*packet_amplitudes(np.zeros(3)))
        assert A > 0.0
        assert abs(B) > 0.0

    def test_far_field_decay(self):
        # massless-field packet tails are algebraic, not Gaussian; twelve
        # envelope widths out the density elements are down by > 1e8
        A_far, B_far = matrix_elements_from_amplitudes(*packet_amplitudes(np.array([12.0, 0.0, 0.0])))
        A_0, _ = matrix_elements_from_amplitudes(*packet_amplitudes(np.zeros(3)))
        assert A_far < 1e-8 * A_0
        assert abs(B_far) < 1e-8 * A_0

    def test_global_phase_moves_offdiagonal_twice(self, rng):
        # A is phase-invariant; B picks up twice the mode phase
        ms = random_mode_set(rng, 2)
        phase = math.pi / 5.0
        rotated = DiscreteModeSet(
            modes=ms.modes, coeffs=tuple(np.exp(1j * phase) * np.asarray(ms.coeffs))
        )
        x = rng.normal(size=3)
        A1, B1 = ms.wick_matrix_elements(x)
        A2, B2 = rotated.wick_matrix_elements(x)
        assert A2 == pytest.approx(A1, rel=1e-12)
        np.testing.assert_allclose(B2, B1 * np.exp(2j * phase), rtol=1e-12)

    def test_negativity_exists_somewhere(self):
        xs = np.zeros((9, 3))
        xs[:, 0] = np.linspace(-2.0, 2.0, 9)
        rows = demo_rows(xs)
        assert np.any(rows[:, 6] < 0.0)


class TestFockOracle:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_wick_equals_fock(self, rng, n_modes):
        for _ in range(3):
            ms = random_mode_set(rng, n_modes)
            x = rng.normal(size=3)
            Aw, Bw = ms.wick_matrix_elements(x)
            Af, Bf = fock_matrix_elements(ms, x)
            assert Af == pytest.approx(Aw, rel=1e-10, abs=1e-12)
            assert Bf == pytest.approx(Bw, rel=1e-10, abs=1e-12)

    def test_single_mode_number_state(self, rng):
        ms = random_mode_set(rng, 1)
        x = np.zeros(3)
        Aw, _ = ms.wick_matrix_elements(x)
        Af, _ = fock_matrix_elements(ms, x)
        assert Af == pytest.approx(Aw, rel=1e-10)

    def test_vacuum_expectation_vanishes(self, rng):
        # normal ordering: <0|eps|0> = 0 exactly in the truncated basis
        ms = random_mode_set(rng, 2)
        x = rng.normal(size=3)
        amps = np.array([m.electric_amplitude(x) for m in ms.modes])
        eps_op = _density_operator(amps, _annihilators(2))
        assert abs(eps_op[0, 0]) == 0.0

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_annihilators_match_reference(self, n_modes):
        # same basis order (vacuum first) and sqrt(n) entries as the one-state-at-a-time build
        np.testing.assert_array_equal(_annihilators(n_modes), truncated_annihilators(n_modes, 2))

    def test_mode_overflow_rejected(self, rng):
        modes = tuple(random_mode_set(rng, 3).modes) + tuple(random_mode_set(rng, 1).modes)
        c = np.ones(4) / 2.0
        with pytest.raises(ValidationError, match="overflow|3 modes"):
            DiscreteModeSet(modes=modes, coeffs=tuple(c))

    def test_unnormalized_coefficients_rejected(self, rng):
        ms = random_mode_set(rng, 2)
        with pytest.raises(ValidationError, match="normalized"):
            DiscreteModeSet(modes=ms.modes, coeffs=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [complex(math.nan), complex(math.inf)])
    def test_non_finite_coefficient_rejected(self, rng, bad):
        ms = random_mode_set(rng, 2)
        with pytest.raises(ValidationError, match="normalized"):
            DiscreteModeSet(modes=ms.modes, coeffs=(bad, 0.0))


class TestProbeFunctionalMoments:
    def test_cosine_pairing_cancels(self, rng):
        # the two displaced-vacuum overlaps cancel exactly at any cutoff
        for _ in range(3):
            g = rng.normal(size=2) + 1j * rng.normal(size=2)
            cos_val, _ = vacuum_probe_functional_moments(g * 0.4, cutoff=10)
            assert abs(cos_val) < 1e-12

    def test_sine_pairing_matches_coherent_overlap(self, rng):
        # validates the displaced-vacuum bookkeeping behind the damping factor
        g = 0.35 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        _, sin_val = vacuum_probe_functional_moments(g, cutoff=16)
        expected = math.exp(-2.0 * float(np.sum(np.abs(g) ** 2)))
        assert sin_val == pytest.approx(expected, rel=1e-8)

    def test_cutoff_convergence(self):
        g = np.array([0.5 + 0.1j])
        _, s8 = vacuum_probe_functional_moments(g, cutoff=8)
        _, s14 = vacuum_probe_functional_moments(g, cutoff=14)
        expected = math.exp(-2.0 * float(np.sum(np.abs(g) ** 2)))
        assert abs(s14 - expected) < abs(s8 - expected) + 1e-14
