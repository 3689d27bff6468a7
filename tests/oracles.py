"""Independent reference computations used only by the tests.

These never call the package's own quadrature paths: moments come from
50-digit quadrature, the overlap kernel from a 90-digit Dawson-function closed
form (co-centred; `commutator_reference` is its sine partner), from a
real-axis mpmath quadrature over `mp.besselj` that also gives the commutator
(`pairing_quadrature_reference`), from Watson's series in 1/T with exact
coefficients (`kernel_series_reference`) or from real-axis QUADPACK over
scipy's spherical Bessel functions (`displaced_kernel_reference`),
k-space and position-space norms from direct lattice sums,
density frames from FFT propagation of the closed-form transform
(`curl_gaussian_spectrum`), and point densities from 50-digit
differentiation of the spherical wave.  Photon-packet amplitudes come from a
30-digit radial quadrature over `mp.besselj` (`packet_amplitudes_reference`)
and from a plain k-lattice sum of the mode spectrum
(`packet_amplitudes_grid_reference`, with `photon_mode_norm_reference` for
its normalization).  The Monte Carlo oracle's batches are re-evaluated with
the plain per-sample formula, rebuilt in 6D at four angles around the centre
line and at Gauss-Hermite nodes in the undrawn direction, with or without its
control variate (`mc_batch_reference`); the estimators that draw all three
normals of u, or all six of a sample, are `mc_three_normal_reference` and
`mc_six_normal_reference`.  Their kernel is d_t^2 of the
light-cone closed form -1/(2 pi^2 (t^2 - r^2)) (`pauli_jordan_delta_reference`).
The input energy comes from one full position lattice
(`input_energy_position_reference`).  Frame energies are plain grid sums (`total_energy`, `energy_in_shell`,
`residual_window_energy`), and the vacuum moments behind D_q come from a
truncated Fock-space matrix exponential (`vacuum_probe_functional_moments`, on the
annihilators of `truncated_annihilators`).
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn

from qetlab.dynamics import energy_density_frame
from qetlab.spectral import _MC_BATCH, d2_delta_offcone

mp.mp.dps = 50


def weighted_norm_reference(amplitude: float, sigma: float, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^p |a~|^2 as a 50-digit quadrature of its radial integral.

    |a~|^2 = A^2 (2 pi sigma^2)^3 e^{-sigma^2 k^2} |k x n|^2 and the angular
    factor is 8 pi/3, leaving
    A^2 (2 pi sigma^2)^3/(2 pi)^3 (8 pi/3) int_0^inf k^(4+p) e^{-sigma^2 k^2} dk.
    """
    A, s = mp.mpf(amplitude), mp.mpf(sigma)
    radial = mp.quad(lambda k: k ** (4 + power) * mp.exp(-s * s * k * k), [0, 1 / s, mp.inf])
    return float(A**2 * (2 * mp.pi * s * s) ** 3 / (2 * mp.pi) ** 3 * (8 * mp.pi / 3) * radial)


def kernel_reference(T: float, amp_f=1.0, sig_f=1.0, amp_a=1.0, sig_a=1.0, cos_axes=1.0) -> float:
    """K(T) for co-centered curl-Gaussians, via the Dawson-function closed form.

    K(T) = -(8 pi/3) (n_f.n_a) A_f A_a (s_f s_a)^3 alpha^{-3} J(T/sqrt(alpha)),
    alpha = (s_f^2 + s_a^2)/2, where J(u) = int_0^inf v^5 e^{-v^2} cos(u v) dv
    has the exact form

        J(u) = [ (-60 s + 80 s^3 - 16 s^5) daw(s) + 16 - 36 s^2 + 8 s^4 ] / 16,

    s = u/2 (checked: J(0) = 1 = Gamma(3)/2).  Evaluated in 90-digit arithmetic
    because the float64 form loses everything to cancellation for u > ~30, and
    at u = 1e4 the sum still cancels about 36 digits.
    """
    with mp.workdps(90):
        alpha = (mp.mpf(sig_f) ** 2 + mp.mpf(sig_a) ** 2) / 2
        u = mp.mpf(T) / mp.sqrt(alpha)
        s = u / 2
        daw = mp.sqrt(mp.pi) / 2 * mp.exp(-s * s) * mp.erfi(s)
        J = ((-60 * s + 80 * s**3 - 16 * s**5) * daw + 16 - 36 * s * s + 8 * s**4) / 16
        pref = -(8 * mp.pi / 3) * cos_axes * amp_f * amp_a * (mp.mpf(sig_f) * sig_a) ** 3 / alpha**3
        return float(pref * J)


def curl_gaussian_spectrum(field, k) -> np.ndarray:
    """Closed-form transform a~(k) = i A (2 pi sigma^2)^{3/2} e^{-sigma^2 k^2/2} e^{-ik.c} (k x n).

    Evaluated for k of shape (..., 3), with a~(k) = int a(x) e^{-ik.x} d^3x.
    """
    k = np.asarray(k, dtype=float)
    k2 = np.sum(k * k, axis=-1)
    radial = field.amplitude * (2.0 * np.pi * field.sigma**2) ** 1.5 * np.exp(-0.5 * field.sigma**2 * k2)
    phase = np.exp(-1j * (k @ field.center_vec))
    return (1j * radial * phase)[..., None] * np.cross(k, field.axis_vec)


def grid_norm_reference(field, power: int, n: int = 128, k_max: float = 10.0) -> float:
    """Plain Riemann k-lattice sum of |k|^p |a~(k)|^2/(2pi)^3 (no package code)."""
    ax = np.linspace(-k_max, k_max, n, endpoint=False) + k_max / n
    kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
    kvec = np.stack([kx, ky, kz], axis=-1)
    kmag = np.sqrt(np.sum(kvec * kvec, axis=-1))
    vals = curl_gaussian_spectrum(field, kvec)
    dk = ax[1] - ax[0]
    w = np.where(kmag > 0, kmag, 1.0) ** power
    w[kmag == 0] = 0.0 if power != 0 else 1.0
    return float(np.sum(w * np.sum(np.abs(vals) ** 2, axis=-1))) * dk**3 / (2 * np.pi) ** 3


def position_norm_reference(field, n: int = 96, half: float = 8.0) -> float:
    """Direct int |f|^2 d^3x on a midpoint lattice."""
    ax = np.linspace(-half, half, n, endpoint=False) + half / n
    xs, ys, zs = np.meshgrid(*(ax + c for c in field.center_vec), indexing="ij")
    vals = field(np.stack([xs, ys, zs], axis=-1))
    dx = ax[1] - ax[0]
    return float(np.sum(vals * vals)) * dx**3


def input_energy_position_reference(a_m) -> float:
    """(1/2) int (curl a)^2 d^3x on the 96^3 midpoint lattice over +-8 sigma, in one mesh."""
    n = 96
    half = 8.0 * a_m.sigma
    ax = np.linspace(-half, half, n, endpoint=False) + half / n
    axes = [ax + c for c in a_m.center_vec]
    xs, ys, zs = np.meshgrid(*axes, indexing="ij")
    curls = a_m.curl(np.stack([xs, ys, zs], axis=-1))
    dx = float(ax[1] - ax[0])
    return 0.5 * float(np.sum(curls * curls)) * dx**3


def pauli_jordan_delta_reference(t: float, r: float) -> float:
    """The light-cone kernel Delta(t, r) = -1/(2 pi^2 (t^2 - r^2)) off the cone."""
    return -1.0 / (2.0 * np.pi**2 * (t * t - r * r))


def _batched_estimate(samples: int, seed: int, batch_values) -> tuple[float, float]:
    """(mean, standard error) over the oracle's batches: spawned batch seeds, batch_values(rng, n)
    per batch, and the batch sums reduced with `math.fsum` in index order."""
    n_batches = (samples + _MC_BATCH - 1) // _MC_BATCH
    sums, squares = [], []
    for i, batch_seed in enumerate(np.random.SeedSequence(seed).spawn(n_batches)):
        vals = batch_values(np.random.default_rng(batch_seed), min(_MC_BATCH, samples - i * _MC_BATCH))
        sums.append(float(np.sum(vals)))
        squares.append(float(np.sum(vals * vals)))
    mean = math.fsum(sums) / samples
    var = max(math.fsum(squares) / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def _sample_values(f_o, a_m, T: float, x, y, offset: float) -> np.ndarray:
    """w_f (x - c_f) x n_f . w_a (y - c_a) x n_a times d_T^2 Delta(T, |x - y|) - offset, per row of x and y,
    with explicit cross products and norms."""
    wf = -f_o.amplitude * (2.0 * np.pi * f_o.sigma**2) ** 1.5 / f_o.sigma**2
    wa = -a_m.amplitude * (2.0 * np.pi * a_m.sigma**2) ** 1.5 / a_m.sigma**2
    r = np.linalg.norm(x - y, axis=-1)
    fv = wf * np.cross(x - f_o.center_vec, f_o.axis_vec)
    av = wa * np.cross(y - a_m.center_vec, a_m.axis_vec)
    return (d2_delta_offcone(T, r * r) - offset) * np.sum(fv * av, axis=-1)


def _v_averaged_values(f_o, a_m, T: float, u, offset: float) -> np.ndarray:
    """`_sample_values` per row of u, averaged over v at the 8 nodes (+-1, +-1, +-1) of the
    2-point-per-axis Gauss-Hermite rule, exact for the product's quadratic dependence on v.

    A sample is x - c_f = sigma_f z_x and y - c_a = sigma_a z_y with
    z_x = (sigma_f u + sigma_a v)/s, z_y = (sigma_f v - sigma_a u)/s and s = hypot(sigma_f, sigma_a).
    """
    sf, sa = f_o.sigma, a_m.sigma
    s = math.hypot(sf, sa)
    nodes = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    return sum(
        _sample_values(f_o, a_m, T, f_o.center_vec + sf * (sf * u + sa * v) / s,
                       a_m.center_vec + sa * (sf * v - sa * u) / s, offset)
        for v in nodes
    ) / len(nodes)


def _centre_line_frame(f_o, a_m) -> np.ndarray:
    """Rows e, e1, e2: e along d = c_f - c_a, or along n_f x n_a where d = 0 (any
    direction perpendicular to the axes where they are parallel too), and e1, e2
    completing it to a right-handed orthonormal frame."""
    d = f_o.center_vec - a_m.center_vec
    e = d if np.any(d) else np.cross(f_o.axis_vec, a_m.axis_vec)
    if not np.any(e):
        e = np.cross(f_o.axis_vec, np.eye(3)[np.argmin(np.abs(f_o.axis_vec))])
    e = e / np.linalg.norm(e)
    e1 = np.cross(e, np.eye(3)[np.argmin(np.abs(e))])
    e1 /= np.linalg.norm(e1)
    return np.stack([e, e1, np.cross(e, e1)])


def mc_batch_reference(
    f_o, a_m, T: float, samples: int, seed: int, control_variate: bool = True
) -> tuple[float, float]:
    """(mean, standard error) of the Monte Carlo K(T) estimate, one sample at a time.

    Draws the oracle's samples (per batch u_e, then rho^2 as twice a standard
    exponential).  With the frame (e, e1, e2) of `_centre_line_frame` a sample
    is u = u_e e + rho (cos phi e1 + sin phi e2), averaged over the 4 angles
    phi = 0, pi/2, pi, 3 pi/2, exact for the product's quadratic dependence on
    u_perp, and at each over v by `_v_averaged_values`: 32 full 6D points.
    control_variate=False keeps the plain kernel d_T^2 Delta(T, |x - y|): the
    same mean, since int f_o . int a_m = 0, with a larger variance.
    """
    offset = d2_delta_offcone(T, 0.0) if control_variate else 0.0
    e, e1, e2 = _centre_line_frame(f_o, a_m)

    def batch_values(rng, n):
        u_e = rng.standard_normal(n)[:, None]
        rho = np.sqrt(2.0 * rng.standard_exponential(n))[:, None]
        return sum(_v_averaged_values(f_o, a_m, T, u_e * e + rho * w, offset) for w in (e1, e2, -e1, -e2)) / 4.0

    return _batched_estimate(samples, seed, batch_values)


def mc_three_normal_reference(f_o, a_m, T: float, samples: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of the Monte Carlo K(T) estimate that draws all three normals of u.

    Per batch it draws the three rows of u and averages over v by
    `_v_averaged_values`: the same mean as the oracle, which also averages
    over the direction of u_perp, and no smaller a variance.
    """
    offset = d2_delta_offcone(T, 0.0)
    return _batched_estimate(
        samples, seed, lambda rng, n: _v_averaged_values(f_o, a_m, T, rng.standard_normal((3, n)).T, offset)
    )


def mc_six_normal_reference(f_o, a_m, T: float, samples: int, seed: int) -> tuple[float, float]:
    """(mean, standard error) of the Monte Carlo K(T) estimate that draws z_x and z_y in full.

    Per batch it draws x = c_f + sigma_f z_x, then y = c_a + sigma_a z_y, six
    normals a sample, and evaluates `_sample_values`: the same mean as the
    oracle, which averages over v in closed form, and no smaller a variance.
    """
    offset = d2_delta_offcone(T, 0.0)

    def batch_values(rng, n):
        x = f_o.center_vec + f_o.sigma * rng.standard_normal((n, 3))
        y = a_m.center_vec + a_m.sigma * rng.standard_normal((n, 3))
        return _sample_values(f_o, a_m, T, x, y, offset)

    return _batched_estimate(samples, seed, batch_values)


def angular_components_reference(x):
    """(j0(x) - j1(x)/x, j2(x)) from scipy `spherical_jn`, vectorised.

    Below x = 1e-4 the removable j1(x)/x singularity is replaced by its series,
    which reaches float64 accuracy there; at x = 0 the pair is (2/3, 0).
    """
    x = np.asarray(x, dtype=float)
    j01 = np.empty_like(x)
    j2 = np.empty_like(x)
    small = x < 1e-4
    xs = x[small]
    j01[small] = 2.0 / 3.0 - 2.0 * xs**2 / 15.0 + xs**4 / 140.0
    j2[small] = xs**2 / 15.0 - xs**4 / 210.0
    xl = x[~small]
    j01[~small] = spherical_jn(0, xl) - spherical_jn(1, xl) / xl
    j2[~small] = spherical_jn(2, xl)
    return j01, j2


def displaced_kernel_reference(f_o, a_m, T: float) -> float:
    """K(T) for two single curl-Gaussians by real-axis QUADPACK over scipy Bessel functions.

    The radial integrand k^5 e^{-alpha k^2} [(j0 - j1/x)(n_f.n_a) + j2 (d^.n_f)(d^.n_a)],
    x = k|d|, with the angular factor from `spherical_jn`, goes through a
    cos-weighted QUADPACK call (cut at k = 8/sqrt(alpha), limit 800, epsabs
    1e-13, epsrel 1e-11) on the real axis.
    """
    d = np.asarray(a_m.center, dtype=float) - np.asarray(f_o.center, dtype=float)
    n_f, n_a = np.asarray(f_o.axis, dtype=float), np.asarray(a_m.axis, dtype=float)
    dist = float(np.linalg.norm(d))
    dhat = d / dist if dist > 0.0 else np.zeros(3)
    cos_axes, cos_df, cos_da = float(n_f @ n_a), float(dhat @ n_f), float(dhat @ n_a)
    alpha = 0.5 * (f_o.sigma**2 + a_m.sigma**2)

    def g(k):
        j01, j2 = angular_components_reference(np.atleast_1d(k * dist))
        return k**5 * np.exp(-alpha * k * k) * (j01[0] * cos_axes + j2[0] * cos_df * cos_da)

    val, _ = quad(
        g, 0.0, 8.0 / math.sqrt(alpha), weight="cos", wvar=T, limit=800, epsabs=1e-13, epsrel=1e-11
    )
    pref = (
        4.0 * math.pi / (2.0 * math.pi) ** 3
        * f_o.amplitude * a_m.amplitude
        * (2.0 * math.pi * f_o.sigma**2) ** 1.5
        * (2.0 * math.pi * a_m.sigma**2) ** 1.5
    )
    return -pref * val


def _pair_constants_mp(f_o, a_m):
    """(pref, alpha, |d|, n_f.n_a, (d^.n_f)(d^.n_a)) of a pair at the working precision.

    The float centres, widths and amplitudes are taken exactly, and the axes
    are normalised again in mp.
    """
    d = [mp.mpf(b) - mp.mpf(a) for a, b in zip(f_o.center, a_m.center)]
    nf, na = ([mp.mpf(v) for v in field.axis] for field in (f_o, a_m))

    def dot(u, v):
        return mp.fsum(p * q for p, q in zip(u, v))

    c_a = dot(nf, na) / mp.sqrt(dot(nf, nf) * dot(na, na))
    dist = mp.sqrt(dot(d, d))
    c_d = dot(d, nf) * dot(d, na) / (dist * dist * mp.sqrt(dot(nf, nf) * dot(na, na))) if dist else mp.mpf(0)
    sf, sa = mp.mpf(f_o.sigma), mp.mpf(a_m.sigma)
    pref = (
        4 * mp.pi / (2 * mp.pi) ** 3 * mp.mpf(f_o.amplitude) * mp.mpf(a_m.amplitude)
        * (2 * mp.pi * sf * sf) ** mp.mpf(1.5) * (2 * mp.pi * sa * sa) ** mp.mpf(1.5)
    )
    return pref, (sf * sf + sa * sa) / 2, dist, c_a, c_d


def pairing_quadrature_reference(f_o, a_m, T: float, dps: int) -> tuple[float, float]:
    """(K(T), commutator integral) from one real-axis mpmath quadrature at `dps` digits.

    Both are -pref times the real and imaginary parts of
    int_0^inf k^5 e^{-alpha k^2} A(k|d|) e^{ikT} dk, with
    A(x) = (j0 - j1/x)(n_f.n_a) + j2(x)(d^.n_f)(d^.n_a) from `mp.besselj`
    (j_l(x) = sqrt(pi/2x) J_{l+1/2}(x)); at d = 0, A = (2/3)(n_f.n_a).  The
    range is cut where e^{-alpha k^2} < 10^-(dps+10) and split into pieces of
    about four periods of e^{ik(T + |d|)}, each Gauss-Legendre to full precision.
    """
    with mp.workdps(dps):
        pref, alpha, dist, c_a, c_d = _pair_constants_mp(f_o, a_m)
        T = mp.mpf(T)
        k_max = mp.sqrt((dps + 10) * mp.log(10) / alpha)

        def g(k):
            z = k * dist
            if z == 0:
                A = 2 * c_a / 3
            else:
                j0, j1, j2 = (mp.sqrt(mp.pi / (2 * z)) * mp.besselj(l + mp.mpf(0.5), z) for l in range(3))
                A = (j0 - j1 / z) * c_a + j2 * c_d
            return k**5 * mp.exp(-alpha * k * k + 1j * k * T) * A

        pieces = int(mp.ceil(k_max * (T + dist) / (8 * mp.pi))) + 2
        J = mp.quad(g, mp.linspace(0, k_max, pieces + 1), method="gauss-legendre")
        return float(-pref * J.real), float(-pref * J.imag)


def kernel_series_reference(f_o, a_m, T: float, dps: int = 50) -> float:
    """K(T) from Watson's lemma: pref sum_m (-1)^m b_m (5 + 2m)! T^(-6-2m).

    g(k) = k^5 e^{-alpha k^2} A(k|d|) = sum_m b_m k^(5+2m) with
    b_m = sum_{i+l=m} ((-alpha)^i/i!) a_l |d|^(2l), where a_l are the Taylor
    coefficients of A in x^(2l):
    (j0 - j1/x) -> (-1)^l (2l+2)/(2^l l! (2l+3)!!) and j2 -> (-1)^(l-1)/(2^(l-1) (l-1)! (2l+3)!!).
    The series is asymptotic; it is summed at `dps` digits until a term falls
    below 10^-(dps-8) of the sum, and a ValueError is raised if the terms
    start to grow first.
    """
    with mp.workdps(dps):
        pref, alpha, dist, c_a, c_d = _pair_constants_mp(f_o, a_m)
        T = mp.mpf(T)
        a = []
        total, last = mp.mpf(0), mp.inf
        for m in range(2000):
            odd = mp.fac2(2 * m + 3)
            coef = c_a * (-1) ** m * (2 * m + 2) / (2**m * mp.factorial(m) * odd)
            if m:
                coef += c_d * (-1) ** (m - 1) / (2 ** (m - 1) * mp.factorial(m - 1) * odd)
            a.append(coef * dist ** (2 * m))
            b = mp.fsum((-alpha) ** i / mp.factorial(i) * a[m - i] for i in range(m + 1))
            term = (-1) ** m * b * mp.factorial(5 + 2 * m) / T ** (6 + 2 * m)
            total += term
            if m >= 2 and abs(term) <= mp.mpf(10) ** (8 - dps) * abs(total):
                return float(pref * total)
            if m >= 2 and abs(term) > last:
                raise ValueError(f"the series grows before it converges at T = {T}")
            last = abs(term)
        raise ValueError(f"the series did not converge at T = {T}")


def commutator_reference(T: float, amp_f=1.0, sig_f=1.0, amp_a=1.0, sig_a=1.0, cos_axes=1.0) -> float:
    """Commutator integral of co-centred curl-Gaussians in closed form, at 90 digits.

    -pref int_0^inf k^5 e^{-alpha k^2} (2/3)(n_f.n_a) sin(kT) dk, where
    int_0^inf v^5 e^{-v^2} sin(uv) dv = (sqrt(pi)/64)(u^5 - 20u^3 + 60u) e^{-u^2/4}
    (minus the fifth derivative of (sqrt(pi)/2) e^{-u^2/4}, through H_5).
    """
    with mp.workdps(90):
        alpha = (mp.mpf(sig_f) ** 2 + mp.mpf(sig_a) ** 2) / 2
        u = mp.mpf(T) / mp.sqrt(alpha)
        S = mp.sqrt(mp.pi) / 64 * (u**5 - 20 * u**3 + 60 * u) * mp.exp(-u * u / 4)
        pref = -(8 * mp.pi / 3) * cos_axes * amp_f * amp_a * (mp.mpf(sig_f) * sig_a) ** 3 / alpha**3
        return float(pref * S)


def grid_positions(grid, center) -> np.ndarray:
    """(n, n, n, 3) node positions of a FrameGrid about `center`, in C order of its eps array."""
    axes = [grid.axis() + c for c in np.asarray(center, dtype=float)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def fft_frame_reference(a_m, t: float, grid):
    """(eps, b, Pi) on the grid about a_m's centre by FFT propagation of the closed-form spectrum.

    b~(t,k) = cos(|k|t) (ik x a~(k)) and Pi~(t,k) = -|k| sin(|k|t) a~(k),
    sampled on the grid's FFT k-lattice and inverse transformed; exact up to
    spectral truncation and periodic wrap-around.
    """
    n = grid.n
    dx = grid.dx
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    KX, KY, KZ = np.meshgrid(k, k, k, indexing="ij")
    kvec = np.stack([KX, KY, KZ], axis=-1)
    kmag = np.sqrt(KX * KX + KY * KY + KZ * KZ)

    a_tilde = curl_gaussian_spectrum(a_m, kvec)
    # refer spectral phases to the grid origin so the inverse FFT lands on it
    origin = a_m.center_vec - grid.half_extent
    phase = np.exp(1j * (KX * origin[0] + KY * origin[1] + KZ * origin[2]))
    a_tilde *= phase[..., None]

    curl_a = 1j * np.cross(kvec, a_tilde)
    b_tilde = np.cos(kmag * t)[..., None] * curl_a
    pi_tilde = (-kmag * np.sin(kmag * t))[..., None] * a_tilde

    norm = 1.0 / dx**3  # ifftn includes 1/n^3; continuum measure adds n^3 dk^3/(2pi)^3
    b = np.real(np.fft.ifftn(b_tilde, axes=(0, 1, 2))) * norm
    Pi = np.real(np.fft.ifftn(pi_tilde, axes=(0, 1, 2))) * norm
    eps = 0.5 * (np.sum(Pi * Pi, axis=-1) + np.sum(b * b, axis=-1))
    return eps, b, Pi


def density_reference(a_m, t: float, x) -> float:
    """eps(t, x) of the propagated curl-Gaussian in 50-digit arithmetic.

    The potential is the spherical wave psi = [F(r+t) + F(r-t)]/(2r) with
    F(s) = s A e^{-s^2/2 sigma^2}; its derivatives come from `mp.diff`, and
    eps = (1/2)[psi_tr^2 (1-mu^2) + Q^2 + mu^2 (P^2 - 2PQ)] with
    P = psi_rr - psi_r/r, Q = psi_rr + psi_r/r, mu = n.r^.  At r = 0 the
    removable limit (2/9) F'''(t)^2 is taken.
    """
    A, s2 = mp.mpf(a_m.amplitude), mp.mpf(a_m.sigma) ** 2
    u = [mp.mpf(float(xi)) - mp.mpf(ci) for xi, ci in zip(x, a_m.center)]
    r = mp.sqrt(sum(ui * ui for ui in u))
    T = mp.mpf(t)

    def F(s):
        return s * A * mp.exp(-s * s / (2 * s2))

    if r == 0:
        return float(2 * mp.diff(F, T, 3) ** 2 / 9)

    def psi(tt, rr):
        return (F(rr + tt) + F(rr - tt)) / (2 * rr)

    mu = sum(mp.mpf(ni) * ui for ni, ui in zip(a_m.axis, u)) / r
    psi_r = mp.diff(lambda rr: psi(T, rr), r)
    psi_rr = mp.diff(lambda rr: psi(T, rr), r, 2)
    psi_tr = mp.diff(psi, (T, r), (1, 1))
    P = psi_rr - psi_r / r
    Q = psi_rr + psi_r / r
    return float((psi_tr**2 * (1 - mu**2) + Q**2 + mu**2 * (P**2 - 2 * P * Q)) / 2)


def total_energy(frame) -> float:
    """Grid quadrature of the density; conserved across t for a covering grid."""
    return float(np.sum(frame.eps)) * frame.grid.dx**3


def energy_in_shell(frame, r_lo: float, r_hi: float) -> float:
    """Grid quadrature of the density over r_lo <= r <= r_hi, radii measured from the source."""
    ax = frame.grid.axis()
    sq = ax * ax
    total = 0.0
    for i, x2 in enumerate(sq):
        r = np.sqrt(x2 + sq[:, None] + sq[None, :])
        total += float(np.sum(frame.eps[i][(r >= r_lo) & (r <= r_hi)]))
    return total * frame.grid.dx**3


def residual_window_energy(a_m, T: float, window, grid) -> float:
    """int w(x) eps(T, x) d^3x: energy left in the windowed region at the operation time.

    The window sees one x-plane of grid positions at a time, so no (n^3, 3)
    position array is built.
    """
    frame = energy_density_frame(a_m, T, grid)
    ax = frame.grid.axis()
    xs, ys, zs = (ax + c for c in frame.center)
    total = 0.0
    for i, x in enumerate(xs):
        plane = np.stack(np.broadcast_arrays(x, ys[:, None], zs[None, :]), axis=-1)
        total += float(np.sum(window(plane) * frame.eps[i]))
    return total * frame.grid.dx**3


# the photon-packet references take a Gaussian mode's width sigma, centre c and
# unit axis n; their defaults are the demo's packet (width 1 at the origin along z)
_ORIGIN, _Z_AXIS = (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)


def _photon_mode_lattice(sigma: float, center, axis, n: int, k_max: float | None):
    """Midpoint k-lattice, the mode spectrum F(k) = N i (k x n) e^{-sigma^2 k^2/2} e^{-ik.c} on it, and dk."""
    k_max = k_max or 8.0 / sigma
    ax = np.linspace(-k_max, k_max, n, endpoint=False) + k_max / n
    kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
    kvec = np.stack([kx, ky, kz], axis=-1)
    kk = np.sum(kvec * kvec, axis=-1)
    envelope = sigma**2.5 / np.pi**0.75 * np.exp(-0.5 * sigma**2 * kk)
    phase = np.exp(-1j * (kvec @ np.asarray(center)))
    F = (1j * envelope * phase)[..., None] * np.cross(kvec, np.asarray(axis))
    return kvec, F, ax[1] - ax[0]


def photon_mode_norm_reference(
    sigma: float = 1.0, center=_ORIGIN, axis=_Z_AXIS, n: int = 96, k_max: float | None = None
) -> float:
    """Lattice value of int |F|^2 d^3k (1 for a normalized mode)."""
    _, F, dk = _photon_mode_lattice(sigma, center, axis, n, k_max)
    return float(np.sum(np.abs(F) ** 2)) * dk**3


def packet_amplitudes_grid_reference(
    x, sigma: float = 1.0, center=_ORIGIN, axis=_Z_AXIS, n: int = 96, k_max: float | None = None
):
    """(uE, uB) at points x as plain k-lattice sums of the mode spectrum.

    uE(x) = int d^3k (-i) sqrt(|k|/(2 (2pi)^3)) F(k) e^{ik.x}
    uB(x) = int d^3k (i k x F(k)) / sqrt(2 (2pi)^3 |k|) e^{ik.x}
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    kvec, F, dk = _photon_mode_lattice(sigma, center, axis, n, k_max)
    kmag = np.sqrt(np.sum(kvec * kvec, axis=-1))

    safe = np.where(kmag > 0.0, kmag, 1.0)
    eAmp = -1j * np.sqrt(kmag / (2.0 * (2.0 * np.pi) ** 3))[..., None] * F
    bAmp = 1j * np.cross(kvec, F) / np.sqrt(2.0 * (2.0 * np.pi) ** 3 * safe)[..., None]
    bAmp[kmag == 0.0] = 0.0

    uE = np.empty((len(pts), 3), dtype=complex)
    uB = np.empty((len(pts), 3), dtype=complex)
    for i, p in enumerate(pts):
        phase = np.exp(1j * (kvec @ p))
        uE[i] = np.sum(eAmp * phase[..., None], axis=(0, 1, 2)) * dk**3
        uB[i] = np.sum(bAmp * phase[..., None], axis=(0, 1, 2)) * dk**3
    if single:
        return uE[0], uB[0]
    return uE, uB


def packet_amplitudes_reference(x, sigma: float = 1.0, center=_ORIGIN, axis=_Z_AXIS):
    """(uE, uB) at one point x from 30-digit radial quadratures over `mp.besselj`.

    The angular integrals of the packet amplitudes give
    uE = i pref R[j1] (r^ x n) and uB = pref (R[j0 - j1/z] n + R[j2] (r^.n) r^),
    r = x - c, pref = 4 pi N/sqrt(2 (2pi)^3), N = sigma^{5/2}/pi^{3/4} and
    R[g] = int_0^inf k^{7/2} e^{-sigma^2 k^2/2} g(kr) dk, with j_l(z) =
    sqrt(pi/2z) J_{l+1/2}(z).  R is cut at k = 12/sigma (tail below 1e-27 of
    the envelope integral) and taken as Gauss-Legendre in u = sqrt(k), which
    makes the integrand entire, over pieces of about two oscillation periods.
    At r = 0 the limits j0 - j1/z = 2/3 and j1 = j2 = 0 apply.
    """
    with mp.workdps(30):
        s = mp.mpf(float(sigma))
        rv = [mp.mpf(float(xi)) - mp.mpf(float(ci)) for xi, ci in zip(x, center)]
        r = mp.sqrt(sum(v * v for v in rv))
        n = [mp.mpf(float(ni)) for ni in axis]
        pref = 4 * mp.pi * s ** mp.mpf(2.5) / mp.pi ** mp.mpf(0.75) / mp.sqrt(2 * (2 * mp.pi) ** 3)
        k_max = 12 / s
        pieces = max(3, int(mp.ceil(k_max * r / (4 * mp.pi))))
        us = [mp.sqrt(k_max * j / pieces) for j in range(pieces + 1)]
        cache = {}

        def bessels(u):
            # (j1, j0 - j1/z, j2) at z = u^2 r, shared by the three integrals
            if u not in cache:
                z = u * u * r
                if z == 0:
                    cache[u] = (mp.mpf(0), mp.mpf(2) / 3, mp.mpf(0))
                else:
                    j0, j1, j2 = (mp.sqrt(mp.pi / (2 * z)) * mp.besselj(l + mp.mpf(0.5), z) for l in range(3))
                    cache[u] = (j1, j0 - j1 / z, j2)
            return cache[u]

        def R(i):
            return mp.quad(
                lambda u: 2 * u**8 * mp.exp(-s * s * u**4 / 2) * bessels(u)[i], us, method="gauss-legendre"
            )

        R1, R01, R2 = R(0), R(1), R(2)
        rhat = [v / r for v in rv] if r > 0 else [mp.mpf(0)] * 3
        mu = sum(a * b for a, b in zip(rhat, n))
        cross = [
            rhat[1] * n[2] - rhat[2] * n[1],
            rhat[2] * n[0] - rhat[0] * n[2],
            rhat[0] * n[1] - rhat[1] * n[0],
        ]
        uE = np.array([complex(0.0, float(pref * R1 * c)) for c in cross])
        uB = np.array([complex(float(pref * (R01 * ni + R2 * mu * h)), 0.0) for ni, h in zip(n, rhat)])
    return uE, uB


def truncated_annihilators(num_modes: int, cutoff: int) -> np.ndarray:
    """(modes, dim, dim) annihilators on the occupations of total <= cutoff, vacuum first.

    a_j maps |..., n_j, ...> to sqrt(n_j) |..., n_j - 1, ...>, built one basis state at a time.
    """
    basis = [occ for occ in itertools.product(range(cutoff + 1), repeat=num_modes) if sum(occ) <= cutoff]
    index = {occ: i for i, occ in enumerate(basis)}
    ops = np.zeros((num_modes, len(basis), len(basis)))
    for col, occ in enumerate(basis):
        for j, n in enumerate(occ):
            if n:
                ops[j, index[occ[:j] + (n - 1,) + occ[j + 1 :]], col] = math.sqrt(n)
    return ops


def vacuum_probe_functional_moments(couplings, cutoff: int = 12) -> tuple[float, float]:
    """Vacuum expectations of cos(2 G) and sin(2 G) for the discretized measured functional.

    G = pi/4 - X with X = sum_j (g_j a_j + conj(g_j) a_j†).  The cosine pairing
    cancels exactly (two opposite displaced-vacuum overlaps), while the sine pairing is
    the positive vacuum overlap exp(-2 sum |g_j|^2) in the untruncated limit.
    """
    couplings = np.atleast_1d(np.asarray(couplings, dtype=complex))
    ops = truncated_annihilators(len(couplings), cutoff)
    dim = ops.shape[1]
    X = np.zeros((dim, dim), dtype=complex)
    for g, a in zip(couplings, ops.astype(complex)):
        X += g * a + np.conj(g) * a.conj().T
    two_g = np.pi / 2.0 * np.eye(dim) - 2.0 * X
    evals, evecs = np.linalg.eigh(two_g)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    w = evecs.conj().T @ vac
    cos_val = float(np.real(np.sum(np.abs(w) ** 2 * np.cos(evals))))
    sin_val = float(np.real(np.sum(np.abs(w) ** 2 * np.sin(evals))))
    return cos_val, sin_val
