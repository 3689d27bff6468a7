"""Independent reference computations used only by the tests.

These never call the package's own quadrature paths: moments come from gamma
functions, the overlap kernel from an arbitrary-precision Dawson-function
closed form (co-centred) or scipy's spherical Bessel functions (displaced),
and position-space norms from direct lattice sums.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.special import spherical_jn

mp.mp.dps = 50


def weighted_norm_reference(amplitude: float, sigma: float, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^p |a~|^2 = A^2 sigma^(1-p) (4 pi / 3) Gamma((p+5)/2).

    Follows from |a~|^2 = A^2 (2 pi sigma^2)^3 e^{-sigma^2 k^2} |k x n|^2 with
    angular factor 8 pi/3 and the Gaussian moment integral.
    """
    return (
        amplitude**2
        * sigma ** (1 - power)
        * (4.0 * math.pi / 3.0)
        * math.gamma((power + 5) / 2.0)
    )


def kernel_reference(T: float, amp_f=1.0, sig_f=1.0, amp_a=1.0, sig_a=1.0, cos_axes=1.0) -> float:
    """K(T) for co-centered curl-Gaussians, via the Dawson-function closed form.

    K(T) = -(8 pi/3) (n_f.n_a) A_f A_a (s_f s_a)^3 alpha^{-3} J(T/sqrt(alpha)),
    alpha = (s_f^2 + s_a^2)/2, where J(u) = int_0^inf v^5 e^{-v^2} cos(u v) dv
    has the exact form

        J(u) = [ (-60 s + 80 s^3 - 16 s^5) daw(s) + 16 - 36 s^2 + 8 s^4 ] / 16,

    s = u/2 (checked: J(0) = 1 = Gamma(3)/2).  Evaluated in 50-digit arithmetic
    because the float64 form loses everything to cancellation for u > ~30.
    """
    alpha = 0.5 * (sig_f**2 + sig_a**2)
    u = mp.mpf(T) / mp.sqrt(alpha)
    s = u / 2
    daw = mp.sqrt(mp.pi) / 2 * mp.exp(-s * s) * mp.erfi(s)
    J = ((-60 * s + 80 * s**3 - 16 * s**5) * daw + 16 - 36 * s * s + 8 * s**4) / 16
    pref = -(8 * mp.pi / 3) * cos_axes * amp_f * amp_a * (sig_f * sig_a) ** 3 / alpha**3
    return float(pref * J)


def grid_norm_reference(field, power: int, n: int = 128, k_max: float = 10.0) -> float:
    """Plain Riemann k-lattice sum of |k|^p |a~(k)|^2/(2pi)^3 (no package code)."""
    ax = np.linspace(-k_max, k_max, n, endpoint=False) + k_max / n
    kx, ky, kz = np.meshgrid(ax, ax, ax, indexing="ij")
    kvec = np.stack([kx, ky, kz], axis=-1)
    kmag = np.sqrt(np.sum(kvec * kvec, axis=-1))
    vals = field.spectrum()(kvec)
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


def displaced_kernel_reference(f_o, a_m, T: float) -> tuple[float, int]:
    """K(T) for two single curl-Gaussians with the angular factor from scipy.

    The radial integrand k^5 e^{-alpha k^2} [(j0 - j1/x)(n_f.n_a) + j2 (d^.n_f)(d^.n_a)],
    x = k|d|, goes through the same cos-weighted QUADPACK call (cut at
    k = 8/sqrt(alpha), limit 800, epsabs 1e-13, epsrel 1e-11), so only the
    angular factor's arithmetic differs.  Returns (K, integrand evaluations).
    """
    d = np.asarray(a_m.center, dtype=float) - np.asarray(f_o.center, dtype=float)
    n_f, n_a = np.asarray(f_o.axis, dtype=float), np.asarray(a_m.axis, dtype=float)
    dist = float(np.linalg.norm(d))
    dhat = d / dist if dist > 0.0 else np.zeros(3)
    cos_axes, cos_df, cos_da = float(n_f @ n_a), float(dhat @ n_f), float(dhat @ n_a)
    alpha = 0.5 * (f_o.sigma**2 + a_m.sigma**2)
    calls = [0]

    def g(k):
        calls[0] += 1
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
    return -pref * val, calls[0]
