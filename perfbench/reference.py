"""Independent references for the benchmark's output checks.

Nothing here calls qetlab.  Norms come from Gamma-function closed forms,
the co-centred overlap kernel from the 50-digit Dawson-function closed form,
the t = 0 energy density from the closed-form curl of a curl-Gaussian, and
the crossover amplitude from a high-precision root of the damping ratio.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import gammainccinv

# Tail mass outside the effective radius; the curl-Gaussian L2 density is
# ~ r^4 exp(-r^2/sigma^2), so the radius is an inverse incomplete gamma of order 5/2.
TAIL_TOL = 1e-10
R_EFF_PER_SIGMA = math.sqrt(float(gammainccinv(2.5, TAIL_TOL)))

_DPS = 50


def weighted_norm(amplitude: float, sigma: float, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^p |a~|^2 = A^2 sigma^(1-p) (4 pi/3) Gamma((p+5)/2)."""
    return amplitude**2 * sigma ** (1 - power) * (4.0 * math.pi / 3.0) * math.gamma((power + 5) / 2.0)


def input_energy(amplitude: float, sigma: float) -> float:
    """E_m = (1/2) int |k|^2 |a~|^2 d^3k/(2pi)^3."""
    return 0.5 * weighted_norm(amplitude, sigma, 2)


def cocentred_kernel(T: float, amp_f: float, sig_f: float, amp_a: float, sig_a: float, cos_axes: float) -> float:
    """K(T) for co-centred curl-Gaussians via the Dawson closed form.

    K(T) = -(8 pi/3)(n_f.n_a) A_f A_a (s_f s_a)^3 alpha^-3 J(T/sqrt(alpha)),
    alpha = (s_f^2 + s_a^2)/2, J(u) = int_0^inf v^5 e^{-v^2} cos(uv) dv
          = [(-60 s + 80 s^3 - 16 s^5) daw(s) + 16 - 36 s^2 + 8 s^4]/16, s = u/2.
    Float64 loses the value to cancellation for u > ~30, hence 50 digits.
    """
    with mp.workdps(_DPS):
        alpha = (mp.mpf(sig_f) ** 2 + mp.mpf(sig_a) ** 2) / 2
        s = mp.mpf(T) / mp.sqrt(alpha) / 2
        daw = mp.sqrt(mp.pi) / 2 * mp.exp(-s * s) * mp.erfi(s)
        J = ((-60 * s + 80 * s**3 - 16 * s**5) * daw + 16 - 36 * s * s + 8 * s**4) / 16
        pref = -(8 * mp.pi / 3) * cos_axes * amp_f * amp_a * (mp.mpf(sig_f) * sig_a) ** 3 / alpha**3
        return float(pref * J)


def crossover_amplitude(I1: float) -> float:
    """Root lam > 0 of exp(2 lam^2 I1) = 1 + pi^2/4 + 2 lam^2 I1."""
    with mp.workdps(_DPS):
        c = 1 + mp.pi**2 / 4
        u = mp.findroot(lambda u: mp.exp(u) - c - u, 2)
        return float(mp.sqrt(u / (2 * mp.mpf(I1))))


def energy_density_t0(amplitude, sigma, center, axis, xs, ys, zs) -> np.ndarray:
    """(1/2)|curl a|^2 on the grid xs x ys x zs (1D axes, ij order).

    curl a = A psi [2n/s^2 + (n.u)u/s^4 - |u|^2 n/s^4], psi = exp(-|u|^2/2s^2).
    Evaluated one x-slab at a time to keep the transient arrays small.
    """
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    s2 = sigma * sigma
    uy, uz = np.meshgrid(np.asarray(ys) - center[1], np.asarray(zs) - center[2], indexing="ij")
    out = np.empty((len(xs), len(ys), len(zs)))
    for i, x in enumerate(xs):
        ux = np.full_like(uy, x - center[0])
        r2 = ux * ux + uy * uy + uz * uz
        psi = amplitude * np.exp(-r2 / (2.0 * s2))
        mu = n[0] * ux + n[1] * uy + n[2] * uz
        base = 2.0 / s2 - r2 / (s2 * s2)
        c = mu / (s2 * s2)
        cx = psi * (base * n[0] + c * ux)
        cy = psi * (base * n[1] + c * uy)
        cz = psi * (base * n[2] + c * uz)
        out[i] = 0.5 * (cx * cx + cy * cy + cz * cz)
    return out


def optimal_energy(A: float, B_abs: float) -> float:
    """Minimum mean density of cos(t)|0> + e^{id} sin(t)|2>: -(sqrt(A^2 + 4|B|^2) - A)/2."""
    return -0.5 * (math.hypot(A, 2.0 * B_abs) - A)
