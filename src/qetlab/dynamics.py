"""Mean energy-density dynamics after the measurement.

The post-measurement state carries the classical field data of the shape
function a = grad(psi_0) x n, psi_0 = G(rho) = A exp(-rho^2 / 2 sigma^2),
rho = |x - c|, propagated by the free wave equation.  The potential stays
radial and travels as d'Alembert's spherical wave

    psi(t, r) = [F(r + t) + F(r - t)] / (2 r),      F(s) = s G(s),

so Pi = grad(d_t psi) x n and b = mu P r^ - Q n with mu = n.r^,
P = psi_rr - psi_r/r, Q = psi_rr + psi_r/r, and the density

    eps(t, x) = (1/2) (Pi^2 + b^2)
              = (1/2) [(1 - mu^2)(psi_tr^2 + Q^2) + 4 mu^2 (psi_r/r)^2]

is elementary at every point.  Frames evaluate it plane by plane from the
grid's 1D axes.  Wave packets leave the source region on the light cone and
the grid sum of the density conserves the input energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, ValidationError
from .fields import CurlGaussian

# spectral-resolution gate: Nyquist wavenumber must reach 8/sigma so the
# grid sum of the density captures the Gaussian spectrum below the 1e-12
# energy level
KNYQ_SIGMA_MIN = 8.0

# Below _SERIES_R (in units of sigma) the d'Alembert quotients cancel
# catastrophically: they lose about ulp/r^3 of max eps (1e-10 at r = 1e-2,
# everything at r = 1e-6).  There the Taylor series of psi in r^2 takes over;
# at the switch its first dropped term is below 1e-18 of max eps.
_SERIES_R = 0.5
_SERIES_TERMS = 16
_SERIES_K = np.arange(1, _SERIES_TERMS + 1)
_SERIES_FACTORIALS = np.array([float(math.factorial(2 * k + 1)) for k in _SERIES_K])


@dataclass(frozen=True)
class FrameGrid:
    """Cubic position grid centered on the source: n nodes per axis, half extent."""

    n: int = 128
    half_extent: float = 16.0
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.n < 8:
            raise ValidationError("frame grid needs at least 8 nodes per axis")
        if self.half_extent <= 0.0:
            raise ValidationError("half_extent must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    def axis(self) -> np.ndarray:
        return -self.half_extent + self.dx * np.arange(self.n)


def default_frame_grid(a_m: CurlGaussian, t: float, n: int = 128) -> FrameGrid:
    """Box holding the light shell at time t with a tail margin, centered on the source."""
    half = 1.15 * (abs(t) + a_m.effective_radius + 2.0 * a_m.sigma)
    return FrameGrid(n=n, half_extent=half, center=a_m.center)


@dataclass(frozen=True)
class DensityFrame:
    """Mean energy density on one spatial grid at one time."""

    t: float
    grid: FrameGrid
    eps: np.ndarray  # (n, n, n)


def _series_coefficients(tau: float):
    """Coefficients in r^2 of Q, psi_r/r and psi_tr/r at time tau (A = sigma = 1).

    psi = sum_k f^(2k+1)(tau) r^2k / (2k+1)! with f(u) = u e^{-u^2/2}, whose
    derivatives are f^(m)(u) = (-1)^m He_(m+1)(u) e^{-u^2/2}.  The Hermite
    recurrence is linear, so it carries the Gaussian weight from its seeds and
    underflows to zero instead of overflowing at large tau.
    """
    h = np.empty(2 * _SERIES_TERMS + 4)  # He_m(tau) e^{-tau^2/2}
    h[0] = math.exp(-0.5 * tau * tau)
    h[1] = tau * h[0]
    for m in range(1, h.size - 1):
        h[m + 1] = tau * h[m] - m * h[m - 1]
    k = _SERIES_K
    c = -h[2 * k + 2] / _SERIES_FACTORIALS  # psi
    d = h[2 * k + 3] / _SERIES_FACTORIALS  # d_t psi
    return 4.0 * k * k * c, 2.0 * k * c, 2.0 * k * d


def _scaled_density(tau: float, r2: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """eps for A = sigma = 1 at time tau, squared radius r2 and squared axial offset w2."""
    small = r2 < _SERIES_R * _SERIES_R
    any_small = bool(small.any())
    # the series nodes go through the closed form at r = 1, then are overwritten
    rr = np.where(small, 1.0, r2) if any_small else r2
    r = np.sqrt(rr)
    # per light-cone branch s = r +- tau: F' = (1 - s^2) E and F'' = -s (3 - s^2) E
    terms = []
    for s in (r + tau, r - tau):
        s2 = s * s
        e = np.exp(-0.5 * s2)
        le = (1.0 - s2) * e
        terms.append((s * e, le, s * (3.0 - s2) * e))
    (sa, la, ma), (sb, lb, mb) = terms
    g = r * (la + lb) - (sa + sb)  # 2 r^3 psi_r/r
    q = rr * (ma + mb) + g  # -2 r^3 Q
    v = r * (ma - mb) + (la - lb)  # -2 r^2 psi_tr
    perp2 = np.maximum(rr - w2, 0.0)
    out = (perp2 * (rr * v * v + q * q) + 4.0 * w2 * g * g) / (8.0 * (rr * rr) * (rr * rr))
    if any_small:
        y = r2[small]
        wy = w2[small]
        q0, g0, v0 = (np.polynomial.polynomial.polyval(y, c) for c in _series_coefficients(tau))
        cos2 = np.divide(wy, y, out=np.zeros_like(y), where=y > 0.0)
        sin2 = np.maximum(1.0 - cos2, 0.0)
        out[small] = 0.5 * (sin2 * (y * v0 * v0 + q0 * q0) + 4.0 * cos2 * g0 * g0)
    return out


def _energy_density(a_m: CurlGaussian, t: float, x, y, z) -> np.ndarray:
    """eps(t) at the points of broadcastable coordinate arrays x, y, z."""
    sigma = a_m.sigma
    c = a_m.center_vec
    n = a_m.axis_vec
    ux = (np.asarray(x, dtype=float) - c[0]) / sigma
    uy = (np.asarray(y, dtype=float) - c[1]) / sigma
    uz = (np.asarray(z, dtype=float) - c[2]) / sigma
    r2 = ux * ux + uy * uy + uz * uz
    w = n[0] * ux + n[1] * uy + n[2] * uz
    r2, w2 = np.broadcast_arrays(r2, w * w)
    return (a_m.amplitude**2 / sigma**4) * _scaled_density(t / sigma, r2, w2)


def energy_density_frame(a_m: CurlGaussian, t: float, grid: FrameGrid | None = None) -> DensityFrame:
    """Propagate the measurement imprint to time t and return the density frame.

    The same frame is valid for both probe types.  Rejects grids that either
    under-resolve the envelope spectrally, so that the grid sum of the density
    misses energy, or cannot contain the light shell.
    """
    grid = grid or default_frame_grid(a_m, t)
    k_nyquist = np.pi / grid.dx
    if k_nyquist * a_m.sigma < KNYQ_SIGMA_MIN:
        raise ResolutionError(
            f"grid Nyquist {k_nyquist:.3g} under-resolves sigma={a_m.sigma:.3g}: "
            f"need k_nyq >= {KNYQ_SIGMA_MIN / a_m.sigma:.3g} (refine n or shrink extent)"
        )
    needed = abs(t) + a_m.effective_radius
    offset = float(np.linalg.norm(np.asarray(grid.center) - a_m.center_vec))
    if grid.half_extent < needed + offset:
        raise ResolutionError(
            f"light shell |x| <= {needed:.3g} leaves the grid "
            f"(half extent {grid.half_extent:.3g}, source offset {offset:.3g}); "
            f"need half extent >= {needed + offset:.3g}"
        )

    ax = grid.axis()
    xs, ys, zs = (ax + c for c in grid.center)
    try:
        eps = np.empty((grid.n, grid.n, grid.n))
    except MemoryError:
        raise ResolutionError(
            f"grid n = {grid.n} needs {8 * grid.n**3:.3g} bytes for one frame, "
            "which cannot be allocated"
        ) from None
    for i, x in enumerate(xs):
        eps[i] = _energy_density(a_m, t, x, ys[:, None], zs[None, :])
    return DensityFrame(t=float(t), grid=grid, eps=eps)


def total_energy(frame: DensityFrame) -> float:
    """Grid quadrature of the density; conserved across t for a covering grid."""
    return float(np.sum(frame.eps)) * frame.grid.dx**3


def energy_in_shell(frame: DensityFrame, r_lo: float, r_hi: float) -> float:
    """Grid quadrature of the density over r_lo <= r <= r_hi, radii measured from grid.center."""
    ax = frame.grid.axis()
    sq = ax * ax
    total = 0.0
    for i, x2 in enumerate(sq):
        r = np.sqrt(x2 + sq[:, None] + sq[None, :])
        total += float(np.sum(frame.eps[i][(r >= r_lo) & (r <= r_hi)]))
    return total * frame.grid.dx**3


def residual_window_energy(a_m: CurlGaussian, T: float, window, grid: FrameGrid | None = None) -> float:
    """int w(x) eps(T, x) d^3x: energy left in the windowed region at the operation time.

    The window sees one x-plane of grid positions at a time, so no (n^3, 3)
    position array is built.
    """
    frame = energy_density_frame(a_m, T, grid)
    ax = frame.grid.axis()
    xs, ys, zs = (ax + c for c in frame.grid.center)
    total = 0.0
    for i, x in enumerate(xs):
        plane = np.stack(np.broadcast_arrays(x, ys[:, None], zs[None, :]), axis=-1)
        total += float(np.sum(window(plane) * frame.eps[i]))
    return total * frame.grid.dx**3
