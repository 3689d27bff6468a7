"""Mean energy-density dynamics after the measurement.

The post-measurement state carries the classical field data of the shape
function a = grad(psi_0) x n, psi_0 = G(rho) = A exp(-rho^2 / 2 sigma^2),
rho = |x - c|, propagated by the free wave equation.  The potential stays
radial and travels as d'Alembert's spherical wave

    psi(t, r) = [F(r + t) + F(r - t)] / (2 r),      F(s) = s G(s),

so Pi = grad(d_t psi) x n and b = mu P r^ - Q n with mu = n.r^,
P = psi_rr - psi_r/r, Q = psi_rr + psi_r/r, and the density

    eps(t, x) = (1/2) [(1 - mu^2)(psi_tr^2 + Q^2) + 4 mu^2 (psi_r/r)^2]
              = across(r) + mu^2 (along(r) - across(r))

is a radial profile blended by the axis angle.  A frame's grid is centred
on the source, so each node sits at an integer lattice vector L times one
step and its squared radius is |L|^2 steps^2: the profile is evaluated once
per distinct |L|^2, and the blend node by node, for half the planes; the
other half are their mirrors through the source, bit for bit.  Wave packets
leave the source region on the light cone and the grid sum of the density
conserves the input energy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import CurlGaussian, _grid_n, _positive, _real, _set_checked

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
    """Cubic position grid about the source: n nodes per axis, half extent."""

    n: int
    half_extent: float

    def __post_init__(self):
        _set_checked(self, n=_grid_n, half_extent=_positive)

    @property
    def dx(self) -> float:
        return 2.0 * self.half_extent / self.n

    def axis(self) -> np.ndarray:
        """Node offsets from the source along each axis."""
        return -self.half_extent + self.dx * np.arange(self.n)


def default_frame_grid(a_m: CurlGaussian, t: float, n: int) -> FrameGrid:
    """Box holding the light shell at time t with a tail margin."""
    half = 1.15 * (abs(t) + a_m.effective_radius + 2.0 * a_m.sigma)
    return FrameGrid(n=n, half_extent=half)


@dataclass(frozen=True)
class DensityFrame:
    """Mean energy density at one time on a grid centred on the source."""

    t: float
    grid: FrameGrid
    center: tuple  # the source centre, where the grid's axis offsets start
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


def _radial_profile(tau: float, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(across, along): eps for A = sigma = 1 at time tau and squared radius r2, at mu^2 = 0 and 1."""
    small = r2 < _SERIES_R * _SERIES_R
    # the series radii go through the closed form at r = 1, then are overwritten
    rr = np.where(small, 1.0, r2)
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
    den = 8.0 * rr * rr * rr
    across = (rr * v * v + q * q) / den
    along = 4.0 * g * g / den
    q0, g0, v0 = (np.polynomial.polynomial.polyval(r2[small], c) for c in _series_coefficients(tau))
    across[small] = 0.5 * (r2[small] * v0 * v0 + q0 * q0)
    along[small] = 2.0 * g0 * g0
    return across, along


def _blend(across, diff, w2, r2, out=None, origin=True) -> np.ndarray:
    """eps = across + mu^2 diff, diff = along - across, mu^2 = w2/r2 clamped to [0, 1], written over w2.

    mu^2 is 0 at r2 = 0 (where w2 is 0 too), which only an `origin` call may hold."""
    mu2 = np.divide(w2, r2, out=w2, where=r2 > 0 if origin else True)
    np.clip(mu2, 0.0, 1.0, out=mu2)
    mu2 *= diff
    return np.add(mu2, across, out=out)


def _frame_scale(a_m: CurlGaussian, t: float, grid: FrameGrid) -> float:
    """amplitude^2/sigma^4, once the frame at t passes `energy_density_frame`'s checks on grid and field."""
    k_nyquist = np.pi / grid.dx
    if k_nyquist * a_m.sigma < KNYQ_SIGMA_MIN:
        raise ValidationError(
            f"grid Nyquist {k_nyquist:.3g} under-resolves sigma={a_m.sigma:.3g}: "
            f"need k_nyq >= {KNYQ_SIGMA_MIN / a_m.sigma:.3g} (refine n or shrink extent)"
        )
    needed = abs(t) + a_m.effective_radius
    if grid.half_extent < needed:
        raise ValidationError(
            f"light shell |x| <= {needed:.3g} leaves the grid "
            f"(half extent {grid.half_extent:.3g}); need half extent >= {needed:.3g}"
        )
    sigma = a_m.sigma
    try:
        scale = a_m.amplitude**2 / sigma**4
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if math.isinf(scale):
        raise ValidationError(f"a_m: amplitude^2/sigma^4 leaves the float range at "
                              f"amplitude = {a_m.amplitude!r}, sigma = {sigma!r}")
    return scale


def _frame_array(n: int) -> np.ndarray:
    """An uninitialised (n, n, n) frame, or a ValidationError if it cannot be allocated."""
    try:
        return np.empty((n, n, n))
    except MemoryError:
        raise ValidationError(
            f"grid n = {n} needs {8 * n**3:.3g} bytes for one frame, "
            "which cannot be allocated"
        ) from None


def energy_density_frame(a_m: CurlGaussian, t: float, grid: FrameGrid) -> DensityFrame:
    """Propagate the measurement imprint to time t and return the density frame.

    The same frame is valid for both probe types.  Rejects grids that either
    under-resolve the envelope spectrally, so that the grid sum of the density
    misses energy, or cannot contain the light shell, a field whose
    amplitude^2/sigma^4 leaves the float range, and a frame too large to
    allocate."""
    t = _real(t, "t")
    scale = _frame_scale(a_m, t, grid)
    eps = _frame_array(grid.n)
    sigma = a_m.sigma

    # node i sits at L_i steps from the source: L = i - n/2 steps of dx for
    # even n, L = 2i - n half steps for odd n; |L|^2 is an exact integer
    n = grid.n
    half_steps = n % 2
    L = (2 * np.arange(n) - n) // (2 - half_steps)
    step = grid.dx / sigma / (1 + half_steps)
    L2 = L * L
    across, diff = _radial_profile(t / sigma, np.arange(3 * int(L2.max()) + 1) * (step * step))
    across *= scale
    diff *= scale
    diff -= across  # along - across
    nx, ny, nz = a_m.axis_vec
    m_yz = L2[:, None] + L2[None, :]
    w_yz = ny * L[:, None] + nz * L[None, :]
    for i in range(n):
        # L[n - i] = -L[i] for i >= 1 and m, w^2 keep their bits under L -> -L, so a
        # far plane is its near mirror turned through the source, but for row and column 0
        parts = [(slice(None),) * 2]
        if 2 * i > n:
            eps[i, 1:, 1:] = eps[n - i, :0:-1, :0:-1]
            parts = [(0, slice(None)), (slice(1, None), 0)]
        for yz in parts:
            m = m_yz[yz] + L2[i]
            w = w_yz[yz] + nx * L[i]
            _blend(across[m], diff[m], np.square(w, out=w), m, out=eps[i][yz], origin=2 * i == n)
    return DensityFrame(t=t, grid=grid, center=a_m.center, eps=eps)


def scenario_frames(scenario) -> Iterator[DensityFrame]:
    """Density frames at a parsed scenario's times (source field a_m, shared grid policy).

    Every time's checks run before this returns, so a scenario that fails at
    any time fails before anything is built or written; the frames are then
    built one at a time as they are iterated.
    """
    a_m = scenario.a_m
    times = scenario.times or (0.0, max(scenario.T_list))
    if scenario.grid_half_extent is not None:
        grids = [FrameGrid(n=scenario.grid_n, half_extent=scenario.grid_half_extent)] * len(times)
    else:
        grids = [default_frame_grid(a_m, t, n=scenario.grid_n) for t in times]
    for t, grid in zip(times, grids):
        _frame_scale(a_m, t, grid)
    _frame_array(scenario.grid_n)  # every grid has this n; the probe allocation is dropped at once
    return (energy_density_frame(a_m, t, grid) for t, grid in zip(times, grids))
