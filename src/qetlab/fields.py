"""Divergence-free shape fields.

The field family is the curl of a Gaussian-enveloped axial potential,

    a(x) = A * curl( exp(-|x-c|^2 / (2 sigma^2)) n ),

which is divergence-free by construction.  Every spectral quantity of the
package is a closed form in its four parameters (amplitude, sigma, center,
axis); `spectral` reads them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainccinv

from .errors import ValidationError

# Tail mass outside the effective radius; the field is treated as supported
# in the ball of that radius for all causality preconditions.
TAIL_TOL = 1e-10
# The radial L2 density is ~ r^4 exp(-r^2/sigma^2), so the tail mass is an
# upper incomplete gamma of order 5/2; this is the radius in units of sigma.
_EFFECTIVE_RADIUS_SIGMAS = float(np.sqrt(gammainccinv(2.5, TAIL_TOL)))


def _vec3(v, name: str) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=float).reshape(3)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a finite 3-vector, got {v!r}") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be a finite 3-vector")
    return arr


def _unit(v, name: str) -> np.ndarray:
    arr = _vec3(v, name)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError(f"{name} must be a nonzero vector")
    return arr / norm


@dataclass(frozen=True)
class CurlGaussian:
    """Divergence-free vector field a(x) = A curl(exp(-|x-c|^2/2 sigma^2) axis)."""

    amplitude: float
    sigma: float
    center: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValidationError("sigma must be positive")
        axis = _unit(self.axis, "axis")
        object.__setattr__(self, "axis", tuple(axis))
        object.__setattr__(self, "center", tuple(_vec3(self.center, "center")))

    @property
    def center_vec(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def axis_vec(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    @property
    def effective_radius(self) -> float:
        """Radius of the ball containing 1 - TAIL_TOL of the L2 mass."""
        return self.sigma * _EFFECTIVE_RADIUS_SIGMAS

    def envelope(self, x) -> np.ndarray:
        u = np.asarray(x, dtype=float) - self.center_vec
        r2 = np.sum(u * u, axis=-1)
        return self.amplitude * np.exp(-r2 / (2.0 * self.sigma**2))

    def __call__(self, x) -> np.ndarray:
        """Field values; a = grad(psi) x axis = -(psi/sigma^2) (x-c) x axis."""
        x = np.asarray(x, dtype=float)
        u = x - self.center_vec
        psi = self.envelope(x)
        return -(psi / self.sigma**2)[..., None] * np.cross(u, self.axis_vec)

    def curl(self, x) -> np.ndarray:
        """curl(a) = grad(axis . grad psi) - axis lap(psi), evaluated in closed form."""
        x = np.asarray(x, dtype=float)
        u = x - self.center_vec
        psi = self.envelope(x)
        s2 = self.sigma**2
        r2 = np.sum(u * u, axis=-1)
        mu = np.sum(u * self.axis_vec, axis=-1)
        n = np.broadcast_to(self.axis_vec, u.shape)
        return psi[..., None] * (
            2.0 * n / s2 + (mu / s2**2)[..., None] * u - (r2 / s2**2)[..., None] * n
        )

    def scaled(self, factor: float) -> "CurlGaussian":
        return replace(self, amplitude=self.amplitude * float(factor))

    def spectrum(self) -> "CurlGaussian":
        """The field itself.

        Kept only because `perfbench/workloads.py` calls it and passes the
        result to `overlap_kernel`.  There is no k-space evaluator in `src/`:
        every spectral integral reads the four parameters directly.
        """
        return self


def make_curl_gaussian(amplitude, sigma, center=(0.0, 0.0, 0.0), axis=(0.0, 0.0, 1.0)) -> CurlGaussian:
    """Canonical divergence-free family member; see CurlGaussian."""
    return CurlGaussian(amplitude=float(amplitude), sigma=float(sigma), center=center, axis=axis)


@dataclass(frozen=True)
class RadialWindow:
    """Scalar window: 1 inside `radius`, cosine rolloff to 0 over [radius, 2 radius]."""

    radius: float
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ValidationError("window radius must be positive")
        object.__setattr__(self, "center", tuple(_vec3(self.center, "window center")))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x - np.asarray(self.center), axis=-1)
        out = np.zeros_like(r)
        out[r <= self.radius] = 1.0
        roll = (r > self.radius) & (r < 2.0 * self.radius)
        out[roll] = 0.5 * (1.0 + np.cos(np.pi * (r[roll] - self.radius) / self.radius))
        return out
