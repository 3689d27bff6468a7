"""Negative local energy density from vacuum/two-photon interference.

Superposing the vacuum with a two-photon wave packet drives the mean energy
density below zero wherever the off-diagonal element <0|eps(x)|2> is nonzero.
The demo's packet is one normalized Gaussian mode, F(k) = N i (k x z^) e^{-k^2/2}
with N = pi^{-3/4}: its width is the unit of length, it is centred at the
origin and its axis is z (any other width, centre or axis is a change of units
and frame).  The Wick route reduces both matrix elements to two complex mode
amplitudes (the electric and magnetic packet profiles at the point), each a
closed form in Kummer's function M; a truncated Fock matrix oracle on
discretized plane-wave modes checks every contraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import _is_real, _nonzero, _norm, _positive, _set_checked, _unit


# int |F|^2 d^3k = N^2 (8 pi/3) int k^4 e^{-k^2} dk = N^2 pi^{3/2}
_NORMALIZATION = 1.0 / np.pi**0.75
_AXIS = np.array([0.0, 0.0, 1.0])

_KUMMER_SWITCH = 60.0


def _kummer_m_of_negative(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """M(a, b, -x) elementwise for x >= 0, each sum one `cumprod` of term ratios.

    Up to the switch, 199 terms of e^{-x} M(b - a, b, x) (DLMF 13.2.39), of one sign
    past the first; above, 59 terms of the large-x series (DLMF 13.7.2), which drops
    e^{-x} x^{a-b}.  Within 4e-15 of the envelope max_{y >= x} |M(a, b, -y)| of a
    40-digit reference at x = 0 and 1e-8..5e4 for l = 0, 1, 2 (largest seen 1.8e-15).
    """
    out, near = np.empty(x.shape), x <= _KUMMER_SWITCH
    n, m = np.arange(199.0), np.arange(59.0)
    series = np.cumprod(np.multiply.outer(x[near], (b - a + n) / ((b + n) * (n + 1.0))), axis=-1)
    out[near] = np.exp(-x[near]) * (1.0 + series.sum(axis=-1))
    far = x[~near]
    tail = np.cumprod(np.multiply.outer(1.0 / far, (a + m) * (a - b + 1.0 + m) / (m + 1.0)), axis=-1)
    out[~near] = math.gamma(b) / math.gamma(b - a) * far**-a * (1.0 + tail.sum(axis=-1))
    return out


def _radial_over_power(l: int, r2):
    """Q_l = R_l(r)/r^l for R_l(r) = int_0^inf k^{7/2} e^{-k^2/2} j_l(kr) dk, at r^2.

    Gradshteyn 6.631.1 with j_l(z) = sqrt(pi/2z) J_{l+1/2}(z) gives Kummer's M:
    Q_l = c_l M(a, b, -r^2/2), a = (l + 9/2)/2, b = l + 3/2 and
    c_l = sqrt(pi/2) Gamma(a) / (2^b s^a Gamma(b)), s = 1/2.
    """
    a, b, s = (l + 4.5) / 2.0, l + 1.5, 0.5
    c = math.sqrt(math.pi / 2.0) * math.gamma(a) / (2.0**b * s**a * math.gamma(b))
    return c * _kummer_m_of_negative(a, b, r2 / (4.0 * s))


def _points(x) -> np.ndarray:
    """x as a float array of finite points on a last axis of length 3; a bool or a text item is no coordinate."""
    raw = x if isinstance(x, np.ndarray) else np.asarray(x, dtype=object)
    bad = [] if raw.dtype.kind in "iuf" else [v for v in raw.flat if not _is_real(v)]
    if bad:
        raise ValidationError(f"x: need finite numbers as coordinates, got {bad[0]!r}")
    x = np.asarray(raw, dtype=float)
    if x.shape[-1:] != (3,) or not np.all(np.isfinite(x)):
        raise ValidationError(f"x: need finite points on a last axis of length 3, got shape {x.shape}")
    return x


def packet_amplitudes(x):
    """Electric and magnetic packet amplitudes (uE, uB) at points x of shape (..., 3).

    uE(x) = int d^3k (-i) sqrt(|k|/(2 (2pi)^3)) F(k) e^{ik.x}
    uB(x) = int d^3k (i k x F(k)) / sqrt(2 (2pi)^3 |k|) e^{ik.x}

    With d = x and n = z^ the angular integrals leave the radial R_l = r^l Q_l of
    `_radial_over_power`, and j0 - j1/z = (2 j0 - j2)/3 gives
    uE = i pref Q_1 (d x n) and uB = pref [((2 Q_0 - Q_2 r^2)/3) n + Q_2 (d.n) d],
    pref = 4 pi N/sqrt(2 (2pi)^3): polynomials in d, with no r = 0 branch.
    Within 1.4e-15 of the local max(|uE|, |uB|) of a 30-digit reference at 96
    points out to 40 widths, along the axis, across it and in random directions.
    """
    x = _points(x)
    d, n = x.reshape(-1, 3), _AXIS
    r2 = np.sum(d * d, axis=-1, keepdims=True)
    Q0, Q1, Q2 = (_radial_over_power(l, r2) for l in range(3))
    pref = 4.0 * np.pi * _NORMALIZATION / math.sqrt(2.0 * (2.0 * np.pi) ** 3)
    uE = 1j * pref * Q1 * np.cross(d, n)
    uB = (pref * ((2.0 * Q0 - Q2 * r2) / 3.0 * n + Q2 * (d @ n)[:, None] * d)).astype(complex)
    return uE.reshape(x.shape), uB.reshape(x.shape)


def matrix_elements_from_amplitudes(uE, uB):
    """Wick contractions of the normal-ordered quadratic density, over the last axis.

    With u = sum_j c_j (mode amplitude at x):
    A = <2|eps|2> = 2(|uE|^2 + |uB|^2)       (nonnegative)
    B = <0|eps|2> = (uE.uE + uB.uB)/sqrt(2)  (complex bilinear squares)
    """
    uE = np.asarray(uE)
    uB = np.asarray(uB)
    A = 2.0 * np.sum(np.abs(uE) ** 2 + np.abs(uB) ** 2, axis=-1)
    B = (np.sum(uE * uE, axis=-1) + np.sum(uB * uB, axis=-1)) / math.sqrt(2.0)
    return A, B


def min_energy_density(A, B):
    """Lowest mean density over superpositions of |0> and |2>, elementwise.

    The density in the span of |0> and |2> is the matrix [[0, conj(B)], [B, A]],
    whose lower eigenvalue eps_min = -(1/2)[sqrt(A^2 + 4|B|^2) - A] is negative
    wherever B != 0.
    """
    # written so that a NaN fails the check
    if not np.all((np.asarray(A) >= 0.0) & np.isfinite(A) & np.isfinite(B)):
        raise ValidationError("A must be finite and nonnegative, and B finite")
    return -0.5 * (np.hypot(A, 2.0 * np.abs(B)) - A)


@dataclass(frozen=True)
class PlaneWaveMode:
    """One discretized transverse mode: wavevector, polarization, quantization volume."""

    k: tuple
    polarization: tuple
    volume: float = 1.0

    def __post_init__(self):
        _set_checked(self, k=_nonzero, polarization=_unit, volume=_positive)
        k = np.asarray(self.k)
        if abs(k @ np.asarray(self.polarization)) > 1e-12 * self.omega:
            raise ValidationError("polarization: must be transverse to k")

    @property
    def omega(self) -> float:
        return _norm(self.k)[2]

    def electric_amplitude(self, x) -> np.ndarray:
        """Coefficient of the annihilator in E(x) for this mode."""
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * (np.asarray(self.k) @ x))
        return -1j * math.sqrt(self.omega / (2.0 * self.volume)) * phase * np.asarray(self.polarization)

    def magnetic_amplitude(self, x) -> np.ndarray:
        """Coefficient of the annihilator in curl A(x) for this mode."""
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * (np.asarray(self.k) @ x))
        return (
            1j
            * phase
            / math.sqrt(2.0 * self.omega * self.volume)
            * np.cross(np.asarray(self.k), np.asarray(self.polarization))
        )


@dataclass(frozen=True)
class DiscreteModeSet:
    """A two-photon state over <= 3 discrete modes with coefficients c_j, sum |c_j|^2 = 1."""

    modes: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.modes) != len(self.coeffs):
            raise ValidationError("one coefficient per mode required")
        if not (1 <= len(self.modes) <= 3):
            raise ValidationError("1 to 3 modes supported (basis overflow above)")
        c = np.asarray(self.coeffs, dtype=complex)
        norm = float(np.sum(np.abs(c) ** 2))
        if not (abs(norm - 1.0) <= 1e-10):
            raise ValidationError(f"coefficients not normalized: sum |c|^2 = {norm}")

    def wick_matrix_elements(self, x) -> tuple[float, complex]:
        uE = sum(c * m.electric_amplitude(x) for c, m in zip(self.coeffs, self.modes))
        uB = sum(c * m.magnetic_amplitude(x) for c, m in zip(self.coeffs, self.modes))
        return matrix_elements_from_amplitudes(uE, uB)


def _annihilators(num_modes: int) -> np.ndarray:
    """(modes, dim, dim) annihilators on the occupations of total <= 2, vacuum first.

    Entry [j, row, col] is sqrt(n_j) where basis[row] is basis[col] with one quantum
    fewer in mode j.
    """
    basis = np.array([occ for occ in itertools.product(range(3), repeat=num_modes) if sum(occ) <= 2])
    lowered = basis - np.eye(num_modes, dtype=int)[:, None, :]
    hits = np.all(basis[None, :, None, :] == lowered[:, None, :, :], axis=-1)
    return hits * np.sqrt(basis.T)[:, None, :]


def _density_operator(amps: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """eps = (1/2) sum_a :(E_a + E_a^dag)^2: for E_a = sum_j amps[j, a] ops[j], as a dense matrix."""
    E = np.tensordot(amps.T, ops, axes=1)
    Ed = np.tensordot(amps.conj().T, ops.transpose(0, 2, 1), axes=1)
    return 0.5 * np.sum(E @ E + 2.0 * (Ed @ E) + Ed @ Ed, axis=0)


def fock_matrix_elements(modeset: DiscreteModeSet, x) -> tuple[float, complex]:
    """(A, B) read off an explicit matrix for the normal-ordered density.

    The space of total occupation <= 2 holds the two-photon state and is
    exact: the annihilation parts of the normal-ordered quadratic act first,
    so no truncated intermediate state contributes.  eps is quadratic in the
    amplitudes, so each mode's electric and magnetic amplitudes stack into six
    components of one field.
    """
    ops = _annihilators(len(modeset.modes))
    x = np.asarray(x, dtype=float)
    amps = np.array([np.concatenate([m.electric_amplitude(x), m.magnetic_amplitude(x)]) for m in modeset.modes])
    eps = _density_operator(amps, ops)

    creator = np.tensordot(np.asarray(modeset.coeffs), ops.transpose(0, 2, 1), axes=1)
    two = creator @ creator[:, 0] / math.sqrt(2.0)  # basis state 0 is the vacuum
    A = float(np.real(two.conj() @ (eps @ two)))
    B = complex(eps[0] @ two)
    return A, B


def demo_rows(xs) -> np.ndarray:
    """(x, y, z, A, Re B, Im B, eps_min) rows of the packet along the given points."""
    xs = np.atleast_2d(_points(xs))
    A, B = matrix_elements_from_amplitudes(*packet_amplitudes(xs))
    return np.column_stack([xs, A, B.real, B.imag, min_energy_density(A, B)])
