"""Scalar coherent-state algebra for displaced-vacuum states of the field.

A label holds two divergence-free profiles (p, q): p displaces the electric
field, q the gauge field.  Inner products factor into a symplectic phase and
a Gaussian overlap; both reduce to the weighted spectral pairings of the
quadrature engine, so there is a single integration code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import spectrum_add, spectrum_terms
from .spectral import weighted_pairing


@dataclass(frozen=True)
class CoherentLabel:
    """Displacement label (p, q); None components are zero, (None, None) is the vacuum."""

    p: object = None  # electric displacement profile (spectral)
    q: object = None  # gauge displacement profile (spectral)

    @property
    def is_vacuum(self) -> bool:
        return _is_zero(self.p) and _is_zero(self.q)

    def negated(self) -> "CoherentLabel":
        return CoherentLabel(p=_scale(self.p, -1.0), q=_scale(self.q, -1.0))


def _is_zero(sf) -> bool:
    if sf is None:
        return True
    return all(c * t.amplitude == 0.0 for c, t in spectrum_terms(sf))


def _scale(sf, factor: float):
    if sf is None:
        return None
    return sf.scaled(factor)


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return spectrum_add(a, b)


def _pairing_x(sf1, sf2) -> float:
    """int f.g d^3x via Parseval (zero if either profile is absent)."""
    if _is_zero(sf1) or _is_zero(sf2):
        return 0.0
    value, _, _ = weighted_pairing(sf1, sf2, 0)
    return value


def _weighted_norm(sf, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^power |f~|^2, supporting power = -1 for the overlap."""
    if _is_zero(sf):
        return 0.0
    value, _, _ = weighted_pairing(sf, sf, power)
    return value


def symplectic_form(l1: CoherentLabel, l2: CoherentLabel) -> float:
    """int (p1.q2 - q1.p2) d^3x, the composition-phase exponent (up to 1/2)."""
    return _pairing_x(l1.p, l2.q) - _pairing_x(l1.q, l2.p)


def coherent_inner_product(l1: CoherentLabel, l2: CoherentLabel) -> complex:
    """Overlap of two displaced-vacuum states.

    Phase factor exp[(i/2) int (p1.q2 - q1.p2)] times the Gaussian overlap
    exp[-(1/4) int d^3k/(2pi)^3 |dP - i|k| dQ|^2 / |k|]; modulus <= 1 with
    equality iff the labels agree.
    """
    phase = np.exp(0.5j * symplectic_form(l1, l2))
    dp = _sub(l1.p, l2.p)
    dq = _sub(l1.q, l2.q)
    # |dP - ik dQ|^2 = |dP|^2 + k^2 |dQ|^2 + 2k Im[dP*.dQ]; the Im pairing
    # vanishes for real position-space profiles by k -> -k parity
    exponent = 0.25 * (_weighted_norm(dp, -1) + _weighted_norm(dq, 1))
    return complex(phase * np.exp(-exponent))


def _sub(a, b):
    return _add(a, _scale(b, -1.0))


def displacement_composition_phase(l1: CoherentLabel, l2: CoherentLabel) -> tuple[complex, CoherentLabel]:
    """Compose two displacements: unit-modulus phase and the summed label."""
    phase = complex(np.exp(0.5j * symplectic_form(l1, l2)))
    combined = CoherentLabel(p=_add(l1.p, l2.p), q=_add(l1.q, l2.q))
    return phase, combined


def vacuum_overlap_with_gauge_displacement(q_profile) -> float:
    """<0|(0, q)> = exp[-(1/4) int d^3k/(2pi)^3 |k| |q~|^2]; real and positive."""
    return float(np.exp(-0.25 * _weighted_norm(q_profile, 1)))


def mean_electric_field(label: CoherentLabel, x) -> np.ndarray:
    """<E(x)> on the labelled coherent state, from the annihilation-eigenvalue relation.

    Evaluates int d^3k/(2pi)^3 Re[(P(k) - i|k| Q(k)) e^{ik.x}] by direct k-grid
    sum; must reproduce the displacement p(x) at any sample point, which is the
    numerical content of the displaced-field relation.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    # 64 nodes per axis with Nyquist wavenumber 8
    k = 2.0 * np.pi * np.fft.fftfreq(64, d=np.pi / 8.0)
    KX, KY, KZ = np.meshgrid(k, k, k, indexing="ij")
    kvec = np.stack([KX, KY, KZ], axis=-1)
    kmag = np.sqrt(np.sum(kvec * kvec, axis=-1))

    amp = np.zeros(kvec.shape, dtype=complex)
    if not _is_zero(label.p):
        amp += label.p(kvec)
    if not _is_zero(label.q):
        amp += -1j * kmag[..., None] * label.q(kvec)

    dk = float(k[1] - k[0])
    phase = np.exp(1j * (kvec @ x))
    field = np.sum(np.real(amp * phase[..., None]), axis=(0, 1, 2))
    return field * dk**3 / (2.0 * np.pi) ** 3
