"""`qetlab verify`: the oracle cross-checks as one table of (name, value, reference,
tolerance) rows, and the routes only those rows read; both K rows read the unit pair's
one K(14) record.  A row passes when abs(value - reference) <= tolerance, which a NaN
fails.  Only `cli` imports this module, so `import qetlab` loads no check code.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ToleranceFailure, ValidationError
from .fields import CurlGaussian, _checked, _nonnegative, _real
from .protocols import PairInvariants, damping_oscillator, damping_spin, teleport
from .spectral import (
    CONE_EPS,
    brute_force_overlap_oracle,
    d2_delta_offcone,
    weighted_spectral_integral,
)


def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Hermite nodes u and weights w e^{u^2}: exact for the plain integral
    of any e^{-u^2} times a polynomial of degree < 2n."""
    u, w = hermgauss(n)
    return u, w * np.exp(u * u)


def input_energy_position_oracle(a_m: CurlGaussian) -> float:
    """Independent route to E_m: (1/2) int (curl a)^2 d^3x by a tensor Gauss-Hermite rule.

    At x = c + sigma u, (curl a)^2 is e^{-|u|^2} times a polynomial of degree
    <= 4 in each component of u; 4 nodes per axis are exact through degree 7.
    """
    u, w = _hermite_rule(4)
    x = np.stack(np.meshgrid(*(c + a_m.sigma * u for c in a_m.center_vec), indexing="ij"), axis=-1)
    curl2 = np.sum(a_m.curl(x) ** 2, axis=-1)
    return 0.5 * a_m.sigma**3 * float(np.einsum("ijk,i,j,k->", curl2, w, w, w))


def povm_identity_check(g_values) -> dict[str, float]:
    """Scalar reductions of the measurement-operator identities at fixed eigenvalue.

    The Gaussian pointer kernel M_q(g) = (2/pi)^{1/4} exp[-(q-g)^2] gives
    moments 1, g, g^2 + 1/4 (completeness, first_moment, second_moment); the
    binary-probe pair (cos g, sin g) satisfies cos^2 g + sin^2 g = 1
    (spin_completeness) and cos^2 g - sin^2 g = cos 2g (spin_signed_sum).
    Returns each identity's max absolute residual over g_values, by name.
    """
    g = np.atleast_1d(np.asarray(g_values, dtype=float))
    # M_q^2 is e^{-2(q-g)^2} times a constant, so at q = g + v/sqrt(2) each
    # moment is e^{-v^2} times a polynomial of degree <= 2: 2 nodes are exact
    v, w = _hermite_rule(2)
    q = g[:, None] + v / math.sqrt(2.0)
    kernel = math.sqrt(2.0 / np.pi) * np.exp(-2.0 * (q - g[:, None]) ** 2)
    m0, m1, m2 = ((kernel * q**n) @ w / math.sqrt(2.0) for n in range(3))
    c2, s2 = np.cos(g) ** 2, np.sin(g) ** 2
    residuals = {"completeness": m0 - 1.0, "first_moment": m1 - g, "second_moment": m2 - (g * g + 0.25),
                 "spin_completeness": c2 + s2 - 1.0, "spin_signed_sum": c2 - s2 - np.cos(2.0 * g)}
    return {name: float(np.max(np.abs(r))) for name, r in residuals.items()}


def _fourier_moment(p: int, w: float, cosine: bool) -> float:
    """int_0^inf k^p sin(w k) dk, or k^p cos(w k), for w > 0 in the Abel sense.

    The double-exponential rule for Fourier-type integrals (Ooura & Mori, J.
    Comput. Appl. Math. 112 (1999) 229-241), step h = 0.1 and beta = 1/4 on
    s in [-6, 6]: k = M phi(s)/w with M = pi/h, phi = s (1 + q),
    q = 1/(e^u - 1) and u = 2s + alpha(1 - e^{-s}) + beta(e^s - 1).  At the
    nodes s = (j - c/2) h, c = 1 for the cosine, M s is a zero of the
    oscillating factor, which M phi approaches double-exponentially; the
    factor is taken as (-1)^j sin(M s q), free of that zero's rounding.
    Since k -> k/w scales the rule exactly, its relative error depends on p
    alone: 7e-19 (p = 2) and 9e-17 (p = 3) in 40-digit arithmetic, about
    3e-12 and 3e-11 in float64, where node terms of size (M phi)^p cancel.
    A finer step does worse, since those terms grow.
    """
    h, beta = 0.1, 0.25
    M = math.pi / h
    alpha = beta / math.sqrt(1.0 + M * math.log1p(M) / (4.0 * math.pi))
    j = np.arange(cosine - 60, 61)
    s = (j - 0.5 * cosine) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 / np.expm1(2.0 * s - alpha * np.expm1(-s) + beta * np.expm1(s))
        phi, osc = s * (1.0 + q), (-1.0) ** j * np.sin(M * s * q)
        dphi = (1.0 + q) * (1.0 - s * (2.0 + alpha * np.exp(-s) + beta * np.exp(s)) * q)
    if not cosine:  # the node j = 0 at s = 0 takes the limits, with c1 = u'(0)
        c1 = 2.0 + alpha + beta
        phi[60], dphi[60], osc[60] = 1.0 / c1, 0.5 - (beta - alpha) / (2.0 * c1 * c1), math.sin(M / c1)
    return float(np.sum(h * M / w * dphi * (M * phi / w) ** p * osc))


def d2_delta_fourier(t: float, r: float) -> float:
    """d_t^2 Delta(t, r) off the light cone, from its Fourier representation.

    -(1/(4 pi^2 r)) sum_{a = r +- t} sgn(a) int_0^inf k^2 sin(|a| k) dk for r > 0,
    and -(1/(2 pi^2)) int_0^inf k^3 cos(t k) dk at r = 0.  Takes finite t and
    r >= 0 off the light cone, where a frequency |r - t| would be zero.
    """
    t, r = _checked(t=(_real, t), r=(_nonnegative, r))
    if abs(t * t - r * r) <= CONE_EPS * (t * t + r * r):
        raise ValidationError(f"(t={t}, r={r}) lies on the light cone; the kernel is distributional there")
    if r == 0.0:
        return -_fourier_moment(3, abs(t), True) / (2.0 * np.pi**2)
    parts = (math.copysign(1.0, a) * _fourier_moment(2, abs(a), False) for a in (r + t, r - t))
    return -sum(parts) / (4.0 * np.pi**2 * r)


def checks(mc_samples: int) -> list[tuple[str, float, float, float]]:
    """The nine (name, value, reference, tolerance) rows, the Monte Carlo at mc_samples."""
    a = CurlGaussian(1.0, 1.0)
    inv = PairInvariants.of(a, a)
    E_spec, E_pos = inv.E_m, input_energy_position_oracle(a)
    expected = 1.25 * np.pi**1.5
    rows = [
        ("input energy vs position oracle", E_spec, E_pos, 1e-6 * abs(E_pos)),
        ("input energy vs 5 pi^(3/2)/4", E_spec, expected, 1e-6 * expected),
    ]
    for t, r in ((2.0, 1.0), (1.0, 2.0), (10.0, 0.0), (14.0, 3.0)):
        fourier = d2_delta_fourier(t, r)
        rows.append((f"d_t^2 Delta vs Fourier integral at (t, r) = ({t:g}, {r:g})",
                     float(d2_delta_offcone(t, r * r)), fourier, 1e-6 * abs(fourier)))

    K = inv.kernel(14.0).value
    mc = brute_force_overlap_oracle(a, a, 14.0, samples=mc_samples, seed=11)
    rows.append(("overlap kernel vs Monte Carlo", mc.value, K, 3.0 * mc.estimated_error))

    # np.max, unlike max, passes a NaN residual on to the check
    worst = float(np.max(list(povm_identity_check(np.linspace(-10.0, 10.0, 20)).values())))
    rows.append(("measurement identities, max residual", worst, 0.0, 1e-10))

    # I1 in closed form at the scaled field, so the lambda^2 law is under test too
    I1 = weighted_spectral_integral(a.scaled(1.3), 1)
    ratio = damping_oscillator(I1) / damping_spin(I1)
    out = teleport(inv, K, 1.3)
    rows.append(("damping-ratio identity", out.E_o_prime / out.E_o, ratio, 1e-12 * abs(ratio)))
    return rows


def run(mc_samples: int) -> None:
    """Print one PASS/FAIL line per row; raise ToleranceFailure naming every failed row."""
    failures = []
    for name, value, reference, tolerance in checks(mc_samples):
        diff = abs(value - reference)
        ok = diff <= tolerance
        print(
            f"[verify] {name}: {'PASS' if ok else 'FAIL'} (value {value:.12g}, "
            f"reference {reference:.12g}, |diff| {diff:.2e}, tolerance {tolerance:.2e})"
        )
        if not ok:
            failures.append(name)
    if failures:
        raise ToleranceFailure(f"verification failed: {', '.join(failures)}")
    print("[verify] all checks passed")
