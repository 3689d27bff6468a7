"""Spectral integrals of the protocol analysis.

The weighted norms int d^3k/(2pi)^3 |k|^p |a~|^2 of a curl-Gaussian are
Gaussian moments in closed form.  The light-cone kernels, the shared overlap
integral K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) and the commutator
integral are oscillatory; an independent position-space Monte Carlo oracle
checks K(T).  Field arguments are `CurlGaussian`s, of which only amplitude,
sigma, center and axis are read: the transform a~ enters the closed forms
but is never evaluated.

Every curl-Gaussian pairing reduces to a 1D radial integral: the angular
part is analytic in spherical Bessel functions even for displaced centers and
tilted axes.  Oscillatory cos(kT)/sin(kT) weights go through QUADPACK's
weight-aware rules, which stay accurate through the ~1e-12 cancellation level
needed at large separations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import LightConeError, ToleranceFailure, ValidationError
from .fields import CurlGaussian, _checked, _integer, _nonnegative, _positive, _real, _set_checked

FOUR_PI_OVER_8PI3 = 4.0 * np.pi / (2.0 * np.pi) ** 3

# on-cone rejection threshold: the distributional cone contribution cannot
# be point-evaluated
CONE_EPS = 1e-9


@dataclass(frozen=True)
class IntegralResult:
    value: float
    estimated_error: float
    method: str  # "closed-form" | "radial-quadrature" | "monte-carlo"
    samples_or_nodes: int
    seed: int | None = None

    def __post_init__(self):
        _set_checked(self, estimated_error=_nonnegative)


# Below _SERIES_X the closed forms cancel catastrophically (at x = 1e-4 the two
# terms of j2 are ~3e8 and their sum ~1e-9); Taylor coefficients in x^2 of
# j0 - j1/x and of j2/x^2, through x^14, reach float64 accuracy at the switch.
_SERIES_X = 0.5


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


_SERIES_J01 = tuple(
    (-1) ** n * (2 * n + 2) / (2**n * math.factorial(n) * _double_factorial(2 * n + 3))
    for n in range(8)
)
_SERIES_J2 = tuple(
    (-1) ** n / (2**n * math.factorial(n) * _double_factorial(2 * n + 5)) for n in range(7)
)


def _angular_factor(x: float, cos_axes: float, cos_d1: float, cos_d2: float) -> float:
    """Angular integral of e^{ik.d} [k^2 (n1.n2) - (k.n1)(k.n2)] / (4 pi k^2).

    Equals (j0(x) - j1(x)/x)(n1.n2) + j2(x)(d^.n1)(d^.n2) with x = k|d|;
    at d = 0 it reduces to (2/3)(n1.n2).  Scalar `math` arithmetic, because
    QUADPACK calls the integrand one node at a time.
    """
    if x < _SERIES_X:
        # Horner in x^2, unrolled: a loop would triple the cost of each node
        x2 = x * x
        a0, a1, a2, a3, a4, a5, a6, a7 = _SERIES_J01
        b0, b1, b2, b3, b4, b5, b6 = _SERIES_J2
        j01 = a0 + x2 * (a1 + x2 * (a2 + x2 * (a3 + x2 * (a4 + x2 * (a5 + x2 * (a6 + x2 * a7))))))
        j2 = x2 * (b0 + x2 * (b1 + x2 * (b2 + x2 * (b3 + x2 * (b4 + x2 * (b5 + x2 * b6))))))
    else:
        # j1(x)/x = (j0 - cos x)/x^2 and j2 = 3 j1(x)/x - j0
        j0 = math.sin(x) / x
        j1_over_x = (j0 - math.cos(x)) / (x * x)
        j01 = j0 - j1_over_x
        j2 = 3.0 * j1_over_x - j0
    return j01 * cos_axes + j2 * cos_d1 * cos_d2


def _pair_geometry(f1: CurlGaussian, f2: CurlGaussian):
    d = f2.center_vec - f1.center_vec
    dist = float(np.linalg.norm(d))
    n1 = f1.axis_vec
    n2 = f2.axis_vec
    cos_axes = float(n1 @ n2)
    if dist > 0.0:
        dhat = d / dist
        cos_d1 = float(dhat @ n1)
        cos_d2 = float(dhat @ n2)
    else:
        cos_d1 = cos_d2 = 0.0
    return dist, cos_axes, cos_d1, cos_d2


def _radial_pairing(
    f1: CurlGaussian, f2: CurlGaussian, trig: str, t: float
) -> tuple[float, float, int]:
    """int d^3k/(2pi)^3 |k| trig(|k| t) Re[f1~(k)* . f2~(k)] for closed forms.

    Returns (value, error estimate, evaluations).
    """
    amp = f1.amplitude * f2.amplitude
    if amp == 0.0:
        return 0.0, 0.0, 0
    dist, cos_axes, cos_d1, cos_d2 = _pair_geometry(f1, f2)
    s1, s2 = f1.sigma, f2.sigma
    pref = (
        FOUR_PI_OVER_8PI3
        * amp
        * (2.0 * np.pi * s1**2) ** 1.5
        * (2.0 * np.pi * s2**2) ** 1.5
    )
    alpha = 0.5 * (s1**2 + s2**2)

    def g(k):
        return k**5 * math.exp(-alpha * k * k) * _angular_factor(k * dist, cos_axes, cos_d1, cos_d2)

    # Gaussian weight absorbs the tail: e^{-alpha k_max^2} < 1e-14
    k_max = 8.0 / math.sqrt(alpha)
    # full_output silences QUADPACK; a missed target shows in the error estimate
    val, err, info = quad(
        g, 0.0, k_max, weight=trig, wvar=t, limit=800, epsabs=1e-13, epsrel=1e-11, full_output=1
    )[:3]
    return pref * val, pref * err, info["neval"]


# Rounding bound of the closed-form norms: against 40-digit arithmetic the
# float64 expression stays within 5 ulp over amplitudes 1e-3..5e3, widths
# 0.01..50 and all three powers.
_NORM_ROUNDING_ULPS = 8


def weighted_spectral_integral(field: CurlGaussian, power: int) -> IntegralResult:
    """int d^3k/(2pi)^3 |k|^power |a~(k)|^2 for power in {0, 1, 2}, in closed form.

    With |a~|^2 = A^2 (2 pi sigma^2)^3 e^{-sigma^2 k^2} |k x n|^2 the angular
    factor is 8 pi/3 and the radial integral a Gaussian moment, giving
    A^2 sigma^(1-p) (4 pi/3) Gamma((p+5)/2).  power=0 is the Parseval norm,
    power=1 the damping exponent, power=2 twice the input energy.
    """
    if power not in (0, 1, 2):
        raise ValidationError(f"power must be in {{0, 1, 2}}, got {power}")
    value = (
        field.amplitude**2
        * field.sigma ** (1 - power)
        * (4.0 * math.pi / 3.0)
        * math.gamma((power + 5) / 2.0)
    )
    return IntegralResult(
        value=value,
        estimated_error=_NORM_ROUNDING_ULPS * math.ulp(value),
        method="closed-form",
        samples_or_nodes=0,
    )


def _off_cone(t: float, r: float) -> float:
    """t^2 - r^2 for finite t, r >= 0 off the light cone; the kernel is distributional on it."""
    t, r = _checked(t=(_real, t), r=(_nonnegative, r))
    u = t * t - r * r
    if abs(u) <= CONE_EPS * (t * t + r * r):
        raise LightConeError(
            f"(t={t}, r={r}) lies on the light cone; the kernel is distributional there"
        )
    return u


def pauli_jordan_delta(t: float, r: float) -> float:
    """Off-cone closed form -1/(2 pi^2 (t^2 - r^2)); rejects on-cone input."""
    return -1.0 / (2.0 * np.pi**2 * _off_cone(t, r))


def pauli_jordan_delta_quadrature(t: float, r: float) -> IntegralResult:
    """Oscillatory-quadrature route to the same value.

    Integrates the damped radial Fourier integral for damping strengths 0.05,
    0.025 and 0.0125 and Richardson-extrapolates in the damping squared (the residual is even).
    """
    _off_cone(t, r)

    def damped(epsilon: float) -> float:
        if r == 0.0:
            # angular limit: (1/2pi^2) int k cos(kt) e^{-eps k} dk
            val, _ = quad(lambda k: k * np.exp(-epsilon * k), 0, np.inf, weight="cos", wvar=t)
            return val / (2.0 * np.pi**2)
        total = 0.0
        for a in (r + t, r - t):
            if a == 0.0:
                continue
            val, _ = quad(lambda k: np.exp(-epsilon * k), 0, np.inf, weight="sin", wvar=a)
            total += 0.5 * val
        return total / (2.0 * np.pi**2 * r)

    eps = np.array([0.05, 0.025, 0.0125])
    vals = np.array([damped(e) for e in eps])
    # Richardson extrapolation to zero damping: the residual is even in eps
    x = eps**2
    m = len(x)
    table = np.zeros((m, m))
    table[:, 0] = vals
    for j in range(1, m):
        for i in range(m - j):
            table[i, j] = (
                x[i] * table[i + 1, j - 1] - x[i + j] * table[i, j - 1]
            ) / (x[i] - x[i + j])
    best = table[0, m - 1]
    err = abs(best - table[0, m - 2])
    return IntegralResult(
        value=float(best),
        estimated_error=float(err),
        method="radial-quadrature",
        samples_or_nodes=m,
    )


def d2_delta_offcone(t: float, r2) -> np.ndarray:
    """Second time derivative of the off-cone kernel at squared distance r2 = r^2.

    -(3t^2 + r^2)/(pi^2 (t^2-r^2)^3); the Monte Carlo oracle forms r^2 directly.
    """
    r2 = np.asarray(r2, dtype=float)
    u = t * t - r2
    return -(3.0 * t * t + r2) / (np.pi**2 * (u * u * u))


# K(T) is returned only if its estimated error is at most
# max(_KERNEL_ATOL, _KERNEL_RTOL |K|)
_KERNEL_ATOL = 1e-8
_KERNEL_RTOL = 1e-6


def overlap_kernel(f_o: CurlGaussian, a_m: CurlGaussian, T: float) -> IntegralResult:
    """K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) d^3x d^3y.

    Evaluated spectrally as -int d^3k/(2pi)^3 |k| cos(|k|T) Re[f_o~(k)*.a_m~(k)];
    the overall sign is pinned by agreement with `brute_force_overlap_oracle`.
    Symmetric in (f_o, a_m) and bilinear in each argument.
    """
    T = _positive(T, "T")
    value, err, n = _radial_pairing(f_o, a_m, "cos", T)
    # written so that a NaN value or error fails the gate
    if not (math.isfinite(value) and err <= max(_KERNEL_ATOL, _KERNEL_RTOL * abs(value))):
        raise ToleranceFailure(
            f"oscillatory quadrature error {err:.3e} exceeds tolerance for K(T={T})"
        )
    return IntegralResult(
        value=-value, estimated_error=err, method="radial-quadrature", samples_or_nodes=n
    )


def commutator_residual(f_o: CurlGaussian, a_m: CurlGaussian, T: float) -> float:
    """Spectral value of the equal-support commutator integral.

    Kernel weight is -|k| sin(|k|T); for causally decoupled configurations the
    result is compatible with zero at Gaussian-tail level.
    """
    T = _real(T, "T")
    if T == 0.0:
        return 0.0
    value, _, _ = _radial_pairing(f_o, a_m, "sin", abs(T))
    return -float(np.sign(T)) * value


def min_oracle_wait(f_o: CurlGaussian, a_m: CurlGaussian) -> float:
    """Smallest T keeping every sampled pair strictly inside the light cone."""
    sep = float(np.linalg.norm(f_o.center_vec - a_m.center_vec))
    margin = max(f_o.sigma, a_m.sigma)
    return f_o.effective_radius + a_m.effective_radius + sep + margin


_MC_BATCH = 1 << 16


def brute_force_overlap_oracle(
    f_o: CurlGaussian,
    a_m: CurlGaussian,
    T: float,
    samples: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> IntegralResult:
    """Position-space Monte Carlo estimate of K(T), independent of the spectral path.

    Importance-samples x = c_f + sigma_f z_x and y = c_a + sigma_a z_y from the
    Gaussian envelopes of the two fields and averages
    f_o(x).a_m(y) [d_T^2 Delta(T,|x-y|) - d_T^2 Delta(T,0)] / (p(x) p(y)).
    The subtracted constant is a control variate: int f_o . int a_m = 0 for
    curl fields, so it leaves the mean alone and removes the kernel's
    -3/(pi^2 T^4) term, which would otherwise swamp K ~ T^-6 in every sample
    and make the relative error grow like T^2.  The envelopes cancel
    against p, and the field product is taken by the Binet-Cauchy identity
    (z_x x n_f).(z_y x n_a) = (z_x.z_y)(n_f.n_a) - (z_x.n_a)(z_y.n_f), so a
    sample costs two row dot products, two matrix-vector products and the
    kernel of |x-y|^2; drawing its six normals is now most of its cost.
    Batch seeds are spawned deterministically, and batch partial sums are
    reduced in index order, so the result is bit-identical for a fixed
    (seed, samples) pair regardless of worker count.
    """
    T, samples = _checked(T=(_positive, T), samples=(_integer(2), samples))
    wait = min_oracle_wait(f_o, a_m)
    if T <= wait:
        raise ValidationError(
            f"T = {T:.6g} is inside the cone-margin regime; need T > {wait:.6g}"
        )
    if f_o.amplitude == 0.0 or a_m.amplitude == 0.0:
        return IntegralResult(0.0, 0.0, "monte-carlo", samples, seed)

    # f/p ratios: the Gaussian envelope cancels, leaving w sigma (z x n) per
    # field; both weights and widths fold into one constant
    sf, sa = f_o.sigma, a_m.sigma
    nf, na = f_o.axis_vec, a_m.axis_vec
    wf = -f_o.amplitude * (2.0 * np.pi * sf**2) ** 1.5 / sf**2
    wa = -a_m.amplitude * (2.0 * np.pi * sa**2) ** 1.5 / sa**2
    weight = wf * wa * sf * sa
    cos_axes = float(nf @ na)
    offset = f_o.center_vec - a_m.center_vec
    T2 = T * T
    kernel_at_zero = float(d2_delta_offcone(T, 0.0))

    n_batches = (samples + _MC_BATCH - 1) // _MC_BATCH
    batch_seeds = np.random.SeedSequence(seed).spawn(n_batches)

    def run_batch(i: int) -> tuple[float, float, int]:
        n = min(_MC_BATCH, samples - i * _MC_BATCH)
        rng = np.random.default_rng(batch_seeds[i])
        zx = rng.standard_normal((n, 3))
        zy = rng.standard_normal((n, 3))
        # d = x - y = (c_f - c_a) + sigma_f z_x - sigma_a z_y
        d = zx * sf
        d -= sa * zy
        d += offset
        r2 = np.einsum("ij,ij->i", d, d)
        if np.any(np.abs(T2 - r2) <= CONE_EPS * (T2 + r2)):
            raise LightConeError("sampled pair fell on the light cone")
        field = np.einsum("ij,ij->i", zx, zy)
        field *= cos_axes
        field -= (zx @ na) * (zy @ nf)
        vals = d2_delta_offcone(T, r2)
        vals -= kernel_at_zero
        vals *= field
        vals *= weight
        return float(np.sum(vals)), float(np.sum(vals * vals)), n

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_batch, range(n_batches)))
    else:
        parts = [run_batch(i) for i in range(n_batches)]

    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return IntegralResult(
        value=mean,
        estimated_error=stderr,
        method="monte-carlo",
        samples_or_nodes=samples,
        seed=seed,
    )
