"""Spectral integrals of the protocol analysis.

The weighted norms int d^3k/(2pi)^3 |k|^p |a~|^2 of a curl-Gaussian are
Gaussian moments in closed form.  The shared overlap integral
K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) and the commutator integral
are oscillatory; a position-space Monte Carlo oracle checks K(T).  Field
arguments are `CurlGaussian`s, of which only amplitude, sigma, center and
axis are read: the transform a~ enters the closed forms but is never
evaluated.

Every curl-Gaussian pairing reduces to a 1D radial integral: the angular
part is analytic in spherical Bessel functions even for displaced centers and
tilted axes.  That integrand is entire, so K(T) and the commutator integral
are the real and imaginary parts of one integral taken along a
steepest-descent path with fixed Gauss-Legendre panels: no leg oscillates at
the frequency T, and no large terms cancel at large separations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceFailure, ValidationError
from .fields import CurlGaussian, _checked, _integer, _nonnegative, _positive, _set_checked

FOUR_PI_OVER_8PI3 = 4.0 * np.pi / (2.0 * np.pi) ** 3

# on-cone rejection threshold: the distributional cone contribution cannot
# be point-evaluated
CONE_EPS = 1e-9


@dataclass(frozen=True)
class IntegralResult:
    value: float
    estimated_error: float
    method: str  # "steepest-descent" | "monte-carlo"
    samples_or_nodes: int

    def __post_init__(self):
        _set_checked(self, estimated_error=_nonnegative)


# Below |z| = _SERIES_X the closed form of A(z) cancels (at |z| = 1e-4 the two
# terms of j2 are ~3e8 and their sum ~1e-9, at 0.5 it loses three digits); 14
# Taylor terms in z^2 of j_l(z)/z^l, highest first, reach float64 at the switch.
_SERIES_X = 2.0
_SERIES_J0, _SERIES_J2 = (
    np.array([(-0.5) ** n / (math.factorial(n) * math.prod(range(2 * n + 2 * l + 1, 0, -2)))
              for n in range(14)])[::-1]
    for l in (0, 2)
)


def _integrand(k, t: float, alpha: float, dist: float, c_a: float, c_d: float, sides=(1, -1)) -> np.ndarray:
    """k^5 e^{-alpha k^2 + ikt} A(k dist) at complex nodes k.

    A(z) = (j0 - j1/z) c_a + j2(z) c_d, with c_a = n1.n2 and c_d = (d^.n1)(d^.n2),
    is the angular integral of e^{ik.d}[k^2 (n1.n2) - (k.n1)(k.n2)]/(4 pi k^2).
    Below the switch A = (2/3) c_a j0 + (c_d - c_a/3) j2 in series; above it
    A = [P sin z + Q cos z]/z^3, and e^{+-iz} join the exponent so that
    e^{|Im z|} is never formed alone.  sides = (+-1,) keeps the e^{+-iz} part
    alone, which has no series: every node takes the closed form.
    """
    x, y = k.real, k.imag

    def saddle_factor(u, m):
        # e^{-alpha k^2 + iku} on the nodes m, formed around the saddle so
        # that large terms do not cancel
        xm, ym = x[m], y[m]
        return np.exp(ym * (alpha * ym - u) - alpha * xm * xm + 1j * xm * (u - 2.0 * alpha * ym))

    z = k * dist
    small = (np.abs(z) < _SERIES_X) & (len(sides) == 2)
    big = ~small
    # the series forms k^5, the closed form k^2/(2|d|^3) and z^2; a product of
    # floats gives inf where ** would raise
    k_abs = np.abs(k)
    k_s, k_c = (float(k_abs[m].max(initial=0.0)) for m in (small, big))
    cube, z_c, reach = 2.0 * dist * dist * dist, k_c * dist, f"K(T={t!r}): the contour reaches |k| = "
    if math.isinf(k_s * k_s * k_s * k_s * k_s):
        raise ValidationError(f"{reach}{k_s:.3g}, whose k^5 overflows")
    if k_c and math.isinf(cube):
        raise ValidationError(f"separation |d| = {dist!r}: 2|d|^3 leaves the float range")
    if math.isinf(z_c * z_c) or k_c * k_c / np.finfo(float).max > cube:
        raise ValidationError(f"{reach}{k_c:.3g}, whose k^2/(2|d|^3) or (k|d|)^2 overflows")
    # the saddle factor's exponent y(alpha y - u), u <= t + |d|, overflows first when alpha > 1
    y_top = float(np.abs(y).max())
    if math.isinf(y_top * (alpha * y_top + t + dist)):
        raise ValidationError(f"{reach}{float(k_abs.max()):.3g}, whose saddle exponent overflows")
    f = np.empty_like(k)
    z2 = z[small] ** 2
    A = (2.0 / 3.0) * c_a * np.polyval(_SERIES_J0, z2) + (c_d - c_a / 3.0) * z2 * np.polyval(_SERIES_J2, z2)
    f[small] = k[small] ** 5 * A * saddle_factor(t, small)
    if big.any():
        zb = z[big]
        P = (c_a - c_d) * zb * zb + (3.0 * c_d - c_a)
        Q = (c_a - 3.0 * c_d) * zb
        parts = [(Q - 1j * (s * P)) * saddle_factor(t + s * dist, big) for s in sides]
        f[big] = k[big] ** 2 / (2.0 * dist**3) * sum(parts[1:], parts[0])
    return f


# the contour is summed in 64-node Gauss-Legendre panels; a vertical leg
# splits where the saddle factor falls to e^-_SPLIT_DECAY, a horizontal leg
# is one panel while the parts' beat spans at most _PANEL_PHASE radians on
# it, and the estimate is _ROUNDING_ULPS ulps of the sum of |node terms|
_GL_T, _GL_W = np.polynomial.legendre.leggauss(64)
_SPLIT_DECAY = 60.0
_PANEL_PHASE = 50.0
_ROUNDING_ULPS = 16


def _vertical_leg(start: complex, b: float, alpha: float) -> list:
    """Points from `start` to the saddle of e^{-alpha k^2 + iku}, b = u - 2 alpha Im start."""
    h = b / (2.0 * alpha)
    disc = b * b - 4.0 * alpha * _SPLIT_DECAY
    # the smaller root of alpha s^2 - |b| s = -_SPLIT_DECAY, or halfway when there is none
    split = min(0.5 * abs(h), 2.0 * _SPLIT_DECAY / (abs(b) + math.sqrt(disc))) if disc > 0.0 else 0.5 * abs(h)
    return [start, start + 1j * math.copysign(split, b), start + 1j * h] if b else [start]


def _contour_pairing(f1: CurlGaussian, f2: CurlGaussian, t: float) -> tuple[complex, float, int]:
    """pref J(t) = int d^3k/(2pi)^3 |k| e^{i|k|t} Re[f1~(k)* . f2~(k)] for t > 0.

    J(t) = int_0^inf k^5 e^{-alpha k^2} A(k|d|) e^{ikt} dk has an entire
    integrand, so the path runs from 0 up the imaginary axis to the saddle ih
    of e^{-alpha k^2 + ik(t - |d|)}, h = max(t - |d|, 0)/(2 alpha), then along
    k = x + ih to x = 8/sqrt(alpha).  On the first leg k^5 A dk is real; on
    the second one part beats at 2|d| rad per unit x.  Where one panel cannot
    resolve that, or h = 0, the leg stops at x = 2/|d| when that comes first,
    and each part, in e^{ik(t +- |d|)}, runs on to its own saddle and along
    it.  At most seven panels.  Returns (pref J, rounding bound, node count).
    """
    t = _positive(t, "T")
    d = f2.center_vec - f1.center_vec
    dist = float(np.linalg.norm(d))
    n1, n2 = f1.axis_vec, f2.axis_vec
    c_a = float(n1 @ n2)
    c_d = float((d @ n1) * (d @ n2)) / (dist * dist) if dist > 0.0 else 0.0
    s1, s2 = f1.sigma, f2.sigma
    amp = f1.amplitude * f2.amplitude
    # a power raises on overflow and a product goes to inf; a prefactor that
    # underflows to 0 zeroes K(T), or makes it NaN against an overflowing k^5
    try:
        pref = FOUR_PI_OVER_8PI3 * amp * (2.0 * np.pi * s1**2) ** 1.5 * (2.0 * np.pi * s2**2) ** 1.5
    except OverflowError:
        pref = math.inf
    if math.isinf(pref) or (pref == 0.0 and amp != 0.0):
        raise ValidationError(f"widths sigma = {s1!r} and {s2!r}: the K(T) prefactor leaves the float range")
    alpha = 0.5 * (s1**2 + s2**2)

    x_max = 8.0 / math.sqrt(alpha)
    b = t - dist
    shared = _vertical_leg(0j, max(b, 0.0), alpha)
    m = (len(shared) - 1) * len(_GL_T)
    separate = dist * x_max > _SERIES_X and (b <= 0.0 or 2.0 * dist * x_max > _PANEL_PHASE)
    shared.append((_SERIES_X / dist if separate else x_max) + 1j * shared[-1].imag)
    legs = [(shared, (1, -1))]
    for s in (1, -1) if separate else ():
        # from the shared leg's end to the saddle of the e^{ik(t + s|d|)} part, and along it
        leg = _vertical_leg(shared[-1], min(t + s * dist, (1 + s) * dist), alpha)
        legs.append((leg + [x_max + 1j * leg[-1].imag], (s,)))
    terms = []
    for points, sides in legs:
        path = np.array(points)
        half = 0.5 * np.diff(path)
        k = (path[:-1] + half * (1.0 + _GL_T[:, None])).T.ravel()
        terms.append((half * _GL_W[:, None]).T.ravel() * _integrand(k, t, alpha, dist, c_a, c_d, sides))
    terms = np.concatenate(terms)
    J = terms[:m].real.sum() + terms[m:].sum()
    err = _ROUNDING_ULPS * np.finfo(float).eps * pref * float(np.abs(terms).sum())
    return pref * complex(J), err, len(terms)


def weighted_spectral_integral(field: CurlGaussian, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^power |a~(k)|^2 for power in {0, 1, 2}, in closed form.

    With |a~|^2 = A^2 (2 pi sigma^2)^3 e^{-sigma^2 k^2} |k x n|^2 the angular
    factor is 8 pi/3 and the radial integral a Gaussian moment, giving
    A^2 sigma^(1-p) (4 pi/3) Gamma((p+5)/2).  power=0 is the Parseval norm,
    power=1 the damping exponent, power=2 twice the input energy.  A norm
    beyond the float range is inf: the powers are products, which overflow
    to inf where `**` would raise.
    """
    if power not in (0, 1, 2):
        raise ValidationError(f"power must be in {{0, 1, 2}}, got {power}")
    return (
        field.amplitude * field.amplitude
        * (field.sigma, 1.0, 1.0 / field.sigma)[power]
        * (4.0 * math.pi / 3.0)
        * math.gamma((power + 5) / 2.0)
    )


def d2_delta_offcone(t: float, r2) -> np.ndarray:
    """Second time derivative of the off-cone kernel at squared distance r2 = r^2.

    -(3t^2 + r^2)/(pi^2 (t^2-r^2)^3); the Monte Carlo oracle forms r^2 directly.
    """
    r2 = np.asarray(r2, dtype=float)
    u = t * t - r2
    return -(3.0 * t * t + r2) / (np.pi**2 * (u * u * u))


# K(T) is returned only if its estimated error is at most _KERNEL_RTOL |K|
_KERNEL_RTOL = 1e-6


def overlap_kernel(f_o: CurlGaussian, a_m: CurlGaussian, T: float) -> IntegralResult:
    """K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) d^3x d^3y.

    Evaluated spectrally as -int d^3k/(2pi)^3 |k| cos(|k|T) Re[f_o~(k)*.a_m~(k)], the
    real part of `_contour_pairing`; the overall sign is pinned by agreement with
    `brute_force_overlap_oracle`.
    Symmetric in (f_o, a_m) and bilinear in each argument.
    """
    J, err, n = _contour_pairing(f_o, a_m, T)
    value = -J.real
    # written so that a NaN value or error fails the gate
    if not (math.isfinite(value) and err <= _KERNEL_RTOL * abs(value)):
        raise ToleranceFailure(f"estimated error {err:.3e} exceeds {_KERNEL_RTOL:g} |K| for K(T={T})")
    return IntegralResult(value=value, estimated_error=err, method="steepest-descent", samples_or_nodes=n)


def commutator_residual(f_o: CurlGaussian, a_m: CurlGaussian, T: float) -> float:
    """Spectral value of the equal-support commutator integral.

    Kernel weight is -|k| sin(|k|T), the imaginary part of `_contour_pairing`;
    for causally decoupled configurations the result is of Gaussian-tail size.
    """
    return -_contour_pairing(f_o, a_m, T)[0].imag


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
    T, samples, workers = _checked(
        T=(_positive, T), samples=(_integer(2), samples), workers=(_integer(1), workers)
    )
    wait = min_oracle_wait(f_o, a_m)
    if T <= wait:
        raise ValidationError(
            f"T = {T:.6g} is inside the cone-margin regime; need T > {wait:.6g}"
        )
    if f_o.amplitude == 0.0 or a_m.amplitude == 0.0:
        return IntegralResult(0.0, 0.0, "monte-carlo", samples)

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
            raise ValidationError("sampled pair fell on the light cone")
        field = np.einsum("ij,ij->i", zx, zy)
        field *= cos_axes
        field -= (zx @ na) * (zy @ nf)
        vals = d2_delta_offcone(T, r2)
        vals -= kernel_at_zero
        vals *= field
        vals *= weight
        return float(np.sum(vals)), float(np.sum(vals * vals)), n

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run_batch, range(n_batches)))

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
    )
