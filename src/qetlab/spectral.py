"""Spectral integrals of the protocol analysis.

The weighted norms int d^3k/(2pi)^3 |k|^p |a~|^2 of a curl-Gaussian are
Gaussian moments in closed form.  The shared overlap integral
K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) and the commutator integral
are oscillatory; a position-space Monte Carlo oracle checks K(T).  Field
arguments are `CurlGaussian`s, of which only amplitude, sigma, center and
axis are read: the transform a~ enters the closed forms but is never
evaluated.

Every curl-Gaussian pairing reduces to a 1D radial integral: the angular part is
analytic in spherical Bessel functions even for displaced centers and tilted
axes.  That integrand is entire, so K(T) and the commutator integral are the
real and imaginary parts of one integral taken along a steepest-descent path
with fixed Gauss-Legendre panels: no leg oscillates at the frequency T, and no
large terms cancel at large separations.  `overlap_kernels` takes a pair's T list
in one pass of that path; each K keeps both parts, its rounding bound and nodes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceFailure, ValidationError
from .fields import CurlGaussian, _checked, _integer, _nonnegative, _positive, _separation, _set_checked

FOUR_PI_OVER_8PI3 = 4.0 * np.pi / (2.0 * np.pi) ** 3

# on-cone rejection threshold: the distributional cone contribution cannot
# be point-evaluated
CONE_EPS = 1e-9


@dataclass(frozen=True)
class IntegralResult:
    value: float
    estimated_error: float

    def __post_init__(self):
        _set_checked(self, estimated_error=_nonnegative)


@dataclass(frozen=True)
class KernelResult:
    """K(T) and the commutator integral of one contour, the rounding bound of both, and its node count."""

    value: float
    commutator: float
    estimated_error: float
    samples_or_nodes: int


# Below |z| = _SERIES_X the closed form of A(z) cancels (at |z| = 1e-4 the two
# terms of j2 are ~3e8 and their sum ~1e-9, at 0.5 it loses three digits); 14
# Taylor terms in z^2 of j_l(z)/z^l, highest first, reach float64 at the switch.
_SERIES_X = 2.0
_SERIES_J0, _SERIES_J2 = (
    np.array([(-0.5) ** n / (math.factorial(n) * math.prod(range(2 * n + 2 * l + 1, 0, -2)))
              for n in range(14)])[::-1]
    for l in (0, 2)
)


def _integrand(k, t, alpha: float, dist: float, c_a: float, c_d: float, sides=(1, -1)) -> np.ndarray:
    """k^5 e^{-alpha k^2 + ikt} A(k dist) at complex nodes k, each with its own t.

    A(z) = (j0 - j1/z) c_a + j2(z) c_d, with c_a = n1.n2 and c_d = (d^.n1)(d^.n2),
    is the angular integral of e^{ik.d}[k^2 (n1.n2) - (k.n1)(k.n2)]/(4 pi k^2).
    Below the switch A = (2/3) c_a j0 + (c_d - c_a/3) j2 in series; above it
    A = [P sin z + Q cos z]/z^3, and e^{+-iz} join the exponent so that
    e^{|Im z|} is never formed alone.  sides = (+-1,) keeps the e^{+-iz} part
    alone, which has no series: every node takes the closed form.
    """

    def saddle_factor(u, m):
        # e^{-alpha k^2 + iku} on the nodes m, formed around the saddle so
        # that large terms do not cancel
        xm, ym, u = k.real[m], k.imag[m], u[m]
        return np.exp(ym * (alpha * ym - u) - alpha * xm * xm + 1j * xm * (u - 2.0 * alpha * ym))

    z = k * dist
    small = (np.abs(z) < _SERIES_X) & (len(sides) == 2)
    big = ~small
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
# a pass forms the nodes of _CHUNK_TS t's at a time, about 36 KB per t on a
# three-panel pair: a long T list keeps a bounded peak, and a scenario's few T's are one chunk
_CHUNK_TS = 256


def _vertical_leg(start: complex, b: float, alpha: float) -> list:
    """Points from `start` to the saddle of e^{-alpha k^2 + iku}, b = u - 2 alpha Im start."""
    h = b / (2.0 * alpha)
    disc = b * b - 4.0 * alpha * _SPLIT_DECAY
    # the smaller root of alpha s^2 - |b| s = -_SPLIT_DECAY, or halfway when there is none
    split = min(0.5 * abs(h), 2.0 * _SPLIT_DECAY / (abs(b) + math.sqrt(disc))) if disc > 0.0 else 0.5 * abs(h)
    return [start, start + 1j * math.copysign(split, b), start + 1j * h] if b else [start]


def _contour_pairing(f1: CurlGaussian, f2: CurlGaussian, ts):
    """pref J(t) = int d^3k/(2pi)^3 |k| e^{i|k|t} Re[f1~(k)* . f2~(k)] for each t > 0 of ts.

    J(t) = int_0^inf k^5 e^{-alpha k^2} A(k|d|) e^{ikt} dk has an entire
    integrand, so the path runs from 0 up the imaginary axis to the saddle ih
    of e^{-alpha k^2 + ik(t - |d|)}, h = max(t - |d|, 0)/(2 alpha), then along
    k = x + ih to x = 8/sqrt(alpha).  On the first leg k^5 A dk is real; on
    the second one part beats at 2|d| rad per unit x.  Where one panel cannot
    resolve that, or h = 0, the leg stops at x = 2/|d| when that comes first,
    and each part, in e^{ik(t +- |d|)}, runs on to its own saddle and along
    it.  At most seven panels per t.  Every t is checked first, then the t's
    are taken in chunks of `_CHUNK_TS`, so a pass holds at most one chunk's
    nodes: in a chunk the legs with the same parts, of all its t's, go through
    one `_integrand` call, then each t's terms are summed alone, in its legs'
    order.  Yields (pref J, rounding bound, node count) per t, in order; raises
    at a non-finite term, before the next chunk is formed.

    Lengths are in units of `scale`, the wider width rounded down to a power
    of two, so each float is its caller-unit value times a power of two.  The
    exponent's real part is a sum of two terms <= 0, whose overflow is -inf
    (exp gives 0); any other overflow leaves inf or NaN in a term: refused.
    """
    Ts = [_positive(t, "T") for t in ts]
    sep, c_d = _separation(f1, f2)
    c_a = float(f1.axis_vec @ f2.axis_vec)
    scale = math.ldexp(1.0, math.frexp(max(f1.sigma, f2.sigma))[1] - 1)
    s1, s2, dist = f1.sigma / scale, f2.sigma / scale, sep / scale
    amp = f1.amplitude * f2.amplitude
    pref = FOUR_PI_OVER_8PI3 * amp * (2.0 * np.pi * s1**2) ** 1.5 * (2.0 * np.pi * s2**2) ** 1.5
    if math.isinf(2.0 * dist * dist * dist):
        raise ValidationError(f"separation |d| = {sep!r}: 2|d|^3 in units of {scale!r} leaves the float range")
    if not math.isfinite(pref) or (pref == 0.0 and amp != 0.0):
        cause = (f"widths sigma = {f1.sigma!r} and {f2.sigma!r}" if math.isfinite(amp)
                 else f"amplitudes {f1.amplitude!r} and {f2.amplitude!r}")
        raise ValidationError(f"{cause}: the K(T) prefactor leaves the float range")
    alpha = 0.5 * (s1**2 + s2**2)

    x_max = 8.0 / math.sqrt(alpha)
    for lo in range(0, len(Ts), _CHUNK_TS):
        chunk = Ts[lo:lo + _CHUNK_TS]
        panels, plans = {}, []  # parts -> (start, end, t, index in chunk) of each panel; per t, its legs and m
        for i, T in enumerate(chunk):
            t = T / scale
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
            for points, sides in legs:
                panels.setdefault(sides, []).extend((p, q, t, i) for p, q in zip(points[:-1], points[1:]))
            plans.append((legs, m))
        pieces = []  # per parts, each t's terms
        with np.errstate(over="ignore", invalid="ignore"):
            for sides, group in panels.items():
                start, end, t_panel, owner = map(np.array, zip(*group))
                half = 0.5 * (end - start)
                k = (start + half * (1.0 + _GL_T[:, None])).T.ravel()
                t_node = np.repeat(t_panel, len(_GL_T))
                terms = (half * _GL_W[:, None]).T.ravel() * _integrand(k, t_node, alpha, dist, c_a, c_d, sides)
                pieces.append(np.split(terms, len(_GL_T) * np.cumsum(np.bincount(owner, minlength=len(chunk)))[:-1]))
            sums = [(terms, float(np.abs(terms).sum())) for terms in map(np.concatenate, zip(*pieces))]
        for T, (legs, m), (terms, size) in zip(chunk, plans, sums):
            if not math.isfinite(size):
                reach = max(abs(p) for points, _ in legs for p in points) / scale
                raise ValidationError(f"K(T={T!r}): the contour reaches |k| = {reach:.3g}, where its terms leave the float range")
            J = terms[:m].real.sum() + terms[m:].sum()
            err = _ROUNDING_ULPS * np.finfo(float).eps * abs(pref) * size
            yield pref * complex(J), err, len(terms)


def weighted_spectral_integral(field: CurlGaussian, power: int) -> float:
    """int d^3k/(2pi)^3 |k|^power |a~(k)|^2 for power in {0, 1, 2}, in closed form.

    With |a~|^2 = A^2 (2 pi sigma^2)^3 e^{-sigma^2 k^2} |k x n|^2 the angular
    factor is 8 pi/3 and the radial integral a Gaussian moment, giving
    A^2 sigma^(1-p) (4 pi/3) Gamma((p+5)/2).  power=0 is the Parseval norm,
    power=1 the damping exponent, power=2 twice the input energy.  A norm
    beyond the float range is inf: the powers are products, which overflow
    to inf where `**` would raise.
    """
    if isinstance(power, bool) or not isinstance(power, numbers.Integral) or power not in (0, 1, 2):
        raise ValidationError(f"power must be in {{0, 1, 2}}, got {power!r}")
    return (
        field.amplitude * field.amplitude
        * (field.sigma, 1.0, 1.0 / field.sigma)[power]
        * (4.0 * math.pi / 3.0)
        * math.gamma((power + 5) / 2.0)
    )


def d2_delta_offcone(t: float, r2) -> np.ndarray:
    """Second time derivative of the off-cone kernel at squared distance r2 = r^2.

    -(3t^2 + r^2)/(pi^2 (t^2-r^2)^3); the Monte Carlo oracle forms r^2 directly and
    repeats these operations, in this order, in place on its blocks.
    """
    r2 = np.asarray(r2, dtype=float)
    u = t * t - r2
    return -(3.0 * t * t + r2) / (np.pi**2 * (u * u * u))


# K(T) is returned only if its estimated error is at most _KERNEL_RTOL |K|
_KERNEL_RTOL = 1e-6


def overlap_kernel(f_o: CurlGaussian, a_m: CurlGaussian, T: float) -> KernelResult:
    """K(T) = int int d_T^2 Delta(T, x-y) f_o(x).a_m(y) d^3x d^3y, with the commutator integral.

    K is -int d^3k/(2pi)^3 |k| cos(|k|T) Re[f_o~(k)*.a_m~(k)], the real part of `_contour_pairing`,
    its sign pinned by `brute_force_overlap_oracle`; the commutator, of weight -|k| sin(|k|T), is the
    imaginary part, Gaussian-tail small for causally decoupled fields.  Symmetric, bilinear in each.
    """
    return overlap_kernels(f_o, a_m, [T])[0]


def overlap_kernels(f_o: CurlGaussian, a_m: CurlGaussian, Ts) -> list[KernelResult]:
    """`overlap_kernel` at each T of the sequence Ts, bit for bit, from one contour pass; the first T that fails raises."""
    results = []
    for T, (J, err, n) in zip(Ts, _contour_pairing(f_o, a_m, Ts)):
        value = -J.real
        # written so that a NaN value or error fails the gate
        if not (math.isfinite(value) and err <= _KERNEL_RTOL * abs(value)):
            raise ToleranceFailure(f"estimated error {err:.3e} exceeds {_KERNEL_RTOL:g} |K| for K(T={T})")
        results.append(KernelResult(value=value, commutator=-J.imag, estimated_error=err, samples_or_nodes=n))
    return results


def min_oracle_wait(f_o: CurlGaussian, a_m: CurlGaussian) -> float:
    """Smallest T keeping every sampled pair strictly inside the light cone."""
    return f_o.effective_radius + a_m.effective_radius + _separation(f_o, a_m)[0] + max(f_o.sigma, a_m.sigma)


_MC_BATCH = 1 << 16
# samples per block inside a batch: a block's rows (128 KiB each) stay in a core's L2
_MC_BLOCK = 1 << 14


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
    and make the relative error grow like T^2.  The envelopes cancel against
    p, leaving (z_x x n_f).(z_y x n_a).  The kernel reads only r^2 = |d + s u|^2,
    d = c_f - c_a, with s^2 = sigma_f^2 + sigma_a^2 and u = (sigma_f z_x - sigma_a z_y)/s,
    independent of v = (sigma_a z_x + sigma_f z_y)/s; the field product's mean over v
    is (sigma_f sigma_a/s^2)[(n_f.n_a)(2 - |u|^2) + (u.n_f)(u.n_a)].  Along e = d^, or
    for d = 0 a direction with c_d = 0, r^2 = (|d| + s u_e)^2 + s^2 rho^2 for u_e = u.e and
    rho^2 = |u_perp|^2; u_perp's direction is uniform, and the mean over it is
    (n_f.n_a)(2 - u_e^2 - rho^2) + u_e^2 c_d + (rho^2/2)(n_f.n_a - c_d), c_d = (d^.n_f)(d^.n_a).
    So a sample draws u_e ~ N(0, 1) and rho^2 ~ chi^2_2 alone (Rao-Blackwell: same
    mean, no larger variance).  Batch seeds are spawned deterministically and batch
    sums reduced in index order.  Inside a batch the arithmetic runs in blocks of
    _MC_BLOCK samples, but the values and their squares are each summed once over the
    whole batch, so a fixed (seed, samples) gives the same bits at every worker count
    and every block size.
    """
    T, samples, workers = _checked(T=(_positive, T), samples=(_integer(2), samples), workers=(_integer(1), workers))
    wait = min_oracle_wait(f_o, a_m)
    if T <= wait:
        raise ValidationError(f"T = {T:.6g} is inside the cone-margin regime; need T > {wait:.6g}")
    # f/p ratios: the Gaussian envelope cancels, leaving w sigma (z x n) per
    # field; both weights, both widths and the v average fold into one constant
    sf, sa = f_o.sigma, a_m.sigma
    s = math.hypot(sf, sa)
    wf = -f_o.amplitude * (2.0 * np.pi * sf**2) ** 1.5 / sf**2
    wa = -a_m.amplitude * (2.0 * np.pi * sa**2) ** 1.5 / sa**2
    weight = wf * wa * sf * sa * (sf / s) * (sa / s)
    sep, c_d = _separation(f_o, a_m)
    cos_axes = float(f_o.axis_vec @ a_m.axis_vec)
    T2 = T * T
    kernel_at_zero = float(d2_delta_offcone(T, 0.0))

    n_batches = (samples + _MC_BATCH - 1) // _MC_BATCH
    batch_seeds = np.random.SeedSequence(seed).spawn(n_batches)

    # where every T^2 - r^2 of a block exceeds this floor, each r^2 < T^2, so each cone
    # bound CONE_EPS (T^2 + r^2) < 2 CONE_EPS T^2, and the margin covers rounding: no sample
    # of the block is on the cone, and the exact check below is skipped
    cone_floor = 2.1 * CONE_EPS * T2
    three_T2 = 3.0 * T * T
    rho2_coef, ue2_coef, field_const = 0.5 * (cos_axes - c_d) - cos_axes, c_d - cos_axes, 2.0 * cos_axes

    def run_batch(i: int) -> tuple[float, float]:
        n = min(_MC_BATCH, samples - i * _MC_BATCH)
        rng = np.random.default_rng(batch_seeds[i])
        ue = rng.standard_normal(n)
        rho2 = rng.standard_exponential(n)
        # block by block, with d2_delta_offcone's arithmetic in its order; each block's
        # values overwrite its draws in ue and their squares in rho2, so the two sums
        # run over the whole batch whatever the block size.  In a block, e holds u_e, then
        # intermediates, then the values; r holds r^2; w holds T^2 - r^2; f the field factor
        r2, u, field = (np.empty(min(n, _MC_BLOCK)) for _ in range(3))
        for lo in range(0, n, _MC_BLOCK):
            e, q = ue[lo:lo + _MC_BLOCK], rho2[lo:lo + _MC_BLOCK]
            r, w, f = r2[:len(e)], u[:len(e)], field[:len(e)]
            q *= 2.0  # chi^2 with 2 degrees of freedom
            np.multiply(e, s, out=r)
            r += sep
            r *= r
            np.multiply(q, s * s, out=w)
            r += w
            np.subtract(T2, r, out=w)
            if not w.min() > cone_floor and np.any(np.abs(w) <= CONE_EPS * (T2 + r)):
                raise ValidationError("sampled pair fell on the light cone")
            e *= e
            np.multiply(q, rho2_coef, out=f)
            e *= ue2_coef
            f += e
            f += field_const
            r += three_T2
            np.multiply(w, w, out=e)
            e *= w
            e *= np.pi**2
            np.divide(r, e, out=e)
            np.negative(e, out=e)
            e -= kernel_at_zero
            e *= f
            e *= weight
            np.multiply(e, e, out=q)
        return float(np.sum(ue)), float(np.sum(rho2))

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run_batch, range(n_batches)))

    total, total_sq = (math.fsum(col) for col in zip(*parts))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return IntegralResult(value=mean, estimated_error=math.sqrt(var / samples))
