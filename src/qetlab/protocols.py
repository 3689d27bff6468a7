"""The two energy-teleportation protocols, end to end.

Both protocols share: the input energy E_m = (1/2) int (curl a_m)^2, the
operation norm xi = int f_o^2, and the overlap kernel K(T).  They differ only
in the damping factor multiplying the extracted energy:

    spin probe:        E_o  = -D_q  K(T)^2 / (2 xi),  D_q  = exp(-2 I1)
    oscillator probe:  E_o' = -D_ho K(T)^2 / (2 xi),  D_ho = 1/(1 + pi^2/4 + 2 I1)

with I1 = int d^3k/(2pi)^3 |k| |a_m~|^2.  Exponential vs. power damping is the
whole story of the discrete/continuous comparison: the exponential loses at
large amplitude, and `crossover_amplitude` locates where.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import CausalityError, DegenerateFieldError, ToleranceFailure, ValidationError
from .fields import CurlGaussian
from .spectral import overlap_kernel, weighted_spectral_integral

PI2_OVER_4 = np.pi**2 / 4.0


def _crossover_root() -> float:
    # Newton on e^u - 1 - pi^2/4 - u from u = 2: the function is convex and
    # positive there, so the steps fall monotonically onto the root
    c = 1.0 + float(PI2_OVER_4)
    u = 2.0
    for _ in range(8):
        u -= (math.exp(u) - c - u) / math.expm1(u)
    return u


# u* = 2 lam_c^2 I1 where the damping factors cross: e^u = 1 + pi^2/4 + u.
# e^u - u grows without bound from 1 < 1 + pi^2/4 at u = 0, so one positive
# root exists and it is the same for every field.
CROSSOVER_U = _crossover_root()

# causal gate: wait until the light front has cleared both supports at the
# few-sigma level; the Monte Carlo oracle demands more, the full effective
# radii plus a sigma margin (see spectral.min_oracle_wait)
CAUSAL_SIGMA_FACTOR = 3.0


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: fields, wait time, and the amplitude multiplier."""

    a_m: CurlGaussian
    f_o: CurlGaussian
    T: float
    lam: float = 1.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValidationError("amplitude multiplier must be nonnegative")
        if self.T <= min_causal_wait(self.a_m, self.f_o):
            raise CausalityError(
                f"T = {self.T:.6g} violates causal decoupling; "
                f"need T > {min_causal_wait(self.a_m, self.f_o):.6g}"
            )


def min_causal_wait(a_m: CurlGaussian, f_o: CurlGaussian) -> float:
    """Enforced wait-time floor: center separation plus a few envelope widths."""
    sep = float(np.linalg.norm(a_m.center_vec - f_o.center_vec))
    return sep + CAUSAL_SIGMA_FACTOR * (a_m.sigma + f_o.sigma)


@dataclass(frozen=True)
class SpinOutcome:
    E_m: float
    eta: float
    xi: float
    theta_star: float
    E_o: float
    D_q: float
    p_plus: float = 0.5
    p_minus: float = 0.5


@dataclass(frozen=True)
class OscillatorOutcome:
    E_m: float
    eta_prime: float
    G2_vev: float
    theta_prime_star: float
    E_o_prime: float
    D_ho: float


def input_energy(a_m) -> float:
    """E_m = (1/2) int (curl a_m)^2 d^3x, via the |k|^2-weighted spectral norm.

    The same value is the input energy for both probe types.
    """
    return 0.5 * weighted_spectral_integral(a_m, 2).value


def input_energy_position_oracle(a_m: CurlGaussian) -> float:
    """Independent route to E_m: grid quadrature of (1/2)(curl a)^2, 96^3 nodes over +-8 sigma.

    The curl is evaluated one x-plane of the lattice at a time, so no
    (n^3, 3) position or curl array is built.
    """
    n = 96
    half = 8.0 * a_m.sigma
    ax = np.linspace(-half, half, n, endpoint=False) + half / n
    xs, ys, zs = (ax + c for c in a_m.center_vec)
    total = 0.0
    for x in xs:
        curls = a_m.curl(np.stack(np.broadcast_arrays(x, ys[:, None], zs[None, :]), axis=-1))
        total += float(np.sum(curls * curls))
    dx = float(ax[1] - ax[0])
    return 0.5 * total * dx**3


def damping_spin(I1: float) -> float:
    """Exponential factor D_q = exp(-2 I1); in (0, 1]."""
    return math.exp(-2.0 * I1)


def damping_oscillator(I1: float) -> float:
    """Power factor D_ho = [1 + pi^2/4 + 2 I1]^{-1}; in (0, (1 + pi^2/4)^{-1}]."""
    return 1.0 / (1.0 + PI2_OVER_4 + 2.0 * I1)


@dataclass(frozen=True)
class PairInvariants:
    """E_m, I1 and xi of a field pair at unit amplitude multiplier.

    The fields are linear in the amplitude, so at multiplier lam the protocol
    sees lam^2 E_m, lam^2 I1, the same xi and lam K(T).
    """

    a_m: CurlGaussian
    f_o: CurlGaussian
    E_m: float
    I1: float
    xi: float

    @classmethod
    def of(cls, a_m: CurlGaussian, f_o: CurlGaussian) -> "PairInvariants":
        I1 = weighted_spectral_integral(a_m, 1).value
        xi = weighted_spectral_integral(f_o, 0).value
        return cls(a_m=a_m, f_o=f_o, E_m=input_energy(a_m), I1=I1, xi=xi)

    def kernel(self, T: float) -> float:
        """K(T) at lam = 1."""
        return overlap_kernel(self.f_o, self.a_m, T).value


def _check_assembly(direct: float, assembled: float, what: str) -> None:
    scale = max(abs(direct), abs(assembled), 1e-300)
    if abs(direct - assembled) > 1e-12 * scale:
        raise ToleranceFailure(
            f"{what}: optimized form {direct!r} vs damping-factor assembly {assembled!r}"
        )


def _check_bookkeeping(E_out: float, E_m: float, name: str) -> None:
    if abs(E_out) >= E_m and E_m > 0.0:
        warnings.warn(
            f"|{name}| = {abs(E_out):.3e} is not below E_m = {E_m:.3e}; "
            "total-energy bookkeeping violated",
            stacklevel=3,
        )


def teleport(inv: PairInvariants, K1: float, lam: float) -> tuple[SpinOutcome, OscillatorOutcome]:
    """Both protocols at amplitude multiplier lam, given K1 = inv.kernel(T).

    Spin probe (binary measurement): eta = <0|(0,2a)> K, theta* = -eta/xi,
    E_o = -eta^2/(2 xi).  Oscillator probe (Gaussian pointer): eta' = K/2,
    theta'* = -eta'/(xi (<G^2> + 1/4)), E_o' = -eta'^2/(2 xi (<G^2> + 1/4)).
    Each result is cross-assembled from its damping factor to guard against
    sign errors in eta.
    """
    xi = inv.xi
    if xi == 0.0:
        raise DegenerateFieldError(
            "operation profile has zero norm; the displacement parameter is undefined"
        )
    K = lam * K1
    I1 = lam * lam * inv.I1
    E_m = lam * lam * inv.E_m

    eta = math.exp(-I1) * K
    E_o = -(eta * eta) / (2.0 * xi)
    D_q = damping_spin(I1)
    _check_assembly(E_o, -D_q * K * K / (2.0 * xi), "spin teleported energy")
    _check_bookkeeping(E_o, E_m, "E_o")

    eta_prime = 0.5 * K
    G2 = np.pi**2 / 16.0 + 0.5 * I1
    E_o_prime = -(eta_prime * eta_prime) / (2.0 * xi * (G2 + 0.25))
    D_ho = damping_oscillator(I1)
    _check_assembly(E_o_prime, -D_ho * K * K / (2.0 * xi), "oscillator teleported energy")
    _check_bookkeeping(E_o_prime, E_m, "E_o'")

    spin = SpinOutcome(E_m=E_m, eta=eta, xi=xi, theta_star=-eta / xi, E_o=E_o, D_q=D_q)
    osc = OscillatorOutcome(
        E_m=E_m,
        eta_prime=eta_prime,
        G2_vev=float(G2),
        theta_prime_star=-eta_prime / (xi * (G2 + 0.25)),
        E_o_prime=E_o_prime,
        D_ho=D_ho,
    )
    return spin, osc


def run_protocols(cfg: ProtocolConfig) -> tuple[SpinOutcome, OscillatorOutcome]:
    """One-off run of both protocols at cfg's (T, lam)."""
    inv = PairInvariants.of(cfg.a_m, cfg.f_o)
    return teleport(inv, inv.kernel(cfg.T), cfg.lam)


def spin_objective(theta: float, eta: float, xi: float) -> float:
    """Quadratic energy cost theta*eta + (1/2) theta^2 xi minimized at theta*."""
    return theta * eta + 0.5 * theta * theta * xi


def large_amplitude_limit(cfg: ProtocolConfig) -> float:
    """Amplitude-independent limit of |E_o'|: K^2/(4 I1 xi) at any reference amplitude.

    A literal zero operation profile extracts nothing and returns 0; a zero
    measurement amplitude leaves the rescaled profile undefined and is rejected.
    """
    inv = PairInvariants.of(cfg.a_m, cfg.f_o)
    if inv.I1 == 0.0:
        raise DegenerateFieldError("zero measurement amplitude: rescaled profile undefined")
    K1 = inv.kernel(cfg.T)
    if inv.xi == 0.0:
        if K1 == 0.0:
            return 0.0
        raise DegenerateFieldError("zero-norm operation profile with nonzero overlap")
    return K1 * K1 / (4.0 * inv.I1 * inv.xi)


def crossover_amplitude(cfg: ProtocolConfig) -> float:
    """Amplitude multiplier where the oscillator protocol overtakes the spin one.

    exp(2 lam^2 I1) = 1 + pi^2/4 + 2 lam^2 I1 holds at 2 lam^2 I1 = CROSSOVER_U,
    so lam_c = sqrt(CROSSOVER_U / (2 I1)).
    """
    I1 = weighted_spectral_integral(cfg.a_m, 1).value
    if I1 <= 0.0:
        raise DegenerateFieldError("crossover undefined for a zero measurement profile")
    return math.sqrt(CROSSOVER_U / (2.0 * I1))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    n_used: int
    n_dropped: int


_FLOOR = 1e-300


def separation_scaling_fit(cfg: ProtocolConfig, T_values, quantity: str = "spin") -> SlopeFit:
    """Least-squares slope of log|quantity| against log T across a separation sweep.

    quantity: 'spin' -> |E_o|, 'oscillator' -> |E_o'|, 'kernel' -> |K(T)|.
    Values under the numerical floor are dropped with a warning.
    """
    T_values = sorted(float(T) for T in T_values)
    if len(T_values) < 2:
        raise ValidationError("need at least two T values to fit a slope")
    if max(T_values) < 10.0 * min(T_values):
        warnings.warn("T range spans less than a decade; slope may not be converged", stacklevel=2)

    if quantity not in ("spin", "oscillator", "kernel"):
        raise ValidationError(f"unknown quantity {quantity!r}")
    ProtocolConfig(a_m=cfg.a_m, f_o=cfg.f_o, T=T_values[0], lam=cfg.lam)  # causal gate

    inv = PairInvariants.of(cfg.a_m, cfg.f_o)
    logs_T, logs_v = [], []
    dropped = 0
    for T in T_values:
        K1 = inv.kernel(T)
        if quantity == "kernel":
            v = abs(cfg.lam * K1)
        else:
            spin, osc = teleport(inv, K1, cfg.lam)
            v = abs(spin.E_o) if quantity == "spin" else abs(osc.E_o_prime)
        if v < _FLOOR:
            dropped += 1
            warnings.warn(f"dropping T={T}: value {v:.3e} under numerical floor", stacklevel=2)
            continue
        logs_T.append(math.log(T))
        logs_v.append(math.log(v))
    if len(logs_T) < 2:
        raise ValidationError("too few usable points for a slope fit")
    slope, intercept = np.polyfit(logs_T, logs_v, 1)
    return SlopeFit(slope=float(slope), intercept=float(intercept), n_used=len(logs_T), n_dropped=dropped)


@dataclass(frozen=True)
class MeasurementIdentityReport:
    """Max absolute residuals of the pointer-measurement operator identities."""

    completeness: float  # int M^2 dq = 1
    first_moment: float  # int q M^2 dq = g
    second_moment: float  # int q^2 M^2 dq = g^2 + 1/4
    spin_completeness: float  # cos^2 g + sin^2 g = 1
    spin_signed_sum: float  # cos^2 g - sin^2 g = cos 2g


def povm_identity_check(g_values) -> MeasurementIdentityReport:
    """Scalar reductions of the measurement-operator identities at fixed eigenvalue.

    The Gaussian pointer kernel M_q(g) = (2/pi)^{1/4} exp[-(q-g)^2] gives
    moments 1, g, g^2 + 1/4; the binary-probe pair (cos g, sin g) satisfies the
    two trigonometric closures.  Returns the max residual over g_values.
    """
    g_values = np.atleast_1d(np.asarray(g_values, dtype=float))
    res = [0.0, 0.0, 0.0]
    norm = math.sqrt(2.0 / np.pi)

    for g in g_values:
        # integrate in u = q - g so the quadrature sees a centered Gaussian
        moments = []
        for n in range(3):
            val, _ = quad(lambda u, n=n, g=g: norm * math.exp(-2.0 * u * u) * (u + g) ** n,
                          -np.inf, np.inf)
            moments.append(val)
        res[0] = max(res[0], abs(moments[0] - 1.0))
        res[1] = max(res[1], abs(moments[1] - g))
        res[2] = max(res[2], abs(moments[2] - (g * g + 0.25)))

    c2 = np.cos(g_values) ** 2
    s2 = np.sin(g_values) ** 2
    spin_complete = float(np.max(np.abs(c2 + s2 - 1.0)))
    spin_signed = float(np.max(np.abs(c2 - s2 - np.cos(2.0 * g_values))))
    return MeasurementIdentityReport(
        completeness=res[0],
        first_moment=res[1],
        second_moment=res[2],
        spin_completeness=spin_complete,
        spin_signed_sum=spin_signed,
    )
