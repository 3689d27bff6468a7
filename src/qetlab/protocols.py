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
from dataclasses import dataclass, field

import numpy as np

from .errors import ToleranceFailure, ValidationError
from .fields import CurlGaussian, _checked, _nonnegative, _positive, _real, _set_checked
from .spectral import overlap_kernel, weighted_spectral_integral

# u* = 2 lam_c^2 I1 where the damping factors cross: e^u = 1 + pi^2/4 + u.
# e^u - u grows without bound from 1 < 1 + pi^2/4 at u = 0, so one positive
# root exists and it is the same for every field; this is the float nearest
# its 50-digit value, pinned by a test.
CROSSOVER_U = 1.6284210099293508

# causal gate: wait until the light front has cleared both supports at the
# few-sigma level; the Monte Carlo oracle demands more, the full effective
# radii plus a sigma margin (see spectral.min_oracle_wait)
CAUSAL_SIGMA_FACTOR = 3.0


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol run: fields, wait time, the amplitude multiplier, and the
    checked pair of the fields, which `dataclasses.replace` rebuilds."""

    a_m: CurlGaussian
    f_o: CurlGaussian
    T: float
    lam: float = 1.0
    pair: PairInvariants = field(init=False, repr=False)

    def __post_init__(self):
        pair = PairInvariants.of(self.a_m, self.f_o)
        _set_checked(self, T=after_causal_wait(self.a_m, self.f_o), lam=scaled_norms_finite(pair))
        object.__setattr__(self, "pair", pair)


def min_causal_wait(a_m: CurlGaussian, f_o: CurlGaussian) -> float:
    """Enforced wait-time floor: center separation plus a few envelope widths."""
    sep = float(np.linalg.norm(a_m.center_vec - f_o.center_vec))
    return sep + CAUSAL_SIGMA_FACTOR * (a_m.sigma + f_o.sigma)


def after_causal_wait(a_m: CurlGaussian, f_o: CurlGaussian):
    """The value rule for a wait time T past min_causal_wait(a_m, f_o)."""
    wait = min_causal_wait(a_m, f_o)

    def rule(value, name: str) -> float:
        T = _real(value, name)
        if T > wait:
            return T
        raise ValidationError(
            f"{name}: must exceed the causal wait |d| + {CAUSAL_SIGMA_FACTOR:g}(sigma_a + sigma_f)"
            f" = {wait:.6g}, got {value!r}"
        )

    return rule


def damping_spin(I1: float) -> float:
    """Exponential factor D_q = exp(-2 I1); in (0, 1]."""
    return math.exp(-2.0 * I1)


def damping_oscillator(I1: float) -> float:
    """Power factor D_ho = [1 + pi^2/4 + 2 I1]^{-1}; in (0, (1 + pi^2/4)^{-1}]."""
    return 1.0 / (1.0 + np.pi**2 / 4.0 + 2.0 * I1)


@dataclass(frozen=True)
class PairInvariants:
    """E_m, I1 and xi of a field pair at unit amplitude multiplier; the one
    checked entry into both protocols.

    E_m = (1/2) int (curl a_m)^2 is the input energy of both probes, I1 the
    damping exponent and xi = int f_o^2 the operation norm.  E_m and I1 must
    be finite and >= 0, xi finite and > 0, so a zero operation profile or an
    overflowing norm stops here.  The fields are linear in the amplitude, so
    at multiplier lam the protocol sees lam^2 E_m, lam^2 I1, the same xi and
    lam K(T).
    """

    a_m: CurlGaussian
    f_o: CurlGaussian
    E_m: float
    I1: float
    xi: float
    _K: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _checked(**{
            "a_m.E_m": (_nonnegative, self.E_m),
            "a_m.I1": (_nonnegative, self.I1),
            "f_o.xi": (_positive, self.xi),
        })

    @classmethod
    def of(cls, a_m: CurlGaussian, f_o: CurlGaussian) -> "PairInvariants":
        E_m = 0.5 * weighted_spectral_integral(a_m, 2)
        I1 = weighted_spectral_integral(a_m, 1)
        xi = weighted_spectral_integral(f_o, 0)
        return cls(a_m=a_m, f_o=f_o, E_m=E_m, I1=I1, xi=xi)

    def kernel(self, T: float) -> float:
        """K(T) at lam = 1, computed once per T; a T that raises is not kept."""
        if T not in self._K:
            self._K[T] = overlap_kernel(self.f_o, self.a_m, T).value
        return self._K[T]


def scaled_norms_finite(inv: PairInvariants):
    """The value rule for an amplitude multiplier lam >= 0 at which the pair's
    scaled norms, lam^2 E_m and 2 lam^2 I1 (the term of D_ho), stay finite."""

    def rule(value, name: str) -> float:
        lam = _nonnegative(value, name)
        if math.isfinite(lam * lam * inv.E_m) and math.isfinite(2.0 * (lam * lam * inv.I1)):
            return lam
        raise ValidationError(
            f"{name}: lambda^2 E_m and 2 lambda^2 I1 must be finite, got {value!r}"
            f" (E_m = {inv.E_m:.6g}, I1 = {inv.I1:.6g} at lambda = 1)"
        )

    return rule


@dataclass(frozen=True)
class Outcome:
    """Both probes at one (lambda, T): a results line's eleven numbers in its
    key order.  PROBE_FIELDS names those of one probe; the rest are shared."""

    E_m: float
    eta: float
    xi: float
    theta_star: float
    E_o: float
    D_q: float
    eta_prime: float
    theta_prime_star: float
    E_o_prime: float
    D_ho: float
    ratio: float


# each probe's own fields of an Outcome, its teleported energy last
PROBE_FIELDS = {"spin": ("eta", "theta_star", "E_o"),
                "oscillator": ("eta_prime", "theta_prime_star", "E_o_prime")}


def _check_assembly(direct: float, assembled: float, what: str) -> None:
    # written so that a NaN or infinite energy fails; the floor lets an
    # energy that has underflowed to a subnormal pass
    scale = max(abs(direct), abs(assembled), 1e-300)
    if not abs(direct - assembled) <= 1e-12 * scale:
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


def teleport(inv: PairInvariants, K1: float, lam: float) -> Outcome:
    """Both protocols at amplitude multiplier lam, given K1 = inv.kernel(T).

    Spin probe (binary measurement): eta = <0|(0,2a)> K, theta* = -eta/xi,
    E_o = -eta^2/(2 xi).  Oscillator probe (Gaussian pointer): eta' = K/2,
    theta'* = -eta'/(xi (<G^2> + 1/4)), E_o' = -eta'^2/(2 xi (<G^2> + 1/4))
    with <G^2> = pi^2/16 + I1/2.  Each energy is cross-assembled from its
    damping factor to guard against sign errors in eta; ratio = D_ho/D_q is
    inf once D_q underflows to 0.
    """
    xi = inv.xi
    K = lam * K1
    I1 = lam * lam * inv.I1
    E_m = lam * lam * inv.E_m

    eta = math.exp(-I1) * K
    E_o = -(eta * eta) / (2.0 * xi)
    D_q = damping_spin(I1)
    _check_assembly(E_o, -D_q * K * K / (2.0 * xi), "spin teleported energy")
    _check_bookkeeping(E_o, E_m, "E_o")

    # E_o' = theta'* eta'/2: eta'^2 and xi (<G^2> + 1/4) overflow where E_o' is finite
    eta_prime = 0.5 * K
    G2 = np.pi**2 / 16.0 + 0.5 * I1
    theta_prime_star = -(eta_prime / xi) / (G2 + 0.25)
    E_o_prime = 0.5 * theta_prime_star * eta_prime
    D_ho = damping_oscillator(I1)
    _check_assembly(E_o_prime, -D_ho * K * K / (2.0 * xi), "oscillator teleported energy")
    _check_bookkeeping(E_o_prime, E_m, "E_o'")

    return Outcome(
        E_m=E_m, eta=eta, xi=xi, theta_star=-eta / xi, E_o=E_o, D_q=D_q,
        eta_prime=eta_prime, theta_prime_star=theta_prime_star, E_o_prime=E_o_prime,
        D_ho=D_ho, ratio=D_ho / D_q if D_q > 0.0 else math.inf,
    )


def crossover_amplitude(cfg: ProtocolConfig) -> float:
    """Amplitude multiplier where the oscillator protocol overtakes the spin one.

    exp(2 lam^2 I1) = 1 + pi^2/4 + 2 lam^2 I1 holds at 2 lam^2 I1 = CROSSOVER_U,
    so lam_c = sqrt(CROSSOVER_U / (2 I1)), with I1 from the config's checked pair.
    """
    I1 = cfg.pair.I1
    if I1 == 0.0:
        raise ValidationError("crossover undefined for a zero measurement profile")
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

    if quantity != "kernel" and quantity not in PROBE_FIELDS:
        raise ValidationError(f"unknown quantity {quantity!r}")
    after_causal_wait(cfg.a_m, cfg.f_o)(T_values[0], "T")

    inv = cfg.pair
    logs_T, logs_v = [], []
    dropped = 0
    for T in T_values:
        K1 = inv.kernel(T)
        if quantity == "kernel":
            v = abs(cfg.lam * K1)
        else:
            v = abs(getattr(teleport(inv, K1, cfg.lam), PROBE_FIELDS[quantity][-1]))
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
