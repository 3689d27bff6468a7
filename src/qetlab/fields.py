"""Divergence-free shape fields.

The field family is the curl of a Gaussian-enveloped axial potential,

    a(x) = A * curl( exp(-|x-c|^2 / (2 sigma^2)) n ),

which is divergence-free by construction.  Every spectral quantity of the
package is a closed form in its four parameters (amplitude, sigma, center,
axis); `spectral` reads them directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

# Tail mass outside the effective radius; the field is treated as supported
# in the ball of that radius for all causality preconditions.
TAIL_TOL = 1e-10
# The radial L2 density is ~ r^4 exp(-r^2/sigma^2), so the tail mass is the
# regularised upper incomplete gamma Q(5/2, r^2/sigma^2); this is the radius in
# units of sigma, sqrt(Q^{-1}(5/2, TAIL_TOL)), pinned by a test.
_EFFECTIVE_RADIUS_SIGMAS = 5.270787347173025


# Value rules shared by every constructor, entry point and the scenario parser.
# Each takes (value, name), returns the value as stored, and raises a
# ValidationError whose message begins "<name>: ".


def _is_real(value) -> bool:
    # YAML's true/false are bools and its .nan/.inf floats: neither is a number here, nor is an
    # int past the float range, which math.isfinite cannot convert
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _text_note(text: str, what: str = "the value") -> str:
    """A note that YAML read `text` as a string, with a spelling it reads as the number, if it is one."""
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    # PyYAML reads a float only with a dot and a signed exponent; repr signs it
    spelled = repr(number) if "." in repr(number) else repr(number).replace("e", ".0e")
    hint = f"; write it as {spelled}" if math.isfinite(number) else ""
    return f" (YAML read {what} as text{hint})"


def _number(what: str, accepts):
    """The rule for a finite number that `accepts`; a string gets a note that YAML read it as text."""

    def rule(value, name: str) -> float:
        if _is_real(value) and accepts(value):
            return float(value)
        message = f"{name}: must be {what}, got {value!r}"
        if isinstance(value, str):
            message += _text_note(value)
        raise ValidationError(message)

    return rule


_real = _number("a finite number", lambda v: True)
_positive = _number("a positive finite number", lambda v: v > 0)
_nonnegative = _number("a nonnegative finite number", lambda v: v >= 0)


def _vec3(value, name: str) -> tuple:
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if isinstance(items, (list, tuple)) and len(items) == 3 and all(map(_is_real, items)):
        return tuple(float(v) for v in items)
    message = f"{name}: must be a list of three finite numbers, got {value!r}"
    if isinstance(items, (list, tuple)):
        message += "".join(_text_note(v, repr(v)) for v in items if isinstance(v, str))
    raise ValidationError(message)


def _norm(v) -> tuple:
    """(w, |w|, |v|) for w = v/2^e, whose largest component is in [1/2, 1): |w|^2 cannot overflow, and |w|
    and w/|w| are np.linalg.norm's arithmetic on v to the bit wherever that stays normal.  |v| may be inf."""
    e = math.frexp(max(map(abs, v)))[1]
    w = np.ldexp(v, -e)
    norm = float(np.linalg.norm(w))
    return w, norm, norm * 2.0 * math.ldexp(1.0, e - 1)  # 2^e as 2 * 2^(e - 1), a float for every e


def _nonzero(value, name: str) -> tuple:
    v = _vec3(value, name)
    if 0.0 < _norm(v)[2] < math.inf:
        return v
    raise ValidationError(f"{name}: must be a nonzero vector of finite length, got {value!r}")


def _unit(value, name: str) -> tuple:
    """A nonzero vector scaled to unit length."""
    w, norm, _ = _norm(_nonzero(value, name))
    return tuple((w / norm).tolist())


def _integer(minimum: int):
    """The rule for an integer at or above `minimum`."""

    def rule(value, name: str) -> int:
        if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum:
            return int(value)
        raise ValidationError(f"{name}: must be an integer >= {minimum}, got {value!r}")

    return rule


def _grid_n(value, name: str) -> int:
    """The rule for a frame grid's n: an integer >= 8 whose (n, n, n) frame of 8 n^3 bytes numpy can index."""
    n, largest = _integer(8)(value, name), np.iinfo(np.intp).max
    if 8 * n**3 > largest:
        raise ValidationError(f"{name}: one frame takes 8 n^3 bytes, past numpy's largest array ({largest} bytes), got {n}")
    return n


def _checked(**params) -> list:
    """rule(value, name) for each name=(rule, value), in order; one ValidationError lists every failure."""
    values, errors = [], []
    for name, (rule, value) in params.items():
        try:
            values.append(rule(value, name))
        except ValidationError as exc:
            errors.extend(exc.errors)
    if errors:
        raise ValidationError(errors)
    return values


def _set_checked(obj, **rules) -> None:
    """Check the named fields of a frozen dataclass, each by its rule, and store what the rules return."""
    values = _checked(**{name: (rule, getattr(obj, name)) for name, rule in rules.items()})
    for name, value in zip(rules, values):
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class CurlGaussian:
    """Divergence-free vector field a(x) = A curl(exp(-|x-c|^2/2 sigma^2) axis)."""

    amplitude: float
    sigma: float
    center: tuple = (0.0, 0.0, 0.0)
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        _set_checked(self, amplitude=_real, sigma=_positive, center=_vec3, axis=_unit)

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


def _separation(f1: CurlGaussian, f2: CurlGaussian) -> tuple[float, float]:
    """|d| and (d^.n1)(d^.n2), 0 where d = 0, for d = f2.center - f1.center, both from `_norm`'s
    scaled d.  A |d| past the float range is refused."""
    d = [q - p for p, q in zip(f1.center, f2.center)]  # a Python float overflows to inf silently
    v, norm, sep = _norm(d)
    if math.isinf(sep):
        raise ValidationError(f"separation: |d| between the centres {f1.center} and {f2.center} is beyond the float range")
    return sep, float((v @ f1.axis_vec) * (v @ f2.axis_vec)) / (norm * norm) if norm > 0.0 else 0.0


@dataclass(frozen=True)
class RadialWindow:
    """Scalar window: 1 inside `radius`, cosine rolloff to 0 over [radius, 2 radius]."""

    radius: float
    center: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        _set_checked(self, radius=_positive, center=_vec3)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x - np.asarray(self.center), axis=-1)
        out = np.zeros_like(r)
        out[r <= self.radius] = 1.0
        roll = (r > self.radius) & (r < 2.0 * self.radius)
        out[roll] = 0.5 * (1.0 + np.cos(np.pi * (r[roll] - self.radius) / self.radius))
        return out
