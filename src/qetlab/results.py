"""Sweep orchestration and result/frame serialization.

Records emit as JSON Lines with a fixed key order; frames emit as CSV
(t,x,y,z,eps columns, 17 significant digits, lossless round trip) or as a flat
binary grid behind a small validated header.  A scenario file fixes every
byte: sweep points run in a fixed task order, so repeated runs write
identical bytes.

A CSV frame holds the bytes of "%.17g" for every value, but only its
coordinates go through Python's formatting.  Each x-plane is one masked byte
matrix: a double-double product scales each eps to a 17-digit integer rounded
half to even, with an error bound that proves the rounding, and tables turn
its digits, exponent, form and sign into the row's bytes and keep mask.  A
value it cannot prove (near a rounding tie, log10 off by one at a power of
ten, 1e280 or more, or not finite) falls back to "%.17g" itself.
"""

from __future__ import annotations

import functools
import json
import math
import struct

import numpy as np

from .dynamics import DensityFrame
from .errors import ToleranceFailure, ValidationError
from .protocols import PROBE_FIELDS, Outcome, teleport
from .scenario import Scenario


def _record(scenario_hash: str, probe: str, lam: float, T: float, out: Outcome) -> dict:
    """One results line, its keys in the README's order; the other probe's fields are None."""
    others = {name: None for p, names in PROBE_FIELDS.items() if p != probe for name in names}
    # vars, not dataclasses.asdict, whose deep copy costs 30x as much: a dataclass
    # instance's dict holds its fields in declaration order
    return {"scenario_hash": scenario_hash, "probe": probe, "lambda": lam, "T": T, **vars(out), **others}


def _at_sweep_point(where: str, fn, *args):
    # only the package's own error types, whose constructors take one message,
    # are rebuilt with the coordinate; any other exception propagates unchanged
    try:
        return fn(*args)
    except (ValidationError, ToleranceFailure) as exc:
        raise type(exc)(f"sweep point ({where}): {exc}") from exc


def run_scenario(scenario: Scenario) -> list[dict]:
    """All (probe, lambda, T) combinations, in deterministic task order.

    The pair invariants come from the scenario and K(T) is computed once per
    T; both probes' records at a (lambda, T) come from one `teleport` Outcome.
    Errors propagate with the sweep coordinate attached.
    """
    inv = scenario.pair
    outcomes = {}
    for T in scenario.T_list:
        K1 = _at_sweep_point(f"T={T}", inv.kernel, T)
        for lam in scenario.lambdas:
            outcomes[lam, T] = _at_sweep_point(f"lambda={lam}, T={T}", teleport, inv, K1, lam)
    scenario_hash = scenario.scenario_hash
    return [
        _record(scenario_hash, probe, lam, T, outcomes[lam, T])
        for probe in scenario.probes
        for lam in scenario.lambdas
        for T in scenario.T_list
    ]


def emit_records(records, path) -> None:
    """JSON Lines, one record per line in its key order; a non-finite float is written null.

    Empty input is a valid file.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            line = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                    for k, v in rec.items()}
            fh.write(json.dumps(line, allow_nan=False))
            fh.write("\n")


# Exact "%.17g" of float64 values, vectorised.  A finite x with 0 < |x| <
# 1e280 has decimal exponent e = floor(log10|x|) and 17 significant digits
# D = round-half-even(|x| 10^k), k = 16 - e, in [10^16, 10^17).  The
# product is a double-double: 10^k = hi + lo from exact integer arithmetic,
# |x| hi = p + q exactly by Dekker's two-product, and s = q + |x| lo.  Below
# 1e-280 (e < _E_SCALED) |x| is first scaled by 2^_SCALE, exactly, and hi +
# lo stands for 10^k 2^-_SCALE, so every factor stays a normal double whose
# splits cannot overflow and the relative bounds below hold unchanged.
# Error bound for D < 10^17: dropping 10^k - hi - lo (<= 2^-106 10^k) and
# rounding |x| lo each cost at most 2^-106 D < 1.3e-15, and rounding s
# (|s| <= 20) at most 2^-49, so p + s is D to within 2^-47 absolute.  Hence
# p + floor(s) is floor(D), except within 2^-47 of an integer, where either
# neighbour rounds to the same D; and the fraction s - floor(s) decides the
# rounding unless it lies within _TIE_WINDOW (10^8 times the bound) of one
# half.  The values this cannot prove go to `_exact`: those near a tie,
# those whose log10 is off by one (floor(D) outside [10^16, 10^17)), and
# those that are not finite or not below 1e280.  Zeros are written directly.
_FAST_MAX = 1e280
_E_MIN, _E_MAX = -324, 280  # decimal exponents the tables cover
_E_SCALED, _SCALE = -280, 200
_TIE_WINDOW = 1e-6
_SPLITTER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_D_MIN, _D_MAX = 10**16, 10**17

# The text of a value is its row of _TEMPLATE with some bytes dropped: the
# sign, "0.000" for the fixed notation below 1, two copies of the 17 digits
# with a dot between them (so a dot can follow any digit), the exponent and
# the newline.  `_text_tables` holds, for each form, count of significant
# digits and sign, which bytes "%.17g" keeps.  Forms 0-20 are the fixed
# notation with e = form - 4, 21 and 22 the scientific one with a 2- or
# 3-digit exponent, and 23 is zero.
_TEMPLATE = b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000\n"
_WIDTH = len(_TEMPLATE)
_DIGITS, _DOT, _DIGITS2, _EXPONENT = 6, 23, 24, 42
_ZERO_FORM = 23


def _exact(v: float) -> str:
    """The reference text of one value, and `_format_plane`'s fallback."""
    return "%.17g" % v


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = 10^(16-e), times 2^-_SCALE for e < _E_SCALED, to a relative 2^-106.

    Indexed by _E_MAX - e.  hi is the correctly rounded quotient of two
    Python integers and lo the correctly rounded residual.
    """
    hi, lo = [], []
    for e in range(_E_MAX, _E_MIN - 1, -1):
        k = 16 - e
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0) << (_SCALE if e < _E_SCALED else 0)
        h = num / den
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(digits, zeros, exponents, keep): the keep masks, and tables indexed by 0..9999 and by _E_MAX - e.

    digits holds "%04d" and exponents "%+04d" as uint32 text, zeros the
    trailing zeros of "%04d".  keep's row 36 form + 2 sd + negative is the
    mask over _TEMPLATE of a value of that form with sd significant digits.
    """
    text = [b"%04d" % i for i in range(10_000)]
    digits = np.frombuffer(b"".join(text), np.uint32)
    zeros = np.array([4 - len(t.rstrip(b"0")) for t in text])
    exponents = np.frombuffer(b"".join(b"%+04d" % e for e in range(_E_MAX, _E_MIN - 1, -1)), np.uint32)
    keep = np.zeros((_ZERO_FORM + 1, 18, 2, _WIDTH), bool)
    keep[:, :, 1, 0] = keep[..., -1] = True  # the sign and the newline
    keep[_ZERO_FORM, :, :, 1] = True
    for sd in range(1, 18):
        for e in range(-4, 17):
            row = keep[e + 4, sd]
            if e < 0:  # "0." and -e - 1 zeros, then the digits
                row[:, 1:2 - e] = row[:, _DIGITS:_DIGITS + sd] = True
                continue
            row[:, _DIGITS:_DIGITS + e + 1] = True
            if sd > e + 1:
                row[:, _DOT] = row[:, _DIGITS2 + e + 1:_DIGITS2 + sd] = True
        for form, places in ((21, 2), (22, 3)):
            row = keep[form, sd]
            row[:, [_DIGITS, _EXPONENT - 1, _EXPONENT]] = row[:, _EXPONENT + 4 - places:_EXPONENT + 4] = True
            if sd > 1:
                row[:, _DOT] = row[:, _DIGITS2 + 1:_DIGITS2 + sd] = True
    return digits, zeros, exponents, keep.reshape(-1, _WIDTH)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLITTER
    high = c - (c - v)
    return high, v - high


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, proven) for |x| values 0 < a < _FAST_MAX; D is valid where proven."""
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    hi_table, lo_table = _pow10_table()
    hi, lo = hi_table[_E_MAX - e], lo_table[_E_MAX - e]
    a = np.ldexp(a, np.where(e < _E_SCALED, _SCALE, 0))
    p = a * hi
    a1, a2 = _split(a)
    h1, h2 = _split(hi)
    q = ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2
    s = q + a * lo
    whole = np.floor(s)
    frac = s - whole
    D = p.astype(np.int64) + whole.astype(np.int64)
    proven = (np.abs(frac - 0.5) > _TIE_WINDOW) & (D >= _D_MIN)
    D += frac > 0.5
    proven &= D < _D_MAX
    return e, D, proven


def _format_plane(v: np.ndarray, text: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Fill row i of text and keep so that text[i][keep[i]] is `_exact(v[i])` and a newline.

    text holds _TEMPLATE on every row.  Returns the rows `_exact` wrote,
    which the caller restores to _TEMPLATE before the next call.
    """
    a = np.abs(v)
    fast = (a > 0) & (a < _FAST_MAX)
    e, D, proven = _significand(np.where(fast, a, 1.0))
    proven &= fast
    digit_table, zeros_table, exponent_table, keep_table = _text_tables()
    quads = np.empty((len(v), 5), np.int64)  # D in base 10^4, leading digit first
    for j in range(4, 0, -1):
        q = D // 10_000
        quads[:, j] = D - 10_000 * q
        D = q
    quads[:, 0] = D
    digits = digit_table.take(quads).view(np.uint8)[:, 3:]  # "000d" and four "dddd", less "000"
    text[:, _DIGITS:_DIGITS + 17] = digits
    text[:, _DIGITS2:_DIGITS2 + 17] = digits
    text[:, _EXPONENT:_EXPONENT + 4] = exponent_table[_E_MAX - e].view(np.uint8).reshape(-1, 4)
    tz = zeros_table.take(quads[:, 4])  # trailing zeros of D: those of its last chunk,
    for j in (3, 2, 1):  # and of the next where every chunk after it is "0000"
        rows = np.flatnonzero(tz == 16 - 4 * j)
        tz[rows] += zeros_table.take(quads[rows, j])
    form = np.where((e >= -4) & (e < 17), e + 4, 21 + (np.abs(e) >= 100))
    form[a == 0] = _ZERO_FORM
    keep[:] = keep_table.take(36 * form + 2 * (17 - tz) + np.signbit(v), axis=0)
    slow = np.flatnonzero(~proven & (a != 0))
    exact = np.array([(_exact(x) + "\n").encode("ascii") for x in v[slow].tolist()], f"S{_WIDTH}")
    exact = exact.view(np.uint8).reshape(len(slow), _WIDTH)
    text[slow], keep[slow] = exact, exact != 0
    return slow


def emit_frame_csv(frame: DensityFrame, path) -> None:
    """Columns t,x,y,z,eps at 17 significant digits (lossless float round trip).

    The bytes equal `np.savetxt(fmt="%.17g", delimiter=",")` of the
    (t, x, y, z, eps) column stack in C order.  t and each axis coordinate
    are formatted once with "%.17g".  An x-plane is one uint8 matrix with a
    row per (y, z): the "y,z," columns, padded and set once per frame, then
    the eps text from `_format_plane`.  One boolean mask compacts it and one
    `bytes.replace` puts "t,x," after each newline, so no row is copied alone.
    """
    grid = frame.grid
    n = grid.n
    ax = grid.axis()
    xs, ys, zs = (["%.17g" % v for v in (ax + c).tolist()] for c in np.asarray(frame.center, dtype=float))
    t = "%.17g" % frame.t
    y, z = (np.array([f"{c},".encode("ascii") for c in cs]).view(np.uint8).reshape(n, -1) for cs in (ys, zs))
    template = np.frombuffer(_TEMPLATE, np.uint8)
    text = np.concatenate([np.repeat(y, n, axis=0), np.tile(z, (n, 1)), np.tile(template, (n * n, 1))], axis=1)
    keep = text != 0  # drops the padding of y and z; `_format_plane` sets the eps columns
    eps = slice(y.shape[1] + z.shape[1], None)
    with open(path, "wb") as fh:
        fh.write(b"t,x,y,z,eps\n")
        for x, plane in zip(xs, frame.eps):
            slow = _format_plane(plane.reshape(-1), text[:, eps], keep[:, eps])
            prefix = f"{t},{x},".encode("ascii")
            rows = text[keep].tobytes().replace(b"\n", b"\n" + prefix)
            fh.write(prefix)
            fh.write(memoryview(rows)[:-len(prefix)])  # no row follows the last newline
            text[slow, eps] = template


def load_frame_csv(path) -> tuple[float, np.ndarray]:
    """Round-trip loader: returns (t, eps values in row order)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    return float(data[0, 0]), data[:, 4]


_MAGIC = b"QETFRAME"
_HEADER = struct.Struct("<8sI I d d 3d")  # magic, version, n, dx, t, origin


def emit_frame_binary(frame: DensityFrame, path) -> None:
    """Flat float64 grid with a validated header (dims, spacing, time, origin)."""
    grid = frame.grid
    origin = np.asarray(frame.center, dtype=float) - grid.half_extent
    header = _HEADER.pack(_MAGIC, 1, grid.n, grid.dx, frame.t, *origin)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(np.ascontiguousarray(frame.eps, "<f8")).cast("B"))


def load_frame_binary(path) -> dict:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, n, dx, t, ox, oy, oz = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise ValueError(f"{path}: unsupported version {version}")
        raw = fh.read()
    if len(raw) != 8 * n**3:
        raise ValueError(f"{path}: expected {n**3} float64 values, found {len(raw)} bytes")
    body = np.frombuffer(raw, dtype="<f8")
    return {
        "t": t,
        "n": n,
        "dx": dx,
        "origin": (ox, oy, oz),
        "eps": body.reshape(n, n, n),
    }
