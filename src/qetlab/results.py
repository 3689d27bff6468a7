"""Sweep orchestration and result/frame serialization.

Records emit as JSON Lines with a fixed key order; frames emit as CSV
(t,x,y,z,eps columns, 17 significant digits, lossless round trip) or as a flat
binary grid behind a small validated header.  A scenario file fixes every
byte: sweep points run in a fixed task order, so repeated runs write
identical bytes.

A CSV frame holds the bytes of "%.17g" for every value, but only its
coordinates go through Python's formatting.  The eps digits come from numpy,
one x-plane at a time: a double-double product scales each value to a
17-digit integer rounded half to even, with an error bound that proves the
rounding.  A value it cannot prove (near a rounding tie, log10 off by one at a
power of ten, outside 1e-280 to 1e280, or not finite) falls back to "%.17g"
itself.
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


# Exact "%.17g" of float64 values, vectorised.  A finite x with 1e-280 <=
# |x| < 1e280 has decimal exponent e = floor(log10|x|) and 17 significant
# digits D = round-half-even(|x| 10^k), k = 16 - e, in [10^16, 10^17).  The
# product is a double-double: 10^k = hi + lo from exact integer arithmetic,
# |x| hi = p + q exactly by Dekker's two-product, and s = q + |x| lo.
# Error bound for D < 10^17: dropping 10^k - hi - lo (<= 2^-106 10^k) and
# rounding |x| lo each cost at most 2^-106 D < 1.3e-15, and rounding s
# (|s| <= 20) at most 2^-49, so p + s is D to within 2^-47 absolute.  Hence
# p + floor(s) is floor(D), except within 2^-47 of an integer, where either
# neighbour rounds to the same D; and the fraction s - floor(s) decides the
# rounding unless it lies within _TIE_WINDOW (10^8 times the bound) of one
# half.  The values this cannot prove go to `_exact`: those near a tie,
# those whose log10 is off by one (floor(D) outside [10^16, 10^17)),
# non-finite ones, and nonzero |x| outside the range where the splits cannot
# overflow and 10^k is a normal double.  Zeros are written directly.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_E_MIN, _E_MAX = -281, 280  # decimal exponents the power table covers
_TIE_WINDOW = 1e-6
_SPLITTER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_D_MIN, _D_MAX = 10**16, 10**17
_ZERO, _MINUS, _PLUS, _NEWLINE = b"0-+\n"
_ROW = 25  # the longest text, "-1.2345678901234567e-300", and a newline


def _exact(v: float) -> str:
    """The reference text of one value, and `_format_values`'s fallback."""
    return "%.17g" % v


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo = 10^(16-e) to a relative 2^-106, indexed by _E_MAX - e.

    Built from Python integers: hi is the correctly rounded 10^k and lo the
    correctly rounded residual, for k < 0 from 1/10^-k and its exact ratio.
    """
    hi, lo = [], []
    for e in range(_E_MAX, _E_MIN - 1, -1):
        k = 16 - e
        if k >= 0:
            h = float(10**k)
            r = float(10**k - int(h))
        else:
            q = 10**-k
            h = 1 / q
            a, b = h.as_integer_ratio()
            r = (b - a * q) / (b * q)
        hi.append(h)
        lo.append(r)
    return np.array(hi), np.array(lo)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLITTER
    high = c - (c - v)
    return high, v - high


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e, D, proven) for |x| values a in the fast range; D is valid where proven."""
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    hi_table, lo_table = _pow10_table()
    hi, lo = hi_table[_E_MAX - e], lo_table[_E_MAX - e]
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


def _rows(m: int, *blocks) -> np.ndarray:
    """(m, w) bytes: the blocks side by side, a bytes block repeated on every row."""
    return np.concatenate(
        [np.broadcast_to(np.frombuffer(b, np.uint8), (m, len(b))) if isinstance(b, bytes) else b
         for b in blocks], axis=1)


def _layout(digits: np.ndarray, e: np.ndarray, form: int, sd: int) -> np.ndarray:
    """The %g text of rows that share a form and sd significant digits, signs aside.

    form is e + 4 for the fixed notation (-4 <= e < 17) and 21 or 22 for the
    scientific one with a 2- or 3-digit exponent.
    """
    m = len(digits)
    if form <= 20:
        e0 = form - 4
        if e0 < 0:
            return _rows(m, b"0." + b"0" * (-e0 - 1), digits[:, :sd])
        if sd <= e0 + 1:
            return digits[:, :e0 + 1]
        return _rows(m, digits[:, :e0 + 1], b".", digits[:, e0 + 1:sd])
    places = form - 19
    exponent = np.empty((m, places + 1), np.uint8)
    exponent[:, 0] = np.where(e < 0, _MINUS, _PLUS)
    mag = np.abs(e)
    for j in range(places, 0, -1):
        exponent[:, j] = _ZERO + mag % 10
        mag //= 10
    mantissa = (digits[:, :1], b".", digits[:, 1:sd]) if sd > 1 else (digits[:, :1],)
    return _rows(m, *mantissa, b"e", exponent)


def _format_values(v: np.ndarray) -> list[str]:
    """`_exact(x)` for each x of the 1-D float64 array v, in order."""
    a = np.abs(v)
    negative = np.signbit(v)
    in_range = (a >= _FAST_MIN) & (a < _FAST_MAX)
    fast = np.flatnonzero(in_range)
    e, D, proven = _significand(a[fast])
    slow = np.union1d(np.flatnonzero(~in_range & (a != 0)), fast[~proven])
    fast, e, D = fast[proven], e[proven], D[proven]

    digits = np.empty((len(D), 17), np.uint8)
    for j in range(16, 0, -1):
        q = D // 10
        digits[:, j] = D - 10 * q
        D = q
    digits[:, 0] = D
    sd = 17 - np.argmax(digits[:, ::-1] != 0, axis=1)
    digits += _ZERO

    # one row of text per value, laid out group by group: a group shares the
    # form, the significant digits and the sign, so its rows have one width
    text = np.empty((len(v), _ROW), np.uint8)
    text[:, 0] = _MINUS  # kept by the negative rows, overwritten by the others
    width = np.empty(len(v), np.int64)
    zero = np.flatnonzero(a == 0)
    sign = negative[zero].view(np.uint8)
    text[zero, sign] = _ZERO
    width[zero] = sign + 1
    form = np.where((e >= -4) & (e < 17), e + 4, 21 + (e <= -100) + (e >= 100))
    key = 64 * form + 2 * sd + negative[fast]
    order = np.argsort(key, kind="stable")
    for g in np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if len(order) else ():
        f, rest = divmod(int(key[g[0]]), 64)
        s, neg = divmod(rest, 2)
        body = _layout(digits[g], e[g], f, s)
        rows = fast[g]
        text[rows, neg:neg + body.shape[1]] = body
        width[rows] = neg + body.shape[1]
    for i, x in zip(slow.tolist(), v[slow].tolist()):
        exact = _exact(x).encode("ascii")
        text[i, :len(exact)] = np.frombuffer(exact, np.uint8)
        width[i] = len(exact)
    text[np.arange(len(v)), width] = _NEWLINE
    out = text[np.arange(_ROW) <= width[:, None]].tobytes().decode("ascii").split("\n")
    out.pop()
    return out


def emit_frame_csv(frame: DensityFrame, path) -> None:
    """Columns t,x,y,z,eps at 17 significant digits (lossless float round trip).

    The bytes equal `np.savetxt(fmt="%.17g", delimiter=",")` of the
    (t, x, y, z, eps) column stack in C order.  t and each axis coordinate are
    formatted once with "%.17g"; eps is formatted one x-plane at a time by
    `_format_values`, which derives the 17 digits of each value in numpy from
    an exact double-double product and hands the few values it cannot prove
    correctly rounded to "%.17g" itself.  Each z-row of the plane is one
    %-formatting of a line template that already holds its t,x,y,z prefixes.
    """
    grid = frame.grid
    n = grid.n
    ax = grid.axis()
    xs, ys, zs = (["%.17g" % v for v in (ax + c).tolist()] for c in np.asarray(frame.center, dtype=float))
    z_tails = [f"{z},%s" for z in zs]
    t = "%.17g" % frame.t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,z,eps\n")
        for i, x in enumerate(xs):
            values = _format_values(frame.eps[i].reshape(-1))
            for j, y in enumerate(ys):
                prefix = f"{t},{x},{y},"
                row = prefix + ("\n" + prefix).join(z_tails) + "\n"
                fh.write(row % tuple(values[j * n:(j + 1) * n]))


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
