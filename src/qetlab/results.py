"""Sweep orchestration and result/frame serialization.

Records emit as JSON Lines with a fixed key order; frames emit as CSV
(t,x,y,z,eps columns, 17 significant digits, lossless round trip) or as a flat
binary grid behind a small validated header.  A scenario file fixes every
byte: sweep points run in a fixed task order, so repeated runs write
identical bytes.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .dynamics import DensityFrame, FrameGrid, default_frame_grid, energy_density_frame
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


def scenario_frames(scenario: Scenario) -> list[DensityFrame]:
    """Density frames at the scenario's times (source field a_m, shared grid policy)."""
    times = scenario.times or (0.0, max(scenario.T_list))

    def build(t: float) -> DensityFrame:
        if scenario.grid_half_extent is not None:
            grid = FrameGrid(n=scenario.grid_n, half_extent=scenario.grid_half_extent)
        else:
            grid = default_frame_grid(scenario.a_m, t, n=scenario.grid_n)
        return energy_density_frame(scenario.a_m, t, grid)

    return [build(t) for t in times]


def emit_frame_csv(frame: DensityFrame, path) -> None:
    """Columns t,x,y,z,eps at 17 significant digits (lossless float round trip).

    The bytes equal `np.savetxt(fmt="%.17g", delimiter=",")` of the
    (t, x, y, z, eps) column stack in C order.  t and each axis coordinate are
    formatted once; each z-row of eps is one %-formatting of a line template
    that already holds its t,x,y,z prefixes.
    """
    grid = frame.grid
    ax = grid.axis()
    xs, ys, zs = (["%.17g" % v for v in (ax + c).tolist()] for c in np.asarray(frame.center, dtype=float))
    z_tails = [f"{z},%.17g" for z in zs]
    t = "%.17g" % frame.t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,y,z,eps\n")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                prefix = f"{t},{x},{y},"
                row = prefix + ("\n" + prefix).join(z_tails) + "\n"
                fh.write(row % tuple(frame.eps[i, j].tolist()))


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
        fh.write(np.ascontiguousarray(frame.eps, dtype="<f8").tobytes())


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
