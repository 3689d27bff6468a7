"""Command-line surface.

One verb per capability: `energy` (input energy and damping factors),
`teleport` (single protocol runs), `sweep` (full T/lambda grids), `density`
(energy-density frames), `demo negative-energy`, and `verify` (oracle
cross-checks).  Exit codes: 0 success, 2 invalid input (bad scenario, a
scenario file that is not UTF-8 text, an under-resolved grid, a frame too
large to allocate, a zero or overflowing field pair, a density scale, K(T)
prefactor or separation beyond the float range, a T at which a term of K(T)'s
contour sum leaves it, a light-cone evaluation), 3 numerical tolerance
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, verify
from .errors import ToleranceFailure, ValidationError
from .negative_energy import demo_rows
from .protocols import PROBE_FIELDS, damping_oscillator, damping_spin
from .dynamics import scenario_frames
from .results import emit_frame_binary, emit_frame_csv, emit_records, run_scenario
from .scenario import frame_stem, parse_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4


def _add_scenario(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario YAML path")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qetlab",
        description="Energy teleportation laboratory for the 1+3D electromagnetic field.",
    )
    parser.add_argument("--version", action="version", version=f"qetlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    energy = sub.add_parser("energy", help="input energy, damping factors, and field diagnostics")
    _add_scenario(energy)
    energy.set_defaults(run=_cmd_energy)

    for name, helptext in (
        ("teleport", "run the configured protocol points and write records"),
        ("sweep", "alias of teleport for full T/lambda grids"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_scenario(p)
        _add_out(p)
        p.set_defaults(run=_cmd_teleport)

    density = sub.add_parser("density", help="emit energy-density frames at the scenario times")
    _add_scenario(density)
    _add_out(density)
    density.add_argument(
        "--format", choices=("csv", "binary"), default="csv", help="frame output format"
    )
    density.set_defaults(run=_cmd_density)

    demo = sub.add_parser("demo", help="self-contained demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_name", required=True)
    neg = demo_sub.add_parser(
        "negative-energy", help="vacuum/two-photon interference along a line"
    )
    _add_out(neg)
    neg.set_defaults(run=_cmd_demo_negative_energy)

    verify_cmd = sub.add_parser("verify", help="run the oracle cross-checks")
    verify_cmd.add_argument(
        "--mc-samples", type=int, default=200_000, help="Monte Carlo samples per check"
    )
    verify_cmd.set_defaults(run=_cmd_verify)
    return parser


def _cmd_energy(args) -> int:
    scenario = parse_scenario(args.scenario)
    inv = scenario.pair
    print(f"scenario_hash = {scenario.scenario_hash}")
    print(f"E_m = {inv.E_m:.12g}")
    print(f"I1 = {inv.I1:.12g}")
    print(f"xi = {inv.xi:.12g}")
    print(f"effective_radius(a_m) = {scenario.a_m.effective_radius:.6g}")
    for lam in scenario.lambdas:
        I1 = lam * lam * inv.I1
        print(
            f"lambda = {lam:g}: E_m = {lam * lam * inv.E_m:.12g}, "
            f"D_q = {damping_spin(I1):.12g}, D_ho = {damping_oscillator(I1):.12g}"
        )
    return EXIT_OK


def _cmd_teleport(args) -> int:
    scenario = parse_scenario(args.scenario)
    records = run_scenario(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / scenario.results_name
    emit_records(records, path)
    for rec in records:
        E = rec[PROBE_FIELDS[rec["probe"]][-1]]
        print(
            f"{rec['probe']:>10s} lambda={rec['lambda']:g} T={rec['T']:g} "
            f"E_m={rec['E_m']:.6g} E_out={E:.6g}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_density(args) -> int:
    scenario = parse_scenario(args.scenario)
    frames = scenario_frames(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        stem = frame_stem(scenario.frames_prefix, frame.t)
        if args.format == "csv":
            path = out_dir / f"{stem}.csv"
            emit_frame_csv(frame, path)
        else:
            path = out_dir / f"{stem}.bin"
            emit_frame_binary(frame, path)
        print(f"wrote {path}")
        del frame  # so that only one frame is alive while the next is built
    return EXIT_OK


def _cmd_demo_negative_energy(args) -> int:
    xs = np.zeros((41, 3))
    xs[:, 0] = np.linspace(-4.0, 4.0, 41)
    rows = demo_rows(xs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "negative_energy_demo.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,z,A,B_re,B_im,eps_min\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.17g")
    negative = rows[rows[:, 6] < 0.0]
    print(f"wrote {path}")
    print(
        f"{len(negative)}/{len(rows)} sampled points admit a superposition "
        f"with negative mean energy density (min {rows[:, 6].min():.6g})"
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    """Oracle cross-checks (`verify.checks`); exits 3 on any numerical-tolerance failure."""
    verify.run(args.mc_samples)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValidationError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except ToleranceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
