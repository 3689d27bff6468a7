"""Command-line surface.

One verb per capability: `energy` (input energy and damping factors),
`teleport` (single protocol runs), `sweep` (full T/lambda grids), `density`
(energy-density frames), `demo negative-energy`, and `verify` (oracle
cross-checks).  Exit codes: 0 success, 2 invalid input (bad scenario, an
under-resolved grid, a degenerate field, a light-cone evaluation), 3
numerical tolerance failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ToleranceFailure, ValidationError
from .fields import make_curl_gaussian
from .negative_energy import GaussianPhotonMode, demo_rows
from .protocols import (
    PairInvariants,
    ProtocolConfig,
    damping_oscillator,
    damping_spin,
    input_energy,
    input_energy_position_oracle,
    povm_identity_check,
    run_protocols,
)
from .results import (
    emit_frame_binary,
    emit_frame_csv,
    emit_records,
    run_scenario,
    scenario_frames,
)
from .scenario import parse_scenario
from .spectral import (
    brute_force_overlap_oracle,
    overlap_kernel,
    pauli_jordan_delta,
    pauli_jordan_delta_quadrature,
    weighted_spectral_integral,
)

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

    for name, helptext in (
        ("teleport", "run the configured protocol points and write records"),
        ("sweep", "alias of teleport for full T/lambda grids"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_scenario(p)
        _add_out(p)

    density = sub.add_parser("density", help="emit energy-density frames at the scenario times")
    _add_scenario(density)
    _add_out(density)
    density.add_argument(
        "--format", choices=("csv", "binary"), default="csv", help="frame output format"
    )

    demo = sub.add_parser("demo", help="self-contained demonstrations")
    demo_sub = demo.add_subparsers(dest="demo_name", required=True)
    neg = demo_sub.add_parser(
        "negative-energy", help="vacuum/two-photon interference along a line"
    )
    _add_out(neg)

    verify = sub.add_parser("verify", help="run the oracle cross-checks")
    verify.add_argument(
        "--mc-samples", type=int, default=200_000, help="Monte Carlo samples per check"
    )
    return parser


def _cmd_energy(args) -> int:
    scenario = parse_scenario(args.scenario)
    inv = PairInvariants.of(scenario.a_m, scenario.f_o)
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
        E = rec.E_o if rec.probe == "spin" else rec.E_o_prime
        print(
            f"{rec.probe:>10s} lambda={rec.lam:g} T={rec.T:g} "
            f"E_m={rec.E_m:.6g} E_out={E:.6g}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_density(args) -> int:
    scenario = parse_scenario(args.scenario)
    frames = scenario_frames(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        stem = f"{scenario.frames_prefix}_t{frame.t:g}"
        if args.format == "csv":
            path = out_dir / f"{stem}.csv"
            emit_frame_csv(frame, path)
        else:
            path = out_dir / f"{stem}.bin"
            emit_frame_binary(frame, path)
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_demo_negative_energy(args) -> int:
    mode = GaussianPhotonMode(sigma=1.0)
    xs = np.zeros((41, 3))
    xs[:, 0] = np.linspace(-4.0, 4.0, 41)
    rows = demo_rows(mode, xs)
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


def _check(name: str, ok: bool, detail: str, failures: list) -> None:
    print(f"[verify] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    if not ok:
        failures.append(name)


def _cmd_verify(args) -> int:
    """Oracle cross-checks; exits 3 on any numerical-tolerance failure."""
    failures: list[str] = []
    a = make_curl_gaussian(1.0, 1.0)

    E_spec = input_energy(a)
    E_pos = input_energy_position_oracle(a)
    expected = 1.25 * np.pi**1.5
    _check(
        "input-energy oracle",
        abs(E_spec - E_pos) <= 1e-6 * abs(E_pos)
        and abs(E_spec - expected) <= 1e-6 * expected,
        f"spectral {E_spec:.10g} vs position {E_pos:.10g}",
        failures,
    )

    ok = True
    details = []
    for t, r in ((2.0, 1.0), (1.0, 2.0), (10.0, 0.0)):
        closed = pauli_jordan_delta(t, r)
        quadr = pauli_jordan_delta_quadrature(t, r)
        ok = ok and abs(closed - quadr.value) <= 1e-6 * abs(closed)
        details.append(f"{closed:.6g}~{quadr.value:.6g}")
    _check("light-cone kernel quadrature", ok, ", ".join(details), failures)

    T = 14.0
    K = overlap_kernel(a, a, T).value
    mc = brute_force_overlap_oracle(a, a, T, samples=args.mc_samples, seed=11)
    _check(
        "overlap kernel vs Monte Carlo",
        abs(K - mc.value) <= 3.0 * mc.estimated_error,
        f"K={K:.6g} mc={mc.value:.6g} +- {mc.estimated_error:.2g}",
        failures,
    )

    report = povm_identity_check(np.linspace(-10.0, 10.0, 20))
    worst = max(
        report.completeness, report.first_moment, report.second_moment,
        report.spin_completeness, report.spin_signed_sum,
    )
    _check("measurement identities", worst <= 1e-10, f"max residual {worst:.2e}", failures)

    # I1 in closed form at the scaled field, so the lambda^2 law is under test too
    I1 = weighted_spectral_integral(a.scaled(1.3), 1).value
    ratio_lhs = damping_oscillator(I1) / damping_spin(I1)
    spin, osc = run_protocols(ProtocolConfig(a_m=a, f_o=a, T=T, lam=1.3))
    ratio_rhs = osc.E_o_prime / spin.E_o
    _check(
        "damping-ratio identity",
        abs(ratio_lhs - ratio_rhs) <= 1e-12 * abs(ratio_lhs),
        f"{ratio_lhs:.12g} vs {ratio_rhs:.12g}",
        failures,
    )

    if failures:
        raise ToleranceFailure(f"verification failed: {', '.join(failures)}")
    print("[verify] all checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command in ("teleport", "sweep"):
            return _cmd_teleport(args)
        if args.command == "density":
            return _cmd_density(args)
        if args.command == "demo":
            return _cmd_demo_negative_energy(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
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
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
