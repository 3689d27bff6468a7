#!/usr/bin/env python3
"""Canonical end-to-end run: unit co-axial curl-Gaussian pair in natural units.

Prints the full scalar pipeline for both probe types at one (T, lambda) point
and writes the records next to the chosen output directory.
"""

import argparse
from pathlib import Path

import numpy as np

from qetlab import ProtocolConfig, crossover_amplitude, teleport
from qetlab.results import emit_records, run_scenario
from qetlab.scenario import scenario_from_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--T", type=float, default=8.0)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--out", default="out_canonical")
    args = parser.parse_args()

    scenario = scenario_from_dict(
        {
            "probe": "both",
            "T": args.T,
            "lambda": args.lam,
            "fields": {"a_m": {"amplitude": 1.0, "sigma": args.sigma}},
        }
    )
    cfg = ProtocolConfig(a_m=scenario.a_m, f_o=scenario.f_o, T=args.T, lam=args.lam)

    print(f"# canonical run: sigma={args.sigma}, T={args.T}, lambda={args.lam}")
    inv = scenario.pair
    print(f"E_m                 = {args.lam**2 * inv.E_m:.12g}")
    # K and the commutator are linear in the measurement amplitude; the
    # scenario's pair keeps this record, so run_scenario reuses it below
    K1 = inv.kernel(args.T)
    print(f"K(T)                = {args.lam * K1.value:.12g}  (estimated error {args.lam * K1.estimated_error:.2g})")
    print(f"commutator residual = {args.lam * K1.commutator:.3g}")

    out = teleport(inv, K1.value, args.lam)
    print(f"spin probe:  eta={out.eta:.6g} xi={out.xi:.6g} theta*={out.theta_star:.6g}")
    print(f"             E_o={out.E_o:.6g}  D_q={out.D_q:.6g}")

    # the pointer's vacuum variance <G^2> = pi^2/16 + I1/2 at the scaled field
    G2 = np.pi**2 / 16.0 + 0.5 * (args.lam * args.lam * inv.I1)
    print(f"oscillator:  eta'={out.eta_prime:.6g} <G^2>={G2:.6g} theta'={out.theta_prime_star:.6g}")
    print(f"             E_o'={out.E_o_prime:.6g}  D_ho={out.D_ho:.6g}")
    print(f"ratio E_o'/E_o      = {out.E_o_prime / out.E_o:.6g} (= D_ho/D_q)")
    print(f"crossover lambda_c  = {crossover_amplitude(cfg):.10g}")
    # |E_o'| saturates as lambda grows: D_ho K^2 -> K1^2/(2 I1), independent of lambda
    print(f"large-lambda |E_o'| = {K1.value * K1.value / (4.0 * inv.I1 * inv.xi):.6g}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_records(run_scenario(scenario), out_dir / "results.jsonl")
    print(f"records: {out_dir / 'results.jsonl'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
