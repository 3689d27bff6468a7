#!/usr/bin/env python3
"""Canonical end-to-end run: unit co-axial curl-Gaussian pair in natural units.

Prints the full scalar pipeline for both probe types at one (T, lambda) point
and writes the records next to the chosen output directory.
"""

import argparse
from pathlib import Path

import numpy as np

from qetlab import (
    PairInvariants,
    ProtocolConfig,
    commutator_residual,
    crossover_amplitude,
    large_amplitude_limit,
    make_curl_gaussian,
    overlap_kernel,
    teleport,
)
from qetlab.results import emit_records, run_scenario
from qetlab.scenario import scenario_from_dict


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--T", type=float, default=8.0)
    parser.add_argument("--lam", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--out", default="out_canonical")
    args = parser.parse_args()

    a = make_curl_gaussian(1.0, args.sigma)
    cfg = ProtocolConfig(a_m=a, f_o=a, T=args.T, lam=args.lam)

    print(f"# canonical run: sigma={args.sigma}, T={args.T}, lambda={args.lam}")
    inv = PairInvariants.of(a, a)
    print(f"E_m                 = {args.lam**2 * inv.E_m:.12g}")
    # K and the commutator are linear in the measurement amplitude
    K1 = overlap_kernel(a, a, cfg.T)
    print(f"K(T)                = {args.lam * K1.value:.12g}  (quadrature error {args.lam * K1.estimated_error:.2g})")
    print(f"commutator residual = {args.lam * commutator_residual(a, a, cfg.T):.3g}")

    spin, osc = teleport(inv, K1.value, args.lam)
    print(f"spin probe:  eta={spin.eta:.6g} xi={spin.xi:.6g} theta*={spin.theta_star:.6g}")
    print(f"             E_o={spin.E_o:.6g}  D_q={spin.D_q:.6g}")

    print(f"oscillator:  eta'={osc.eta_prime:.6g} <G^2>={osc.G2_vev:.6g} theta'={osc.theta_prime_star:.6g}")
    print(f"             E_o'={osc.E_o_prime:.6g}  D_ho={osc.D_ho:.6g}")
    print(f"ratio E_o'/E_o      = {osc.E_o_prime / spin.E_o:.6g} (= D_ho/D_q)")
    print(f"crossover lambda_c  = {crossover_amplitude(cfg):.10g}")
    print(f"large-lambda |E_o'| = {large_amplitude_limit(cfg):.6g}")

    scenario = scenario_from_dict(
        {
            "probe": "both",
            "T": args.T,
            "lambda": args.lam,
            "fields": {"a_m": {"amplitude": 1.0, "sigma": args.sigma}},
        }
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_records(run_scenario(scenario), out_dir / "results.jsonl")
    print(f"records: {out_dir / 'results.jsonl'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
