#!/usr/bin/env python3
"""Scaling studies: separation power law and the damping crossover.

Writes two CSVs:
  separation.csv  -- T, |K(T)|, |E_o|, |E_o'| over a log-spaced sweep
  crossover.csv   -- lambda, D_q, D_ho, |E_o|, |E_o'| around lambda_c
and prints the fitted log-log slopes (expected: kernel -6, energies -12).
"""

import argparse
from pathlib import Path

import numpy as np

from qetlab import (
    CurlGaussian,
    ProtocolConfig,
    crossover_amplitude,
    separation_scaling_fit,
    teleport,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-min", type=float, default=20.0)
    parser.add_argument("--t-max", type=float, default=200.0)
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--out", default="out_scaling")
    args = parser.parse_args()

    a = CurlGaussian(1.0, 1.0)
    cfg = ProtocolConfig(a_m=a, f_o=a, T=args.t_min)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    inv = cfg.pair
    T_values = np.geomspace(args.t_min, args.t_max, args.points)
    rows = []
    for T in T_values:
        K = inv.kernel(float(T))
        out = teleport(inv, K, 1.0)
        rows.append([T, abs(K), abs(out.E_o), abs(out.E_o_prime)])
    sep_path = out_dir / "separation.csv"
    with open(sep_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("T,abs_K,abs_E_o,abs_E_o_prime\n")
        np.savetxt(fh, np.asarray(rows), delimiter=",", fmt="%.17g")

    for quantity, expected in (("kernel", -6.0), ("spin", -12.0), ("oscillator", -12.0)):
        fit = separation_scaling_fit(cfg, T_values, quantity=quantity)
        print(f"{quantity:>10s} slope = {fit.slope:+.4f}  (expected {expected:+.0f})")

    lam_c = crossover_amplitude(cfg)
    print(f"crossover lambda_c = {lam_c:.10g}")
    lams = np.linspace(0.25 * lam_c, 4.0 * lam_c, 25)
    K = inv.kernel(args.t_min)
    rows = []
    for lam in lams:
        out = teleport(inv, K, float(lam))
        rows.append([lam, out.D_q, out.D_ho, abs(out.E_o), abs(out.E_o_prime)])
    cross_path = out_dir / "crossover.csv"
    with open(cross_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("lambda,D_q,D_ho,abs_E_o,abs_E_o_prime\n")
        np.savetxt(fh, np.asarray(rows), delimiter=",", fmt="%.17g")

    print(f"wrote {sep_path} and {cross_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
