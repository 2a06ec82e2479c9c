#!/usr/bin/env python3
"""Scan the monatomic family: wave speed, Jost phase shift and the
ripple-amplitude coefficient K_sigma over a range of kappa.

Writes mono_scan.csv plus per-kappa joint checkpoints under --out.
"""

import argparse
from pathlib import Path

from fputw import monatomic as mono
from fputw.cli import N_QUAD_HELP, fmt, write_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--from", dest="from_", type=float, default=0.5)
    ap.add_argument("--to", type=float, default=3.0)
    ap.add_argument("--step", type=float, default=0.125)
    ap.add_argument("--n-quad", type=int, default=10 ** 6, help=N_QUAD_HELP)
    ap.add_argument("--out", default="results/monatomic")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    res = mono.kappa_scan(args.from_, args.to, args.step, n_quad=args.n_quad)
    write_scan(out, res)
    print(f"{len(res.rows)} rows -> {out/'mono_scan.csv'}")
    for r in res.rows:
        print(f"  kappa={fmt(r.kappa):>8}  sigma={r.sigma:.8f}  "
              f"omega*theta={r.omega_ups*r.theta_ups:.8f}  K={r.k_coeff:+.6e}  "
              f"monitor={r.monitor_resid:.1e}")
    if res.aborted_reason:
        print("aborted:", res.aborted_reason)


if __name__ == "__main__":
    main()
