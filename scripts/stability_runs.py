#!/usr/bin/env python3
"""Stability study: build the kappa = 5/2 wave family near the solitary
mass, sample each solitary core onto the lattice and integrate, recording
core energy loss and outer amplitude; a monatomic run provides the baseline.
"""

import argparse
from pathlib import Path

from fputw import diatomic as di
from fputw import lattice as lat
from fputw import monatomic as mono
from fputw.cli import write_csv
from fputw.continuation import continue_branch, find_solitary, stability_family


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa", type=float, default=2.5)
    ap.add_argument("--T", type=float, default=5000.0)
    ap.add_argument("--out", default="results/stability")
    args = ap.parse_args(argv)

    try:
        sim = lat.SimConfig(horizon=args.T)
    except ValueError as exc:
        ap.error(str(exc))
    if sim.horizon < sim.baseline_time:
        # the core-loss baseline is taken at t = baseline_time, so a shorter
        # run would report Gamma_final = nan for every wave
        ap.error(f"--T {args.T:g} ends before the core-loss baseline time "
                 f"{sim.baseline_time:g}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    mw = mono.solve_profile(args.kappa)
    seed = di.seed_from_monatomic(mw)
    branch = continue_branch(seed, "mu", 2.3, 0.1,
                             stop_when=lambda p: p.sign_change)
    waves = stability_family(branch, find_solitary(branch).waves[0])

    summary = []
    for wave in waves:
        state = lat.sample_initial_condition(wave, resolution=512)
        series = lat.run_simulation(state, sim)
        tag = f"m{wave.m:.8f}"
        write_csv(out / f"diatomic_{tag}.csv", lat.DiagnosticSeries.COLUMNS,
                  series.rows())
        summary.append((wave.m, wave.alpha_p, series.gamma_at(args.T),
                        max(series.a_out)))
        print(f"m={wave.m:.8f} alpha_P={wave.alpha_p:+.3e} "
              f"Gamma({args.T:g})={series.gamma_at(args.T):+.3e}")

    state = lat.sample_initial_condition(mw, resolution=512)
    series = lat.run_simulation(state, sim)
    write_csv(out / "monatomic_baseline.csv", lat.DiagnosticSeries.COLUMNS,
              series.rows())
    print(f"monatomic baseline Gamma({args.T:g})={series.gamma_at(args.T):+.3e}")
    write_csv(out / "summary.csv", ("m", "alpha_P", "Gamma_final", "A_out_max"),
              summary)


if __name__ == "__main__":
    main()
