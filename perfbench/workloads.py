"""The benchmark workloads: the CLI argument lists of one operation, the
inputs each workload generates first, and the checks on what the CLI wrote.

Seed 0 runs the parameter points below exactly and checks the outputs
against the paper's anchors.  Any other seed shifts one input by a small
offset drawn from the seed; the checks then fall back to self-consistency
(converged Newton, beta_P == 0, monitor below 1e-3, no alarms).
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

SOLITARY_M = 0.32701849      # kappa = 5/2 solitary mass (acceptance criterion 07)
M_BAND = 0.005               # criterion 07's band on m
SIGMA_BAND = (1.555, 1.585)  # criterion 07's band on sigma
NEWTON_TOL = 1e-10           # fputw.mfde.NewtonConfig.tol
MONITOR_MAX = 1e-3
LATTICE_T = 102.0            # just past SimConfig.baseline_time = 100


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    shifts = ""          # which input a non-zero seed moves
    max_offset = 0.0     # the move is uniform in [-max_offset, max_offset]
    main_layers = ()     # per-layer counters that must be non-zero when traced

    def offset(self, seed: int) -> float:
        if seed == 0:
            return 0.0
        return random.Random(f"{self.name}:{seed}").uniform(-self.max_offset, self.max_offset)

    def setup(self, cli_main, off: float, work: Path) -> None:
        """Generate the inputs the timed operations read."""

    def ops(self, off: float, inputs: Path, out: Path, index: int) -> list[list[str]]:
        """The CLI calls of operation ``index``."""
        raise NotImplementedError

    def check(self, off: float, out: Path, anchored: bool) -> list[str]:
        """Misses of one operation's outputs; empty when correct."""
        raise NotImplementedError


class Solitary(Workload):
    name = "solitary"
    shifts = "kappa"
    max_offset = 0.01
    main_layers = ("mfde.factor_calls.n2563", "diatomic.wave_solves",
                   "continuation.bisect_solves")

    def ops(self, off, inputs, out, index):
        return [["solitary", "--kappa", repr(2.5 + off), "--mu-to", "2.3",
                 "--mesh", "128", "--out", str(out)]]

    def check(self, off, out, anchored):
        p = read_rows(out / "solitary.csv")[0]
        m, sigma = float(p["m"]), float(p["sigma"])
        misses = []
        if float(p["beta_P"]) != 0.0:
            misses.append(f"beta_P = {p['beta_P']}, not 0")
        if not float(p["resid"]) <= NEWTON_TOL:
            misses.append(f"Newton residual {p['resid']}")
        if anchored and not abs(m - SOLITARY_M) < M_BAND:
            misses.append(f"m = {m} outside {SOLITARY_M} +- {M_BAND}")
        if anchored and not SIGMA_BAND[0] <= sigma <= SIGMA_BAND[1]:
            misses.append(f"sigma = {sigma} outside {SIGMA_BAND}")
        return misses


class Scan(Workload):
    name = "scan"
    shifts = "kappa"
    max_offset = 0.02
    main_layers = ("monatomic.kc_points", "solution.eval_calls",
                   "mfde.newton_calls.n4097", "mfde.newton_calls.n8195",
                   "checkpoint.writes")
    start, stop, step = 2.0, 2.5, 0.25

    def ops(self, off, inputs, out, index):
        return [["mono-scan", "--from", repr(self.start + off),
                 "--to", repr(self.stop + off), "--step", repr(self.step),
                 "--out", str(out)]]

    def check(self, off, out, anchored):
        rows = read_rows(out / "mono_scan.csv")
        want = round((self.stop - self.start) / self.step) + 1
        misses = []
        if len(rows) != want:
            misses.append(f"{len(rows)} rows, expected {want}")
        if len(list(out.glob("joint_k*.ckpt"))) != len(rows):
            misses.append("one joint checkpoint per row expected")
        for r in rows:
            if not float(r["monitor_resid"]) < MONITOR_MAX:
                misses.append(f"kappa={r['kappa']}: monitor {r['monitor_resid']}")
            if anchored and not float(r["K"]) < 0.0:
                misses.append(f"kappa={r['kappa']}: K_sigma = {r['K']} not negative")
        return misses


class CrossSection(Workload):
    name = "xsec"
    shifts = "kappa target"
    max_offset = 0.0003
    main_layers = ("mfde.factor_calls.n2563", "continuation.solves")
    sigma, to = 1.1, 1.565

    def ops(self, off, inputs, out, index):
        return [["cross-section", "--sigma", repr(self.sigma),
                 "--to", repr(self.to + off), "--step", "0.05",
                 "--mesh", "128", "--out", str(out)]]

    def check(self, off, out, anchored):
        rows = read_rows(out / "cross_section.csv")
        misses = []
        for r in rows:
            if not abs(float(r["sigma"]) - self.sigma) <= 1e-9:
                misses.append(f"row sigma = {r['sigma']}, not {self.sigma}")
            if not float(r["resid"]) <= NEWTON_TOL:
                misses.append(f"kappa={r['kappa']}: Newton residual {r['resid']}")
        if not abs(float(rows[-1]["kappa"]) - (self.to + off)) <= 1e-12:
            misses.append(f"kappa target {self.to + off} not reached "
                          f"(last row {rows[-1]['kappa']})")
        return misses


class Lattice(Workload):
    name = "lattice"
    shifts = "mu of the diatomic initial condition"
    max_offset = 0.002
    main_layers = ("lattice.steps", "lattice.sample_s", "checkpoint.read_s")
    kappa, mu = 2.5, 0.01

    def setup(self, cli_main, off, work):
        mono, dia = work / "mono", work / "dia"
        calls = (["jost", "--kappa", repr(self.kappa), "--mesh", "128", "--out", str(mono)],
                 ["wave", "--kappa", repr(self.kappa), "--fix", f"mu={self.mu + off!r}",
                  "--seed-ckpt", str(mono / "joint.ckpt"), "--mesh", "128",
                  "--out", str(dia)])
        for argv in calls:
            code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"set-up call {argv[0]} exited {code}")

    def ops(self, off, inputs, out, index):
        # operations alternate between the diatomic wave and its monatomic
        # baseline, the pair criterion 11 compares
        ic = "dia/wave.ckpt" if index % 2 == 0 else "mono/joint.ckpt"
        return [["simulate", "--ic", str(inputs / ic), "--T", repr(LATTICE_T),
                 "--out", str(out)]]

    def check(self, off, out, anchored):
        rows = read_rows(out / "diagnostics.csv")
        misses = []
        if any(r["alarm"] != "0" for r in rows):
            misses.append("energy-drift alarm")
        last = rows[-1]
        if float(last["t"]) != LATTICE_T:
            misses.append(f"run ended at t={last['t']}")
        if not math.isfinite(float(last["Gamma_core"])):
            misses.append(f"Gamma_core at the horizon is {last['Gamma_core']}")
        return misses


WORKLOADS = {w.name: w for w in (Solitary(), Scan(), CrossSection(), Lattice())}

# Problem sizes (unknowns) that tag the per-layer mfde metrics: the
# monatomic profile and joint system on the default 512-interval mesh (scan),
# and the monatomic profile and diatomic wave on the 128-interval mesh
# (solitary, xsec).
SIZES = (1025, 2563, 4097, 8195)
