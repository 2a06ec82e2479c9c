"""Command-line front end: scans, branch tracing, simulations, file I/O.

Every subcommand writes deterministic CSV files (17 significant digits) plus
a manifest listing outputs with their SHA-256 hashes; only the manifest
timestamp varies between identical runs.  Each file is written to a
temporary name and renamed into place, so an interrupted run never leaves a
truncated output.  Exit codes: 0 success, 1 numerical failure
(machine-readable reason on stderr), 2 usage errors.

Options may come from a flat key-value config file with one section per
subcommand (``--config``); command-line flags override file values, and the
environment variable FPUTW_OUT overrides ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checkpoint, continuation, diatomic, lattice, monatomic
from .errors import FputwError

EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    with checkpoint.atomic_writer(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_manifest(outdir: Path, subcommand: str, params: dict, files) -> None:
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}",
             f"subcommand {subcommand}"]
    for k in sorted(params):
        lines.append(f"param {k}={params[k]}")
    for f in sorted(files):
        digest = hashlib.sha256((outdir / f).read_bytes()).hexdigest()
        lines.append(f"file {f} sha256={digest}")
    with checkpoint.atomic_writer(outdir / "manifest.txt") as fh:
        fh.write("\n".join(lines) + "\n")


def read_config(path) -> dict[str, dict[str, str]]:
    """Flat key-value config with [section] headers."""
    sections: dict[str, dict[str, str]] = {}
    current = "global"
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, val = line.split("=", 1)
        sections.setdefault(current, {})[key.strip()] = val.strip()
    return sections


def _subcommand_actions(parser: argparse.ArgumentParser, command: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]._actions
    return []


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if not getattr(args, "config", None):
        return args
    sections = read_config(args.config)
    merged = {}
    merged.update(sections.get("global", {}))
    merged.update(sections.get(args.command, {}))
    actions = _subcommand_actions(parser, args.command)
    for key, val in merged.items():
        attr = key.replace("-", "_")
        if attr == "from":
            attr = "from_"
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        if getattr(args, attr) is None:
            for action in actions:
                if action.dest == attr and action.type is not None:
                    val = action.type(val)
                    break
            setattr(args, attr, val)
    return args


def _resolve_mu(args) -> float | None:
    if getattr(args, "mu", None) is not None and getattr(args, "m", None) is not None:
        raise ValueError("give exactly one of --mu / --m")
    if getattr(args, "mu", None) is not None:
        return args.mu
    if getattr(args, "m", None) is not None:
        if args.m <= 0:
            raise ValueError("--m must be positive")
        return 1.0 / args.m - 1.0
    return None


def _outdir(args) -> Path:
    out = os.environ.get("FPUTW_OUT") or args.out or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _dia_config(args) -> diatomic.DiatomicConfig:
    return diatomic.DiatomicConfig(
        length=args.L if args.L is not None else 32.0,
        solitary_intervals=args.mesh if args.mesh is not None else 512,
        ripple_intervals=args.ripple_mesh if args.ripple_mesh is not None else 32,
        gauss_order=args.gauss if args.gauss is not None else 3)


def _mono_config(args) -> monatomic.MonatomicConfig:
    return _dia_config(args).monatomic()


def _parse_fix(text: str) -> tuple[str, float]:
    name, _, val = text.partition("=")
    name = name.strip().lower().replace("-", "_")
    if name == "beta_P".lower():
        name = "beta_p"
    if name not in diatomic.SCALAR_NAMES:
        raise ValueError(f"--fix must name one of sigma/mu/beta_p, got {name!r}")
    if not val:
        raise ValueError("--fix needs the form name=value")
    return name, float(val)


def _load_seed_wave(path, kappa, cfg) -> diatomic.DiatomicWave:
    """Seed from a diatomic checkpoint, a monatomic checkpoint, or 'auto'."""
    if path is None or path == "auto":
        mono_wave = monatomic.solve_profile(kappa, cfg.monatomic())
        return diatomic.seed_from_monatomic(mono_wave, cfg)
    ck = checkpoint.read(path)
    if ck.kind == "diatomic-wave":
        return diatomic.load_wave(path)
    if ck.kind == "monatomic-wave":
        return diatomic.seed_from_monatomic(monatomic.load_wave(path), cfg)
    if ck.kind == "monatomic-joint":
        wave, _ = monatomic.load_joint(path)
        return diatomic.seed_from_monatomic(wave, cfg)
    raise ValueError(f"cannot seed a wave from checkpoint kind {ck.kind!r}")


WAVE_COLUMNS = continuation.BRANCH_COLUMNS


def _wave_row(w: diatomic.DiatomicWave):
    return (w.kappa, w.sigma, w.m, w.mu, w.beta_p, w.omega_p, w.alpha_p,
            w.ripple_class, w.fixed_param, w.iterations, w.residual_norm)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_mono_scan(args) -> int:
    out = _outdir(args)
    cfg = _mono_config(args)
    res = monatomic.kappa_scan(args.from_, args.to, args.step, cfg,
                               n_quad=args.n_quad)
    files = []
    write_csv(out / "mono_scan.csv", monatomic.SCAN_COLUMNS,
              [r.values() for r in res.rows])
    files.append("mono_scan.csv")
    for row, wave, jost in zip(res.rows, res.waves, res.josts):
        name = f"joint_k{row.kappa:.6g}.ckpt"
        monatomic.save_joint(wave, jost, out / name)
        files.append(name)
    write_manifest(out, "mono-scan",
                   {"from": args.from_, "to": args.to, "step": args.step,
                    "aborted": res.aborted_reason or "no"}, files)
    if res.aborted_reason:
        print(f"FPUTW-ERROR kind=NonConvergence message={res.aborted_reason}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {len(res.rows)} rows to {out/'mono_scan.csv'}")
    return 0


def cmd_jost(args) -> int:
    out = _outdir(args)
    cfg = _mono_config(args)
    wave, jost = monatomic.solve_joint(args.kappa, cfg)
    write_csv(out / "jost.csv",
              ("kappa", "sigma", "omega_ups", "theta_ups", "beta_ups",
               "resid", "newton_iters"),
              [(jost.kappa, jost.sigma, jost.omega, jost.theta, jost.beta,
                jost.residual_norm, jost.iterations)])
    monatomic.save_joint(wave, jost, out / "joint.ckpt")
    write_manifest(out, "jost", {"kappa": args.kappa}, ["jost.csv", "joint.ckpt"])
    print(f"kappa={args.kappa}: omega*theta={jost.omega*jost.theta:.10g}")
    return 0


def cmd_kc(args) -> int:
    out = _outdir(args)
    cfg = _mono_config(args)
    wave, jost = monatomic.solve_joint(args.kappa, cfg)
    coeff = monatomic.amplitude_coefficient(wave, jost, n_quad=args.n_quad)
    write_csv(out / "kc.csv", monatomic.SCAN_COLUMNS,
              [(wave.kappa, wave.sigma, jost.omega, jost.theta, jost.beta,
                coeff.i_eta, coeff.i_chi, coeff.coefficient,
                coeff.monitor_residual, coeff.reliable, jost.iterations)])
    write_manifest(out, "kc", {"kappa": args.kappa, "n_quad": args.n_quad},
                   ["kc.csv"])
    print(f"K_sigma({args.kappa}) = {coeff.coefficient:.10g} "
          f"(monitor {coeff.monitor_residual:.3e}, reliable={coeff.reliable})")
    return 0


def cmd_periodic(args) -> int:
    out = _outdir(args)
    cfg = _dia_config(args)
    mu = _resolve_mu(args)
    if mu is None or args.sigma is None:
        raise ValueError("periodic needs --sigma and --mu/--m")
    ripple = diatomic.solve_periodic(args.sigma, mu, args.beta_P or 0.0, cfg)
    write_csv(out / "periodic.csv",
              ("sigma", "mu", "beta_P", "omega_P", "omega_xi", "alpha_P",
               "orientation_ok", "resid", "newton_iters"),
              [(ripple.sigma, ripple.mu, ripple.beta_p, ripple.omega_p,
                ripple.omega_xi, ripple.alpha_p, ripple.orientation_ok,
                ripple.residual_norm, ripple.iterations)])
    ck = checkpoint.Checkpoint(
        "periodic-ripple",
        {"sigma": ripple.sigma, "mu": ripple.mu, "beta_p": ripple.beta_p,
         "omega_p": ripple.omega_p},
        [checkpoint.solution_to_block("ripple", ripple.profile)])
    checkpoint.write(ck, out / "periodic.ckpt")
    write_manifest(out, "periodic",
                   {"sigma": args.sigma, "mu": mu, "beta_P": args.beta_P or 0.0},
                   ["periodic.csv", "periodic.ckpt"])
    print(f"omega_P={ripple.omega_p:.10g} alpha_P={ripple.alpha_p:.10g}")
    return 0


def cmd_wave(args) -> int:
    out = _outdir(args)
    cfg = _dia_config(args)
    fix_name, fix_value = _parse_fix(args.fix)
    seed = _load_seed_wave(args.seed_ckpt, args.kappa, cfg)
    gap = abs(fix_value - getattr(seed, fix_name))
    if gap > 0.05:
        # distant target: walk there by continuation instead of one jump
        branch = continuation.continue_branch(seed, fix_name, fix_value,
                                              min(0.05, gap), cfg)
        wave = branch.waves[-1]
        if abs(getattr(wave, fix_name) - fix_value) > 1e-10:
            raise FputwError(
                f"continuation toward {fix_name}={fix_value} stopped early "
                f"({branch.terminated_reason})")
    else:
        if seed.beta_p == 0.0:
            mu_guess = fix_value if fix_name == "mu" else seed.mu
            seed = diatomic.refresh_ripple_guess(seed, mu_guess, cfg)
        wave = diatomic.solve_wave(args.kappa, fix_name, fix_value, seed, cfg)
    write_csv(out / "wave.csv", WAVE_COLUMNS, [_wave_row(wave)])
    diatomic.save_wave(wave, out / "wave.ckpt")
    write_manifest(out, "wave",
                   {"kappa": args.kappa, "fix": f"{fix_name}={fix_value}"},
                   ["wave.csv", "wave.ckpt"])
    print(f"m={wave.m:.10g} sigma={wave.sigma:.10g} alpha_P={wave.alpha_p:.6g} "
          f"class={wave.ripple_class}")
    return 0


def cmd_branch(args) -> int:
    out = _outdir(args)
    cfg = _dia_config(args)
    seed = _load_seed_wave(args.seed_ckpt, args.kappa, cfg)
    ckpt_dir = out / "branch_ckpts"
    ckpt_dir.mkdir(exist_ok=True)
    branch = continuation.continue_branch(
        seed, args.driver, args.to, args.step, cfg,
        step_in_m=bool(args.step_in_m), checkpoint_dir=ckpt_dir,
        keep_waves=False)
    write_csv(out / "branch.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in branch.points])
    files = ["branch.csv"] + [f"branch_ckpts/{f.name}"
                              for f in sorted(ckpt_dir.iterdir())]
    write_manifest(out, "branch",
                   {"kappa": args.kappa, "driver": args.driver, "to": args.to,
                    "step": args.step, "reason": branch.terminated_reason},
                   files)
    print(f"{len(branch.points)} points, terminated: {branch.terminated_reason}; "
          f"folds at {branch.folds}, sign changes at {branch.sign_changes}")
    return 0


def cmd_solitary(args) -> int:
    out = _outdir(args)
    cfg = _dia_config(args)
    seed = _load_seed_wave(args.seed_ckpt, args.kappa, cfg)
    branch = continuation.continue_branch(
        seed, "mu", args.mu_to, args.step, cfg,
        stop_when=lambda p: p.sign_change)
    if not branch.sign_changes:
        print("FPUTW-ERROR kind=NoSignChange message=no alpha_P sign change "
              f"found up to mu={args.mu_to}", file=sys.stderr)
        return EXIT_NUMERICAL
    kappa_range = None
    if args.scan_to is not None:
        kappa_range = (args.kappa, args.scan_to,
                       args.scan_step if args.scan_step is not None else 0.125)
    sol = continuation.find_solitary(branch, cfg, kappa_range=kappa_range)
    write_csv(out / "solitary.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in sol.points])
    files = ["solitary.csv"]
    for i, w in enumerate(sol.waves):
        name = f"solitary_{i:03d}.ckpt"
        diatomic.save_wave(w, out / name)
        files.append(name)
    write_manifest(out, "solitary",
                   {"kappa": args.kappa, "mu_to": args.mu_to}, files)
    p0 = sol.points[0]
    print(f"solitary at kappa={p0.kappa}: m={p0.m:.10g} sigma={p0.sigma:.10g}")
    return 0


def cmd_cross_section(args) -> int:
    out = _outdir(args)
    cfg = _dia_config(args)
    sigma = args.sigma
    if sigma is None:
        raise ValueError("cross-section needs --sigma")
    # anchor where the iso-sigma curve crosses the equal-mass axis: the
    # monatomic wave whose speed equals sigma is an exact seed
    mcfg = cfg.monatomic()
    kap = _kappa_at_speed(sigma, mcfg)
    mono_wave = monatomic.solve_profile(kap, mcfg)
    seed = diatomic.seed_from_monatomic(mono_wave, cfg)
    seed = diatomic.solve_wave(kap, "sigma", sigma, seed, cfg)
    if args.from_ is not None and abs(args.from_ - kap) > 1e-9:
        lead = continuation.continue_branch(
            seed, "kappa", args.from_, args.step, cfg, fixed=("sigma", sigma))
        seed = lead.waves[-1]
    branch = continuation.continue_branch(
        seed, "kappa", args.to, args.step, cfg, fixed=("sigma", sigma),
        keep_waves=False)
    write_csv(out / "cross_section.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in branch.points])
    write_manifest(out, "cross-section",
                   {"sigma": sigma, "from": kap, "to": args.to,
                    "step": args.step, "reason": branch.terminated_reason},
                   ["cross_section.csv"])
    print(f"{len(branch.points)} points, terminated: {branch.terminated_reason}")
    return 0


def _kappa_at_speed(sigma: float, mcfg: monatomic.MonatomicConfig) -> float:
    """Invert the monatomic speed law sigma(kappa) by secant iteration."""
    kap = max(0.25, np.sqrt(max(24.0 * (sigma - 1.0), 1e-4)))
    w = monatomic.solve_profile(kap, mcfg)
    f0, k0 = w.sigma - sigma, kap
    kap1 = kap * (1.0 + 0.05 * np.sign(-f0))
    for _ in range(20):
        w = monatomic.solve_profile(kap1, mcfg, guess=w)
        f1 = w.sigma - sigma
        if abs(f1) < 1e-10 or f1 == f0:
            return kap1
        k0, kap1, f0 = kap1, kap1 - f1 * (kap1 - k0) / (f1 - f0), f1
    return kap1


def _load_lattice_ic(args) -> lattice.LatticeState:
    path = args.ic
    if path is None:
        raise ValueError("simulate needs --ic (checkpoint or two-column text)")
    n = args.sites if args.sites is not None else 400
    peak = args.peak_site if args.peak_site is not None else 200
    try:
        ck = checkpoint.read(path)
    except FputwError:
        ck = None
    if ck is not None:
        if ck.kind == "diatomic-wave":
            return lattice.sample_initial_condition(diatomic.load_wave(path),
                                                    peak_site=peak, n=n)
        if ck.kind == "monatomic-wave":
            return lattice.sample_initial_condition(monatomic.load_wave(path),
                                                    peak_site=peak, n=n)
        if ck.kind == "monatomic-joint":
            wave, _ = monatomic.load_joint(path)
            return lattice.sample_initial_condition(wave, peak_site=peak, n=n)
        raise ValueError(f"cannot build an initial condition from {ck.kind!r}")
    # plain text: 2N rows of "site value", r block then p block
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] % 2:
        raise ValueError("text initial condition must have 2N rows of 'site value'")
    half = data.shape[0] // 2
    r, p = data[:half, 1], data[half:, 1]
    mu = _resolve_mu(args)
    mass = 1.0 if mu is None else 1.0 / (1.0 + mu)
    return lattice.LatticeState(r, p, mass_ratio=mass)


def cmd_simulate(args) -> int:
    out = _outdir(args)
    state = _load_lattice_ic(args)
    cfg = lattice.SimConfig(
        dt=args.dt if args.dt is not None else 1e-3,
        horizon=args.T if args.T is not None else 5000.0,
        recenter_period=args.recenter_period if args.recenter_period is not None else 60.0)
    series = lattice.run_simulation(state, cfg)
    rows = zip(series.times, series.energy_full, series.energy_core,
               series.gamma_core, series.a_out, series.shift_total,
               series.alarms)
    write_csv(out / "diagnostics.csv",
              ("t", "E_full", "E_core", "Gamma_core", "A_out", "shift_total",
               "alarm"), rows)
    write_manifest(out, "simulate",
                   {"T": cfg.horizon, "dt": cfg.dt,
                    "recenter_period": cfg.recenter_period,
                    "alarms": sum(series.alarms)},
                   ["diagnostics.csv"])
    print(f"Gamma_core(final) = {series.gamma_core[-1]:.6g}, "
          f"alarms = {sum(series.alarms)}")
    return 0


def cmd_transform(args) -> int:
    out = _outdir(args)
    if args.ckpt is None:
        raise ValueError("transform needs --ckpt")
    wave = diatomic.load_wave(args.ckpt)
    mirrored = diatomic.symmetry_transform(wave)
    diatomic.save_wave(mirrored, out / "transformed.ckpt")
    write_csv(out / "transform.csv", WAVE_COLUMNS,
              [_wave_row(wave), _wave_row(mirrored)])
    write_manifest(out, "transform", {"ckpt": str(args.ckpt)},
                   ["transform.csv", "transformed.ckpt"])
    print(f"(m={wave.m:.6g}, sigma={wave.sigma:.6g}) -> "
          f"(m={mirrored.m:.6g}, sigma={mirrored.sigma:.6g})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fputw",
        description="Diatomic FPUT traveling waves: solvers, continuation, "
                    "lattice simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mesh=True):
        p.add_argument("--config", help="key-value config file with [sections]")
        p.add_argument("--out", help="output directory (FPUTW_OUT overrides)")
        if mesh:
            p.add_argument("--L", type=float, help="computational interval length")
            p.add_argument("--mesh", type=int, help="solitary mesh intervals")
            p.add_argument("--ripple-mesh", type=int, dest="ripple_mesh",
                           help="ripple mesh intervals")
            p.add_argument("--gauss", type=int, help="Gauss nodes per interval")

    p = sub.add_parser("mono-scan", help="kappa scan of monatomic waves + K")
    common(p)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, default=0.25)
    p.add_argument("--n-quad", dest="n_quad", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_mono_scan)

    p = sub.add_parser("jost", help="solve the joint wave + Jost system")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.set_defaults(func=cmd_jost)

    p = sub.add_parser("kc", help="ripple-amplitude coefficient K_sigma")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n-quad", dest="n_quad", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_kc)

    p = sub.add_parser("periodic", help="nonlinear periodic ripple")
    common(p)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--m", type=float)
    p.add_argument("--beta-P", dest="beta_P", type=float)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("wave", help="single diatomic wave solve")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--fix", required=True, help="sigma|mu|beta_p=value")
    p.add_argument("--seed-ckpt", "--guess", dest="seed_ckpt",
                   help="seed checkpoint (or 'auto')")
    p.set_defaults(func=cmd_wave)

    p = sub.add_parser("branch", help="iso-kappa branch continuation")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--driver", choices=("sigma", "mu", "beta_p"), default="mu")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--step-in-m", dest="step_in_m", action="store_true",
                   help="step the mu driver uniformly in m")
    p.add_argument("--seed-ckpt", dest="seed_ckpt")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("solitary", help="locate and scan solitary waves")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--mu-to", dest="mu_to", type=float, default=2.5,
                   help="search range for the alpha_P sign change")
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--scan-to", dest="scan_to", type=float,
                   help="continue the solitary branch in kappa to this value")
    p.add_argument("--scan-step", dest="scan_step", type=float)
    p.add_argument("--seed-ckpt", dest="seed_ckpt")
    p.set_defaults(func=cmd_solitary)

    p = sub.add_parser("cross-section", help="iso-sigma kappa scan")
    common(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--from", dest="from_", type=float,
                   help="starting kappa (default: equal-mass anchor)")
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_cross_section)

    p = sub.add_parser("simulate", help="direct FPUT lattice integration")
    common(p, mesh=False)
    p.add_argument("--ic", required=True,
                   help="checkpoint or two-column text initial condition")
    p.add_argument("--T", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--recenter-period", dest="recenter_period", type=float)
    p.add_argument("--sites", type=int)
    p.add_argument("--peak-site", dest="peak_site", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--m", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="apply the m <-> 1/m symmetry")
    common(p, mesh=False)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, parser)
        return args.func(args)
    except FputwError as exc:
        print(f"FPUTW-ERROR kind={type(exc).__name__} message={exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
