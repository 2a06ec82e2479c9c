"""Command-line front end: scans, branch tracing, simulations, file I/O.

Every subcommand writes deterministic CSV files (17 significant digits) plus
a manifest listing outputs with their SHA-256 hashes; only the manifest
timestamp varies between identical runs.  Each file is written to a
temporary name and renamed into place, so an interrupted run never leaves a
truncated output.  Exit codes: 0 success, 1 numerical failure
(machine-readable reason on stderr), 2 usage errors (an input file that
is missing, a directory or unreadable among them, reported before the
output directory is made).

Any option may also come from a flat key-value config file (``--config``)
with a [global] section and one section per subcommand; a key is the option
name without its dashes, and a flag is written ``key = true``.  Command-line
flags override file values, and the environment variable FPUTW_OUT overrides
``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checkpoint, continuation, diatomic, lattice, monatomic
from .errors import FputwError
from .solution import Mesh

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


def write_manifest(outdir: Path, subcommand: str, params: dict, files,
                   events: dict[str, int] | None = None) -> None:
    lines = [f"# generated {datetime.now(timezone.utc).isoformat()}",
             f"subcommand {subcommand}"]
    for k in sorted(params):
        lines.append(f"param {k}={params[k]}")
    for kind, count in (events or {}).items():
        lines.append(f"events {kind}={count}")
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


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` (subcommand first) with the [global] and [<subcommand>]
    entries of its ``--config`` file inserted after the subcommand as
    ``--key=value`` flags (``key = true`` gives the bare ``--key``), so
    argparse types and checks them like any flag and later flags win."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:
        path = None         # the full parser reports the malformed flag
    if path is None:
        return argv
    sections = read_config(path)
    entries = {**sections.get("global", {}), **sections.get(argv[0], {})}
    return argv[:1] + [f"--{key}" if val == "true" else f"--{key}={val}"
                       for key, val in entries.items()] + argv[1:]


def _resolve_mu(args) -> float | None:
    if args.mu is not None and args.m is not None:
        raise ValueError("give exactly one of --mu / --m")
    if args.mu is not None:
        if args.mu <= -1:
            raise ValueError("--mu must exceed -1 (mass m = 1/(1+mu) > 0)")
        return args.mu
    if args.m is not None:
        if args.m <= 0:
            raise ValueError("--m must be positive")
        return 1.0 / args.m - 1.0
    return None


def _outdir(args) -> Path:
    path = Path(os.environ.get("FPUTW_OUT") or args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _given(args, **options) -> dict:
    """``{name: args.<option>}`` for the options given on the command line
    or in the config file, so each default lives only with its callee."""
    return {name: getattr(args, opt) for name, opt in options.items()
            if getattr(args, opt) is not None}


def _meshes(args) -> tuple[Mesh, Mesh]:
    """The (solitary, ripple) meshes of the mesh options over their defaults."""
    shared = _given(args, length="L", gauss_order="gauss")
    return (replace(monatomic.MESH, **shared, **_given(args, intervals="mesh")),
            replace(diatomic.RIPPLE_MESH, **shared,
                    **_given(args, intervals="ripple_mesh")))


def _step(text: str) -> float:
    """argparse type of a continuation step: non-zero and finite."""
    step = float(text)
    if step == 0.0 or not np.isfinite(step):
        raise argparse.ArgumentTypeError(f"step must be non-zero and finite, got {text}")
    return step


def _finite(text: str, positive: bool = False) -> float:
    """argparse type of a float option that reaches a solve: finite, and
    positive where ``positive``."""
    value = float(text)
    if not np.isfinite(value) or (positive and value <= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be {'positive and ' if positive else ''}finite, got {text}")
    return value


def _positive(text: str) -> float:
    """argparse type of --kappa and of the mono-scan --step: positive and
    finite."""
    return _finite(text, positive=True)


def _parse_fix(text: str) -> tuple[str, float]:
    """argparse type of --fix: ``name=value`` with a finite value."""
    name, _, val = text.partition("=")
    name = name.strip().lower().replace("-", "_")
    if name not in diatomic.SCALAR_NAMES:
        raise argparse.ArgumentTypeError(f"must name one of sigma/mu/beta_p, got {name!r}")
    if not val:
        raise argparse.ArgumentTypeError("needs the form name=value")
    return name, _finite(val)


def _load_wave(ck: checkpoint.Checkpoint):
    """The traveling wave of a parsed diatomic-wave, monatomic-wave or
    monatomic-joint checkpoint."""
    if ck.kind == "diatomic-wave":
        return diatomic.wave_from_checkpoint(ck)
    if ck.kind == "monatomic-wave":
        return monatomic.wave_from_checkpoint(ck)
    if ck.kind == "monatomic-joint":
        return monatomic.joint_from_checkpoint(ck)[0]
    raise ValueError(f"checkpoint kind {ck.kind!r} holds no traveling wave")


def _load_seed_wave(args) -> diatomic.DiatomicWave:
    """Seed from the ``--seed-ckpt`` diatomic or monatomic checkpoint, or
    'auto'.  A checkpoint seed must be at ``--kappa`` and on the meshes of
    the mesh options, which every later solve takes from the seed."""
    path, kappa = args.seed_ckpt, args.kappa
    solitary, ripple = _meshes(args)
    if path is None or path == "auto":
        wave = monatomic.solve_profile(kappa, solitary)
    else:
        wave = _load_wave(checkpoint.read(path))
        # continuation leaves kappas a few ulps off the typed decimal
        if abs(wave.kappa - kappa) > 1e-9 * max(1.0, abs(kappa)):
            raise ValueError(f"seed checkpoint is at kappa={wave.kappa!r}, "
                             f"not --kappa {kappa!r}")
    if isinstance(wave, monatomic.MonatomicWave):
        wave = diatomic.seed_from_monatomic(wave, ripple)
    meshes = (wave.solitary.mesh, wave.ripple.mesh)
    if meshes != (solitary, ripple):
        raise ValueError(f"seed checkpoint is on the meshes {meshes}, the mesh "
                         f"options give {(solitary, ripple)}")
    return wave


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_mono_scan(args) -> int:
    res = monatomic.kappa_scan(args.from_, args.to, args.step, _meshes(args)[0])
    out = _outdir(args)
    write_csv(out / "mono_scan.csv", monatomic.SCAN_COLUMNS,
              [r.values() for r in res.rows])
    files = ["mono_scan.csv"]
    for row, wave, jost in zip(res.rows, res.waves, res.josts):
        files.append(f"joint_k{row.kappa:.6g}.ckpt")
        monatomic.save_joint(wave, jost, out / files[-1])
    write_manifest(out, "mono-scan",
                   {"from": args.from_, "to": args.to, "step": args.step,
                    "aborted": res.aborted_reason or "no"},
                   files)
    if res.aborted_reason:
        print(f"FPUTW-ERROR kind=NonConvergence message={res.aborted_reason}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {len(res.rows)} rows to {out/'mono_scan.csv'}")
    return 0


def cmd_jost(args) -> int:
    out = _outdir(args)
    wave, jost = monatomic.solve_joint(args.kappa, _meshes(args)[0])
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
    wave, jost = monatomic.solve_joint(args.kappa, _meshes(args)[0])
    coeff = monatomic.amplitude_coefficient(wave, jost)
    write_csv(out / "kc.csv", monatomic.SCAN_COLUMNS,
              [monatomic.ScanRow.of(wave, jost, coeff).values()])
    write_manifest(out, "kc", {"kappa": args.kappa}, ["kc.csv"])
    print(f"K_sigma({args.kappa}) = {coeff.coefficient:.10g} "
          f"(monitor {coeff.monitor_residual:.3e}, reliable={coeff.reliable})")
    return 0


def cmd_periodic(args) -> int:
    out = _outdir(args)
    mu = _resolve_mu(args)
    if mu is None or args.sigma is None:
        raise ValueError("periodic needs --sigma and --mu/--m")
    ripple = diatomic.solve_periodic(args.sigma, mu, args.beta_P or 0.0, _meshes(args)[1])
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
    fix_name, fix_value = args.fix
    seed = _load_seed_wave(args)
    out = _outdir(args)
    gap = abs(fix_value - getattr(seed, fix_name))
    if gap > 0.05:
        # distant target: walk there by continuation instead of one jump
        branch = continuation.continue_branch(seed, fix_name, fix_value,
                                              min(0.05, gap))
        wave = branch.waves[-1]
        if abs(getattr(wave, fix_name) - fix_value) > 1e-10:
            raise FputwError(
                f"continuation toward {fix_name}={fix_value} stopped early "
                f"({branch.terminated_reason})")
    else:
        seed = diatomic.refresh_ripple_guess(seed, fix_name, fix_value)
        wave = diatomic.solve_wave(args.kappa, fix_name, fix_value, seed)
    write_csv(out / "wave.csv", continuation.BRANCH_COLUMNS,
              [continuation.point_from_wave(wave).values()])
    diatomic.save_wave(wave, out / "wave.ckpt")
    write_manifest(out, "wave",
                   {"kappa": args.kappa, "fix": f"{fix_name}={fix_value}"},
                   ["wave.csv", "wave.ckpt"])
    print(f"m={wave.m:.10g} sigma={wave.sigma:.10g} alpha_P={wave.alpha_p:.6g} "
          f"class={wave.ripple_class}")
    return 0


def cmd_branch(args) -> int:
    seed = _load_seed_wave(args)
    out = _outdir(args)
    ckpt_dir = out / "branch_ckpts"
    ckpt_dir.mkdir(exist_ok=True)
    branch = continuation.continue_branch(
        seed, args.driver, args.to, args.step, step_in_m=bool(args.step_in_m),
        checkpoint_dir=ckpt_dir, keep_waves=False)
    write_csv(out / "branch.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in branch.points])
    own = [continuation.point_file(i) for i in range(len(branch.points))]
    for path in ckpt_dir.glob("point*.ckpt"):
        if path.name not in own:
            path.unlink()       # left by an earlier, longer trace
    files = ["branch.csv"] + [f"branch_ckpts/{name}" for name in own]
    write_manifest(out, "branch",
                   {"kappa": args.kappa, "driver": args.driver, "to": args.to,
                    "step": args.step, "reason": branch.terminated_reason},
                   files, continuation.event_counts(branch))
    print(f"{len(branch.points)} points, terminated: {branch.terminated_reason}; "
          f"folds at {branch.folds}, sign changes at {branch.sign_changes}")
    return 0


def cmd_solitary(args) -> int:
    seed = _load_seed_wave(args)
    out = _outdir(args)
    branch = continuation.continue_branch(
        seed, "mu", args.mu_to, args.step, stop_when=lambda p: p.sign_change)
    if not branch.sign_changes:
        print("FPUTW-ERROR kind=NoSignChange message=no alpha_P sign change "
              f"found up to mu={args.mu_to}", file=sys.stderr)
        return EXIT_NUMERICAL
    sol = continuation.find_solitary(
        branch, **_given(args, kappa_to="scan_to", kappa_step="scan_step"))
    write_csv(out / "solitary.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in sol.points])
    files = ["solitary.csv"]
    for i, w in enumerate(sol.waves):
        name = f"solitary_{i:03d}.ckpt"
        diatomic.save_wave(w, out / name)
        files.append(name)
    # events of the mu branch to the sign change and, with --scan-to, of the
    # kappa continuation of the solitary wave
    write_manifest(out, "solitary",
                   {"kappa": args.kappa, "mu_to": args.mu_to}, files,
                   continuation.event_counts(branch, sol))
    p0 = sol.points[0]
    print(f"solitary at kappa={p0.kappa}: m={p0.m:.10g} sigma={p0.sigma:.10g}")
    return 0


def cmd_cross_section(args) -> int:
    out = _outdir(args)
    solitary, ripple = _meshes(args)
    sigma = args.sigma
    # anchor where the iso-sigma curve crosses the equal-mass axis: the
    # monatomic wave whose speed equals sigma is an exact seed
    mono_wave = _wave_at_speed(sigma, solitary)
    kap = mono_wave.kappa
    seed = diatomic.seed_from_monatomic(mono_wave, ripple)
    seed = diatomic.solve_wave(kap, "sigma", sigma, seed)
    traces = []
    if args.from_ is not None and abs(args.from_ - kap) > 1e-9:
        lead = continuation.continue_branch(
            seed, "kappa", args.from_, args.step, fixed=("sigma", sigma))
        seed = lead.waves[-1]
        traces.append(lead)
    branch = continuation.continue_branch(
        seed, "kappa", args.to, args.step, fixed=("sigma", sigma),
        keep_waves=False)
    traces.append(branch)
    write_csv(out / "cross_section.csv", continuation.BRANCH_COLUMNS,
              [p.values() for p in branch.points])
    write_manifest(out, "cross-section",
                   {"sigma": sigma, "from": kap, "to": args.to,
                    "step": args.step, "reason": branch.terminated_reason},
                   ["cross_section.csv"], continuation.event_counts(*traces))
    print(f"{len(branch.points)} points, terminated: {branch.terminated_reason}")
    return 0


def _wave_at_speed(sigma: float, mesh: Mesh) -> monatomic.MonatomicWave:
    """Invert the monatomic speed law sigma(kappa) by secant iteration on
    ``mesh``; the last profile solved, whose speed is sigma after convergence."""
    kap = max(0.25, np.sqrt(max(24.0 * (sigma - 1.0), 1e-4)))
    w = monatomic.solve_profile(kap, mesh)
    f0, k0 = w.sigma - sigma, kap
    kap1 = kap * (1.0 + 0.05 * np.sign(-f0))
    for _ in range(20):
        w = monatomic.solve_profile(kap1, guess=w)
        f1 = w.sigma - sigma
        if abs(f1) < 1e-10 or f1 == f0:
            break
        k0, kap1, f0 = kap1, kap1 - f1 * (kap1 - k0) / (f1 - f0), f1
    return w


def _reject_unused(args, kind: str, **flags) -> None:
    """Usage error naming the ``flags`` (flag -> dest) given that a ``kind``
    initial condition does not use."""
    if given := _given(args, **flags):
        raise ValueError(f"{' and '.join(given)} cannot be used with a {kind} "
                         "initial condition")


def _load_lattice_ic(args) -> lattice.LatticeState:
    path = args.ic
    with open(path) as fh:
        is_checkpoint = fh.readline().startswith(checkpoint.MAGIC)
    if is_checkpoint:
        # the wave sets the masses
        _reject_unused(args, "checkpoint", **{"--mu": "mu", "--m": "m"})
        # a broken checkpoint raises its own error instead of reading as text
        return lattice.sample_initial_condition(
            _load_wave(checkpoint.read(path)),
            **_given(args, peak_site="peak_site", n="sites"))
    # plain text: 2N rows of "site value", r block then p block, taken as is
    _reject_unused(args, "text", **{"--sites": "sites", "--peak-site": "peak_site"})
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] % 2:
        raise ValueError("text initial condition must have 2N rows of 'site value'")
    half = data.shape[0] // 2
    r, p = data[:half, 1], data[half:, 1]
    mu = _resolve_mu(args)
    mass = 1.0 if mu is None else 1.0 / (1.0 + mu)
    return lattice.LatticeState(r, p, mass_ratio=mass)


def cmd_simulate(args) -> int:
    cfg = lattice.SimConfig(**_given(args, dt="dt", horizon="T",
                                     recenter_period="recenter_period"))
    state = _load_lattice_ic(args)
    out = _outdir(args)
    series = lattice.run_simulation(state, cfg)
    write_csv(out / "diagnostics.csv", lattice.DiagnosticSeries.COLUMNS,
              series.rows())
    write_manifest(out, "simulate",
                   {"T": cfg.horizon, "dt": cfg.dt,
                    "recenter_period": cfg.recenter_period,
                    "alarms": sum(series.alarms)},
                   ["diagnostics.csv"])
    print(f"Gamma_core(final) = {series.gamma_core[-1]:.6g}, "
          f"alarms = {sum(series.alarms)}")
    return 0


def cmd_transform(args) -> int:
    ck = checkpoint.read(args.ckpt)
    if ck.kind != "diatomic-wave":
        raise ValueError(f"transform needs a diatomic-wave checkpoint, "
                         f"got kind {ck.kind!r}")
    wave = diatomic.wave_from_checkpoint(ck)
    out = _outdir(args)
    mirrored = diatomic.symmetry_transform(wave)
    diatomic.save_wave(mirrored, out / "transformed.ckpt")
    write_csv(out / "transform.csv", continuation.BRANCH_COLUMNS,
              [continuation.point_from_wave(w).values()
               for w in (wave, mirrored)])
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
    p.add_argument("--from", dest="from_", type=_finite, required=True)
    p.add_argument("--to", type=_finite, required=True)
    p.add_argument("--step", type=_positive, default=0.25)
    p.set_defaults(func=cmd_mono_scan)

    p = sub.add_parser("jost", help="solve the joint wave + Jost system")
    common(p)
    p.add_argument("--kappa", type=_positive, required=True)
    p.set_defaults(func=cmd_jost)

    p = sub.add_parser("kc", help="ripple-amplitude coefficient K_sigma")
    common(p)
    p.add_argument("--kappa", type=_positive, required=True)
    p.set_defaults(func=cmd_kc)

    p = sub.add_parser("periodic", help="nonlinear periodic ripple")
    common(p)
    p.add_argument("--sigma", type=_finite)
    p.add_argument("--mu", type=_finite)
    p.add_argument("--m", type=_finite)
    p.add_argument("--beta-P", dest="beta_P", type=_finite)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("wave", help="single diatomic wave solve")
    common(p)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--fix", type=_parse_fix, required=True, help="sigma|mu|beta_p=value")
    p.add_argument("--seed-ckpt", dest="seed_ckpt",
                   help="seed checkpoint (or 'auto')")
    p.set_defaults(func=cmd_wave)

    p = sub.add_parser("branch", help="iso-kappa branch continuation")
    common(p)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--driver", choices=("sigma", "mu", "beta_p"), default="mu")
    p.add_argument("--to", type=_finite, required=True)
    p.add_argument("--step", type=_step, required=True)
    p.add_argument("--step-in-m", dest="step_in_m", action="store_true",
                   help="step the mu driver uniformly in m")
    p.add_argument("--seed-ckpt", dest="seed_ckpt")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("solitary", help="locate and scan solitary waves")
    common(p)
    p.add_argument("--kappa", type=_positive, required=True)
    p.add_argument("--mu-to", dest="mu_to", type=_finite, default=2.5,
                   help="search range for the alpha_P sign change")
    p.add_argument("--step", type=_step, default=0.1)
    p.add_argument("--scan-to", dest="scan_to", type=_finite,
                   help="continue the solitary branch in kappa to this value")
    p.add_argument("--scan-step", dest="scan_step", type=_step)
    p.add_argument("--seed-ckpt", dest="seed_ckpt")
    p.set_defaults(func=cmd_solitary)

    p = sub.add_parser("cross-section", help="iso-sigma kappa scan")
    common(p)
    p.add_argument("--sigma", type=_finite, required=True)
    p.add_argument("--from", dest="from_", type=_finite,
                   help="starting kappa (default: equal-mass anchor)")
    p.add_argument("--to", type=_finite, required=True)
    p.add_argument("--step", type=_step, required=True)
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
    p.add_argument("--mu", type=_finite)
    p.add_argument("--m", type=_finite)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("transform", help="apply the m <-> 1/m symmetry")
    common(p, mesh=False)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_with_config(argv))
        return args.func(args)
    except FputwError as exc:
        print(f"FPUTW-ERROR kind={type(exc).__name__} message={exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        parser.exit(EXIT_USAGE, f"usage error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
