import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from fputw import checkpoint, cli, continuation
from fputw import diatomic as di
from fputw import lattice as lat
from fputw import monatomic as mono
from fputw.solution import Mesh


def run_cli(args, env=None):
    e = dict(os.environ)
    e.pop("FPUTW_OUT", None)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "fputw.cli", *args],
                          capture_output=True, text=True, env=e)


@pytest.fixture(scope="module")
def mono_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed") / "mono.ckpt"
    wave = mono.solve_profile(1.0, Mesh(32.0, 256))
    mono.save_wave(wave, path)
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_usage_error_exit_2():
    res = run_cli(["wave", "--kappa", "1.0"])      # missing --fix
    assert res.returncode == 2
    res = run_cli(["nonsense"])
    assert res.returncode == 2


def test_numerical_failure_exit_1(tmp_path):
    # periodic below the sound speed: machine-readable numerical failure
    res = run_cli(["periodic", "--sigma", "0.5", "--m", "1.0",
                   "--beta-P", "0.01", "--out", str(tmp_path)])
    assert res.returncode == 1
    assert "FPUTW-ERROR" in res.stderr
    assert "kind=" in res.stderr


def test_mu_m_exclusive(tmp_path):
    res = run_cli(["periodic", "--sigma", "1.5", "--m", "0.8", "--mu", "0.25",
                   "--beta-P", "0.01", "--out", str(tmp_path)])
    assert res.returncode == 2


def test_mono_scan_csv_schema(tmp_path):
    res = run_cli(["mono-scan", "--from", "0.5", "--to", "0.75", "--step", "0.25",
                   "--mesh", "256", "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "mono_scan.csv")
    assert header == list(mono.SCAN_COLUMNS)
    assert len(rows) == 2
    assert float(rows[0][0]) == 0.5
    # 17-significant-digit floats round-trip
    sigma = float(rows[0][1])
    assert f"{sigma:.17g}" == rows[0][1]
    assert (tmp_path / "manifest.txt").exists()


def test_wave_solve_and_roundtrip(tmp_path, mono_ckpt):
    res = run_cli(["wave", "--kappa", "1.0", "--fix", "mu=0", "--mesh", "256",
                   "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "wave.csv")
    assert header == list(continuation.BRANCH_COLUMNS)
    assert float(rows[0][2]) == pytest.approx(1.0)   # m = 1 at mu = 0
    # byte-identical re-serialization through the CLI transform roundtrip
    ck = (tmp_path / "wave.ckpt").read_bytes()
    from fputw import diatomic as di
    w = di.load_wave(tmp_path / "wave.ckpt")
    di.save_wave(w, tmp_path / "wave2.ckpt")
    assert ck == (tmp_path / "wave2.ckpt").read_bytes()


def test_transform_cli(tmp_path, mono_ckpt):
    res = run_cli(["wave", "--kappa", "1.0", "--fix", "mu=0.2", "--mesh", "256",
                   "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    res = run_cli(["transform", "--ckpt", str(tmp_path / "wave.ckpt"),
                   "--out", str(tmp_path / "tr")])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "tr" / "transform.csv")
    m0, m1 = float(rows[0][2]), float(rows[1][2])
    assert m1 == pytest.approx(1.0 / m0, rel=1e-12)
    # a diatomic checkpoint feeds the simulator directly
    res = run_cli(["simulate", "--ic", str(tmp_path / "wave.ckpt"), "--T", "2",
                   "--out", str(tmp_path / "sim")])
    assert res.returncode == 0, res.stderr


def test_cross_section_cli(tmp_path, mono_ckpt):
    res = run_cli(["cross-section", "--sigma", "1.1",
                   "--to", "1.4", "--step", "0.05", "--mesh", "256",
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "cross_section.csv")
    assert header == list(continuation.BRANCH_COLUMNS)
    assert len(rows) >= 2
    sig = {float(r[1]) for r in rows}
    assert all(abs(s - 1.1) < 1e-9 for s in sig)


def test_simulate_from_checkpoint_and_text(tmp_path, mono_ckpt):
    res = run_cli(["simulate", "--ic", str(mono_ckpt), "--T", "5",
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header == ["t", "E_full", "E_core", "Gamma_core", "A_out",
                      "shift_total", "alarm"]
    assert len(rows) == 6          # t = 0..5 at unit stride
    assert float(rows[0][1]) > 0
    # plain two-column text initial condition: 2N rows (r block then p block)
    n = 64
    r = np.zeros(n)
    r[31] = 0.3
    p = np.zeros(n)
    sites = np.arange(1, n + 1)
    txt = tmp_path / "ic.txt"
    body = [f"{j} {v:.17g}" for j, v in zip(sites, r)]
    body += [f"{j} {v:.17g}" for j, v in zip(sites, p)]
    txt.write_text("\n".join(body) + "\n")
    res = run_cli(["simulate", "--ic", str(txt), "--T", "2", "--m", "0.5",
                   "--out", str(tmp_path / "txt")])
    assert res.returncode == 0, res.stderr


def test_branch_cli(tmp_path, mono_ckpt):
    res = run_cli(["branch", "--kappa", "1.0", "--driver", "mu", "--to", "0.1",
                   "--step", "0.05", "--mesh", "256",
                   "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "branch.csv")
    assert header == list(continuation.BRANCH_COLUMNS)
    assert len(rows) == 3
    ckpts = sorted((tmp_path / "branch_ckpts").iterdir())
    assert len(ckpts) == 3
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "branch_ckpts/point0000.ckpt" in manifest


def test_branch_rerun_lists_only_its_own_checkpoints(tmp_path, mono_ckpt):
    # a shorter second trace into the same --out removes the first trace's
    # later checkpoints, and its manifest names only its own points
    for to in ("0.2", "0.1"):
        code = cli.main(["branch", "--kappa", "1.0", "--driver", "mu", "--to", to,
                         "--step", "0.05", "--mesh", "256",
                         "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
        assert code == 0
    _, rows = read_csv(tmp_path / "branch.csv")
    listed = [ln.split()[1] for ln in (tmp_path / "manifest.txt").read_text().splitlines()
              if ln.startswith("file branch_ckpts/")]
    assert listed == [f"branch_ckpts/{continuation.point_file(i)}"
                      for i in range(len(rows))]
    assert len(rows) == 3 and len(list((tmp_path / "branch_ckpts").iterdir())) == 3


def test_branch_manifest_counts_events(tmp_path, mono_ckpt):
    code = cli.main(["branch", "--kappa", "1.0", "--driver", "mu", "--to", "0.1",
                     "--step", "0.05", "--mesh", "256",
                     "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "manifest.txt").read_text().splitlines()
    events = dict(ln.split(" ", 1)[1].split("=") for ln in lines
                  if ln.startswith("events "))
    assert events == {"accepted": "2", "failed": "0", "halved": "0",
                      "switch": "0", "fold": "0", "terminated": "1"}
    # the CSV carries no event data
    header, _ = read_csv(tmp_path / "branch.csv")
    assert header == list(continuation.BRANCH_COLUMNS)


def test_solitary_cli(tmp_path, mono_ckpt):
    res = run_cli(["solitary", "--kappa", "2.5", "--mu-to", "2.3",
                   "--step", "0.1", "--mesh", "256",
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "solitary.csv")
    assert header == list(continuation.BRANCH_COLUMNS)
    assert rows[0][7] == "solitary"
    assert float(rows[0][4]) == 0.0          # beta_P frozen at zero
    assert abs(float(rows[0][2]) - 0.32701849) < 5e-3
    assert (tmp_path / "solitary_000.ckpt").exists()


def test_csv_write_interrupted_mid_file(tmp_path):
    path = tmp_path / "rows.csv"
    cli.write_csv(path, ("a", "b"), [(1, 2.5)])
    before = path.read_bytes()

    def rows():
        yield (3, 4.5)
        yield (5, 6.5)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        cli.write_csv(path, ("a", "b"), rows())
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["rows.csv"]


def test_fputw_out_env_overrides(tmp_path):
    flag_dir = tmp_path / "flagged"
    env_dir = tmp_path / "env"
    res = run_cli(["periodic", "--sigma", "1.5", "--m", "0.8",
                   "--beta-P", "0.01", "--out", str(flag_dir)],
                  env={"FPUTW_OUT": str(env_dir)})
    assert res.returncode == 0, res.stderr
    assert (env_dir / "periodic.csv").exists()
    assert not flag_dir.exists()


def test_config_file_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[global]\nout = {}\n[periodic]\nsigma = 1.5\n"
                       "m = 0.8\nbeta-P = 0.01\n".format(tmp_path / "cfgout"))
    res = run_cli(["periodic", "--config", str(cfgfile)])
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "cfgout" / "periodic.csv").exists()
    # flags override the file
    res = run_cli(["periodic", "--config", str(cfgfile), "--m", "0.9",
                   "--out", str(tmp_path / "cfgout2")])
    assert res.returncode == 0, res.stderr
    _, rows = read_csv(tmp_path / "cfgout2" / "periodic.csv")
    assert float(rows[0][1]) == pytest.approx(1.0 / 0.9 - 1.0)


def test_determinism_byte_identical(tmp_path):
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        res = run_cli(["periodic", "--sigma", "1.5", "--m", "0.8",
                       "--beta-P", "0.01", "--out", str(d)])
        assert res.returncode == 0
        outs.append(d)
    assert (outs[0] / "periodic.csv").read_bytes() == (outs[1] / "periodic.csv").read_bytes()
    assert (outs[0] / "periodic.ckpt").read_bytes() == (outs[1] / "periodic.ckpt").read_bytes()
    # manifests differ only in the timestamp line
    m0 = (outs[0] / "manifest.txt").read_text().splitlines()
    m1 = (outs[1] / "manifest.txt").read_text().splitlines()
    assert m0[1:] == m1[1:]
    assert m0[0].startswith("# generated")


def test_config_file_sets_options_with_parser_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[mono-scan]\nstep = 0.5\n")
    code = cli.main(["mono-scan", "--from", "0.5", "--to", "0.5", "--mesh", "64",
                     "--config", str(cfgfile), "--out", str(tmp_path / "scan")])
    assert code == 0
    manifest = (tmp_path / "scan" / "manifest.txt").read_text().splitlines()
    assert "param step=0.5" in manifest


def test_config_entries_become_flags(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[global]\nmesh = 64\n[branch]\nstep-in-m = true\n"
                       "to = 0.5\n")
    argv = cli._with_config(["branch", "--kappa", "1", "--to", "0.1",
                             "--step", "0.05", "--config", str(cfgfile)])
    assert argv[1:4] == ["--mesh=64", "--step-in-m", "--to=0.5"]
    args = cli.build_parser().parse_args(argv)
    # the file's flag applies, the command line's --to wins
    assert (args.mesh, args.step_in_m, args.to) == (64, True, 0.1)
    # a required option may come from the file alone
    cfgfile.write_text("[branch]\nkappa = 1\nto = 0.1\nstep = 0.05\n")
    args = cli.build_parser().parse_args(
        cli._with_config(["branch", "--config", str(cfgfile)]))
    assert (args.kappa, args.to, args.step) == (1.0, 0.1, 0.05)
    cfgfile.write_text("[kc]\nbogus = 1\n")
    # an unknown key is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["kc", "--kappa", "0.5", "--config", str(cfgfile)])
    assert exc.value.code == 2


def test_seed_at_another_kappa_is_usage_error(tmp_path, mono_ckpt):
    # mono_ckpt holds the kappa = 1 wave
    for argv in (["wave", "--kappa", "2.0", "--fix", "mu=0"],
                 ["branch", "--kappa", "2.0", "--to", "0.1", "--step", "0.05"]):
        res = run_cli([*argv, "--mesh", "256", "--seed-ckpt", str(mono_ckpt),
                       "--out", str(tmp_path)])
        assert res.returncode == 2
        assert "kappa" in res.stderr


def test_mu_at_or_below_minus_one_is_usage_error(tmp_path):
    txt = tmp_path / "ic.txt"
    txt.write_text("".join(f"{j} 0.0\n" for j in (1, 2, 1, 2)))
    for mu in ("-1", "-1.5"):
        res = run_cli(["simulate", "--ic", str(txt), "--T", "1", "--mu", mu,
                       "--out", str(tmp_path / "sim")])
        assert res.returncode == 2, res.stderr
        assert "--mu" in res.stderr


def _text_ic(path, n=8):
    """A two-column text initial condition: r block then p block, at rest."""
    path.write_text("".join(f"{j} 0.0\n" for j in [*range(1, n + 1)] * 2))
    return path


@pytest.mark.parametrize("kind, extra, flag", [
    ("checkpoint", ["--m", "0.5"], "--m"),
    ("checkpoint", ["--mu", "0.25"], "--mu"),
    ("text", ["--sites", "64"], "--sites"),
    ("text", ["--peak-site", "3"], "--peak-site")])
def test_simulate_rejects_options_its_ic_ignores(tmp_path, mono_ckpt, capsys,
                                                 kind, extra, flag):
    ic = mono_ckpt if kind == "checkpoint" else _text_ic(tmp_path / "ic.txt")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--ic", str(ic), "--T", "1", *extra,
                  "--out", str(tmp_path / "sim")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err and kind in err
    assert not (tmp_path / "sim" / "diagnostics.csv").exists()


@pytest.mark.parametrize("extra, name", [
    (["--T", "inf"], "horizon"),
    (["--T", "1e400"], "horizon"),
    (["--T", "nan"], "horizon"),
    (["--T", "1", "--dt", "nan"], "dt"),
    (["--T", "1", "--recenter-period", "inf"], "recenter_period")])
def test_simulate_rejects_non_finite_times(tmp_path, mono_ckpt, capsys,
                                          extra, name):
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--ic", str(mono_ckpt), *extra, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"{name} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, match", [
    (["--peak-site", "1000"], "peak site 1000 is outside the lattice sites 1..400"),
    (["--sites", "3"], "peak site 200 is outside the lattice sites 1..3"),
    (["--sites", "0"], "at least one site")])
def test_simulate_rejects_an_initial_condition_off_the_lattice(
        tmp_path, mono_ckpt, capsys, extra, match):
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--ic", str(mono_ckpt), "--T", "2", *extra,
                  "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and match in err
    assert not out.exists()


def test_branch_zero_step_is_usage_error(tmp_path, mono_ckpt):
    res = run_cli(["branch", "--kappa", "1.0", "--to", "0.1", "--step", "0",
                   "--mesh", "256", "--seed-ckpt", str(mono_ckpt),
                   "--out", str(tmp_path)])
    assert res.returncode == 2
    assert "step" in res.stderr
    assert not (tmp_path / "branch.csv").exists()
    assert not (tmp_path / "branch_ckpts").exists()


def test_solitary_zero_scan_step_fails_before_solving(tmp_path, mono_ckpt,
                                                      monkeypatch):
    from fputw import continuation, diatomic

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --scan-step")

    monkeypatch.setattr(diatomic, "solve_wave", no_solve)
    monkeypatch.setattr(continuation, "solve_wave", no_solve)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solitary", "--kappa", "1.0", "--mu-to", "0.2",
                  "--scan-to", "1.2", "--scan-step", "0", "--mesh", "256",
                  "--seed-ckpt", str(mono_ckpt), "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_n_quad_defaults_have_one_home():
    # the midpoint count is the constant N_QUAD: no scan or CLI option sets it
    assert (inspect.signature(mono.amplitude_coefficient).parameters["n_quad"].default
            == mono.N_QUAD)
    assert not {"n_quad", "seed"} & set(inspect.signature(mono.kappa_scan).parameters)
    parser = cli.build_parser()
    for argv in (["kc", "--kappa", "1"], ["mono-scan", "--from", "1", "--to", "2"]):
        assert not hasattr(parser.parse_args(argv), "n_quad")


@pytest.fixture(scope="module")
def joint_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("joint") / "joint.ckpt"
    wave, jost = mono.solve_joint(1.0, Mesh(32.0, 256))
    mono.save_joint(wave, jost, path)
    return path


def test_joint_checkpoint_seeds_wave_and_simulate(tmp_path, joint_ckpt):
    assert cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0", "--mesh", "256",
                     "--seed-ckpt", str(joint_ckpt),
                     "--out", str(tmp_path / "wave")]) == 0
    _, rows = read_csv(tmp_path / "wave" / "wave.csv")
    assert float(rows[0][0]) == 1.0 and float(rows[0][2]) == pytest.approx(1.0)
    assert cli.main(["simulate", "--ic", str(joint_ckpt), "--T", "2",
                     "--out", str(tmp_path / "sim")]) == 0
    _, rows = read_csv(tmp_path / "sim" / "diagnostics.csv")
    assert len(rows) == 3 and float(rows[0][1]) > 0


def test_simulate_from_a_checkpoint_runs_the_library_state(tmp_path, joint_ckpt):
    # one sampling resolution for the CLI, the stability script and the
    # acceptance criteria: `simulate --ic` reproduces the library run
    assert "resolution" not in inspect.signature(lat.sample_initial_condition).parameters
    assert cli.main(["simulate", "--ic", str(joint_ckpt), "--T", "2",
                     "--out", str(tmp_path)]) == 0
    wave, _ = mono.load_joint(joint_ckpt)
    series = lat.run_simulation(lat.sample_initial_condition(wave),
                                lat.SimConfig(horizon=2.0))
    cli.write_csv(tmp_path / "library.csv", lat.DiagnosticSeries.COLUMNS, series.rows())
    assert ((tmp_path / "diagnostics.csv").read_bytes()
            == (tmp_path / "library.csv").read_bytes())


def test_seed_must_match_the_mesh_options(tmp_path, joint_ckpt, capsys):
    # every solve takes its meshes from the seed, so a diatomic or monatomic
    # seed on other meshes than the options name is refused before any solve
    assert cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0", "--mesh", "256",
                     "--seed-ckpt", str(joint_ckpt),
                     "--out", str(tmp_path / "seed")]) == 0
    seed = str(tmp_path / "seed" / "wave.ckpt")
    assert cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0.02", "--mesh", "256",
                     "--seed-ckpt", seed, "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    for ckpt in (seed, str(joint_ckpt)):
        with pytest.raises(SystemExit) as exc:
            cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0.02", "--seed-ckpt", ckpt,
                      "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "intervals=256" in err and "intervals=512" in err
        assert not (tmp_path / "b" / "wave.csv").exists()


def test_non_wave_checkpoint_is_usage_error(tmp_path):
    res = run_cli(["periodic", "--sigma", "1.5", "--m", "0.8",
                   "--beta-P", "0.01", "--out", str(tmp_path / "rip")])
    assert res.returncode == 0, res.stderr
    ripple = str(tmp_path / "rip" / "periodic.ckpt")
    for argv in (["wave", "--kappa", "1.0", "--fix", "mu=0", "--seed-ckpt", ripple],
                 ["simulate", "--ic", ripple, "--T", "1"]):
        res = run_cli([*argv, "--out", str(tmp_path / "out")])
        assert res.returncode == 2
        assert "periodic-ripple" in res.stderr


def test_checkpoint_inputs_are_read_once(tmp_path, mono_ckpt, monkeypatch):
    from fputw import checkpoint
    reads = []
    read = checkpoint.read

    def counting_read(path):
        reads.append(path)
        return read(path)

    monkeypatch.setattr(checkpoint, "read", counting_read)
    assert cli.main(["simulate", "--ic", str(mono_ckpt), "--T", "1",
                     "--out", str(tmp_path / "sim")]) == 0
    assert len(reads) == 1
    reads.clear()
    assert cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0", "--mesh", "256",
                     "--seed-ckpt", str(mono_ckpt),
                     "--out", str(tmp_path / "wave")]) == 0
    assert len(reads) == 1


@pytest.fixture(scope="module")
def dia_ckpt(tmp_path_factory, mono_ckpt):
    path = tmp_path_factory.mktemp("dia") / "dia.ckpt"
    wave = mono.wave_from_checkpoint(checkpoint.read(mono_ckpt))
    di.save_wave(di.seed_from_monatomic(wave), path)
    return path


def _blocks_swapped(text):
    head, rest = text.split("\nblock ", 1)
    first, second = rest.removesuffix("end\n").split("\nblock ")
    return f"{head}\nblock {second}block {first}\nend\n"


@pytest.mark.parametrize("ckpt, edit, kind", [
    ("mono_ckpt", lambda text: text[:len(text) // 2], "CheckpointCorruptError"),
    ("mono_ckpt", lambda text: text.replace(" v1\n", " v2\n", 1),
     "CheckpointVersionError"),
    ("mono_ckpt", lambda text: text.replace("policy 0 even zero", "policy 0 odd zero"),
     "CheckpointCorruptError"),
    ("joint_ckpt", lambda text: text[:text.index("block jost")] + "end\n",
     "CheckpointCorruptError"),
    ("joint_ckpt", lambda text: re.sub(r"meta sigma f \S+\n", "", text),
     "CheckpointCorruptError"),
    ("joint_ckpt", lambda text: re.sub(r"meta kappa f \S+", "meta kappa s x", text),
     "CheckpointCorruptError"),
    ("dia_ckpt", _blocks_swapped, "CheckpointCorruptError")],
    ids=["truncated", "v2", "policy", "missing-block", "missing-meta",
         "meta-type", "blocks-swapped"])
def test_simulate_reports_checkpoint_errors(tmp_path, request, capsys, ckpt,
                                            edit, kind):
    # each edit but the truncation keeps a file that reads; the owning
    # module refuses what its kind does not hold
    text = request.getfixturevalue(ckpt).read_text()
    bad = tmp_path / "bad.ckpt"
    bad.write_text(edit(text))
    assert bad.read_text() != text
    assert cli.main(["simulate", "--ic", str(bad), "--T", "1",
                     "--out", str(tmp_path / "sim")]) == 1
    assert f"kind={kind}" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_missing_input_file_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.ckpt")
    for argv in (["simulate", "--ic", missing, "--T", "1"],
                 ["kc", "--kappa", "0.5", "--config", missing],
                 ["wave", "--kappa", "1.0", "--fix", "mu=0", "--seed-ckpt", missing]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "missing.ckpt" in err
        assert not (tmp_path / "out").exists()
    # a directory where an input file belongs
    folder = tmp_path / "folder"
    folder.mkdir()
    for argv in (["simulate", "--ic", str(folder), "--T", "1"],
                 ["transform", "--ckpt", str(folder)],
                 ["wave", "--kappa", "1.0", "--fix", "mu=0", "--seed-ckpt", str(folder)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Is a directory" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["cross-section", "--to", "1.2", "--step", "0.05"],
                                  ["simulate", "--T", "1"],
                                  ["transform"]])
def test_required_options_are_usage_errors(tmp_path, argv):
    res = run_cli([*argv, "--out", str(tmp_path)])
    assert res.returncode == 2
    assert "required" in res.stderr


def test_stability_script_rejects_horizon_before_baseline(tmp_path, monkeypatch,
                                                          capsys):
    # the core-loss baseline is taken at t = 100, so --T 10 would write
    # Gamma_final = nan for every wave; the script must refuse before solving
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / "stability_runs.py"
    spec = importlib.util.spec_from_file_location("stability_runs", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking --T")

    monkeypatch.setattr(mono, "solve_profile", no_solve)
    out = tmp_path / "stability"
    with pytest.raises(SystemExit) as exc:
        script.main(["--T", "10", "--out", str(out)])
    assert exc.value.code == 2
    assert "baseline time 100" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["jost", "--kappa", "inf"], "--kappa"),
    (["jost", "--kappa", "nan"], "--kappa"),
    (["jost", "--kappa", "-1"], "--kappa"),
    (["kc", "--kappa", "0"], "--kappa"),
    (["mono-scan", "--from", "2.0", "--to", "inf"], "--to"),
    (["mono-scan", "--from", "nan", "--to", "2.5"], "--from"),
    (["cross-section", "--sigma", "nan", "--to", "1.2", "--step", "0.05"], "--sigma"),
    (["cross-section", "--sigma", "1.1", "--from", "inf", "--to", "1.2",
      "--step", "0.05"], "--from"),
    (["cross-section", "--sigma", "1.1", "--to=-inf", "--step", "0.05"], "--to"),
    (["branch", "--kappa", "1.0", "--to", "nan", "--step", "0.1"], "--to"),
    (["solitary", "--kappa", "2.5", "--mu-to", "nan"], "--mu-to"),
    (["solitary", "--kappa", "2.5", "--scan-to", "inf"], "--scan-to"),
    (["periodic", "--sigma", "inf", "--mu", "0.1"], "--sigma"),
    (["periodic", "--sigma", "1.5", "--mu", "nan"], "--mu"),
    (["periodic", "--sigma", "1.5", "--m", "inf"], "--m"),
    (["periodic", "--sigma", "1.5", "--mu", "0.1", "--beta-P", "nan"], "--beta-P"),
    (["wave", "--kappa", "1.0", "--fix", "mu=nan"], "--fix"),
    (["simulate", "--ic", "ic.txt", "--m", "inf"], "--m"),
    (["simulate", "--ic", "ic.txt", "--m", "nan"], "--m"),
    (["simulate", "--ic", "ic.txt", "--mu", "nan"], "--mu"),
    (["simulate", "--ic", "ic.txt", "--mu", "inf"], "--mu"),
    (["mono-scan", "--from", "2.0", "--to", "2.25", "--step", "inf"], "--step"),
    (["mono-scan", "--from", "2.0", "--to", "2.25", "--step", "nan"], "--step"),
    (["mono-scan", "--from", "2.0", "--to", "2.25", "--step", "0"], "--step"),
    (["mono-scan", "--from", "2.0", "--to", "2.25", "--step=-0.25"], "--step")])
def test_non_finite_options_are_usage_errors(tmp_path, monkeypatch, capsys,
                                             argv, flag):
    def no_solve(*args, **kwargs):
        raise AssertionError(f"solved before checking {flag}")

    monkeypatch.setattr(mono, "solve_profile", no_solve)
    monkeypatch.setattr(mono, "solve_joint", no_solve)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "finite" in err
    assert not out.exists()


def test_mono_scan_below_the_kappa_floor_leaves_no_out(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["mono-scan", "--from", "0.1", "--to", "0.5", "--out", str(out)])
    assert exc.value.code == 2
    assert "at least 1/8" in capsys.readouterr().err
    assert not out.exists()


def test_kappa_values_reject_a_non_finite_step():
    for step in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="positive finite step"):
            mono.kappa_values(2.0, 2.5, step)


def test_unbounded_mono_scan_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["mono-scan", "--from", "2.0", "--to", "1e308", "--step", "1e-300",
                  "--out", str(out)])
    assert exc.value.code == 2
    assert "no finite number of points" in capsys.readouterr().err
    assert not out.exists()


def test_kappa_values_reject_an_unbounded_count():
    for end, step in ((np.inf, 0.25), (1e308, 1e-300)):
        with pytest.raises(ValueError,
                           match=re.escape(f"from 2.0 to {end} by {step} has no finite")):
            mono.kappa_values(2.0, end, step)


def test_kappa_ladder_names_a_non_finite_kappa():
    for kappa in (np.inf, np.nan):
        with pytest.raises(ValueError, match="kappa must be finite"):
            mono._kappa_ladder(kappa)


def test_mesh_options_reach_the_meshes_they_name(tmp_path):
    small = ["--L", "16", "--mesh", "64", "--gauss", "4"]
    assert cli.main(["jost", "--kappa", "1.0", *small,
                     "--out", str(tmp_path / "jost")]) == 0
    wave, jost = mono.load_joint(tmp_path / "jost" / "joint.ckpt")
    assert wave.profile.mesh == jost.remainder.mesh == Mesh(16.0, 64, 4)
    assert cli.main(["periodic", "--sigma", "1.5", "--mu", "-0.3", "--beta-P", "0.01",
                     "--L", "16", "--ripple-mesh", "16", "--gauss", "4",
                     "--out", str(tmp_path / "periodic")]) == 0
    ck = checkpoint.read(tmp_path / "periodic" / "periodic.ckpt")
    assert (checkpoint.block_to_solution(ck.blocks[0], di.RIPPLE_POLICIES).mesh
            == Mesh(16.0, 16, 4))
    assert cli.main(["wave", "--kappa", "1.0", "--fix", "mu=0.02", "--seed-ckpt", "auto",
                     *small, "--ripple-mesh", "16", "--out", str(tmp_path / "wave")]) == 0
    wave = di.load_wave(tmp_path / "wave" / "wave.ckpt")
    assert wave.solitary.mesh == Mesh(16.0, 64, 4)
    assert wave.ripple.mesh == Mesh(16.0, 16, 4)
