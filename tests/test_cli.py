import os
import subprocess
import sys

import numpy as np
import pytest

from fputw import cli
from fputw import monatomic as mono


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
    wave = mono.solve_profile(1.0, mono.MonatomicConfig(intervals=256))
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
                   "--n-quad", "20000", "--mesh", "256", "--out", str(tmp_path)])
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
    assert header == list(cli.WAVE_COLUMNS)
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
    assert header == list(cli.WAVE_COLUMNS)
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
    assert header == list(cli.WAVE_COLUMNS)
    assert len(rows) == 3
    ckpts = sorted((tmp_path / "branch_ckpts").iterdir())
    assert len(ckpts) == 3
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "branch_ckpts/point0000.ckpt" in manifest


def test_solitary_cli(tmp_path, mono_ckpt):
    res = run_cli(["solitary", "--kappa", "2.5", "--mu-to", "2.3",
                   "--step", "0.1", "--mesh", "256",
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(tmp_path / "solitary.csv")
    assert header == list(cli.WAVE_COLUMNS)
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
