import numpy as np
import pytest

from fputw import diatomic as di
from fputw import monatomic as mono
from fputw.continuation import (Branch, BranchPoint, continue_branch,
                                find_solitary)
from fputw.errors import BranchJumpWarning, NonConvergenceError
from fputw.mfde import FactorCache, solve_newton

CFG = di.DiatomicConfig(solitary_intervals=256)


@pytest.fixture(scope="module")
def seed():
    mono_wave = mono.solve_profile(1.0, CFG.monatomic())
    return di.seed_from_monatomic(mono_wave, CFG)


def test_branch_records_and_target(seed):
    branch = continue_branch(seed, "mu", -0.1, 0.05, CFG)
    assert branch.terminated_reason == "target-reached"
    assert branch.points[-1].mu == pytest.approx(-0.1, abs=1e-12)
    mus = branch.scalar("mu")
    assert np.all(np.diff(mus) < 0)
    for p in branch.points:
        assert p.resid < 1e-9
        assert p.kappa == 1.0


def test_retraceability(seed):
    out = continue_branch(seed, "mu", -0.1, 0.05, CFG)
    back = continue_branch(out.waves[-1], "mu", 0.0, 0.05, CFG)
    assert back.terminated_reason == "target-reached"
    final = back.points[-1]
    assert abs(final.mu - seed.mu) < 1e-12
    assert abs(final.sigma - seed.sigma) < 1e-8
    assert abs(final.beta_p - seed.beta_p) < 1e-8
    assert abs(final.omega_p - seed.omega_p) < 1e-6


def test_step_in_m_lands_on_masses(seed):
    branch = continue_branch(seed, "mu", 0.8, 0.1, CFG, step_in_m=True)
    assert branch.terminated_reason == "target-reached"
    ms = branch.scalar("m")
    assert ms[-1] == pytest.approx(0.8, abs=1e-12)
    # uniform mass steps
    assert np.allclose(np.diff(ms), -0.1, atol=1e-9)


def test_branch_restart_from_checkpoint(seed, tmp_path):
    straight = continue_branch(seed, "mu", 0.15, 0.05, CFG)
    p = tmp_path / "mid.ckpt"
    di.save_wave(straight.waves[1], p)
    resumed = continue_branch(di.load_wave(p), "mu", 0.15, 0.05, CFG)
    assert resumed.terminated_reason == "target-reached"
    a, b = straight.points[-1], resumed.points[-1]
    assert a.mu == b.mu
    assert abs(a.sigma - b.sigma) < 1e-10
    assert abs(a.beta_p - b.beta_p) < 1e-10


def test_alpha_sign_change_marked(seed):
    # alpha_P is odd-ish through mu=0: crossing it must set the marker
    down = continue_branch(seed, "mu", -0.04, 0.04, CFG)
    up = continue_branch(down.waves[-1], "mu", 0.04, 0.04, CFG)
    assert len(up.sign_changes) == 1


def test_stop_when(seed):
    branch = continue_branch(seed, "mu", 0.5, 0.05, CFG,
                             stop_when=lambda p: p.mu >= 0.1)
    assert branch.terminated_reason == "stop-condition"
    assert branch.points[-1].mu == pytest.approx(0.1, abs=1e-12)


def test_jump_warning(seed):
    branch = continue_branch(seed, "mu", 0.1, 0.05, CFG)
    with pytest.warns(BranchJumpWarning):
        di.solve_wave(1.0, "mu", 0.12, branch.waves[-1], CFG, jump_tol=1e-9)


def test_factor_reuse_from_neighbouring_mu(seed):
    base = continue_branch(seed, "mu", 0.1, 0.05, CFG).waves[-1]
    factors = FactorCache()
    near = di.solve_wave(1.0, "mu", 0.1001, base, CFG, reuse=factors)
    assert factors.lu is not None
    pm = di.ParamMap("mu", 0.1002)
    prob = di.wave_problem(1.0, pm, CFG)
    p0 = pm.pack(near.sigma, near.mu, near.beta_p, near.omega_p)
    fresh = solve_newton(prob, [near.solitary, near.ripple], p0, CFG.newton)
    reused = solve_newton(prob, [near.solitary, near.ripple], p0, CFG.newton,
                          reuse=factors)
    assert reused[2].factorizations < fresh[2].factorizations
    for a, b in zip(fresh[0], reused[0]):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-9
    assert np.max(np.abs(fresh[1] - reused[1])) < 1e-9


def test_branch_factorizes_less_than_once_per_point(seed, monkeypatch):
    import scipy.sparse.linalg as spla
    calls = []
    splu = spla.splu

    def counting_splu(J, *args, **kwargs):
        calls.append(J.shape)
        return splu(J, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    branch = continue_branch(seed, "mu", 0.05, 0.01, CFG)
    assert branch.terminated_reason == "target-reached"
    assert 0 < len(calls) < len(branch.points)


def test_find_solitary_needs_sign_change(seed):
    branch = continue_branch(seed, "mu", -0.05, 0.05, CFG)
    with pytest.raises(ValueError):
        find_solitary(branch, CFG)


def test_branch_segment_classification():
    from fputw.continuation import Branch, classify_branch_segments

    def pt(mu, alpha, cls):
        return BranchPoint(1.0, 1.1, mu, 0.001, 10.0, alpha, cls, "mu", 2, 1e-11)

    thr = 1e-5 / 8.0
    br = Branch(points=[
        pt(0.00, 2e-3, "positive"),
        pt(0.02, 1e-7, "small-ripple"),    # isolated: narrower than 0.01
        pt(0.022, -2e-3, "negative"),
        pt(0.04, 1e-7, "small-ripple"),    # run spanning mu-extent 0.02
        pt(0.05, 1e-8, "small-ripple"),
        pt(0.06, -1e-8, "small-ripple"),
        pt(0.08, -3e-3, "negative"),
    ])
    out = classify_branch_segments(br)
    assert out[1] == "positive"            # short run falls back to sign
    assert out[3] == out[4] == out[5] == "small-ripple"
    assert out[0] == "positive" and out[6] == "negative"


def test_driver_switch_and_fold_marking(monkeypatch):
    """Stubbed fold: sigma(mu) = 1.5 - mu^2 folds at mu = 0; stepping sigma
    down fails beyond the fold, forcing a switch to mu, after which sigma's
    increments reverse and the fold marker must be set."""
    import fputw.continuation as cont

    def fake_solve(kappa, fix, value, guess, cfg=None, jump_tol=None,
                   reuse=None):
        if fix == "sigma":
            if value > 1.5:             # past the fold tip: no solution
                raise NonConvergenceError("past fold", 1.0, 25)
            root = np.sqrt(1.5 - value)
            mu = root if abs(root - guess.mu) < abs(-root - guess.mu) else -root
            sigma = value
        else:
            mu = value
            sigma = 1.5 - mu * mu
        return di.DiatomicWave(kappa, sigma, mu, 0.0, guess.omega_p,
                               guess.solitary, guess.ripple, 1e-12, 2,
                               fixed_param=fix)

    monkeypatch.setattr(cont, "solve_wave", fake_solve)
    cfg = di.DiatomicConfig(length=4.0, solitary_intervals=4,
                            ripple_intervals=4, gauss_order=2)
    seed_wave = di.DiatomicWave(1.0, 1.5 - 0.04, -0.2, 0.0, 10.0,
                                _dummy_solution(), _dummy_solution(4),
                                1e-12, 0, fixed_param="mu")
    # approach the fold tip from mu < 0 by stepping mu, then drive sigma
    # upward: sigma stalls at 1.5, the driver switches to mu, and sigma's
    # reversal afterwards must set the fold marker
    warm = cont.continue_branch(seed_wave, "mu", -0.05, 0.01, cfg)
    branch = cont.continue_branch(warm.waves[-1], "sigma", 1.6, 0.01, cfg,
                                  max_points=40)
    assert "mu" in {p.fixed_param for p in branch.points}   # switch happened
    assert branch.folds                                      # fold recorded
    fold_pt = branch.points[branch.folds[0]]
    assert abs(fold_pt.sigma - 1.5) < 0.01                   # near the tip


def _dummy_solution(ncomp=4):
    from fputw.solution import Extension, Mesh, PiecewiseSolution
    mesh = Mesh(4.0, 4, 2)
    return PiecewiseSolution.zeros(mesh, (Extension.even_zero(),) * ncomp)


def test_branch_point_values_schema():
    p = BranchPoint(1.0, 1.1, 0.5, 0.001, 10.0, 0.01, "positive", "mu", 3, 1e-11)
    vals = p.values()
    assert len(vals) == 11
    assert vals[2] == pytest.approx(1.0 / 1.5)
