import numpy as np
import pytest

from fputw import diatomic as di
from fputw import monatomic as mono
from fputw.continuation import (Branch, BranchPoint, continue_branch,
                                find_solitary)
from fputw.cli import _wave_at_speed
from fputw.errors import NonConvergenceError, SingularJacobianError
from fputw.mfde import FactorCache, solve_newton
from fputw.solution import Mesh

MESH = Mesh(32.0, 256)
RIPPLE_MESH = Mesh(32.0, 32)


@pytest.fixture(scope="module")
def seed():
    mono_wave = mono.solve_profile(1.0, MESH)
    return di.seed_from_monatomic(mono_wave, RIPPLE_MESH)


def test_branch_records_and_target(seed):
    branch = continue_branch(seed, "mu", -0.1, 0.05)
    assert branch.terminated_reason == "target-reached"
    assert branch.points[-1].mu == pytest.approx(-0.1, abs=1e-12)
    mus = branch.scalar("mu")
    assert np.all(np.diff(mus) < 0)
    for p in branch.points:
        assert p.resid < 1e-9
        assert p.kappa == 1.0


def test_retraceability(seed):
    out = continue_branch(seed, "mu", -0.1, 0.05)
    back = continue_branch(out.waves[-1], "mu", 0.0, 0.05)
    assert back.terminated_reason == "target-reached"
    final = back.points[-1]
    assert abs(final.mu - seed.mu) < 1e-12
    assert abs(final.sigma - seed.sigma) < 1e-8
    assert abs(final.beta_p - seed.beta_p) < 1e-8
    assert abs(final.omega_p - seed.omega_p) < 1e-6


def test_step_in_m_lands_on_masses(seed):
    branch = continue_branch(seed, "mu", 0.8, 0.1, step_in_m=True)
    assert branch.terminated_reason == "target-reached"
    ms = branch.scalar("m")
    assert ms[-1] == pytest.approx(0.8, abs=1e-12)
    # uniform mass steps
    assert np.allclose(np.diff(ms), -0.1, atol=1e-9)


def test_branch_restart_from_checkpoint(seed, tmp_path):
    straight = continue_branch(seed, "mu", 0.15, 0.05)
    p = tmp_path / "mid.ckpt"
    di.save_wave(straight.waves[1], p)
    resumed = continue_branch(di.load_wave(p), "mu", 0.15, 0.05)
    assert resumed.terminated_reason == "target-reached"
    a, b = straight.points[-1], resumed.points[-1]
    assert a.mu == b.mu
    assert abs(a.sigma - b.sigma) < 1e-10
    assert abs(a.beta_p - b.beta_p) < 1e-10


def test_alpha_sign_change_marked(seed):
    # alpha_P is odd-ish through mu=0: crossing it must set the marker
    down = continue_branch(seed, "mu", -0.04, 0.04)
    up = continue_branch(down.waves[-1], "mu", 0.04, 0.04)
    assert len(up.sign_changes) == 1


def test_stop_when(seed):
    branch = continue_branch(seed, "mu", 0.5, 0.05,
                             stop_when=lambda p: p.mu >= 0.1)
    assert branch.terminated_reason == "stop-condition"
    assert branch.points[-1].mu == pytest.approx(0.1, abs=1e-12)


def test_factor_reuse_from_neighbouring_mu(seed):
    base = continue_branch(seed, "mu", 0.1, 0.05).waves[-1]
    factors = FactorCache()
    near = di.solve_wave(1.0, "mu", 0.1001, base, reuse=factors)
    assert factors.lu is not None
    pm = di.ParamMap("mu", 0.1002)
    prob = di.wave_problem(1.0, pm, MESH, RIPPLE_MESH)
    p0 = pm.pack(near.sigma, near.mu, near.beta_p, near.omega_p)
    fresh = solve_newton(prob, [near.solitary, near.ripple], p0)
    reused = solve_newton(prob, [near.solitary, near.ripple], p0,
                          reuse=factors)
    assert reused[2].factorizations < fresh[2].factorizations
    for a, b in zip(fresh[0], reused[0]):
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-9
    assert np.max(np.abs(fresh[1] - reused[1])) < 1e-9


def test_branch_factorizes_less_than_once_per_point(seed, monkeypatch):
    from fputw import mfde
    calls = []
    factorize = mfde.factorize

    def counting_factorize(J, *args, **kwargs):
        calls.append(J.shape)
        return factorize(J, *args, **kwargs)

    monkeypatch.setattr(mfde, "factorize", counting_factorize)
    branch = continue_branch(seed, "mu", 0.05, 0.01)
    assert branch.terminated_reason == "target-reached"
    assert 0 < len(calls) < len(branch.points)


@pytest.mark.parametrize("step", [0.0, -0.0, np.nan, np.inf])
def test_zero_or_non_finite_step_is_rejected(seed, step):
    # a zero step would re-solve the seed's own value until max_points
    with pytest.raises(ValueError, match="step"):
        continue_branch(seed, "mu", 0.5, step, max_points=30)


@pytest.mark.parametrize("driver, fixed", [("mu", None), ("kappa", ("mu", 0.0))])
def test_size_cap_ends_the_trace(seed, monkeypatch, driver, fixed):
    # the first mu step meets the cap in solve_newton, the first kappa step
    # in the Euler predictor; both are the LU-making calls the cap bounds
    monkeypatch.setattr("fputw.mfde.MAX_UNKNOWNS", 4000)
    branch = continue_branch(seed, driver, 1.1, 0.05, fixed=fixed)
    assert branch.terminated_reason == "size-cap"
    assert len(branch.points) == 1


def test_find_solitary_needs_sign_change(seed):
    branch = continue_branch(seed, "mu", -0.05, 0.05)
    with pytest.raises(ValueError):
        find_solitary(branch)


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

    def fake_solve(kappa, fix, value, guess, reuse=None):
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
    seed_wave = di.DiatomicWave(1.0, 1.5 - 0.04, -0.2, 0.0, 10.0,
                                _dummy_solution(), _dummy_solution(4),
                                1e-12, 0, fixed_param="mu")
    # approach the fold tip from mu < 0 by stepping mu, then drive sigma
    # upward: sigma stalls at 1.5, the driver switches to mu, and sigma's
    # reversal afterwards must set the fold marker
    warm = cont.continue_branch(seed_wave, "mu", -0.05, 0.01)
    branch = cont.continue_branch(warm.waves[-1], "sigma", 1.6, 0.01,
                                  max_points=40)
    assert "mu" in {p.fixed_param for p in branch.points}   # switch happened
    assert branch.folds                                      # fold recorded
    fold_pt = branch.points[branch.folds[0]]
    assert abs(fold_pt.sigma - 1.5) < 0.01                   # near the tip


def test_switch_keeps_step_direction(monkeypatch):
    """Mirror of the fold test, approached from mu > 0: after the switch mu
    decreases through the fold tip, and the regrown step must keep that
    sign instead of turning the trace around."""
    import fputw.continuation as cont

    def fake_solve(kappa, fix, value, guess, reuse=None):
        if fix == "sigma":
            if value > 1.5:
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
    seed_wave = di.DiatomicWave(1.0, 1.5 - 0.04, 0.2, 0.0, 10.0,
                                _dummy_solution(), _dummy_solution(4),
                                1e-12, 0, fixed_param="mu")
    warm = cont.continue_branch(seed_wave, "mu", 0.05, 0.01)
    branch = cont.continue_branch(warm.waves[-1], "sigma", 1.6, 0.01,
                                  max_points=15)
    fixed = [p.fixed_param for p in branch.points]
    switched = len(fixed) - fixed[::-1].index("sigma") - 1   # last sigma point
    mus = branch.scalar("mu")[switched:]
    assert set(fixed[switched + 1:]) == {"mu"} and len(mus) > 10
    assert np.all(np.diff(mus) < 0.0)                        # monotone
    assert branch.folds


def test_s_shaped_branch_marks_both_folds(monkeypatch):
    """Stubbed S-shaped branch sigma(mu) = mu^3 - mu, folds at mu = -+1/sqrt(3).
    Driving sigma upward stalls at the first fold tip 2/(3 sqrt 3) and
    switches to mu once; mu then steps through both folds, and each reversal
    of sigma is a fold."""
    import fputw.continuation as cont

    def fake_solve(kappa, fix, value, guess, reuse=None):
        if fix == "sigma":
            roots = np.roots([1.0, 0.0, -1.0, -value])
            real = roots[np.abs(roots.imag) < 1e-12].real
            mu = real[np.argmin(np.abs(real - guess.mu))]
            if abs(mu - guess.mu) > 0.2:    # no solution near the guess
                raise NonConvergenceError("past fold", 1.0, 25)
            sigma = value
        else:
            mu = value
            sigma = mu ** 3 - mu
        return di.DiatomicWave(kappa, sigma, float(mu), 0.0, guess.omega_p,
                               guess.solitary, guess.ripple, 1e-12, 2,
                               fixed_param=fix)

    monkeypatch.setattr(cont, "solve_wave", fake_solve)
    mu0 = -0.8
    seed_wave = di.DiatomicWave(1.0, mu0 ** 3 - mu0, mu0, 0.0, 10.0,
                                _dummy_solution(), _dummy_solution(4),
                                1e-12, 0, fixed_param="sigma")
    branch = cont.continue_branch(seed_wave, "sigma", 0.5, 0.02,
                                  max_points=400)
    assert branch.terminated_reason == "target-reached"
    assert [e.note for e in branch.events if e.kind == "switch"] == ["sigma"]
    assert len(branch.folds) == 2
    tip = 1.0 / np.sqrt(3.0)
    mus = branch.scalar("mu")
    step = np.max(np.abs(np.diff(mus)))
    assert abs(mus[branch.folds[0]] + tip) <= step
    assert abs(mus[branch.folds[1]] - tip) <= step
    folds = [e for e in branch.events if e.kind == "fold"]
    assert [e.note for e in folds] == ["sigma", "sigma"]
    assert [e.value for e in folds] == [branch.points[i].sigma for i in branch.folds]


def _dummy_solution(ncomp=4):
    from fputw.solution import Extension, Mesh, PiecewiseSolution
    mesh = Mesh(4.0, 4, 2)
    return PiecewiseSolution.zeros(mesh, (Extension.even_zero(),) * ncomp)


def test_branch_point_values_schema():
    p = BranchPoint(1.0, 1.1, 0.5, 0.001, 10.0, 0.01, "positive", "mu", 3, 1e-11)
    vals = p.values()
    assert len(vals) == 11
    assert vals[2] == pytest.approx(1.0 / 1.5)


# ---------------------------------------------------------------------------
# step halving, predictor and events on stubbed solves
# ---------------------------------------------------------------------------

def _stub_wave(kappa, sigma, mu, fix):
    return di.DiatomicWave(kappa, sigma, mu, 1e-3, 10.0, _dummy_solution(),
                           _dummy_solution(), 1e-12, 2, fixed_param=fix)


def _recording_solve(calls, fails):
    """Stub solve_wave: records every call, raises when ``fails(kappa, fix,
    value, guess)`` holds, otherwise returns a wave with mu = (kappa - 1)^2/2
    on a kappa trace (sigma fixed) and sigma = 1.5 - mu^2 on a mu trace."""

    def fake_solve(kappa, fix, value, guess, reuse=None):
        calls.append((kappa, fix, value, guess.kappa, guess.sigma, guess.mu))
        if fails(kappa, fix, value, guess):
            raise NonConvergenceError("stub failure", 0.5, 25)
        if fix == "sigma":
            return _stub_wave(kappa, value, 0.5 * (kappa - 1.0) ** 2, fix)
        return _stub_wave(kappa, 1.5 - value * value, value, fix)

    return fake_solve


def _no_repeated_solve(calls):
    return all(a != b for a, b in zip(calls, calls[1:]))


def test_clamped_failed_step_is_not_resolved(monkeypatch):
    """A step clamped to the target fails; halvings that still clamp to the
    target leave the attempted value unchanged and are not re-solved."""
    import fputw.continuation as cont

    calls = []
    # a kappa step longer than 0.004 fails
    monkeypatch.setattr(cont, "solve_wave", _recording_solve(
        calls, lambda kappa, fix, value, guess: abs(kappa - guess.kappa) > 0.004))
    monkeypatch.setattr(cont, "kappa_tangent_guess", lambda wave, *a, **k: wave)
    k0 = 1.57059
    seed = _stub_wave(k0, 1.1, 0.5 * (k0 - 1.0) ** 2, "sigma")
    branch = cont.continue_branch(seed, "kappa", 1.565, 0.05,
                                  fixed=("sigma", 1.1))
    assert branch.terminated_reason == "target-reached"
    assert _no_repeated_solve(calls)
    # h = 0.05, 0.025, 0.0125, 0.00625 all clamp to 1.565; one solve for the
    # four, then h = 0.003125 moves the value, then the regrown step lands
    # on the target
    k1 = k0 + -1.0 * 0.003125
    assert [c[0] for c in calls] == [1.565, k1, 1.565]
    assert [p.kappa for p in branch.points] == [k0, k1, 1.565]
    kinds = [e.kind for e in branch.events]
    assert kinds == ["failed"] + ["halved"] * 4 + ["accepted"] * 2 + ["terminated"]
    failed = branch.events[0]
    assert (failed.value, failed.residual, failed.iterations) == (1.565, 0.5, 25)
    assert [e.step for e in branch.events[1:5]] == [0.025, 0.0125, 0.00625, 0.003125]
    assert branch.events[-1].note == "target-reached"
    assert cont.event_counts(branch) == {"accepted": 2, "failed": 1, "halved": 4,
                                         "switch": 0, "fold": 0, "terminated": 1}


def test_all_failing_kappa_trace_ends_at_step_floor(monkeypatch):
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave",
                        _recording_solve(calls, lambda *args: True))
    monkeypatch.setattr(cont, "kappa_tangent_guess", lambda wave, *a, **k: wave)
    seed = _stub_wave(1.57059, 1.1, 0.1, "sigma")
    branch = cont.continue_branch(seed, "kappa", 1.565, 0.05,
                                  fixed=("sigma", 1.1))
    assert branch.terminated_reason == "step-floor"
    assert len(branch.points) == 1
    assert _no_repeated_solve(calls)
    # the target, then h = 0.05/16, 0.05/32 and the floor 0.05/64
    assert len(calls) == 4
    assert [e.kind for e in branch.events].count("failed") == 4


def test_all_failing_mu_steps_switch_driver(monkeypatch):
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave", _recording_solve(
        calls, lambda kappa, fix, value, guess: fix == "mu" and value > 0.2 + 1e-12))
    seed = _stub_wave(1.0, 1.5, 0.0, "mu")
    branch = cont.continue_branch(seed, "mu", 0.25, 0.1,
                                  max_points=5)
    assert _no_repeated_solve(calls)
    mu_calls = [c[2] for c in calls if c[1] == "mu"]
    # 0.1 and 0.2 converge; 0.25 (clamped) fails and its first halving
    # still clamps to 0.25, so the next solve is at 0.225
    assert mu_calls[:4] == [0.1, 0.2, 0.25, 0.225]
    switches = [e for e in branch.events if e.kind == "switch"]
    assert len(switches) == 1
    assert switches[0].note == "mu" and switches[0].driver == "sigma"
    assert calls[len(mu_calls)][1] == "sigma"     # first solve after the switch
    assert branch.points[-1].fixed_param == "sigma"


def test_two_failing_drivers_end_at_step_floor(monkeypatch):
    """mu solves converge up to 0.1 and every other solve fails: mu stalls,
    sigma takes over and stalls too, and the trace ends instead of handing
    itself back to mu without adding a point."""
    import fputw.continuation as cont

    calls = []
    recording = _recording_solve(
        calls, lambda kappa, fix, value, guess: not (fix == "mu" and value <= 0.1 + 1e-12))

    def bounded_solve(*args, **kwargs):
        if len(calls) >= 300:
            raise RuntimeError("trace still running after 300 solves")
        return recording(*args, **kwargs)

    monkeypatch.setattr(cont, "solve_wave", bounded_solve)
    seed = _stub_wave(1.0, 1.5, 0.0, "mu")
    branch = cont.continue_branch(seed, "mu", 0.25, 0.05)
    assert branch.terminated_reason == "step-floor"
    assert [p.mu for p in branch.points] == pytest.approx([0.0, 0.05, 0.1])
    switches = [e for e in branch.events if e.kind == "switch"]
    assert [(e.note, e.driver) for e in switches] == [("mu", "sigma")]
    assert _no_repeated_solve(calls)
    assert branch.events[-1].note == "step-floor"

def test_kappa_trace_uses_secant_predictor(monkeypatch):
    """On a kappa trace every solve holds sigma fixed, so once two points
    are known the next guess is the secant extrapolation in kappa."""
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave",
                        _recording_solve(calls, lambda *args: False))
    monkeypatch.setattr(cont, "kappa_tangent_guess", lambda wave, *a, **k: wave)
    k0 = 1.5
    seed = _stub_wave(k0, 1.1, 0.5 * (k0 - 1.0) ** 2, "sigma")
    branch = cont.continue_branch(seed, "kappa", 1.2, 0.1,
                                  fixed=("sigma", 1.1))
    assert branch.terminated_reason == "target-reached"
    assert len(calls) == 3
    # first solve: no previous point, the guess is the seed itself
    assert calls[0][5] == seed.mu
    for n in (1, 2):
        prev, last = branch.points[n - 1], branch.points[n]
        r = (calls[n][0] - last.kappa) / (last.kappa - prev.kappa)
        guess_mu = calls[n][5]
        assert guess_mu != last.mu
        assert guess_mu == pytest.approx(last.mu + r * (last.mu - prev.mu),
                                         rel=1e-12)


def test_tangent_guess_on_singular_system_is_typed():
    """The stub waves are all zero, so their Jacobian is singular: the
    predictor must raise the toolkit's error, not scipy's RuntimeError."""
    seed = _stub_wave(1.57059, 1.1, 0.1, "sigma")
    with pytest.raises(SingularJacobianError):
        di.kappa_tangent_guess(seed, 1.565, "sigma", 1.1)


# ---------------------------------------------------------------------------
# Euler tangent predictor on the equal-mass seed of an iso-sigma trace
# ---------------------------------------------------------------------------

XSEC_MESH = Mesh(32.0, 128)


@pytest.fixture(scope="module")
def xsec_seed():
    """The sigma = 1.1 wave on the equal-mass axis, built as
    ``cross-section`` builds it."""
    mono_wave = _wave_at_speed(1.1, XSEC_MESH)
    seed = di.seed_from_monatomic(mono_wave, RIPPLE_MESH)
    return di.solve_wave(mono_wave.kappa, "sigma", 1.1, seed)


def test_tangent_first_kappa_step_needs_no_halving(xsec_seed, monkeypatch):
    """From the tangent guess the first kappa step converges at once; it
    lands where the seed guess gets to after a failed solve and halvings."""
    import fputw.continuation as cont

    def trace():
        return cont.continue_branch(xsec_seed, "kappa", 1.565, 0.05,
                                    fixed=("sigma", 1.1))

    branch = trace()
    counts = cont.event_counts(branch)
    assert counts["failed"] == counts["halved"] == 0
    last = branch.points[-1]
    assert last.kappa == 1.565 and last.resid <= 1e-10
    monkeypatch.setattr(cont, "kappa_tangent_guess", lambda wave, *a, **k: wave)
    seeded = trace()
    assert cont.event_counts(seeded)["failed"] > 0
    ref = seeded.points[-1]
    assert ref.kappa == 1.565
    for name in ("m", "mu", "omega_p"):
        assert abs(getattr(last, name) - getattr(ref, name)) <= 1e-10


def test_tangent_guess_is_first_order(xsec_seed):
    """The Euler guess is off by second order in the kappa step: its
    residual, and its distance in mu from the wave solved from it, fall
    about fourfold when the step halves.  The residual alone would not
    catch a reversed tangent near this seed; the distance does."""
    k0 = xsec_seed.kappa

    def guess_errors(d):
        guess = di.kappa_tangent_guess(xsec_seed, k0 - d, "sigma", 1.1)
        solved = di.solve_wave(k0 - d, "sigma", 1.1, guess)
        return np.array([di.wave_residual_norm(guess),
                         abs(guess.mu - solved.mu)])

    ratios = guess_errors(0.004) / guess_errors(0.002)
    assert np.all((3.0 <= ratios) & (ratios <= 5.0))


def _valley_solve(calls, mu_fails, mu_limit=np.inf):
    """Stub solve_wave on the branch sigma = 1 + mu^2, which folds once, at
    mu = 0.  A sigma solve takes the root nearest its guess and fails below
    the fold or beyond |mu| > ``mu_limit``; a mu solve fails when
    ``mu_fails(value)``.  Every call is recorded."""

    def fake_solve(kappa, fix, value, guess, reuse=None):
        calls.append((fix, value))
        if fix == "sigma":
            root = np.sqrt(max(value - 1.0, 0.0))
            mu = root if abs(root - guess.mu) < abs(-root - guess.mu) else -root
            if value < 1.0 or abs(mu) > mu_limit:
                raise NonConvergenceError("stub failure", 1.0, 25)
            return _stub_wave(kappa, value, mu, fix)
        if mu_fails(value):
            raise NonConvergenceError("stub failure", 1.0, 25)
        return _stub_wave(kappa, 1.0 + value * value, value, fix)

    return fake_solve


def test_switch_back_while_stepping_down_keeps_direction(monkeypatch):
    """sigma driven from mu = -0.2 down toward 0.5 stalls at the fold, mu
    takes over and fails above 0.1, and sigma, rising by now, takes over
    again.  The trace must go on up the branch instead of turning around
    over the part it has already traced."""
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave",
                        _valley_solve(calls, lambda mu: mu > 0.1))
    seed = _stub_wave(1.0, 1.04, -0.2, "sigma")
    branch = cont.continue_branch(seed, "sigma", 0.5, 0.01,
                                  max_points=60)
    assert [e.note for e in branch.events if e.kind == "switch"] == ["sigma", "mu"]
    assert len(branch.folds) == 1
    mus = branch.scalar("mu")
    assert np.all(np.diff(mus[branch.folds[0]:]) >= 0.0)
    assert mus[-1] > 0.1


def test_switch_back_to_mu_steps_in_m(monkeypatch):
    """With step_in_m, a switch back to the mu driver hands over its last
    increment in m: the first mu solve after it lies at the last accepted
    m plus that increment."""
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave", _valley_solve(
        calls, lambda mu: 0.112 < mu < 0.3, mu_limit=0.35))
    seed = _stub_wave(1.0, 1.0, 0.0, "mu")
    branch = cont.continue_branch(seed, "mu", 0.5, 0.1,
                                  step_in_m=True, max_points=30)
    assert [e.note for e in branch.events if e.kind == "switch"] == ["mu", "sigma"]
    fixed = [c[0] for c in calls]
    back = len(fixed) - fixed[::-1].index("sigma")     # first mu solve after
    held = [p.fixed_param for p in branch.points]
    last_sigma = len(held) - held[::-1].index("sigma") - 1
    prev, last = branch.points[last_sigma - 1], branch.points[last_sigma]
    assert calls[back][0] == "mu"
    assert calls[back][1] == pytest.approx(1.0 / (2.0 * last.m - prev.m) - 1.0,
                                           rel=1e-12)


def test_switch_cap_scales_with_halving(monkeypatch):
    """mu, stepped in m, fails in (0.1, 0.2), so sigma takes over with an
    increment made under a halved step.  Its step must regrow past that
    increment, by the factor the mu step had been halved, so the trace
    reaches its target instead of crawling to ``max_points``."""
    import fputw.continuation as cont

    calls = []
    monkeypatch.setattr(cont, "solve_wave",
                        _valley_solve(calls, lambda mu: 0.1 < mu < 0.2))
    seed = _stub_wave(1.0, 1.0, 0.0, "mu")
    branch = cont.continue_branch(seed, "mu", 0.5, 0.02,
                                  step_in_m=True)
    assert [e.note for e in branch.events if e.kind == "switch"] == ["mu"]
    assert branch.terminated_reason == "target-reached"
    assert len(branch.points) < 300


def test_stability_family_solves_each_mass_from_nearest_wave(monkeypatch):
    """One solve per stability mass, in order, at mu = 1/m - 1 and the
    solitary wave's kappa, each from the wave nearest in mu (the first of
    two equally near); the solitary wave itself comes last."""
    import fputw.continuation as cont

    calls = []

    def fake_solve(kappa, fix, value, guess, reuse=None):
        calls.append((kappa, fix, value, guess))
        return _stub_wave(kappa, 1.5, value, fix)

    monkeypatch.setattr(cont, "solve_wave", fake_solve)
    solitary = _stub_wave(2.5, 1.5776, 1.0 / 0.32701849 - 1.0, "beta_p")
    # the second 1.95 ties with the first; the branch sits at another kappa
    # so the solves' kappa can only come from the solitary wave
    branch = Branch(waves=[_stub_wave(2.4, 1.5, mu, "mu")
                           for mu in (0.0, 1.95, 1.95, 2.05, 2.0572)])
    waves = cont.stability_family(branch, solitary)
    assert [c[:3] for c in calls] == [(2.5, "mu", 1.0 / m - 1.0)
                                      for m in cont.STABILITY_MASSES]
    expected = [branch.waves[i] for i in (1, 3, 4)] + [solitary, solitary]
    assert all(c[3] is w for c, w in zip(calls, expected))
    assert len(waves) == len(cont.STABILITY_MASSES) + 1
    assert [w.mu for w in waves[:-1]] == [c[2] for c in calls]
    assert waves[-1] is solitary


# ---------------------------------------------------------------------------
# closing the alpha_P bracket (Illinois) on stubbed solves
# ---------------------------------------------------------------------------

def _alpha_branch(monkeypatch, alpha, lo=0.0, hi=1.0):
    """A two-point mu branch with an alpha_P sign change between ``lo`` and
    ``hi``, and a stub solve_wave with alpha_P = alpha(mu) that records the
    mu of every solve."""
    import types
    import fputw.continuation as cont

    def wave(mu):
        return types.SimpleNamespace(kappa=2.5, mu=mu, alpha_p=alpha(mu),
                                     fixed_param="mu")

    calls = []

    def fake_solve(kappa, fix, value, guess, reuse=None):
        assert (kappa, fix) == (2.5, "mu")
        calls.append(value)
        return wave(value)

    monkeypatch.setattr(cont, "solve_wave", fake_solve)
    points = [BranchPoint(2.5, 1.5, mu, 1e-3, 10.0, alpha(mu), "positive", "mu",
                          2, 1e-12) for mu in (lo, hi)]
    points[1].sign_change = True
    return Branch(points, [wave(lo), wave(hi)]), calls


def _bracket(branch, calls, wave, alpha):
    """Width of the tightest solved bracket of a sign change ending at
    ``wave``: its distance to the nearest solved mu of opposite alpha_P."""
    solved = [w.mu for w in branch.waves] + calls
    return min(abs(mu - wave.mu) for mu in solved if alpha(mu) * wave.alpha_p < 0.0)


def test_alpha_zero_closes_faster_than_bisection(monkeypatch):
    import fputw.continuation as cont
    alpha = lambda mu: np.tanh(20.0 * (mu - 0.3)) * (1.0 + mu)
    branch, calls = _alpha_branch(monkeypatch, alpha)
    tol = 1e-8
    wave = cont.bisect_alpha_zero(branch, 1, tol=tol)
    assert abs(wave.mu - 0.3) <= tol
    assert _bracket(branch, calls, wave, alpha) <= tol
    # bisection halves the unit bracket 27 times to reach 1e-8
    assert len(calls) < np.ceil(np.log2(1.0 / tol)) / 2


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1.0, 0.0), (0.399, 0.4003)])
def test_alpha_zero_closes_onto_a_jump(monkeypatch, lo, hi):
    """alpha_P jumps from -1e-3 to 2e-3 at mu = 0.4 without a zero: the
    returned wave sits within tol of the jump with |alpha_P| not small,
    which criterion 09 reads as a hop."""
    import fputw.continuation as cont
    alpha = lambda mu: -1e-3 if mu < 0.4 else 2e-3
    branch, calls = _alpha_branch(monkeypatch, alpha, lo, hi)
    wave = cont.bisect_alpha_zero(branch, 1, tol=1e-9)
    assert abs(wave.mu - 0.4) <= 1e-9 and abs(wave.alpha_p) >= 1e-3
    assert _bracket(branch, calls, wave, alpha) <= 1e-9
    assert len(calls) <= cont.BISECT_MAX_SOLVES


def test_alpha_zero_stops_at_the_solve_cap_or_an_exact_zero(monkeypatch):
    import fputw.continuation as cont
    branch, calls = _alpha_branch(monkeypatch, lambda mu: -1e-3 if mu < 0.4 else 2e-3)
    monkeypatch.setattr(cont, "BISECT_MAX_SOLVES", 5)
    wave = cont.bisect_alpha_zero(branch, 1, tol=0.0)
    assert len(calls) == 5 and wave.mu == calls[-1]
    # an exact alpha_P = 0 ends the search; a bracket below tol makes no solve
    branch, calls = _alpha_branch(monkeypatch, lambda mu: mu - 0.5)
    assert cont.bisect_alpha_zero(branch, 1, tol=0.0).alpha_p == 0.0
    assert calls == [0.5]
    assert cont.bisect_alpha_zero(branch, 1, tol=1.0) is branch.waves[1]


def test_alpha_zero_rejects_unmarked_index_and_dropped_waves(monkeypatch):
    import fputw.continuation as cont
    branch, calls = _alpha_branch(monkeypatch, lambda mu: mu - 0.5)
    with pytest.raises(ValueError, match="does not mark"):
        cont.bisect_alpha_zero(branch, 0)
    branch.waves = []
    with pytest.raises(ValueError, match="retain waves"):
        cont.bisect_alpha_zero(branch, 1)
    assert calls == []
