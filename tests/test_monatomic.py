import numpy as np
import pytest

from fputw import dispersion as dsp
from fputw import monatomic as mono
from fputw.mfde import assemble_residual, refined_collocation_norm
from fputw.solution import Extension, Mesh, PiecewiseSolution


MESH = Mesh(32.0, 512)


@pytest.fixture(scope="module")
def small_waves():
    return {k: mono.solve_profile(k, MESH) for k in (0.125, 0.25, 0.5)}


@pytest.fixture(scope="module")
def joint_k03():
    return mono.solve_joint(0.3, MESH)


@pytest.fixture(scope="module")
def joint_k1():
    return mono.solve_joint(1.0, MESH)


def test_speed_law(small_waves):
    for k, w in small_waves.items():
        ratio = (w.sigma - 1.0) * 24.0 / k ** 2
        assert 0.9 <= ratio <= 1.1


def test_profile_boundary_conditions(small_waves):
    w = small_waves[0.5]
    assert w.phi(0.0) == pytest.approx(0.125, abs=1e-10)
    assert w.phi_prime(0.0) == pytest.approx(0.0, abs=1e-10)
    assert w.phi(w.length) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("fixture", ["joint_k03", "joint_k1"])
def test_joint_wave_is_the_joint_solution(fixture, request):
    # the returned (Phi, sigma) both come from the joint solve, whose Newton
    # steps polish the presolved profile; pairing the presolved Phi with the
    # joint sigma would leave a larger profile residual than the presolve's
    wave, jost = request.getfixturevalue(fixture)
    presolve = mono.solve_profile(wave.kappa, MESH)
    assert wave.sigma == jost.sigma
    assert wave.residual_norm == jost.residual_norm
    assert wave.iterations == presolve.iterations + jost.iterations
    r = assemble_residual(mono._profile_problem(wave.kappa, MESH),
                          [wave.profile], [wave.sigma])
    assert np.max(np.abs(r)) <= min(presolve.residual_norm, wave.residual_norm)


def test_sech_limit(small_waves):
    # Phi -> sech^2(tau/2)/8 with O(kappa^2) error
    tau = np.linspace(0.0, 32.0, 2001)
    target = 0.125 / np.cosh(0.5 * tau) ** 2
    sup = {k: np.max(np.abs(w.phi(tau) - target)) for k, w in small_waves.items()}
    assert sup[0.125] < 0.002
    # quadratic trend: halving kappa shrinks the gap by about 4
    assert 2.5 < sup[0.25] / sup[0.125] < 6.0
    assert 2.5 < sup[0.5] / sup[0.25] < 6.0


def test_profile_refinement_residual(small_waves):
    # Gauss-collocation defect between nodes is O(h^3); at the default mesh
    # the measured level is ~1.5e-7 and drops ~8x per mesh doubling
    w = small_waves[0.5]
    prob = mono._profile_problem(0.5, MESH)
    coarse = refined_collocation_norm(prob, [w.profile], [w.sigma])
    assert coarse < 5e-7
    mesh2 = Mesh(32.0, 1024)
    w2 = mono.solve_profile(0.5, mesh2, guess=None)
    prob2 = mono._profile_problem(0.5, mesh2)
    fine = refined_collocation_norm(prob2, [w2.profile], [w2.sigma])
    assert coarse / fine > 5.0


def test_joint_refinement_residual(joint_k1):
    wave, jost = joint_k1
    prob = mono.joint_problem(1.0, MESH)
    coeffs = np.concatenate([wave.profile.coeffs, jost.remainder.coeffs])
    from fputw.solution import PiecewiseSolution
    cand = PiecewiseSolution(MESH, coeffs,
                             wave.profile.policies + jost.remainder.policies)
    params = [jost.sigma, 1.0 / jost.beta, jost.theta]
    # the oscillatory Jost component dominates the defect scale
    assert refined_collocation_norm(prob, [cand], params) < 1e-4


def test_boundary_count_is_seven():
    prob = mono.joint_problem(1.0, MESH)
    assert len(prob.boundary_conditions) == 7
    assert sum(b.ncomp for b in prob.blocks) + prob.nparams == 7


def test_phase_shift_anchor(joint_k03):
    _, jost = joint_k03
    predicted = mono.PHASE_SLOPE * 0.3
    assert abs(jost.omega * jost.theta - predicted) / predicted < 0.1


def test_jost_tail_conditions(joint_k03):
    _, jost = joint_k03
    L = MESH.length
    assert abs(jost.remainder.eval(L, 0)) < 1e-9
    assert abs(jost.remainder.eval(L, 1)) < 1e-9


def test_gamma_decays(joint_k1):
    wave, jost = joint_k1
    xi = np.linspace(0.0, MESH.length / wave.kappa, 3000)
    local = jost.beta * jost.remainder.eval(wave.kappa * xi, 0)
    assert abs(local[-1]) < 0.01 * np.max(np.abs(local))


def test_gamma_odd(joint_k1):
    _, jost = joint_k1
    xi = np.linspace(0.4, 20.0, 10)
    assert np.max(np.abs(jost.gamma(xi) + jost.gamma(-xi))) < 1e-10


def test_psi_symmetry_anchors(joint_k1):
    wave, jost = joint_k1
    psi_eta = mono.compute_psi(wave, jost, "eta")
    psi_chi = mono.compute_psi(wave, jost, "chi")
    assert psi_eta(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert psi_chi(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_psi_spot_value_independent(joint_k1):
    wave, jost = joint_k1
    kap, om = wave.kappa, jost.omega
    tau = np.array([1.0])
    expect = (wave.phi(1.0 + kap) * np.sin(om * (1.0 / kap + 1.0))
              + 2.0 * wave.phi(1.0) * np.sin(om / kap)
              + wave.phi(1.0 - kap) * np.sin(om * (1.0 / kap - 1.0)))
    assert mono.compute_psi(wave, jost, "eta")(tau)[0] == pytest.approx(expect, rel=1e-12)


def test_monitor_identity(joint_k1):
    wave, jost = joint_k1
    coeff = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 5)
    assert coeff.monitor_residual < 1e-3


def test_quadrature_stability(joint_k1):
    wave, jost = joint_k1
    coeff = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 6)
    i1, i2 = coeff.i_chi, coeff.i_chi_refined
    assert abs(i2 - i1) / abs(i1) < 1e-4
    assert coeff.reliable


def test_default_cross_check_agrees_with_gauss():
    # the midpoint count is fine enough and not commensurate with the knots:
    # kappa = 0.5 is its worst case on the default mesh (7e-14), and kappa =
    # 0.3 on a 64-interval mesh of L = 32 its worst case overall (2.2e-6)
    for kappa, mesh, bound in ((0.5, MESH, 1e-9), (0.3, Mesh(32.0, 64), 1e-5)):
        wave, jost = mono.solve_joint(kappa, mesh)
        coeff = mono.amplitude_coefficient(wave, jost)
        assert coeff.n_quad == mono.N_QUAD
        assert abs(coeff.i_chi_refined - coeff.i_chi) <= bound * abs(coeff.i_chi)
        assert coeff.reliable


def test_unreliable_quadrature_below_cutoff():
    # kappa < 0.3 is flagged unreliable
    wave, jost = mono.solve_joint(0.25, MESH)
    coeff = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 4)
    assert not coeff.reliable


def test_kc_fit_anchor():
    wave, jost = mono.solve_joint(2.5, MESH)
    coeff = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 5)
    fit = mono.KC_FIT[0] * np.exp(-mono.KC_FIT[1] / 2.5)
    assert abs(-coeff.coefficient / fit - 1.0) < 0.15
    assert coeff.coefficient < 0.0



OFF_GRID_KAPPA = 1.1    # 17.6 mesh steps: knots +- kappa fall between knots


@pytest.fixture(scope="module")
def joint_off_grid():
    return mono.solve_joint(OFF_GRID_KAPPA, MESH)


def _antiderivative(sol, x):
    """Exact integral of component 0 of ``sol`` over [0, x], 0 <= x <= L."""
    h = sol.mesh.h
    c = sol.coeffs[0]
    j = np.arange(1, c.shape[1] + 1)
    i = min(int(x / h), sol.mesh.intervals - 1)
    s = x / h - i
    return h * (np.sum(c[:i] / j) + np.sum(c[i] * s ** j / j))


def test_breakpoint_gauss_is_exact_on_shifted_kinks():
    # a piecewise cubic with kinks at every knot, even through 0 and zero
    # beyond L, shifted by +-kappa: exact on the breakpoints with 2 nodes
    kap = OFF_GRID_KAPPA
    p = PiecewiseSolution.from_callables(
        MESH, [lambda t: np.exp(-0.3 * t) * np.cos(t)], (Extension.even_zero(),))
    wave = mono.MonatomicWave(kap, 1.0, p, 0.0, 0)
    jost = mono.JostSolution(kap, 1.0, 1.0, 0.0, 1.0, p, 0.0, 0)
    breaks = mono._breakpoints(wave, jost)
    assert breaks[0] == 0.0 and breaks[-1] == MESH.length
    assert np.all(np.diff(breaks) > 0.0)

    def f(tau):
        return p.eval(tau + kap, 0) + 2.0 * p.eval(tau, 0) + p.eval(tau - kap, 0)

    L = MESH.length
    exact = 3.0 * _antiderivative(p, L) + _antiderivative(p, L - kap)
    assert mono._piecewise_gauss(f, breaks, 2) == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_gauss_quadrature_matches_midpoint_sum(joint_off_grid):
    wave, jost = joint_off_grid
    kap, L, n = wave.kappa, wave.length, 10 ** 6
    tau = (np.arange(n) + 0.5) * (L / n)
    gamma = (np.sin(jost.omega * (tau / kap + jost.theta))
             + jost.beta * jost.remainder.eval(tau, 0))
    i_eta = 4.0 * kap * np.sum(gamma * mono.compute_psi(wave, jost, "eta")(tau)) * (L / n)
    i_chi = 2.0 * kap * np.sum(gamma * mono.compute_psi(wave, jost, "chi")(tau)) * (L / n)
    coeff = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 4)
    assert coeff.i_eta == pytest.approx(i_eta, rel=1e-9, abs=0.0)
    assert coeff.i_chi == pytest.approx(i_chi, rel=1e-9, abs=0.0)
    assert coeff.coefficient == pytest.approx(-i_chi / i_eta, rel=1e-9, abs=0.0)


def test_amplitude_coefficient_is_deterministic(joint_off_grid):
    wave, jost = joint_off_grid
    first = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 5)
    second = mono.amplitude_coefficient(wave, jost, n_quad=10 ** 5)
    assert first == second

@pytest.fixture(scope="module")
def scan_small():
    return mono.kappa_scan(0.5, 1.0, 0.25, MESH)


def test_scan_rows_and_monotone_sigma(scan_small):
    res = scan_small
    assert res.aborted_reason is None
    assert len(res.rows) == 3
    sig = [r.sigma for r in res.rows]
    assert all(a < b for a, b in zip(sig, sig[1:]))


def test_single_point_scan_equals_direct(scan_small):
    res = mono.kappa_scan(0.5, 0.5, 0.25, MESH)
    wave, jost = mono.solve_joint(0.5, MESH)
    assert res.rows[0].sigma == wave.sigma
    assert res.rows[0].beta_ups == jost.beta


def test_scan_restart_reproduces_rows(scan_small, tmp_path):
    # a scan row's checkpoint seeds the next row exactly
    res = scan_small
    p = tmp_path / "row0.ckpt"
    mono.save_joint(res.waves[0], res.josts[0], p)
    wave, jost = mono.solve_joint(0.75, MESH, seed=mono.load_joint(p))
    row = mono.ScanRow.of(wave, jost, mono.amplitude_coefficient(wave, jost))
    assert row.values() == res.rows[1].values()


def test_kappa_scan_validates_range():
    with pytest.raises(ValueError):
        mono.kappa_scan(0.1, 1.0, 0.25, MESH)


SMALL = Mesh(16.0, 128)


def test_solve_joint_goes_through_solve_jost(monkeypatch):
    calls = []
    real = mono.solve_jost

    def counting(wave, guess=None):
        calls.append(wave.kappa)
        return real(wave, guess)

    monkeypatch.setattr(mono, "solve_jost", counting)
    mono.solve_joint(0.5, SMALL)
    assert calls == [0.5]
    mono.kappa_scan(0.5, 0.75, 0.25, SMALL)
    assert calls == [0.5, 0.5, 0.75]


def test_solve_jost_solves_on_the_wave_mesh():
    wave, jost = mono.solve_jost(mono.solve_profile(0.5, SMALL))
    assert jost.remainder.mesh == wave.profile.mesh == SMALL
    joint_wave, joint_jost = mono.solve_joint(0.5, SMALL)
    assert np.array_equal(jost.remainder.coeffs, joint_jost.remainder.coeffs)
    assert np.array_equal(wave.profile.coeffs, joint_wave.profile.coeffs)
    for name in ("sigma", "theta", "beta"):
        assert getattr(jost, name) == getattr(joint_jost, name)


def test_scan_aborts_persisting_rows(monkeypatch):
    from fputw.errors import NonConvergenceError
    real = mono.solve_joint

    def failing(kappa, mesh=None, seed=None):
        if kappa > 0.6:
            raise NonConvergenceError("synthetic failure", 1.0, 25)
        return real(kappa, mesh, seed=seed)

    monkeypatch.setattr(mono, "solve_joint", failing)
    res = mono.kappa_scan(0.5, 1.0, 0.25, MESH)
    assert res.completed == 1
    assert res.rows[0].kappa == 0.5
    assert "kappa=0.75" in res.aborted_reason


@pytest.fixture
def newton_meshes(monkeypatch):
    """The mesh of every Newton solve that ``monatomic`` makes."""
    meshes = []
    real = mono.solve_newton

    def recording(problem, guesses, params, reuse=None):
        meshes.append(guesses[0].mesh)
        return real(problem, guesses, params, reuse)

    monkeypatch.setattr(mono, "solve_newton", recording)
    return meshes


LADDER_MESH = Mesh(MESH.length, 64, MESH.gauss_order)


def test_ladder_runs_on_the_ladder_mesh(newton_meshes):
    wave = mono.solve_profile(2.5, MESH)
    rungs = len(mono._kappa_ladder(2.5))
    assert newton_meshes == [LADDER_MESH] * rungs + [MESH]
    assert wave.profile.mesh == MESH


def test_no_ladder_solves_once_on_the_config_mesh(newton_meshes):
    wave = mono.solve_profile(0.5, MESH)
    assert newton_meshes == [MESH]
    assert wave.profile.mesh == MESH


def test_config_mesh_as_coarse_as_the_ladder_walks_it(newton_meshes):
    mesh = Mesh(32.0, 64)
    mono.solve_profile(1.0, mesh)
    assert newton_meshes == [mesh] * 3


def test_ladder_mesh_wave_agrees_with_the_full_mesh_ladder():
    kappa = 2.5
    ref = mono._solve_profile_once(0.5, mono._sech2_seed(MESH),
                                   1.0 + 0.5 ** 2 / 24.0)
    for kap in np.arange(0.75, kappa + 1e-12, 0.25):
        ref = mono._solve_profile_once(kap, ref.profile, ref.sigma)
    assert ref.kappa == kappa
    wave = mono.solve_profile(kappa, MESH)
    assert abs(wave.sigma - ref.sigma) <= 1e-9
    assert np.max(np.abs(wave.profile.coeffs - ref.profile.coeffs)) <= 1e-9
