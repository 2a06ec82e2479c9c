import dataclasses

import numpy as np
import pytest

from fputw import diatomic as di
from fputw import dispersion as dsp
from fputw import monatomic as mono
from fputw.errors import NoBracketError, ProblemSizeError
from fputw.solution import Mesh

MESH = Mesh(32.0, 256)
RIPPLE_MESH = Mesh(32.0, 32)


@pytest.fixture(scope="module")
def mono_k1():
    return mono.solve_profile(1.0, MESH)


@pytest.fixture(scope="module")
def equal_mass_wave(mono_k1):
    seed = di.seed_from_monatomic(mono_k1, RIPPLE_MESH)
    return di.solve_wave(1.0, "mu", 0.0, seed)


@pytest.fixture(scope="module")
def wave_mu1(mono_k1):
    # m = 0.5 (mu = 1) reached by continuation with secant prediction
    from fputw.continuation import continue_branch
    seed = di.seed_from_monatomic(mono_k1, RIPPLE_MESH)
    branch = continue_branch(seed, "mu", 1.0, 0.1)
    assert branch.terminated_reason == "target-reached"
    return branch.waves[-1]


# ---------------------------------------------------------------------------
# periodic ripples
# ---------------------------------------------------------------------------

def test_periodic_invariants():
    rip = di.solve_periodic(1.5, -0.3, 0.01, RIPPLE_MESH)
    assert abs(rip.profile.integral(0)) < 1e-10
    norm = rip.profile.eval(0.0, 0) ** 2 + rip.profile.eval(0.0, 3) ** 2
    assert abs(norm - 1.0) < 1e-10
    assert abs(rip.profile.eval(0.0, 2)) < 1e-10
    assert abs(rip.profile.eval(RIPPLE_MESH.length, 2)) < 1e-10
    assert rip.orientation_ok


def test_periodic_frequency_recovery():
    # omega recovered from the correspondence tends to the linear mode O(beta)
    mode = dsp.critical_frequency(1.5, -0.3)
    errs = []
    guess = None
    for beta in (0.02, 0.01, 0.005):
        rip = di.solve_periodic(1.5, -0.3, beta, RIPPLE_MESH, guess=guess)
        guess = rip
        errs.append(abs(rip.omega_xi - mode.omega))
    assert errs[0] < 0.05 * mode.omega
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[2] > 2.0


def test_periodic_equal_mass_mode_shape():
    # at mu=0 the eigenvector is (0, 1): P1 is O(beta) relative to P2
    beta = 0.004
    rip = di.solve_periodic(1.3, 0.0, beta, RIPPLE_MESH)
    ratio = rip.profile.sup_norm(0) / rip.profile.sup_norm(2)
    assert ratio < 10.0 * beta


def test_periodic_linearization_slope():
    # || p - a s_lin || <= C a^2: halving the amplitude quarters the error
    sigma, mu = 1.45, -0.25
    mode = dsp.critical_frequency(sigma, mu)
    xi = np.linspace(0.0, 2.0 * np.pi / mode.omega, 400)
    # the canonical (data-convention) ripple aligns with the reversed mode
    lin1, lin2 = (di.ORIENTATION_SIGN * v for v in mode.linear_profile(xi))
    errs, amps = [], []
    guess = None
    for beta in (0.02, 0.01, 0.005):
        rip = di.solve_periodic(sigma, mu, beta, RIPPLE_MESH, guess=guess)
        guess = rip
        a = rip.alpha_p
        amps.append(a)
        p1 = beta * rip.profile.eval(rip.omega_p * xi, 0)
        p2 = beta * rip.profile.eval(rip.omega_p * xi, 2)
        err = max(np.max(np.abs(p1 - a * lin1)), np.max(np.abs(p2 - a * lin2)))
        errs.append(err)
    expect01 = (amps[0] / amps[1]) ** 2
    expect12 = (amps[1] / amps[2]) ** 2
    assert abs(errs[0] / errs[1] - expect01) < 0.35 * expect01
    assert abs(errs[1] / errs[2] - expect12) < 0.35 * expect12


def test_periodic_rejects_subsonic():
    with pytest.raises(NoBracketError):
        di.solve_periodic(0.5, 0.0, 0.01, RIPPLE_MESH)


# ---------------------------------------------------------------------------
# full diatomic wave
# ---------------------------------------------------------------------------

def test_problem_has_eleven_boundary_conditions():
    prob = di.wave_problem(1.0, di.ParamMap("mu", 0.0), MESH, RIPPLE_MESH)
    prob.validate()
    assert len(prob.boundary_conditions) == 11
    assert sum(b.ncomp for b in prob.blocks) + prob.nparams == 11


def test_equal_mass_reduction(mono_k1, equal_mass_wave):
    w = equal_mass_wave
    tau = np.linspace(0.0, MESH.length, 2001)
    assert np.max(np.abs(w.solitary.eval(tau, 2))) < 1e-8
    assert np.max(np.abs(w.solitary.eval(tau, 0) - mono_k1.phi(tau))) < 1e-6
    assert abs(w.sigma - mono_k1.sigma) < 1e-6
    assert abs(w.alpha_p) < 1e-10          # landscape consistency at mu = 0
    assert w.residual_norm < 1e-9


def test_wave_boundary_conditions(wave_mu1):
    w = wave_mu1
    L = MESH.length
    assert w.solitary.eval(0.0, 0) == pytest.approx(0.125, abs=1e-10)
    assert abs(w.solitary.eval(0.0, 1)) < 1e-10
    assert abs(w.solitary.eval(0.0, 2)) < 1e-10
    assert abs(w.solitary.eval(L, 0)) < 1e-10
    assert abs(w.solitary.eval(L, 2)) < 1e-10
    assert abs(w.solitary.eval(L, 3)) < 1e-10


def test_wave_residual_reassembly(wave_mu1):
    assert di.wave_residual_norm(wave_mu1) < 1e-9


def test_micropteron_slope_sign(wave_mu1, equal_mass_wave):
    # alpha_P = -K_sigma mu + O(mu^2) with K_sigma < 0: positive for mu > 0
    assert wave_mu1.alpha_p > 0.0


# ---------------------------------------------------------------------------
# symmetry transform
# ---------------------------------------------------------------------------

def test_symmetry_fixed_point_at_equal_mass(equal_mass_wave):
    w2 = di.symmetry_transform(equal_mass_wave)
    assert w2.mu == pytest.approx(0.0, abs=1e-15)
    assert w2.sigma == pytest.approx(equal_mass_wave.sigma, rel=1e-15)
    assert np.array_equal(w2.solitary.coeffs[0], equal_mass_wave.solitary.coeffs[0])
    assert np.max(np.abs(w2.solitary.coeffs[2])) < 1e-8


def test_symmetry_involution(wave_mu1):
    w2 = di.symmetry_transform(di.symmetry_transform(wave_mu1))
    assert w2.mu == pytest.approx(wave_mu1.mu, rel=1e-12, abs=1e-12)
    assert w2.sigma == pytest.approx(wave_mu1.sigma, rel=1e-12)
    assert w2.beta_p == pytest.approx(wave_mu1.beta_p, rel=1e-12, abs=1e-15)
    assert w2.omega_p == pytest.approx(wave_mu1.omega_p, rel=1e-12)
    assert np.allclose(w2.solitary.coeffs, wave_mu1.solitary.coeffs, atol=1e-14)


def test_symmetry_maps_parameters(wave_mu1):
    w2 = di.symmetry_transform(wave_mu1)
    assert w2.m == pytest.approx(1.0 / wave_mu1.m, rel=1e-12)
    assert w2.sigma == pytest.approx(wave_mu1.sigma * np.sqrt(wave_mu1.m), rel=1e-12)


def test_symmetry_transformed_residual(wave_mu1):
    # the m=0.5 wave mapped to (m=2, sigma*sqrt(0.5)) still solves the system
    w2 = di.symmetry_transform(wave_mu1)
    assert di.wave_residual_norm(w2) < 1e-8


def test_symmetry_swaps_displacements(wave_mu1):
    w2 = di.symmetry_transform(wave_mu1)
    xi = np.linspace(-10.0, 10.0, 101)
    r_o, r_e = di.reconstruct_displacement_profiles(wave_mu1)
    q_o, q_e = di.reconstruct_displacement_profiles(w2)
    assert np.allclose(q_o(xi), r_e(xi), atol=1e-12)
    assert np.allclose(q_e(xi), r_o(xi), atol=1e-12)


# ---------------------------------------------------------------------------
# reconstruction and classification
# ---------------------------------------------------------------------------

def test_reconstruct_equal_mass_profiles_coincide(equal_mass_wave):
    r_o, r_e = di.reconstruct_displacement_profiles(equal_mass_wave)
    xi = np.linspace(-20.0, 20.0, 201)
    assert np.max(np.abs(r_o(xi) - r_e(xi))) < 1e-7


def test_reconstruct_parity(wave_mu1):
    # s1 even and s2 odd make r_o(-xi) = r_e(xi)
    r_o, r_e = di.reconstruct_displacement_profiles(wave_mu1)
    xi = np.linspace(0.0, 15.0, 151)
    assert np.allclose(r_o(-xi), r_e(xi), atol=1e-10)


def test_small_mass_component_does_not_vanish():
    mu = 1.0 / 0.05 - 1.0
    seed = di.seed_from_small_mass(2.0, mu, MESH)
    w = di.solve_wave(2.0, "mu", mu, seed)
    s1, s2 = w.s_components()
    xi = np.linspace(0.0, MESH.length / 2.0, 1601)
    assert np.max(np.abs(s2(xi))) > 0.1 * np.max(np.abs(s1(xi)))
    assert w.sigma > np.sqrt(2.0)


def test_small_mass_seed_solves_each_kappa_once(monkeypatch):
    # the secant loop's last profile solve is the seed's profile
    solved = []

    def counting_solve_profile(kappa, mesh=None, guess=None):
        solved.append(kappa)
        return mono.solve_profile(kappa, mesh, guess)

    monkeypatch.setattr(di, "solve_profile", counting_solve_profile)
    di.seed_from_small_mass(2.0, 19.0, MESH)
    assert len(solved) == len(set(solved))


def test_classification_thresholds(equal_mass_wave):
    w = equal_mass_wave
    norm = np.hypot(w.ripple.sup_norm(0), w.ripple.sup_norm(2))
    mk = lambda alpha: dataclasses.replace(w, beta_p=alpha / norm)
    assert di.classify_ripple(dataclasses.replace(w, beta_p=0.0)) == "solitary"
    assert di.classify_ripple(mk(1e-3)) == "positive"
    assert di.classify_ripple(mk(-1e-3)) == "negative"
    assert di.classify_ripple(mk(1e-7)) == "small-ripple"    # below 1.25e-6


def test_wave_checkpoint_roundtrip(wave_mu1, tmp_path):
    p = tmp_path / "w.ckpt"
    di.save_wave(wave_mu1, p)
    w2 = di.load_wave(p)
    assert w2.sigma == wave_mu1.sigma
    assert w2.mu == wave_mu1.mu
    assert np.array_equal(w2.solitary.coeffs, wave_mu1.solitary.coeffs)
    p2 = tmp_path / "w2.ckpt"
    di.save_wave(w2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_size_cap_enforced(mono_k1):
    seed = di.seed_from_monatomic(mono_k1, RIPPLE_MESH)
    seed = dataclasses.replace(seed, solitary=seed.solitary.resample(Mesh(32.0, 2048)),
                               ripple=seed.ripple.resample(Mesh(32.0, 256)))
    with pytest.raises(ProblemSizeError):
        di.solve_wave(1.0, "mu", 0.0, seed)


def test_refresh_ripple_guess(mono_k1):
    seed = di.seed_from_monatomic(mono_k1, RIPPLE_MESH)
    rippled = dataclasses.replace(seed, beta_p=0.01)
    assert di.refresh_ripple_guess(rippled, "mu", 0.1) is rippled
    # a ripple-free wave gets the mode at the fixed mu, or at its own mu
    got = di.refresh_ripple_guess(seed, "mu", 0.1)
    rip, omega_p = di.ripple_mode_seed(seed.sigma, 0.1, RIPPLE_MESH)
    assert np.array_equal(got.ripple.coeffs, rip.coeffs)
    assert got.omega_p == omega_p
    moved = dataclasses.replace(seed, mu=0.05)
    got = di.refresh_ripple_guess(moved, "sigma", moved.sigma)
    rip, omega_p = di.ripple_mode_seed(moved.sigma, 0.05, RIPPLE_MESH)
    assert np.array_equal(got.ripple.coeffs, rip.coeffs)
    assert got.omega_p == omega_p
    # below the sound speed no mode exists at either mass
    slow = dataclasses.replace(seed, sigma=0.5)
    assert di.refresh_ripple_guess(slow, "mu", 0.1) is slow
