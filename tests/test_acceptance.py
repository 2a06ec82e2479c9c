"""Acceptance suite: one test per criterion, each printing a pass/fail line
with the measured quantities (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear).

The expensive artifacts (the kappa scan with full quadrature, the kappa = 5/2
branch and its solitary wave, the six initial conditions and their lattice
runs) are built once in module-scoped fixtures and shared."""

import time

import numpy as np
import pytest

from fputw import diatomic as di
from fputw import dispersion as dsp
from fputw import lattice as lat
from fputw import monatomic as mono
from fputw.continuation import (bisect_alpha_zero, continue_branch,
                                find_solitary, stability_family)
from fputw.mfde import (EquationBlock, FunctionBlockSpec, MfdeProblem,
                        SlotSpec, solve_newton, value_bc)
from fputw.solution import Extension, Mesh, PiecewiseSolution

MESH = Mesh(32.0, 512)
RIPPLE_MESH = Mesh(32.0, 32)

SOLITARY_M = 0.32701849


def check(n, cond, text):
    print(f"[criterion {n:02d}] {'PASS' if cond else 'FAIL'} {text}")
    assert cond, f"criterion {n}: {text}"


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scan():
    return mono.kappa_scan(0.5, 3.0, 0.25, MESH)


def scan_row(scan, kappa):
    for row, wave, jost in zip(scan.rows, scan.waves, scan.josts):
        if abs(row.kappa - kappa) < 1e-12:
            return row, wave, jost
    raise KeyError(kappa)


@pytest.fixture(scope="module")
def branch25(scan):
    _, wave, _ = scan_row(scan, 2.5)
    seed = di.seed_from_monatomic(wave, RIPPLE_MESH)
    branch = continue_branch(seed, "mu", 2.3, 0.1,
                             stop_when=lambda p: p.sign_change)
    assert branch.sign_changes, "kappa=2.5 branch must cross alpha_P = 0"
    return branch


@pytest.fixture(scope="module")
def solitary25(branch25):
    return find_solitary(branch25, bisect_tol=1e-10)


@pytest.fixture(scope="module")
def six_ics(branch25, solitary25):
    """The six initial-condition waves at the paper masses (alpha_P = 0 uses
    the frozen solitary wave)."""
    return stability_family(branch25, solitary25.waves[0])


@pytest.fixture(scope="module")
def mono_baseline_run(scan):
    _, wave, _ = scan_row(scan, 2.5)
    state = lat.sample_initial_condition(wave)
    return lat.run_simulation(state, lat.SimConfig(horizon=1000.0))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_dispersion_anchor():
    t0 = time.perf_counter()
    omega = dsp.jost_frequency(1.0)
    dt = time.perf_counter() - t0
    err = abs(omega - 1.478170266)
    check(1, err < 1e-6 and dt < 1.0,
          f"jost frequency at sigma->1: omega={omega:.9f}, |err|={err:.2e}, "
          f"runtime {dt:.3f}s")


def test_criterion_02_speed_law():
    t0 = time.perf_counter()
    ratios = []
    for kap in (0.125, 0.25, 0.5):
        w = mono.solve_profile(kap, MESH)
        ratios.append((w.sigma - 1.0) * 24.0 / kap ** 2)
    dt = time.perf_counter() - t0
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    check(2, ok and dt < 60.0,
          f"(sigma-1)*24/kappa^2 = {[f'{r:.4f}' for r in ratios]} at "
          f"kappa=1/8,1/4,1/2; runtime {dt:.1f}s")


def test_criterion_03_phase_shift_law():
    t0 = time.perf_counter()
    _, jost = mono.solve_joint(0.3, MESH)
    dt = time.perf_counter() - t0
    measured = jost.omega * jost.theta / 0.3
    rel = abs(measured - mono.PHASE_SLOPE) / mono.PHASE_SLOPE
    check(3, rel < 0.1 and dt < 60.0,
          f"omega*theta/kappa = {measured:.6f} vs {mono.PHASE_SLOPE} "
          f"(rel {rel:.4f}); runtime {dt:.1f}s")


def test_criterion_04_monitor_identity(scan):
    vals = {}
    for kap in (1.0, 2.0):
        row, _, _ = scan_row(scan, kap)
        vals[kap] = row.monitor_resid
    ok = all(v < 1e-3 for v in vals.values())
    check(4, ok, "monitor |I_eta + B+' sin(omega theta)|/|I_eta| = "
          + ", ".join(f"{k}: {v:.2e}" for k, v in vals.items()))


def test_criterion_05_amplitude_coefficient_fit(scan):
    logdiffs = {}
    for kap in (1.5, 2.0, 2.5):
        row, _, _ = scan_row(scan, kap)
        ratio = row.i_chi / row.i_eta
        fit = mono.KC_FIT[0] * np.exp(-mono.KC_FIT[1] / kap)
        logdiffs[kap] = abs(np.log(ratio) - np.log(fit)) / abs(np.log(fit))
    negative = all(r.k_coeff < 0 for r in scan.rows)
    ok = all(v < 0.15 for v in logdiffs.values()) and negative
    check(5, ok, "log(I_chi/I_eta) vs log fit rel diff = "
          + ", ".join(f"{k}: {v:.3f}" for k, v in logdiffs.items())
          + f"; K_sigma < 0 on [0.5, 3]: {negative}")


def test_criterion_06_equal_mass_reduction(scan):
    t0 = time.perf_counter()
    _, mono_wave, _ = scan_row(scan, 1.0)
    seed = di.seed_from_monatomic(mono_wave, RIPPLE_MESH)
    wave = di.solve_wave(1.0, "mu", 0.0, seed)
    tau = np.linspace(0.0, MESH.length, 4001)
    v2 = np.max(np.abs(wave.solitary.eval(tau, 2)))
    dphi = np.max(np.abs(wave.solitary.eval(tau, 0) - mono_wave.phi(tau)))
    dt = time.perf_counter() - t0
    check(6, v2 < 1e-8 and dphi < 1e-6 and dt < 120.0,
          f"||V2||={v2:.2e}, sup|V1-Phi|={dphi:.2e}, "
          f"|sigma diff|={abs(wave.sigma-mono_wave.sigma):.2e}; runtime {dt:.1f}s")


def test_criterion_07_solitary_branch_anchor(solitary25):
    p = solitary25.points[0]
    # one kappa step along the solitary branch: it is not horizontal in m
    step = continue_branch(solitary25.waves[0], "kappa", 2.45, 0.05,
                           fixed=("beta_p", 0.0))
    q = step.points[-1]
    slope = (q.m - p.m) / (q.kappa - p.kappa)
    ok = (abs(p.m - SOLITARY_M) < 0.005 and 1.555 <= p.sigma <= 1.585
          and q.beta_p == 0.0 and abs(slope) > 1e-3)
    check(7, ok, f"solitary at kappa=5/2: m={p.m:.8f} "
          f"(target {SOLITARY_M}+-0.005), sigma={p.sigma:.6f} in [1.555,1.585]; "
          f"branch slope dm/dkappa={slope:+.4f} (non-horizontal)")


def test_criterion_08_micropteron_slope(scan):
    t0 = time.perf_counter()
    row, wave, _ = scan_row(scan, 2.5)
    seed = di.seed_from_monatomic(wave, RIPPLE_MESH)
    alphas = {}
    for target in (0.02, -0.02):
        br = continue_branch(seed, "mu", target, 0.01)
        alphas[target] = br.points[-1].alpha_p
    slope = (alphas[0.02] - alphas[-0.02]) / 0.04
    rel = abs(-slope - row.k_coeff) / abs(row.k_coeff)
    dt = time.perf_counter() - t0
    check(8, rel < 0.2 and dt < 900.0,
          f"-d alpha_P/d mu = {-slope:.6f} vs K_sigma = {row.k_coeff:.6f} "
          f"(rel {rel:.4f}); runtime {dt:.0f}s")


def test_criterion_09_connection_point():
    t0 = time.perf_counter()
    mw = mono.solve_profile(2.0515, MESH)
    seed = di.seed_from_monatomic(mw, RIPPLE_MESH)
    coarse = continue_branch(seed, "mu", 0.105, 0.02, step_in_m=True,
                             max_points=400)
    fine = continue_branch(coarse.waves[-1], "mu", 0.045, 0.004,
                           step_in_m=True, max_points=400)
    window = (0.0784 - 0.01, 0.0784 + 0.01)
    roots, hops = [], []
    for idx in fine.sign_changes:
        m_here = fine.points[idx].m
        if not (window[0] - 0.02 <= m_here <= window[1] + 0.02):
            continue
        w = bisect_alpha_zero(fine, idx, tol=1e-9)
        if abs(w.alpha_p) < 1e-6:
            roots.append((w.m, w.alpha_p))
        else:
            hops.append((w.m, w.alpha_p))
    dt = time.perf_counter() - t0
    in_window = lambda m: window[0] <= m <= window[1]
    double_root = len(roots) >= 2 and all(in_window(m) for m, _ in roots[:2])
    degeneracy = any(in_window(m) for m, _ in hops)
    detail = (f"roots={[(f'{m:.5f}', f'{a:.1e}') for m, a in roots]}, "
              f"sign-degeneracies={[(f'{m:.5f}', f'{a:.1e}') for m, a in hops]}, "
              f"window m in [{window[0]:.4f}, {window[1]:.4f}]; runtime {dt:.0f}s")
    # a resolved double-root pair or a bisection-localized sign degeneracy in
    # the window both evidence the connection point at this resolution
    check(9, double_root or degeneracy, detail)


def test_criterion_10_lattice_conservation(scan):
    t0 = time.perf_counter()
    _, wave, _ = scan_row(scan, 2.5)
    state = lat.sample_initial_condition(wave)
    series = lat.run_simulation(state, lat.SimConfig(horizon=100.0))
    e = np.asarray(series.energy_full)
    drift = abs(e[-1] - e[0]) / e[0]
    dt = time.perf_counter() - t0
    gamma100 = series.gamma_at(100.0)
    check(10, drift < 1e-6 and gamma100 == 0.0 and dt < 600.0,
          f"full-grid relative energy drift over [0,100]: {drift:.2e}, "
          f"Gamma(100)={gamma100}; runtime {dt:.0f}s")


def test_criterion_11_stability_ordering(six_ics, mono_baseline_run):
    t0 = time.perf_counter()
    gammas = []
    alphas = []
    for wave in six_ics:
        state = lat.sample_initial_condition(wave)
        series = lat.run_simulation(state, lat.SimConfig(horizon=1000.0))
        gammas.append(series.gamma_at(1000.0))
        alphas.append(abs(wave.alpha_p))
    gamma_mono = mono_baseline_run.gamma_at(1000.0)
    dt = time.perf_counter() - t0
    # sort by |alpha_P| ascending: Gamma must be nondecreasing
    order = np.argsort(alphas)
    g_sorted = [gammas[i] for i in order]
    a_sorted = [alphas[i] for i in order]
    monotone = all(g_sorted[i] <= g_sorted[i + 1] + 1e-12
                   for i in range(len(g_sorted) - 1))
    solitary_ok = g_sorted[0] <= 2.0 * gamma_mono
    detail = ("Gamma(1000) by |alpha_P|: "
              + ", ".join(f"{a:.1e}->{g:.3e}" for a, g in zip(a_sorted, g_sorted))
              + f"; monatomic baseline {gamma_mono:.3e}; runtime {dt:.0f}s")
    check(11, monotone and solitary_ok, detail)


def test_criterion_12_property_suites():
    t0 = time.perf_counter()
    # collocation convergence order on a manufactured solution
    errs = []
    for M in (8, 16, 32):
        mesh = Mesh(2.0, M, 3)
        blk = FunctionBlockSpec("u", mesh, 1, lambda p: (Extension.interior_only(),))
        eq = EquationBlock(0, (SlotSpec(0),),
                           lambda t, s, p: (3.0 * np.cos(3.0 * t))[None, :])
        prob = MfdeProblem((blk,), (eq,), 0, (value_bc(0, 0, 0.0, 0.0),))
        sols, _, _ = solve_newton(prob, [PiecewiseSolution.zeros(
            mesh, (Extension.interior_only(),))], [])
        errs.append(np.max(np.abs(sols[0].eval(mesh.knots, 0)
                                  - np.sin(3.0 * mesh.knots))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    order_ok = bool(np.all(orders > 5.0))

    # dispersion identities
    rng = np.random.default_rng(7)
    fact = 0.0
    for _ in range(100):
        mu = rng.uniform(-0.9, 3.0)
        c = rng.uniform(dsp.sound_speed(mu) + 0.05, 3.0)
        w = rng.uniform(0.01, 4.0)
        prod = dsp.b_pm(w, c, mu, 1) * dsp.b_pm(w, c, mu, -1)
        fact = max(fact, abs(dsp.det_char(w, c, mu) - prod) / max(1.0, abs(prod)))
    sound = max(abs(dsp.sound_speed(1.0 / m - 1.0) - np.sqrt(2.0 / (1.0 + m)))
                for m in rng.uniform(0.05, 2.0, 20))

    # periodic ripple invariants
    rip = di.solve_periodic(1.5, -0.3, 0.01, RIPPLE_MESH)
    mean0 = abs(rip.profile.integral(0))
    norm1 = abs(rip.profile.eval(0.0, 0) ** 2 + rip.profile.eval(0.0, 3) ** 2 - 1.0)

    # symmetry involution and transformed residual
    mw = mono.solve_profile(1.0, MESH)
    br = continue_branch(di.seed_from_monatomic(mw, RIPPLE_MESH), "mu", 0.5, 0.1)
    w = br.waves[-1]
    w2 = di.symmetry_transform(di.symmetry_transform(w))
    invol = max(abs(w2.mu - w.mu), abs(w2.sigma - w.sigma),
                abs(w2.beta_p - w.beta_p))
    resid_t = di.wave_residual_norm(di.symmetry_transform(w))

    # windowing anchors and monotonicity
    f = lat.window_factor(np.arange(290, 401))
    window_ok = (f[0] == 1.0 and f[10] == 1.0
                 and abs(f[60] - np.exp(-1.0 / 3.0)) < 1e-12
                 and f[-1] == 0.0 and np.all(np.diff(f[10:]) < 0))
    dt = time.perf_counter() - t0
    ok = (order_ok and fact < 1e-12 and sound < 1e-14 and mean0 < 1e-10
          and norm1 < 1e-10 and invol < 1e-12 and resid_t < 1e-8 and window_ok)
    check(12, ok and dt < 600.0,
          f"orders={[f'{o:.2f}' for o in orders]}, factorization={fact:.1e}, "
          f"sound={sound:.1e}, mean0={mean0:.1e}, norm={norm1:.1e}, "
          f"involution={invol:.1e}, transformed residual={resid_t:.1e}, "
          f"window anchors ok={window_ok}; runtime {dt:.0f}s")
