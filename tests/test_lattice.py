import numpy as np
import pytest

from fputw import lattice as lat
from fputw import monatomic as mono
from fputw.errors import EnergyDriftWarning, NonFiniteStateError
from fputw.solution import Mesh


def make_state(n=400, m=1.0):
    return lat.LatticeState(np.zeros(n), np.zeros(n), mass_ratio=m)


def test_rhs_zero_state_is_equilibrium():
    dr, dp = lat.rhs(make_state())
    assert not np.any(dr) and not np.any(dp)


def test_rhs_constant_r_interior():
    st = make_state(50)
    st.r[:] = 0.3
    dr, dp = lat.rhs(st)
    assert np.max(np.abs(dr)) == 0.0
    assert np.max(np.abs(dp[1:])) == 0.0        # telescoping
    assert dp[0] == pytest.approx(lat.spring_force(0.3))  # ghost r_0 = 0


def test_rhs_single_site_pulse_hand_check():
    st = make_state(10, m=0.5)
    st.r[4] = 0.2        # site 5 (odd, mass 1)
    dr, dp = lat.rhs(st)
    F = 0.2 + 0.04
    assert dp[4] == pytest.approx(F / 1.0)       # site 5: (F(r5)-F(r4))/m5
    assert dp[5] == pytest.approx(-F / 0.5)      # site 6: (F(r6)-F(r5))/m6
    assert dp[3] == pytest.approx(0.0)
    st.p[4] = 0.7
    dr, _ = lat.rhs(st)
    assert dr[3] == pytest.approx(0.7)           # site 4: p5 - p4
    assert dr[4] == pytest.approx(-0.7)          # site 5: p6 - p5


def test_rk4_zero_state():
    st = lat.rk4_step(make_state(), 1e-3)
    assert not np.any(st.r) and not np.any(st.p)
    assert st.t == pytest.approx(1e-3)


def test_rk4_rejects_large_step():
    with pytest.raises(ValueError):
        lat.rk4_step(make_state(), 2e-3)


def test_rk4_fourth_order():
    # stiff two-site oscillation (light even mass), error vs a fine
    # reference scales like dt^4: halving gives a ratio near 16
    def run(dt, steps):
        st = lat.LatticeState(np.array([1.0, -0.8, 0.5]),
                              np.array([0.0, 1.0, -0.5]), mass_ratio=0.05)
        for _ in range(steps):
            st = lat.rk4_step(st, dt)
        return np.concatenate([st.r, st.p])

    ref = run(6.25e-5, 32000)
    e1 = np.max(np.abs(run(1e-3, 2000) - ref))
    e2 = np.max(np.abs(run(5e-4, 4000) - ref))
    assert 11.0 < e1 / e2 < 22.0


def test_energy_examples():
    st = make_state(4)
    st.r[0] = 1.0        # site 1, mass 1
    assert lat.energy(st, [1]) == pytest.approx(0.5 + 1.0 / 3.0)
    st2 = make_state(4, m=np.pi)
    st2.p[1] = 2.0       # site 2, mass pi
    assert lat.energy(st2, [2]) == pytest.approx(2.0 * np.pi)


def test_energy_stable_under_window_widening():
    st = make_state(100)
    st.r[40:61] = 0.05
    st.p[45:56] = -0.02
    full = lat.energy(st)
    assert lat.energy(st, np.arange(30, 72)) == pytest.approx(full, abs=1e-12)
    assert lat.energy(st, np.arange(1, 101)) == pytest.approx(full, abs=1e-15)


def test_core_window_examples():
    st = make_state(400)
    st.r[199] = 1.0      # site 200
    assert np.array_equal(lat.core_window(st), np.arange(180, 221))
    st = make_state(400)
    st.r[4] = 1.0        # site 5, clipped at the left edge
    assert np.array_equal(lat.core_window(st), np.arange(1, 26))
    st = make_state(400)
    st.r[99] = 1.0
    st.r[299] = 1.0      # tie: lowest site wins
    assert np.array_equal(lat.core_window(st), np.arange(80, 121))
    with pytest.raises(ValueError):
        lat.core_window(make_state(10))


def test_window_factor_anchors():
    f = lat.window_factor(np.array([1, 150, 300, 350, 400, 500]))
    assert f[0] == 1.0 and f[1] == 1.0 and f[2] == 1.0
    assert f[3] == pytest.approx(np.exp(-1.0 / 3.0))
    assert f[4] == 0.0 and f[5] == 0.0
    # strictly decreasing on the taper, never increasing anywhere
    sites = np.arange(300, 401)
    vals = lat.window_factor(sites)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vals <= 1.0)


def test_recenter_moves_peak_and_preserves_values():
    st = make_state(400, m=0.5)
    st.r[120:141] = np.hamming(21)
    st.p[120:141] = -0.3 * np.hamming(21)
    out, shift = lat.recenter_and_window(st)
    assert shift % 2 == 0
    peak = int(np.argmax(np.abs(out.r))) + 1
    assert abs(peak - 200) <= 1
    # support stayed clear of the window region: values only moved
    nz, nz2 = st.r[st.r != 0], out.r[out.r != 0]
    assert np.array_equal(nz, nz2)
    assert not np.any(np.abs(out.r) > np.max(np.abs(st.r)))


def test_recenter_windowing_damps_right_edge():
    st = make_state(400)
    st.r[:] = 0.01
    st.r[199] = 1.0
    out, shift = lat.recenter_and_window(st)
    assert shift == 0
    assert out.r[399] == 0.0
    assert out.r[349] == pytest.approx(0.01 * np.exp(-1.0 / 3.0))
    assert np.all(np.abs(out.r) <= np.abs(st.r) + 1e-15)


def test_recenter_keeps_core_on_large_grid():
    # the window scales with the grid: at N = 1000 it starts at site 750, so
    # a core recentered to site 500 keeps all of its energy
    st = make_state(1000, m=0.5)
    st.r[190:211] = 0.1 * np.hamming(21)
    st.p[190:211] = -0.05 * np.hamming(21)
    out, shift = lat.recenter_and_window(st)
    assert shift == 298          # peak at site 201, even shift toward 500
    assert abs(int(np.argmax(np.abs(out.r))) + 1 - 500) <= 1
    assert lat.energy(out) == lat.energy(st)
    cfg = lat.SimConfig(horizon=2.0, recenter_period=1.0)
    series = lat.run_simulation(st, cfg)
    assert series.shift_total[-1] > 0
    assert not any(series.alarms)
    assert series.energy_full[-1] == pytest.approx(series.energy_full[0], rel=1e-6)


def test_time_reversal_smoke():
    # for the separable structure dr = f(p), dp = g(r), one RK4 step composed
    # with the momentum flip inverts exactly (to rounding) -- strictly
    # stronger than the generic O(dt^5)-per-step bound
    st = lat.LatticeState(np.array([1.0, -0.8, 0.5, 0.2]),
                          np.array([0.0, 1.0, -0.5, 0.3]), mass_ratio=0.05)
    r0, p0 = st.r.copy(), st.p.copy()
    for _ in range(100):
        st = lat.rk4_step(st, 1e-3)
    st = lat.LatticeState(st.r, -st.p, st.mass_ratio)
    for _ in range(100):
        st = lat.rk4_step(st, 1e-3)
    assert np.max(np.abs(st.r - r0)) < 1e-12
    assert np.max(np.abs(st.p + p0)) < 1e-12


def test_diagnostics_baseline_and_gamma():
    cfg = lat.SimConfig(horizon=1.0)
    series = lat.DiagnosticSeries()
    st = make_state(400)
    st.r[199] = 0.5
    st.t = 99.0
    series.update(st, cfg, 0)
    assert np.isnan(series.gamma_core[-1])      # deferred before t=100
    st.t = 100.0
    series.update(st, cfg, 0)
    assert series.gamma_core[-1] == 0.0         # locks at t >= 100
    st.t = 101.0
    series.update(st, cfg, 0)                   # copied state: no loss
    assert series.gamma_core[-1] == 0.0


def test_diagnostics_a_out_zero_outside_core():
    cfg = lat.SimConfig(horizon=1.0)
    series = lat.DiagnosticSeries()
    st = make_state(400)
    st.r[195:206] = 0.2
    st.t = 100.0
    series.update(st, cfg, 0)
    assert series.a_out[-1] == 0.0


def test_zero_run_all_quiet():
    cfg = lat.SimConfig(horizon=3.0)
    series = lat.run_simulation(make_state(), cfg)
    assert max(series.energy_full) == 0.0
    assert max(series.gamma_core) == 0.0
    assert max(series.a_out) == 0.0
    assert not any(series.alarms)


def test_nonfinite_aborts():
    st = make_state(8)
    st.r[:] = -1e12
    with pytest.raises(NonFiniteStateError):
        for _ in range(1000):
            st = lat.rk4_step(st, 1e-3)


def test_run_simulation_is_rk4_steps_bitwise(monkeypatch):
    # one sample stride of the run loop is 1000 rk4_step calls, bit for bit
    st = make_state(60, m=0.5)
    st.r[25:36] = 0.2 * np.hanning(11)
    st.p[25:36] = -0.1 * np.hanning(11)
    sampled = []
    update = lat.DiagnosticSeries.update

    def recording(self, state, *args, **kwargs):
        sampled.append(state)
        return update(self, state, *args, **kwargs)

    monkeypatch.setattr(lat.DiagnosticSeries, "update", recording)
    lat.run_simulation(st, lat.SimConfig(horizon=1.0))
    stepped = st
    for _ in range(1000):
        stepped = lat.rk4_step(stepped, 1e-3)
    assert np.array_equal(sampled[-1].r, stepped.r)
    assert np.array_equal(sampled[-1].p, stepped.p)
    assert not np.array_equal(stepped.r, st.r)


def reference_rhs(r, p, inv_mass):
    """(dr, dp) on separate r and p arrays with zero ghost values."""
    F = r + r * r
    dr, dp = np.empty_like(r), np.empty_like(p)
    dr[:-1] = p[1:] - p[:-1]
    dr[-1] = -p[-1]
    dp[0] = F[0]
    dp[1:] = F[1:] - F[:-1]
    dp *= inv_mass
    return dr, dp


def reference_rk4(r, p, inv_mass, dt, steps):
    """Classical RK4 on separate r and p arrays, one plain numpy expression
    per term: the arithmetic the kernel reproduces bit for bit."""
    for _ in range(steps):
        k1 = reference_rhs(r, p, inv_mass)
        k2 = reference_rhs(r + 0.5 * dt * k1[0], p + 0.5 * dt * k1[1], inv_mass)
        k3 = reference_rhs(r + 0.5 * dt * k2[0], p + 0.5 * dt * k2[1], inv_mass)
        k4 = reference_rhs(r + dt * k3[0], p + dt * k3[1], inv_mass)
        r = r + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        p = p + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return np.stack((r, p))


def assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("edge", ["moving", "signed_zeros"])
@pytest.mark.parametrize("n", [1, 2, 5, 400])
def test_kernel_matches_reference_bitwise(n, edge, monkeypatch):
    rng = np.random.default_rng(n)
    st = lat.LatticeState(0.2 * rng.standard_normal(n),
                          0.2 * rng.standard_normal(n), mass_ratio=0.37)
    if edge == "moving":
        st.p[-1] = 0.15
    else:                   # what the window leaves at the right edge
        st.r[-1], st.p[-1] = -0.0, 0.0
    y0 = st.y.copy()
    inv_mass = 1.0 / st.masses
    assert_bitwise(lat.rhs(st), np.stack(reference_rhs(st.r, st.p, inv_mass)))
    assert_bitwise(lat.rk4_step(st, 1e-3).y,
                   reference_rk4(st.r, st.p, inv_mass, 1e-3, 1))
    sampled = []
    update = lat.DiagnosticSeries.update

    def recording(self, state, *args, **kwargs):
        sampled.append(state)
        return update(self, state, *args, **kwargs)

    monkeypatch.setattr(lat.DiagnosticSeries, "update", recording)
    lat.run_simulation(st, lat.SimConfig(horizon=1.0))
    assert_bitwise(sampled[-1].y, reference_rk4(st.r, st.p, inv_mass, 1e-3, 1000))
    assert_bitwise(st.y, y0)     # the input state is never written


def test_run_simulation_nonfinite_aborts():
    st = make_state(8)
    st.r[:] = -1e12
    with pytest.raises(NonFiniteStateError):
        lat.run_simulation(st, lat.SimConfig(horizon=1.0))


@pytest.fixture(scope="module")
def mono_wave():
    return mono.solve_profile(2.5, Mesh(32.0, 512))


def test_initial_condition_momentum_residual(mono_wave):
    res = 512
    st = lat.sample_initial_condition(mono_wave)
    prof = mono_wave.wave_profile
    xi = np.arange(-14.0, 14.0, 1.0 / res)
    _, p_odd, _ = lat._momentum_profiles(prof, prof, mono_wave.sigma, 1.0,
                                         15.0, res)
    xi_fine, p_o, p_e = lat._momentum_profiles(prof, prof, mono_wave.sigma,
                                               1.0, 15.0, res)
    dp = np.gradient(p_o, xi_fine)
    rhs = (lat.spring_force(prof(xi_fine))
           - lat.spring_force(prof(xi_fine - 1.0))) / mono_wave.sigma
    peak_force = np.max(np.abs(lat.spring_force(prof(xi_fine))))
    interior = (np.abs(xi_fine) < 13.0)
    resid = np.max(np.abs(dp - rhs)[interior])
    assert resid < 1e-4 * peak_force
    # sampled state is coherent: short integration keeps its shape
    cfg = lat.SimConfig(horizon=5.0)
    series = lat.run_simulation(st, cfg)
    drift = abs(series.energy_full[-1] - series.energy_full[0]) / series.energy_full[0]
    assert drift < 1e-10
    assert max(series.a_out) < 1e-5


def test_energy_drift_alarm_logged(monkeypatch):
    monkeypatch.setattr(lat.SimConfig, "drift_threshold", 1e-30)
    st = make_state(40)
    st.r[19] = 0.4
    cfg = lat.SimConfig(horizon=2.0, recenter_period=1.0)
    with pytest.warns(EnergyDriftWarning):
        series = lat.run_simulation(st, cfg)
    assert any(series.alarms)


def test_simconfig_validates_cap():
    with pytest.raises(ValueError):
        lat.SimConfig(dt=5e-3)


@pytest.mark.parametrize("kwargs", [
    {"dt": 3e-4},                   # 3333.3 steps per sample
    {"horizon": 2.5},               # 2.5 samples
    {"recenter_period": 60.5},      # 60.5 samples per recenter period
    {"horizon": 0.4},               # less than one sample
])
def test_simconfig_rejects_fractional_counts(kwargs):
    with pytest.raises(ValueError, match="whole multiple"):
        lat.SimConfig(**kwargs)


@pytest.mark.parametrize("name", ["dt", "horizon", "recenter_period"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_simconfig_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        lat.SimConfig(**{name: value})


@pytest.mark.parametrize("kwargs", [{}, {"horizon": 100.0}, {"horizon": 102.0},
                                    {"horizon": 1000.0}, {"horizon": 5000.0}])
def test_simconfig_builds_default_and_acceptance_horizons(kwargs):
    cfg = lat.SimConfig(**kwargs)
    assert cfg.horizon == kwargs.get("horizon", 5000.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"n": 0}, "at least one site"),
    ({"n": -3}, "at least one site"),
    ({"peak_site": 0}, "outside the lattice sites 1..400"),
    ({"peak_site": 401}, "outside the lattice sites 1..400"),
    ({"n": 3}, "peak site 200 is outside the lattice sites 1..3")])
def test_initial_condition_must_lie_on_the_lattice(mono_wave, kwargs, match):
    with pytest.raises(ValueError, match=match):
        lat.sample_initial_condition(mono_wave, **kwargs)
