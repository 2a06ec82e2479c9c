"""Direct time integration of the diatomic FPUT chain in (r, p) coordinates.

Sites are numbered 1..N with masses 1 (odd) and m (even) and spring force
F(r) = r + r^2; both r and p vanish identically outside the grid:

    dr_j/dt = p_{j+1} - p_j,        m_j dp_j/dt = F(r_j) - F(r_{j-1}).

The classical RK4 scheme with a fixed step advances the state; the full-grid
energy sum(m_j p_j^2 / 2 + r_j^2 / 2 + r_j^3 / 3) is monitored between
recenter events as the discretization-error alarm.  Once per recenter period
the peak is shifted back to the grid center (by an even number of sites, so
the alternating mass pattern is preserved) and the right quarter of the grid
is smoothly windowed to zero by exp(-y^2/(1-y^2)),
y = max((i - 3N/4)/(N/4), 0) (onset 300 and width 100 on the N = 400 grid).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .diatomic import DiatomicWave, reconstruct_displacement_profiles
from .errors import EnergyDriftWarning, NonFiniteStateError
from .monatomic import MonatomicWave

DT_CAP = 1e-3


@dataclass
class LatticeState:
    """Relative displacements and momenta on sites 1..n."""

    r: np.ndarray
    p: np.ndarray
    mass_ratio: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.r.shape != self.p.shape or self.r.ndim != 1:
            raise ValueError("r and p must be 1-d arrays of equal length")

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def masses(self) -> np.ndarray:
        m = np.full(self.n, self.mass_ratio)
        m[::2] = 1.0            # site j = index+1 odd
        return m

    def copy(self) -> "LatticeState":
        return LatticeState(self.r.copy(), self.p.copy(), self.mass_ratio, self.t)


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 5000.0
    recenter_period: float = 60.0
    core_halfwidth: int = 20
    drift_threshold: float = 1e-5
    sample_stride: float = 1.0
    baseline_time: float = 100.0

    def __post_init__(self):
        if self.dt > DT_CAP:
            raise ValueError(f"dt must respect the cap {DT_CAP}")
        for name in ("dt", "horizon", "recenter_period", "sample_stride"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def spring_force(r):
    return r + r * r


def rhs(state: LatticeState):
    """Time derivatives (dr, dp) with zero ghost values at both ends."""
    r, p = state.r, state.p
    dr = np.empty_like(r)
    dr[:-1] = p[1:] - p[:-1]
    dr[-1] = -p[-1]
    F = spring_force(r)
    dp = np.empty_like(p)
    dp[0] = F[0]
    dp[1:] = F[1:] - F[:-1]
    dp /= state.masses
    return dr, dp


def _rhs_arrays(r, p, inv_mass):
    dr = np.empty_like(r)
    dr[:-1] = p[1:] - p[:-1]
    dr[-1] = -p[-1]
    F = r + r * r
    dp = np.empty_like(p)
    dp[0] = F[0]
    dp[1:] = F[1:] - F[:-1]
    dp *= inv_mass
    return dr, dp


def rk4_step(state: LatticeState, dt: float) -> LatticeState:
    """One classical fourth-order Runge-Kutta step."""
    if dt > DT_CAP:
        raise ValueError(f"dt={dt} exceeds the cap {DT_CAP}")
    inv_mass = 1.0 / state.masses
    with np.errstate(over="ignore", invalid="ignore"):
        r, p = _rk4_arrays(state.r, state.p, inv_mass, dt)
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))):
        raise NonFiniteStateError(f"state became non-finite at t={state.t + dt}")
    return LatticeState(r, p, state.mass_ratio, state.t + dt)


def _rk4_arrays(r, p, inv_mass, dt):
    k1r, k1p = _rhs_arrays(r, p, inv_mass)
    k2r, k2p = _rhs_arrays(r + 0.5 * dt * k1r, p + 0.5 * dt * k1p, inv_mass)
    k3r, k3p = _rhs_arrays(r + 0.5 * dt * k2r, p + 0.5 * dt * k2p, inv_mass)
    k4r, k4p = _rhs_arrays(r + dt * k3r, p + dt * k3p, inv_mass)
    rn = r + (dt / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    pn = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return rn, pn


def energy(state: LatticeState, sites=None) -> float:
    """Energy over a set of sites (1-based), or the full grid."""
    r, p, m = state.r, state.p, state.masses
    if sites is not None:
        idx = np.asarray(sites, dtype=int) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= state.n):
            raise ValueError("sites outside the grid")
        r, p, m = r[idx], p[idx], m[idx]
    return float(np.sum(0.5 * m * p * p + 0.5 * r * r + r ** 3 / 3.0))


def core_window(state: LatticeState, halfwidth: int = 20) -> np.ndarray:
    """Sites within ``halfwidth`` of the |r| peak (ties break to the lowest
    site), clipped to the grid."""
    if not np.any(state.r):
        raise ValueError("core window of an all-zero state is undefined")
    peak = int(np.argmax(np.abs(state.r))) + 1
    lo, hi = max(1, peak - halfwidth), min(state.n, peak + halfwidth)
    return np.arange(lo, hi + 1)


def window_factor(sites, onset: int = 300, width: int = 100) -> np.ndarray:
    """Smooth cutoff exp(-y^2/(1-y^2)), y = max((i-onset)/width, 0); exactly
    0 at y >= 1."""
    y = np.maximum((np.asarray(sites, dtype=float) - onset) / width, 0.0)
    out = np.zeros_like(y)
    inner = y < 1.0
    yi = y[inner]
    out[inner] = np.exp(-yi * yi / (1.0 - yi * yi))
    return out


def recenter_and_window(state: LatticeState):
    """Shift the peak back to the grid center and window the right quarter.

    The shift is rounded to an even number of sites so the alternating mass
    pattern is preserved (the peak lands on center +- 1).  The window starts
    at site 3N/4 and reaches zero at site N, so the recentered core is never
    touched whatever the grid size.  Returns ``(state, shift)``.
    """
    n = state.n
    center = n // 2
    peak = int(np.argmax(np.abs(state.r))) + 1
    shift = center - peak
    shift -= shift % 2          # even shift keeps site parity
    r = np.zeros_like(state.r)
    p = np.zeros_like(state.p)
    if shift >= 0:
        if shift < n:
            r[shift:] = state.r[:n - shift]
            p[shift:] = state.p[:n - shift]
    else:
        r[:shift] = state.r[-shift:]
        p[:shift] = state.p[-shift:]
    sites = np.arange(1, n + 1)
    w = window_factor(sites, 3 * n // 4, n // 4)
    r *= w
    p *= w
    return LatticeState(r, p, state.mass_ratio, state.t), shift


@dataclass
class DiagnosticSeries:
    times: list = field(default_factory=list)
    energy_full: list = field(default_factory=list)
    energy_core: list = field(default_factory=list)
    gamma_core: list = field(default_factory=list)
    a_out: list = field(default_factory=list)
    shift_total: list = field(default_factory=list)
    alarms: list = field(default_factory=list)
    baseline: float | None = None

    def update(self, state: LatticeState, cfg: SimConfig, total_shift: int,
               alarm: bool = False):
        """Append one sample; the loss baseline locks at the first sample
        with t >= the configured baseline time.  All-zero states yield
        all-zero diagnostics; otherwise gamma stays deferred (NaN) until the
        baseline sample exists."""
        e_full = energy(state)
        core = core_window(state, cfg.core_halfwidth) if np.any(state.r) else None
        e_core = energy(state, core) if core is not None else 0.0
        if self.baseline is None and state.t >= cfg.baseline_time and core is not None:
            self.baseline = e_core
        if core is None:
            gamma = 0.0
        elif self.baseline is not None and self.baseline != 0.0:
            gamma = (self.baseline - e_core) / self.baseline
        else:
            gamma = np.nan     # deferred until the baseline sample exists
        if core is not None:
            mask = np.ones(state.n, dtype=bool)
            mask[core - 1] = False
            a_out = float(np.max(np.abs(state.r[mask]))) if mask.any() else 0.0
        else:
            a_out = 0.0
        self.times.append(state.t)
        self.energy_full.append(e_full)
        self.energy_core.append(e_core)
        self.gamma_core.append(gamma)
        self.a_out.append(a_out)
        self.shift_total.append(total_shift)
        self.alarms.append(bool(alarm))

    def gamma_at(self, t: float) -> float:
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        return self.gamma_core[i]


def run_simulation(state: LatticeState, cfg: SimConfig | None = None) -> DiagnosticSeries:
    """Integrate with RK4, recentering/windowing once per period and sampling
    diagnostics at the configured stride.  Energy drift between recenters
    beyond the threshold logs an alarm (the run continues); non-finite
    states abort."""
    cfg = cfg or SimConfig()
    series = DiagnosticSeries()
    state = state.copy()
    inv_mass = 1.0 / state.masses
    steps_per_sample = max(1, int(round(cfg.sample_stride / cfg.dt)))
    samples_per_recenter = max(1, int(round(cfg.recenter_period / cfg.sample_stride)))
    n_samples = int(round(cfg.horizon / cfg.sample_stride))
    total_shift = 0
    e_segment = energy(state)
    series.update(state, cfg, total_shift)
    for s in range(1, n_samples + 1):
        r, p = state.r, state.p
        for _ in range(steps_per_sample):
            r, p = _rk4_arrays(r, p, inv_mass, cfg.dt)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(p))):
            raise NonFiniteStateError(f"integration blew up near t={state.t}")
        state = LatticeState(r, p, state.mass_ratio,
                             round(state.t + cfg.sample_stride, 12))
        alarm = False
        if s % samples_per_recenter == 0:
            e_now = energy(state)
            drift = abs(e_now - e_segment) / max(abs(e_segment), 1e-300)
            if drift > cfg.drift_threshold and e_segment != 0.0:
                alarm = True
                warnings.warn(f"energy drift {drift:.2e} over the last "
                              f"recenter period at t={state.t}", EnergyDriftWarning)
            if np.any(state.r):
                state, shift = recenter_and_window(state)
                total_shift += shift
            e_segment = energy(state)
        series.update(state, cfg, total_shift, alarm)
    return series


# ---------------------------------------------------------------------------
# initial conditions from traveling waves
# ---------------------------------------------------------------------------

def _momentum_profiles(r_odd, r_even, sigma: float, mass_ratio: float,
                       xi_max: float, resolution: int = 256):
    """Integrate m_par c p' = F(r_par) - F(r_other(.-1)) from the decaying
    left tail by the cumulative trapezoid rule on a fine grid."""
    h = 1.0 / resolution
    xi = np.arange(-xi_max, xi_max + 0.5 * h, h)
    d_odd = (spring_force(r_odd(xi)) - spring_force(r_even(xi - 1.0))) / (1.0 * sigma)
    d_even = (spring_force(r_even(xi)) - spring_force(r_odd(xi - 1.0))) / (mass_ratio * sigma)
    p_odd = np.concatenate([[0.0], np.cumsum(0.5 * (d_odd[1:] + d_odd[:-1]) * h)])
    p_even = np.concatenate([[0.0], np.cumsum(0.5 * (d_even[1:] + d_even[:-1]) * h)])
    return xi, p_odd, p_even


def sample_initial_condition(wave: DiatomicWave | MonatomicWave,
                             peak_site: int = 200, n: int = 400,
                             resolution: int = 256) -> LatticeState:
    """Sample the solitary part of a wave onto the lattice.

    Displacements come from (r_odd, r_even) evaluated at j - peak_site;
    momenta enforce the traveling-wave relation by tail-to-site quadrature,
    so the state is an exact wave sample up to integration error.  Warns
    when the tails have not decayed at the grid edges.
    """
    if isinstance(wave, MonatomicWave):
        r_odd = r_even = wave.wave_profile
        sigma, mass_ratio = wave.sigma, 1.0
        support = wave.length / wave.kappa
    else:
        r_odd, r_even = reconstruct_displacement_profiles(wave, include_ripple=False)
        sigma, mass_ratio = wave.sigma, wave.m
        support = wave.solitary.mesh.length / wave.kappa
    sites = np.arange(1, n + 1)
    xi_sites = sites - float(peak_site)
    r = np.where(sites % 2 == 1, r_odd(xi_sites), r_even(xi_sites))
    xi_max = float(np.ceil(support)) + 2.0   # integer, so sites land on grid nodes
    xi, p_odd, p_even = _momentum_profiles(r_odd, r_even, sigma, mass_ratio,
                                           xi_max, resolution)
    p = np.zeros(n)
    inside = np.abs(xi_sites) <= xi_max
    pos = np.rint((xi_sites[inside] + xi_max) * resolution).astype(int)
    odd_mask = (sites[inside] % 2 == 1)
    p[inside] = np.where(odd_mask, p_odd[pos], p_even[pos])
    peak = np.max(np.abs(r))
    if peak > 0 and max(abs(r[0]), abs(r[-1])) > 1e-6 * peak:
        warnings.warn("wave tails have not decayed at the grid edges",
                      UserWarning)
    return LatticeState(r, p, mass_ratio, 0.0)
