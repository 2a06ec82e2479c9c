"""Direct time integration of the diatomic FPUT chain in (r, p) coordinates.

Sites are numbered 1..N with masses 1 (odd) and m (even) and spring force
F(r) = r + r^2; both r and p vanish identically outside the grid:

    dr_j/dt = p_{j+1} - p_j,        m_j dp_j/dt = F(r_j) - F(r_{j-1}).

A state is one (2, N) array whose rows are r and p, so the recenter shift
and the window act on both at once.  The classical RK4 scheme with a fixed
step advances the state on buffers allocated once per call.  A stage input
(r, p) is the head of one flat work array [r (N), p (N), 0, F (N)] of length
3N+1; its single zero is both ghost values, p_{N+1} and F(r_0), so the
stacked derivative (dr, dp) is one difference of two shifted views of
[p, 0, F], scaled by [1...1, 1/m].  The full-grid energy
sum(m_j p_j^2 / 2 + r_j^2 / 2 + r_j^3 / 3) is monitored between recenter
events as the discretization-error alarm.  Once per recenter period
the peak is shifted back to the grid center (by an even number of sites, so
the alternating mass pattern is preserved) and the right quarter of the grid
is smoothly windowed to zero by exp(-y^2/(1-y^2)),
y = max((i - 3N/4)/(N/4), 0) (onset 300 and width 100 on the N = 400 grid).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .diatomic import DiatomicWave, reconstruct_displacement_profiles
from .errors import EnergyDriftWarning, NonFiniteStateError
from .monatomic import MonatomicWave

DT_CAP = 1e-3
IC_RESOLUTION = 512  # grid points per unit xi of a sampled wave's momentum quadrature


class LatticeState:
    """Relative displacements r and momenta p on sites 1..n, held as the
    rows of one (2, n) array ``y``; ``r`` and ``p`` are views of it."""

    def __init__(self, r, p, mass_ratio: float = 1.0, t: float = 0.0):
        r, p = np.asarray(r, dtype=float), np.asarray(p, dtype=float)
        if r.shape != p.shape or r.ndim != 1:
            raise ValueError("r and p must be 1-d arrays of equal length")
        self.y = np.stack((r, p))
        self.mass_ratio = mass_ratio
        self.t = t

    @property
    def r(self) -> np.ndarray:
        return self.y[0]

    @property
    def p(self) -> np.ndarray:
        return self.y[1]

    @property
    def n(self) -> int:
        return self.y.shape[1]

    @property
    def masses(self) -> np.ndarray:
        m = np.full(self.n, self.mass_ratio)
        m[::2] = 1.0            # site j = index+1 odd
        return m


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    horizon: float = 5000.0
    recenter_period: float = 60.0
    drift_threshold: ClassVar[float] = 1e-5
    sample_stride: ClassVar[float] = 1.0
    baseline_time: ClassVar[float] = 100.0

    def __post_init__(self):
        for name in ("dt", "horizon", "recenter_period"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.dt > DT_CAP:
            raise ValueError(f"dt must respect the cap {DT_CAP}")
        # the run counts whole steps per sample and whole samples per
        # recenter period and horizon, and labels each sample by its stride
        for num, den in (("sample_stride", "dt"), ("horizon", "sample_stride"),
                         ("recenter_period", "sample_stride")):
            q = getattr(self, num) / getattr(self, den)
            if abs(q - round(q)) > 1e-9 * q:
                raise ValueError(f"{num}={getattr(self, num)!r} is not a whole "
                                 f"multiple of {den}={getattr(self, den)!r}")


def spring_force(r):
    return r + r * r


def _derivative(inv_mass):
    """The lattice derivative on buffers allocated once, as ``(stage, deriv)``.

    ``stage`` is a flat view of length 2N that holds a state, r then p, and
    ``deriv(k)`` writes the derivative (dr, dp) of that state into the flat
    array ``k``.  Both work on one array ``[r, p, -0.0, F]`` of length 3N+1:
    with ``w = [p, -0.0, F]`` the derivative is ``(w[1:] - w[:-1])`` times
    ``[1...1, 1/m]``, and the single zero stands for both ghost values,
    p_{N+1} and F(r_0).  It is a negative zero so that ``-0.0 - p_N`` is
    ``-p_N`` bit for bit, signed zeros included; ``F - -0.0`` is F because
    ``r + r*r`` is never -0.0.
    """
    n = inv_mass.size
    buf = np.empty(3 * n + 1)
    buf[2 * n] = -0.0
    r, F = buf[:n], buf[2 * n + 1:]
    upper, lower = buf[n + 1:], buf[n:-1]
    scale = np.concatenate((np.ones(n), inv_mass))

    def deriv(k):
        np.multiply(r, r, out=F)
        np.add(r, F, out=F)
        np.subtract(upper, lower, out=k)
        np.multiply(k, scale, out=k)

    return buf[:2 * n], deriv


def _rk4(y, inv_mass, dt, steps, t):
    """``steps`` classical RK4 steps of size dt from time t, on buffers
    allocated once per call; ``y`` is not written.  Raises
    :class:`NonFiniteStateError` when the result is not finite."""
    stage, deriv = _derivative(inv_mass)
    y = y.flatten()
    k, acc, tmp = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    half, sixth = 0.5 * dt, dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            # y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), summed as the stages go
            np.copyto(stage, y)
            deriv(acc)
            np.multiply(acc, half, out=tmp)
            np.add(y, tmp, out=stage)
            deriv(k)
            np.multiply(k, 2.0, out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(k, half, out=tmp)
            np.add(y, tmp, out=stage)
            deriv(k)
            np.multiply(k, 2.0, out=tmp)
            np.add(acc, tmp, out=acc)
            np.multiply(k, dt, out=tmp)
            np.add(y, tmp, out=stage)
            deriv(k)
            np.add(acc, k, out=acc)
            np.multiply(acc, sixth, out=acc)
            np.add(y, acc, out=y)
    if not np.all(np.isfinite(y)):
        raise NonFiniteStateError(f"state became non-finite between t={t} "
                                  f"and t={t + steps * dt}")
    return y.reshape(2, -1)


def rhs(state: LatticeState):
    """Time derivatives of a state as one (2, n) array (dr, dp)."""
    stage, deriv = _derivative(1.0 / state.masses)
    np.copyto(stage, state.y.reshape(-1))
    dy = np.empty(2 * state.n)
    deriv(dy)
    return dy.reshape(2, -1)


def rk4_step(state: LatticeState, dt: float) -> LatticeState:
    """One classical fourth-order Runge-Kutta step."""
    if dt > DT_CAP:
        raise ValueError(f"dt={dt} exceeds the cap {DT_CAP}")
    y = _rk4(state.y, 1.0 / state.masses, dt, 1, state.t)
    return LatticeState(*y, state.mass_ratio, state.t + dt)


def energy(state: LatticeState, sites=None) -> float:
    """Energy over a set of sites (1-based), or the full grid."""
    r, p, m = state.r, state.p, state.masses
    if sites is not None:
        idx = np.asarray(sites, dtype=int) - 1
        if idx.size and (idx.min() < 0 or idx.max() >= state.n):
            raise ValueError("sites outside the grid")
        r, p, m = r[idx], p[idx], m[idx]
    return float(np.sum(0.5 * m * p * p + 0.5 * r * r + r ** 3 / 3.0))


CORE_HALFWIDTH = 20


def core_window(state: LatticeState) -> np.ndarray:
    """Sites within ``CORE_HALFWIDTH`` of the |r| peak (ties break to the
    lowest site), clipped to the grid."""
    if not np.any(state.r):
        raise ValueError("core window of an all-zero state is undefined")
    peak = int(np.argmax(np.abs(state.r))) + 1
    lo, hi = max(1, peak - CORE_HALFWIDTH), min(state.n, peak + CORE_HALFWIDTH)
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
    y = np.zeros_like(state.y)
    if shift >= 0:
        y[:, shift:] = state.y[:, :n - shift]
    else:
        y[:, :shift] = state.y[:, -shift:]
    y *= window_factor(np.arange(1, n + 1), 3 * n // 4, n // 4)
    return LatticeState(*y, state.mass_ratio, state.t), shift


@dataclass
class DiagnosticSeries:
    """Diagnostics sampled along a run, one list per column.  ``COLUMNS``
    is the diagnostics schema and ``rows()`` yields the samples in its
    order."""

    COLUMNS = ("t", "E_full", "E_core", "Gamma_core", "A_out", "shift_total",
               "alarm")

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
        if np.any(state.r):
            core = core_window(state)
            e_core = energy(state, core)
            if self.baseline is None and state.t >= cfg.baseline_time:
                self.baseline = e_core
            if self.baseline is not None and self.baseline != 0.0:
                gamma = (self.baseline - e_core) / self.baseline
            else:
                gamma = np.nan     # deferred until the baseline sample exists
            mask = np.ones(state.n, dtype=bool)
            mask[core - 1] = False
            a_out = float(np.max(np.abs(state.r[mask]))) if mask.any() else 0.0
        else:
            e_core = gamma = a_out = 0.0
        self.times.append(state.t)
        self.energy_full.append(e_full)
        self.energy_core.append(e_core)
        self.gamma_core.append(gamma)
        self.a_out.append(a_out)
        self.shift_total.append(total_shift)
        self.alarms.append(bool(alarm))

    def rows(self):
        return zip(self.times, self.energy_full, self.energy_core,
                   self.gamma_core, self.a_out, self.shift_total, self.alarms)

    def gamma_at(self, t: float) -> float:
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        return self.gamma_core[i]


def run_simulation(state: LatticeState, cfg: SimConfig = SimConfig()) -> DiagnosticSeries:
    """Integrate with RK4, recentering/windowing once per period and sampling
    diagnostics at the configured stride.  Energy drift between recenters
    beyond the threshold logs an alarm (the run continues); non-finite
    states abort."""
    series = DiagnosticSeries()
    inv_mass = 1.0 / state.masses
    steps_per_sample = int(round(cfg.sample_stride / cfg.dt))
    samples_per_recenter = int(round(cfg.recenter_period / cfg.sample_stride))
    n_samples = int(round(cfg.horizon / cfg.sample_stride))
    total_shift = 0
    e_segment = energy(state)
    series.update(state, cfg, total_shift)
    for s in range(1, n_samples + 1):
        y = _rk4(state.y, inv_mass, cfg.dt, steps_per_sample, state.t)
        state = LatticeState(*y, state.mass_ratio,
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
                       xi_max: float, resolution: int):
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
                             peak_site: int = 200, n: int = 400) -> LatticeState:
    """Sample the solitary part of a wave onto the lattice.

    Displacements come from (r_odd, r_even) evaluated at j - peak_site;
    momenta enforce the traveling-wave relation by tail-to-site quadrature,
    so the state is an exact wave sample up to integration error.  Warns
    when the tails have not decayed at the grid edges; raises ValueError
    for ``n < 1`` or a ``peak_site`` outside ``1..n``.
    """
    if n < 1:
        raise ValueError(f"the lattice needs at least one site, got {n}")
    if not 1 <= peak_site <= n:
        raise ValueError(f"peak site {peak_site} is outside the lattice sites 1..{n}")
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
                                           xi_max, IC_RESOLUTION)
    p = np.zeros(n)
    inside = np.abs(xi_sites) <= xi_max
    pos = np.rint((xi_sites[inside] + xi_max) * IC_RESOLUTION).astype(int)
    odd_mask = (sites[inside] % 2 == 1)
    p[inside] = np.where(odd_mask, p_odd[pos], p_even[pos])
    peak = np.max(np.abs(r))
    if peak > 0 and max(abs(r[0]), abs(r[-1])) > 1e-6 * peak:
        warnings.warn("wave tails have not decayed at the grid edges",
                      UserWarning)
    return LatticeState(r, p, mass_ratio, 0.0)
