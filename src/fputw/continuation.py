"""Natural-parameter continuation of diatomic wave branches.

A branch fixes kappa and traces the one-parameter family of waves by stepping
one scalar (the driver) and solving with it held fixed.  On Newton failure
the step is halved (up to the configured budget) and then the driver is
switched to the free scalar that moved most over the last accepted step,
which is how fold points are passed.  A fold is recorded when the previously
driven scalar reverses direction after such a switch; sign changes of the
ripple amplitude alpha_P are marked for solitary-wave seeding.

Solitary branches are found by bisecting a marked sign change in the driven
parameter (beta_P still free), freezing beta_P = 0, and continuing in kappa
with (sigma, mu) free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diatomic import (DiatomicConfig, DiatomicWave, SCALAR_NAMES,
                       refresh_ripple_guess, save_wave, solve_wave)
from .errors import FputwError, NonConvergenceError, ProblemSizeError
from .mfde import FactorCache
from .solution import PiecewiseSolution

BRANCH_COLUMNS = ("kappa", "sigma", "m", "mu", "beta_P", "omega_P", "alpha_P",
                  "class", "fixed_param", "newton_iters", "resid")


@dataclass
class BranchPoint:
    kappa: float
    sigma: float
    mu: float
    beta_p: float
    omega_p: float
    alpha_p: float
    ripple_class: str
    fixed_param: str
    newton_iters: int
    resid: float
    fold: bool = False
    sign_change: bool = False

    @property
    def m(self) -> float:
        return 1.0 / (1.0 + self.mu)

    def values(self):
        return (self.kappa, self.sigma, self.m, self.mu, self.beta_p,
                self.omega_p, self.alpha_p, self.ripple_class,
                self.fixed_param, self.newton_iters, self.resid)


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    waves: list[DiatomicWave] = field(default_factory=list)
    terminated_reason: str | None = None

    @property
    def folds(self):
        return [i for i, p in enumerate(self.points) if p.fold]

    @property
    def sign_changes(self):
        return [i for i, p in enumerate(self.points) if p.sign_change]

    def scalar(self, name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in self.points])


def _point_from_wave(w: DiatomicWave) -> BranchPoint:
    return BranchPoint(w.kappa, w.sigma, w.mu, w.beta_p, w.omega_p, w.alpha_p,
                       w.ripple_class, w.fixed_param, w.iterations,
                       w.residual_norm)


def _get_scalar(wave: DiatomicWave, name: str) -> float:
    return {"sigma": wave.sigma, "mu": wave.mu, "beta_p": wave.beta_p,
            "kappa": wave.kappa}[name]


def _mu_to_m(mu):
    return 1.0 / (1.0 + mu)


def _m_to_mu(m):
    return 1.0 / m - 1.0


def _extrapolate(last: DiatomicWave, prev: DiatomicWave, r: float) -> DiatomicWave:
    """Secant predictor in coefficients and scalars."""
    sol = PiecewiseSolution(last.solitary.mesh,
                           last.solitary.coeffs + r * (last.solitary.coeffs - prev.solitary.coeffs),
                           last.solitary.policies)
    rip = PiecewiseSolution(last.ripple.mesh,
                           last.ripple.coeffs + r * (last.ripple.coeffs - prev.ripple.coeffs),
                           last.ripple.policies)
    lin = lambda a, b: a + r * (a - b)
    return DiatomicWave(last.kappa, lin(last.sigma, prev.sigma),
                        lin(last.mu, prev.mu), lin(last.beta_p, prev.beta_p),
                        lin(last.omega_p, prev.omega_p), sol, rip,
                        last.residual_norm, 0, last.fixed_param)


@dataclass
class StepPolicy:
    """Adaptive step control: halve on failure, regrow on success."""

    initial: float
    min_factor: float = 2.0 ** -6
    growth: float = 1.3

    def floor(self) -> float:
        return abs(self.initial) * self.min_factor


def continue_branch(seed: DiatomicWave, driver: str, target: float,
                    step: float, cfg: DiatomicConfig | None = None, *,
                    fixed: tuple[str, float] | None = None,
                    step_in_m: bool = False,
                    max_points: int = 2000,
                    keep_waves: bool = True,
                    checkpoint_dir=None,
                    stop_when=None) -> Branch:
    """Trace an iso-kappa branch from ``seed`` toward ``target`` in ``driver``.

    ``driver`` is one of sigma/mu/beta_p (fixed per solve, stepped between
    solves) or "kappa" (stepped with ``fixed`` naming the per-solve fixed
    scalar, e.g. ("beta_p", 0.0) for solitary branches).  With ``step_in_m``
    a mu driver is stepped uniformly in m = 1/(1+mu); ``target`` is then a
    mass.  ``stop_when(point)`` halts the trace early.  All solves of the
    trace share one sparse LU holder, so each starts with chord steps from
    the last converged factorization.
    """
    cfg = cfg or DiatomicConfig()
    if driver == "kappa":
        if fixed is None:
            raise ValueError("kappa driver needs the per-solve fixed scalar")
        switchable = False
    elif driver in SCALAR_NAMES:
        switchable = True
    else:
        raise ValueError(f"unknown driver {driver!r}")

    to_coord = _mu_to_m if (driver == "mu" and step_in_m) else (lambda v: v)
    from_coord = _m_to_mu if (driver == "mu" and step_in_m) else (lambda v: v)

    branch = Branch()
    factors = FactorCache()
    wave = seed
    prev_wave = None
    cur_driver = driver
    coord = to_coord(_get_scalar(seed, driver))
    direction = np.sign(target - coord) or 1.0
    policy = StepPolicy(abs(step))
    h = abs(step)
    # bookkeeping for fold detection after driver switches
    pre_switch_incr: dict[str, float] = {}
    watch_fold: str | None = None

    def record(w: DiatomicWave, fold=False):
        pt = _point_from_wave(w)
        pt.fold = fold
        if branch.points and branch.points[-1].alpha_p * pt.alpha_p < 0.0:
            pt.sign_change = True
        branch.points.append(pt)
        if keep_waves:
            branch.waves.append(w)
        if checkpoint_dir is not None:
            save_wave(w, Path(checkpoint_dir) / f"point{len(branch.points)-1:04d}.ckpt")

    record(wave)
    while len(branch.points) < max_points:
        # termination on target (in the original driver coordinate)
        coord_now = to_coord(_get_scalar(wave, driver))
        if (coord_now - target) * direction >= -1e-12:
            branch.terminated_reason = "target-reached"
            break
        if cur_driver == driver:
            nxt = coord_now + direction * h
            overshoot = (nxt - target) * direction > 0
            value = from_coord(target if overshoot else nxt)
        else:
            value = _get_scalar(wave, cur_driver) + h
        guess = wave
        if prev_wave is not None and prev_wave.fixed_param == wave.fixed_param == cur_driver:
            d_last = _get_scalar(wave, cur_driver) - _get_scalar(prev_wave, cur_driver)
            if d_last != 0.0:
                guess = _extrapolate(wave, prev_wave,
                                     (value - _get_scalar(wave, cur_driver)) / d_last)
        elif prev_wave is None and wave.beta_p == 0.0:
            # fresh start from a ripple-free seed: rebuild the linear mode at
            # the target mass so the first Newton step does not crawl
            mu_guess = value if cur_driver == "mu" else wave.mu
            try:
                guess = refresh_ripple_guess(wave, mu_guess, cfg)
            except FputwError:
                guess = wave
        try:
            if cur_driver == "kappa":
                new = solve_wave(value, fixed[0], fixed[1], guess, cfg,
                                 reuse=factors)
            else:
                new = solve_wave(wave.kappa, cur_driver, value, guess, cfg,
                                 reuse=factors)
        except ProblemSizeError:
            branch.terminated_reason = "size-cap"
            break
        except NonConvergenceError:
            if abs(h) > policy.floor():
                h *= 0.5
                continue
            if not switchable or cur_driver == "kappa":
                branch.terminated_reason = "step-floor"
                break
            # switch the fixed parameter to the scalar that moved most
            cand = _pick_switch(branch, wave, prev_wave, cur_driver, driver)
            if cand is None:
                branch.terminated_reason = "step-floor"
                break
            pre_switch_incr[cur_driver] = _last_increment(branch, cur_driver)
            watch_fold = cur_driver
            cur_driver, h = cand
            policy = StepPolicy(abs(h) if h else policy.initial)
            h = h or policy.initial
            continue
        # accepted
        fold = False
        if watch_fold is not None:
            incr = _get_scalar(new, watch_fold) - _get_scalar(wave, watch_fold)
            pre = pre_switch_incr.get(watch_fold, 0.0)
            if pre != 0.0 and incr * pre < 0.0:
                fold = True
                watch_fold = None
        prev_wave, wave = wave, new
        record(wave, fold=fold)
        if stop_when is not None and stop_when(branch.points[-1]):
            branch.terminated_reason = "stop-condition"
            break
        h = min(abs(h) * policy.growth, policy.initial)
    else:
        branch.terminated_reason = branch.terminated_reason or "max-points"
    if branch.terminated_reason is None:
        branch.terminated_reason = "max-points"
    return branch


def _last_increment(branch: Branch, name: str) -> float:
    if len(branch.points) < 2:
        return 0.0
    return getattr(branch.points[-1], name) - getattr(branch.points[-2], name)


def _pick_switch(branch: Branch, wave, prev_wave, cur_driver: str, orig: str):
    """Choose the next driver: the free scalar with the largest recent move."""
    if prev_wave is None or len(branch.points) < 2:
        return None
    best = None
    for name in SCALAR_NAMES:
        if name == cur_driver:
            continue
        incr = _last_increment(branch, name)
        scale = max(1e-9, abs(getattr(branch.points[-1], name)))
        rel = abs(incr) / scale
        if best is None or rel > best[0]:
            best = (rel, name, incr)
    if best is None or best[0] == 0.0:
        return None
    return best[1], best[2]


def classify_branch_segments(branch: Branch, min_mu_extent: float = 0.01):
    """Branch-level ripple classes: contiguous runs of points below the
    small-ripple threshold keep the "small-ripple" label only when the run
    spans at least ``min_mu_extent`` in mu; shorter runs fall back to the
    sign class.  Returns one class string per point."""
    classes = [p.ripple_class for p in branch.points]
    out = list(classes)
    i = 0
    while i < len(classes):
        if classes[i] != "small-ripple":
            i += 1
            continue
        j = i
        while j + 1 < len(classes) and classes[j + 1] == "small-ripple":
            j += 1
        extent = abs(branch.points[j].mu - branch.points[i].mu)
        if extent < min_mu_extent:
            for k in range(i, j + 1):
                a = branch.points[k].alpha_p
                out[k] = "positive" if a > 0 else ("negative" if a < 0 else "solitary")
        i = j + 1
    return out


# ---------------------------------------------------------------------------
# solitary waves
# ---------------------------------------------------------------------------

def bisect_alpha_zero(branch: Branch, index: int,
                      cfg: DiatomicConfig | None = None,
                      tol: float = 1e-8, max_iter: int = 60,
                      reuse: FactorCache | None = None) -> DiatomicWave:
    """Bisect the driven scalar between points index-1 and index (a marked
    alpha_P sign change) until the bracket is below ``tol``; returns the
    bracket-midpoint wave (still with beta_P free).  ``reuse`` carries the
    sparse LU from solve to solve."""
    cfg = cfg or DiatomicConfig()
    if not branch.points[index].sign_change:
        raise ValueError("index does not mark an alpha_P sign change")
    if not branch.waves:
        raise ValueError("branch must retain waves for bisection")
    wa, wb = branch.waves[index - 1], branch.waves[index]
    drv = wb.fixed_param
    a, fa = _get_scalar(wa, drv), wa.alpha_p
    b, fb = _get_scalar(wb, drv), wb.alpha_p
    guess = wb
    for _ in range(max_iter):
        if abs(b - a) <= tol:
            break
        mid = 0.5 * (a + b)
        wm = solve_wave(guess.kappa, drv, mid, guess, cfg, reuse=reuse)
        guess = wm
        if wm.alpha_p * fa <= 0.0:
            b, fb = mid, wm.alpha_p
        else:
            a, fa = mid, wm.alpha_p
    return guess


def freeze_solitary(wave: DiatomicWave, cfg: DiatomicConfig | None = None,
                    reuse: FactorCache | None = None) -> DiatomicWave:
    """Re-solve with beta_P frozen at zero: a genuine solitary wave."""
    return solve_wave(wave.kappa, "beta_p", 0.0, wave, cfg or DiatomicConfig(),
                      reuse=reuse)


def find_solitary(branch: Branch, cfg: DiatomicConfig | None = None, *,
                  sign_change_index: int | None = None,
                  kappa_range: tuple[float, float, float] | None = None,
                  bisect_tol: float = 1e-8) -> Branch:
    """Locate a solitary wave from a branch carrying an alpha_P sign change
    and optionally continue it in kappa (beta_P frozen at 0).

    Returns a Branch whose points are all of class "solitary"; without a
    ``kappa_range`` it holds the single seed point.
    """
    cfg = cfg or DiatomicConfig()
    idx = sign_change_index
    if idx is None:
        marks = [i for i, p in enumerate(branch.points) if p.sign_change]
        if not marks:
            raise ValueError("branch has no alpha_P sign change to bisect")
        idx = marks[0]
    factors = FactorCache()
    near = bisect_alpha_zero(branch, idx, cfg, tol=bisect_tol, reuse=factors)
    sol = freeze_solitary(near, cfg, reuse=factors)
    out = Branch()
    out.points.append(_point_from_wave(sol))
    out.waves.append(sol)
    if kappa_range is not None:
        k0, k1, dk = kappa_range
        sub = continue_branch(sol, "kappa", k1, dk, cfg,
                              fixed=("beta_p", 0.0))
        out.points.extend(sub.points[1:])
        out.waves.extend(sub.waves[1:])
        out.terminated_reason = sub.terminated_reason
    else:
        out.terminated_reason = "target-reached"
    return out
