"""Natural-parameter continuation of diatomic wave branches.

A branch fixes kappa and traces the one-parameter family of waves by stepping
one scalar (the driver) and solving with it held fixed.  On Newton failure
the step is halved (down to ``MIN_STEP_FACTOR`` of its largest size) and
then the driver is switched to the free scalar that moved most over the last
accepted step, which is how fold points are passed; that scalar is then
stepped on by its last increment, regrowing up to that increment times the
factor by which the old driver's step had been halved.  Steps are signed
and taken in the coordinate of the scalar being stepped (m for a mu driver
stepped in m), so a switch back to the first driver keeps its direction.
The first step of a kappa trace starts from the Euler tangent at the seed
(``kappa_tangent_guess``), and the LU made for the tangent is carried into
that solve; the first step of any other driver starts from the linearized
ripple mode (``refresh_ripple_guess``).  Later solves that hold the same
scalar fixed as the two before start from a secant prediction.
A point is a fold when the traced scalar (the driver the trace started
with) reverses direction there; every reversal is marked, so an S-shaped
branch shows both of its folds.  Sign changes of the ripple amplitude
alpha_P are marked for solitary-wave seeding.  A halving that leaves the
attempted driver value unchanged (a step clamped to the target) is not
re-solved: the solve is deterministic and would fail again, so the step
keeps halving until the value moves.  Every accepted point, failed solve,
halving, switch, fold and the termination is logged in ``Branch.events``.
A trace that must switch again before any point is accepted after a switch
ends at the step floor.

Solitary branches are found by Illinois regula falsi on a marked sign change
in the driven parameter (beta_P still free), freezing beta_P = 0, and
continuing in kappa with (sigma, mu) free.  ``stability_family`` builds the
waves of the lattice stability experiment around a solitary wave.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .diatomic import (DiatomicWave, SCALAR_NAMES, kappa_tangent_guess,
                       refresh_ripple_guess, save_wave, solve_wave)
from .errors import NonConvergenceError, ProblemSizeError
from .mfde import FactorCache
from .solution import PiecewiseSolution

# Step control: a failed solve halves the step down to MIN_STEP_FACTOR times
# the largest step, an accepted one regrows it by STEP_GROWTH up to that size.
MIN_STEP_FACTOR = 2.0 ** -6
STEP_GROWTH = 1.3

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


EVENT_KINDS = ("accepted", "failed", "halved", "switch", "fold", "terminated")


@dataclass(frozen=True)
class BranchEvent:
    """One step of a trace, in the order it happened.

    ``value`` is the driver value solved for (accepted, failed), attempted
    next (halved) or reached (switch, fold); ``step`` is the step size after
    a halving, or the signed step a switch hands over; ``residual`` and
    ``iterations`` come from the solve; ``note`` holds the driver left by a
    switch or the termination reason.
    """

    kind: str
    driver: str
    value: float = math.nan
    step: float = math.nan
    residual: float = math.nan
    iterations: int = 0
    note: str = ""


@dataclass
class Branch:
    points: list[BranchPoint] = field(default_factory=list)
    waves: list[DiatomicWave] = field(default_factory=list)
    terminated_reason: str | None = None
    events: list[BranchEvent] = field(default_factory=list)

    @property
    def folds(self):
        return [i for i, p in enumerate(self.points) if p.fold]

    @property
    def sign_changes(self):
        return [i for i, p in enumerate(self.points) if p.sign_change]

    def scalar(self, name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in self.points])


def event_counts(*branches: Branch) -> dict[str, int]:
    """Number of events of each kind over the given traces (every kind
    listed, in ``EVENT_KINDS`` order)."""
    seen = Counter(e.kind for b in branches for e in b.events)
    return {kind: seen[kind] for kind in EVENT_KINDS}


def point_from_wave(w: DiatomicWave) -> BranchPoint:
    """The branch point of a wave: ``values()`` is its BRANCH_COLUMNS row."""
    return BranchPoint(w.kappa, w.sigma, w.mu, w.beta_p, w.omega_p, w.alpha_p,
                       w.ripple_class, w.fixed_param, w.iterations,
                       w.residual_norm)


def _extrapolate(last: DiatomicWave, prev: DiatomicWave, r: float) -> DiatomicWave:
    """Secant predictor in coefficients and scalars."""
    lin = lambda a, b: a + r * (a - b)
    sol, rip = (PiecewiseSolution(a.mesh, lin(a.coeffs, b.coeffs), a.policies)
                for a, b in ((last.solitary, prev.solitary), (last.ripple, prev.ripple)))
    return DiatomicWave(last.kappa, lin(last.sigma, prev.sigma),
                        lin(last.mu, prev.mu), lin(last.beta_p, prev.beta_p),
                        lin(last.omega_p, prev.omega_p), sol, rip,
                        last.residual_norm, 0, last.fixed_param)


def continue_branch(seed: DiatomicWave, driver: str, target: float,
                    step: float, *, fixed: tuple[str, float] | None = None,
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
    the last converged factorization.  A zero or non-finite ``step`` raises
    ValueError; only its size is used.
    """
    if step == 0.0 or not math.isfinite(step):
        raise ValueError(f"step must be non-zero and finite, got {step!r}")
    if driver == "kappa":
        if fixed is None:
            raise ValueError("kappa driver needs the per-solve fixed scalar")
    elif driver not in SCALAR_NAMES:
        raise ValueError(f"unknown driver {driver!r}")

    in_m = driver == "mu" and step_in_m

    def coord(name, w):
        """Scalar ``name`` of ``w`` in the coordinate it is stepped in."""
        return w.m if in_m and name == "mu" else getattr(w, name)

    branch = Branch()
    factors = FactorCache()
    wave = seed
    prev_wave = None
    cur_driver = driver
    # a switch with no point accepted since the previous one ends the trace:
    # the drivers would otherwise hand it back and forth without end
    switched = False
    # h is signed, in the coordinate of the scalar being stepped; direction
    # only clamps the first driver to the target and ends the trace there
    direction = np.sign(target - coord(driver, seed)) or 1.0
    h_max = abs(step)
    h = direction * h_max

    def event(kind, value=math.nan, **info):
        branch.events.append(BranchEvent(kind, cur_driver, value, **info))

    def record(w: DiatomicWave):
        pt = point_from_wave(w)
        if branch.points:
            last = branch.points[-1]
            if last.alpha_p * pt.alpha_p < 0.0:
                pt.sign_change = True
            # a fold: the traced scalar reverses direction at this point
            incr = getattr(pt, driver) - getattr(last, driver)
            if incr * _last_increment(branch, driver) < 0.0:
                pt.fold = True
                event("fold", getattr(pt, driver), note=driver)
        branch.points.append(pt)
        if keep_waves:
            branch.waves.append(w)
        if checkpoint_dir is not None:
            save_wave(w, Path(checkpoint_dir) / f"point{len(branch.points)-1:04d}.ckpt")

    def attempt(h):
        """Driver value of a step h from the current wave."""
        nxt = coord(cur_driver, wave) + h
        if cur_driver == driver and (nxt - target) * direction > 0:
            nxt = target
        return 1.0 / nxt - 1.0 if in_m and cur_driver == "mu" else nxt

    record(wave)
    while len(branch.points) < max_points:
        # termination on target (in the original driver coordinate)
        if (coord(driver, wave) - target) * direction >= -1e-12:
            branch.terminated_reason = "target-reached"
            break
        value = attempt(h)
        # a kappa driver holds the fixed scalar, the others the driver; the
        # secant predictor needs the last two waves solved with it held
        kap, fix, val = ((value, *fixed) if cur_driver == "kappa"
                         else (wave.kappa, cur_driver, value))
        guess = wave
        if prev_wave is not None and prev_wave.fixed_param == wave.fixed_param == fix:
            d_last = getattr(wave, cur_driver) - getattr(prev_wave, cur_driver)
            if d_last != 0.0:
                guess = _extrapolate(wave, prev_wave,
                                     (value - getattr(wave, cur_driver)) / d_last)
        elif prev_wave is None and cur_driver != "kappa":
            guess = refresh_ripple_guess(wave, cur_driver, value)
        try:
            # inside the try: the tangent meets the size cap as the solve would
            if prev_wave is None and cur_driver == "kappa":
                guess = kappa_tangent_guess(wave, kap, fix, val, reuse=factors)
            new = solve_wave(kap, fix, val, guess, reuse=factors)
        except ProblemSizeError:
            branch.terminated_reason = "size-cap"
            break
        except NonConvergenceError as exc:
            event("failed", value, residual=exc.residual_norm,
                  iterations=exc.iterations)
            # Solves are deterministic and a failed one leaves the LU holder
            # as it was, so retrying the same value (a step clamped to the
            # target) would fail again: halve until the value moves.
            failed = value
            while abs(h) > h_max * MIN_STEP_FACTOR and value == failed:
                h *= 0.5
                value = attempt(h)
                event("halved", value, step=abs(h))
            if value != failed:
                continue
            # kappa traces never switch; the others switch the fixed
            # parameter to the scalar that moved most
            cand = None if driver == "kappa" else _pick_switch(branch, cur_driver)
            if cand is None or switched:
                branch.terminated_reason = "step-floor"
                break
            left, cur_driver = cur_driver, cand
            # the last increment: the scalar keeps its direction; its cap is
            # scaled by how far the left driver's step had been halved
            h = coord(cand, wave) - coord(cand, prev_wave)
            h_max = abs(h) * h_max / abs(coord(left, wave) - coord(left, prev_wave))
            switched = True
            event("switch", getattr(wave, cur_driver), step=h, note=left)
            continue
        # accepted
        event("accepted", value, residual=new.residual_norm,
              iterations=new.iterations)
        prev_wave, wave = wave, new
        switched = False
        record(wave)
        if stop_when is not None and stop_when(branch.points[-1]):
            branch.terminated_reason = "stop-condition"
            break
        h = math.copysign(min(abs(h) * STEP_GROWTH, h_max), h)
    if branch.terminated_reason is None:
        branch.terminated_reason = "max-points"
    event("terminated", note=branch.terminated_reason)
    return branch


def _last_increment(branch: Branch, name: str) -> float:
    if len(branch.points) < 2:
        return 0.0
    return getattr(branch.points[-1], name) - getattr(branch.points[-2], name)


def _pick_switch(branch: Branch, cur_driver: str):
    """Choose the next driver: the free scalar with the largest recent move."""
    if len(branch.points) < 2:
        return None
    last = branch.points[-1]
    rel = lambda n: abs(_last_increment(branch, n)) / max(1e-9, abs(getattr(last, n)))
    name = max((n for n in SCALAR_NAMES if n != cur_driver), key=rel)
    return name if _last_increment(branch, name) != 0.0 else None


MIN_SMALL_RIPPLE_EXTENT = 0.01
BISECT_MAX_SOLVES = 60


def classify_branch_segments(branch: Branch):
    """Branch-level ripple classes: contiguous runs of points below the
    small-ripple threshold keep the "small-ripple" label only when the run
    spans at least ``MIN_SMALL_RIPPLE_EXTENT`` in mu; shorter runs fall back
    to the sign class.  Returns one class string per point."""
    out = []
    for cls, run in groupby(branch.points, key=lambda p: p.ripple_class):
        run = list(run)
        if cls == "small-ripple" and abs(run[-1].mu - run[0].mu) < MIN_SMALL_RIPPLE_EXTENT:
            out += ["positive" if p.alpha_p > 0 else ("negative" if p.alpha_p < 0
                    else "solitary") for p in run]
        else:
            out += [cls] * len(run)
    return out


# ---------------------------------------------------------------------------
# solitary waves
# ---------------------------------------------------------------------------

def bisect_alpha_zero(branch: Branch, index: int, tol: float = 1e-8,
                      reuse: FactorCache | None = None) -> DiatomicWave:
    """Close in on the alpha_P sign change marked at point ``index`` (the
    driven scalar between points index-1 and index) by Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971) until the bracket, which keeps the sign
    change and so closes on a jump like on a zero, is at most ``tol`` wide,
    at an exact alpha_P = 0 or after ``BISECT_MAX_SOLVES`` solves.  Returns
    the wave of the last solve (beta_P still free), or point ``index``'s wave
    when the bracket is already below ``tol``; ``reuse`` carries the LU."""
    if not branch.points[index].sign_change:
        raise ValueError("index does not mark an alpha_P sign change")
    if not branch.waves:
        raise ValueError("branch must retain waves for bisection")
    wa, wave = branch.waves[index - 1], branch.waves[index]
    drv = wave.fixed_param
    a, fa = getattr(wa, drv), wa.alpha_p
    b, fb = getattr(wave, drv), wave.alpha_p
    for _ in range(BISECT_MAX_SOLVES):
        if abs(b - a) <= tol or fb == 0.0:
            break
        c = b - fb * (b - a) / (fb - fa)
        wave = solve_wave(wave.kappa, drv, c, wave, reuse=reuse)
        if wave.alpha_p * fb < 0.0:
            a, fa = b, fb
        else:
            fa *= 0.5
        b, fb = c, wave.alpha_p
    return wave


def freeze_solitary(wave: DiatomicWave,
                    reuse: FactorCache | None = None) -> DiatomicWave:
    """Re-solve with beta_P frozen at zero: a genuine solitary wave."""
    return solve_wave(wave.kappa, "beta_p", 0.0, wave, reuse=reuse)


def find_solitary(branch: Branch, *, kappa_to: float | None = None,
                  kappa_step: float = 0.125, bisect_tol: float = 1e-8) -> Branch:
    """Locate a solitary wave at the first alpha_P sign change of a branch
    and optionally continue it in kappa to ``kappa_to`` in steps of
    ``kappa_step`` (beta_P frozen at 0).

    Returns a Branch whose points are all of class "solitary": the kappa
    trace from the solitary wave, or without a ``kappa_to`` that wave alone.
    """
    if not branch.sign_changes:
        raise ValueError("branch has no alpha_P sign change to bisect")
    factors = FactorCache()
    near = bisect_alpha_zero(branch, branch.sign_changes[0], tol=bisect_tol,
                             reuse=factors)
    sol = freeze_solitary(near, reuse=factors)
    if kappa_to is not None:
        return continue_branch(sol, "kappa", kappa_to, kappa_step,
                               fixed=("beta_p", 0.0))
    return Branch([point_from_wave(sol)], [sol], "target-reached")


# Masses of the stability experiment on the kappa = 5/2 branch: |alpha_P|
# falls by a decade from each to the next, from about 1e-2 to 1e-6.
STABILITY_MASSES = (0.33797458, 0.32800968, 0.32711659, 0.32702829, 0.32701947)


def stability_family(branch: Branch, solitary: DiatomicWave) -> list[DiatomicWave]:
    """The six initial conditions of the paper's stability experiment: the
    waves at ``STABILITY_MASSES`` on the mu branch of ``solitary``, then
    ``solitary`` itself (alpha_P = 0).  Each is solved at fixed mu from the
    wave of ``branch.waves`` or ``solitary`` nearest in mu."""
    waves = []
    for m in STABILITY_MASSES:
        mu = 1.0 / m - 1.0
        guess = min(branch.waves + [solitary], key=lambda w: abs(w.mu - mu))
        waves.append(solve_wave(solitary.kappa, "mu", mu, guess))
    return waves + [solitary]
