"""Monatomic traveling waves, Jost solutions and the ripple-amplitude
coefficient.

The wave is computed in the scaled form phi(xi) = kappa^2 Phi(kappa xi) on the
computational interval tau = kappa xi in [0, L], where kappa ~ sqrt(8 phi(0))
measures the center amplitude and the speed sigma is a free parameter:

    -kappa^2 sigma^2 Phi''(tau) = [(2 - A_kappa)(Phi + kappa^2 Phi^2)](tau),
    Phi(0) = 1/8,  Phi'(0) = 0,  Phi(L) = 0,

with even extension through 0 and zero continuation beyond L.  The Jost
problem for the adjoint linearization is solved jointly with the wave in the
ansatz gamma(xi) = sin(omega (xi + theta)) + beta * Upsilon(kappa xi); the
asymptotic frequency solves sigma^2 omega^2 = 2 + 2 cos(omega) and is
embedded in the residual at the current sigma iterate, keeping the
seven-boundary-condition count (2 second-order equations + 3 scalars).

Internally the Newton unknown is psi = 1/beta, in which the Upsilon equation,
its boundary condition and the odd-extension offset are all linear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint, dispersion
from .errors import (CheckpointCorruptError, DegenerateNormalizationError,
                     NegativeProfileWarning, NonConvergenceError,
                     UnreliableQuadratureError)
from .mfde import (EquationBlock, FunctionBlockSpec, MfdeProblem, NewtonConfig,
                   SlotSpec, BoundaryCondition, BoundaryProbe, solve_newton,
                   value_bc)
from .solution import Extension, Mesh, PiecewiseSolution

PHASE_SLOPE = 0.2208053960  # leading-order omega*theta / kappa
KC_FIT = (1.93756, 4.06704)  # I_chi/I_eta ~ a * exp(-b / kappa)

_LADDER_START = 0.5
_LADDER_STEP = 0.25


@dataclass(frozen=True)
class MonatomicConfig:
    length: float = 32.0
    intervals: int = 512
    gauss_order: int = 3
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    @property
    def mesh(self) -> Mesh:
        return Mesh(self.length, self.intervals, self.gauss_order)


@dataclass
class MonatomicWave:
    """Scaled profile bundle (kappa, sigma, Phi)."""

    kappa: float
    sigma: float
    profile: PiecewiseSolution      # components (Phi, Phi')
    residual_norm: float
    iterations: int

    @property
    def length(self) -> float:
        return self.profile.mesh.length

    def phi(self, tau):
        return self.profile.eval(tau, 0)

    def phi_prime(self, tau):
        return self.profile.eval(tau, 1)

    def wave_profile(self, xi):
        """Physical relative-displacement profile phi(xi) = kappa^2 Phi(kappa xi)."""
        return self.kappa ** 2 * self.phi(self.kappa * np.asarray(xi, dtype=float))


@dataclass
class JostSolution:
    """Jost bundle (omega, theta, beta, Upsilon) for the adjoint problem."""

    kappa: float
    sigma: float
    omega: float
    theta: float
    beta: float
    remainder: PiecewiseSolution    # components (Upsilon, Upsilon')
    residual_norm: float
    iterations: int

    def upsilon(self, tau):
        return self.remainder.eval(tau, 0)

    def gamma(self, xi):
        """Reconstructed Jost function sin(omega (xi+theta)) + beta Y(kappa xi)."""
        xi = np.asarray(xi, dtype=float)
        return (np.sin(self.omega * (xi + self.theta))
                + self.beta * self.remainder.eval(self.kappa * xi, 0))


@dataclass
class AmplitudeCoefficient:
    """Quadrature values of the two projection integrals and K = -I_chi/I_eta."""

    kappa: float
    i_eta: float
    i_chi: float
    i_chi_refined: float
    coefficient: float
    monitor_residual: float
    reliable: bool
    n_quad: int


def _phi_policies(_params):
    return (Extension.even_zero(), Extension.odd_zero())


def _profile_problem(kappa: float, cfg: MonatomicConfig) -> MfdeProblem:
    mesh = cfg.mesh
    k2 = kappa * kappa

    def rhs(tau, slots, params):
        sigma = params[0]
        u0, up, um = slots
        g0 = u0[0] + k2 * u0[0] ** 2
        gp = up[0] + k2 * up[0] ** 2
        gm = um[0] + k2 * um[0] ** 2
        return np.stack([u0[1], -(2.0 * g0 - gp - gm) / (k2 * sigma * sigma)])

    blk = FunctionBlockSpec("phi", mesh, 2, _phi_policies)
    eq = EquationBlock(0, (SlotSpec(0),
                           SlotSpec(0, lambda t, p: t + kappa),
                           SlotSpec(0, lambda t, p: t - kappa)), rhs)
    bcs = (value_bc(0, 0, 0.0, 0.125, name="Phi(0)"),
           value_bc(0, 1, 0.0, 0.0, name="Phi'(0)"),
           value_bc(0, 0, mesh.length, 0.0, name="Phi(L)"))
    return MfdeProblem((blk,), (eq,), 1, bcs)


def _sech2_seed(mesh: Mesh) -> PiecewiseSolution:
    return PiecewiseSolution.from_callables(
        mesh,
        [lambda t: 0.125 / np.cosh(0.5 * t) ** 2,
         lambda t: -0.125 * np.tanh(0.5 * t) / np.cosh(0.5 * t) ** 2],
        _phi_policies(None))


def _check_profile_sign(wave: MonatomicWave):
    pts = np.linspace(0.0, wave.length, 2049)
    vals = wave.phi(pts)
    if vals.min() < -1e-3 * vals.max():
        warnings.warn("profile dips below zero; solitary character lost",
                      NegativeProfileWarning)


def _kappa_ladder(target: float) -> list[float]:
    if target <= _LADDER_START + 1e-12:
        return [target]
    ks = list(np.arange(_LADDER_START, target, _LADDER_STEP))
    return ks + [target]


def solve_profile(kappa: float, cfg: MonatomicConfig | None = None,
                  guess: MonatomicWave | None = None) -> MonatomicWave:
    """Solve the kappa-parametrized wave with sigma free.

    Without a guess, small kappa starts from the KdV-limit seed
    Phi = sech^2(tau/2)/8, sigma = 1 + kappa^2/24; larger kappa walks an
    internal continuation ladder from kappa = 0.5.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    cfg = cfg or MonatomicConfig()
    if guess is not None:
        return _solve_profile_once(kappa, cfg, guess.profile, guess.sigma)
    wave = None
    for kap in _kappa_ladder(kappa):
        if wave is None:
            wave = _solve_profile_once(kap, cfg, _sech2_seed(cfg.mesh),
                                       1.0 + kap * kap / 24.0)
        else:
            wave = _solve_profile_once(kap, cfg, wave.profile, wave.sigma)
    return wave


def _solve_profile_once(kappa, cfg, profile_guess, sigma_guess) -> MonatomicWave:
    prob = _profile_problem(kappa, cfg)
    sols, params, rep = solve_newton(prob, [profile_guess], [sigma_guess],
                                     cfg.newton)
    wave = MonatomicWave(kappa, float(params[0]), sols[0],
                         rep.residual_norm, rep.iterations)
    _check_profile_sign(wave)
    return wave


# ---------------------------------------------------------------------------
# joint (Phi, Upsilon) system
# ---------------------------------------------------------------------------

def jost_policies(kappa: float, sigma: float, psi: float, theta: float):
    """Extension policies of (Upsilon, Upsilon'): the odd-extension identity
    -Y(-t) = Y(t) + 2 psi sin(omega theta) cos(omega t / kappa) and its
    derivative, with zero continuation beyond L."""
    om = dispersion.jost_frequency(sigma)
    amp = 2.0 * psi * np.sin(om * theta)
    return (Extension.affine(-1.0, lambda x: -amp * np.cos(om * x / kappa),
                             label="jost-ups"),
            Extension.affine(+1.0, lambda x: amp * (om / kappa) * np.sin(om * x / kappa),
                             label="jost-upsp"))


def joint_problem(kappa: float, cfg: MonatomicConfig) -> MfdeProblem:
    """The combined wave + Jost system: components (Phi, Phi', Y, Y'),
    free scalars (sigma, psi = 1/beta, theta), seven boundary conditions."""
    mesh = cfg.mesh
    k2 = kappa * kappa
    L = mesh.length

    def policies(params):
        sigma, psi, theta = params
        return (Extension.even_zero(), Extension.odd_zero(),
                *jost_policies(kappa, sigma, psi, theta))

    def rhs(tau, slots, params):
        sigma, psi, theta = params
        om = dispersion.jost_frequency(sigma)
        u0, up, um = slots
        s2 = k2 * sigma * sigma
        g0 = u0[0] + k2 * u0[0] ** 2
        gp = up[0] + k2 * up[0] ** 2
        gm = um[0] + k2 * um[0] ** 2
        phi_dd = -(2.0 * g0 - gp - gm) / s2
        forcing = 2.0 * s2 * om * om * psi * u0[0] * np.sin(om * (tau / kappa + theta))
        ups_dd = -((1.0 + 2.0 * k2 * u0[0]) * (2.0 * u0[2] + up[2] + um[2])
                   + forcing) / s2
        return np.stack([u0[1], phi_dd, u0[3], ups_dd])

    blk = FunctionBlockSpec("phi-ups", mesh, 4, policies)
    eq = EquationBlock(0, (SlotSpec(0),
                           SlotSpec(0, lambda t, p: t + kappa),
                           SlotSpec(0, lambda t, p: t - kappa)), rhs)

    def ups0_bc(v, p):
        sigma, psi, theta = p
        om = dispersion.jost_frequency(sigma)
        return v[0] + psi * np.sin(om * theta)

    bcs = (value_bc(0, 0, 0.0, 0.125, name="Phi(0)"),
           value_bc(0, 1, 0.0, 0.0, name="Phi'(0)"),
           value_bc(0, 0, L, 0.0, name="Phi(L)"),
           BoundaryCondition((BoundaryProbe(0, 2, "value", 0.0),), ups0_bc,
                             name="Y(0) oddness"),
           value_bc(0, 3, 0.0, 1.0, name="Y'(0)"),
           value_bc(0, 2, L, 0.0, name="Y(L)"),
           value_bc(0, 3, L, 0.0, name="Y'(L)"))
    return MfdeProblem((blk,), (eq,), 3, bcs)


def _default_jost_seed(mesh: Mesh, kappa: float, sigma: float):
    om = dispersion.jost_frequency(sigma)
    theta0 = PHASE_SLOPE * kappa / om
    psi0 = 1.0 / (PHASE_SLOPE * kappa)
    ups = PiecewiseSolution.from_callables(
        mesh,
        [lambda t: t * np.exp(-t), lambda t: (1.0 - t) * np.exp(-t)],
        (Extension.odd_zero(), Extension.even_zero()))
    return ups, psi0, theta0


def solve_jost(wave: MonatomicWave, cfg: MonatomicConfig | None = None,
               guess: JostSolution | None = None) -> JostSolution:
    """Solve the combined system seeded with a converged wave.

    The wave block is already a solution, so the joint Newton leaves
    (Phi, sigma) essentially untouched and fills in (Y, beta, theta).
    """
    cfg = cfg or MonatomicConfig(length=wave.length,
                                 intervals=wave.profile.mesh.intervals,
                                 gauss_order=wave.profile.mesh.gauss_order)
    kappa = wave.kappa
    prob = joint_problem(kappa, cfg)
    if guess is not None:
        ups = guess.remainder
        psi0 = 1.0 / guess.beta
        theta0 = guess.theta
    else:
        ups, psi0, theta0 = _default_jost_seed(cfg.mesh, kappa, wave.sigma)
    coeffs = np.concatenate([wave.profile.coeffs, ups.coeffs], axis=0)
    seed = PiecewiseSolution(cfg.mesh, coeffs, (Extension.even_zero(),) * 4)
    params0 = np.array([wave.sigma, psi0, theta0])
    try:
        sols, params, rep = solve_newton(prob, [seed], params0, cfg.newton)
    except NonConvergenceError:
        # deterministic fallback: opposite seed orientation
        params0 = np.array([wave.sigma, -psi0, -theta0])
        sols, params, rep = solve_newton(prob, [seed], params0, cfg.newton)
    sigma, psi, theta = (float(v) for v in params)
    if abs(psi) > 1e12:
        raise DegenerateNormalizationError(
            f"normalization amplitude |beta| = {1.0/abs(psi):.3e} below 1e-12")
    omega = dispersion.jost_frequency(sigma)
    rem = PiecewiseSolution(cfg.mesh, sols[0].coeffs[2:4].copy(),
                            sols[0].policies[2:4])
    return JostSolution(kappa, sigma, omega, theta, 1.0 / psi, rem,
                        rep.residual_norm, rep.iterations)


def solve_joint(kappa: float, cfg: MonatomicConfig | None = None,
                seed: tuple[MonatomicWave, JostSolution] | None = None):
    """Profile presolve followed by the joint solve; returns (wave, jost).

    ``seed`` chains solutions along a continuation ladder.
    """
    cfg = cfg or MonatomicConfig()
    if seed is not None:
        wave0, jost0 = seed
        wave = solve_profile(kappa, cfg, guess=wave0)
        jost = solve_jost(wave, cfg, guess=jost0)
    else:
        wave = solve_profile(kappa, cfg)
        jost = solve_jost(wave, cfg)
    # joint solve may have nudged sigma; keep the bundle consistent
    wave = replace(wave, sigma=jost.sigma)
    return wave, jost


# ---------------------------------------------------------------------------
# projection integrals
# ---------------------------------------------------------------------------

def compute_psi(wave: MonatomicWave, jost: JostSolution, which: str):
    """Pointwise integrand factors Psi^(eta) / Psi^(chi) on [0, L].

    The eta phases are sin(omega (tau/kappa +- 1)): the +-1 is the lattice
    shift inside the frequency argument (the interpretation under which the
    monitor identity holds; see LEDGER.md, entry 2).
    """
    kappa = wave.kappa
    k2 = kappa * kappa
    om = jost.omega
    phi = wave.profile

    if which == "eta":
        def psi(tau):
            tau = np.asarray(tau, dtype=float)
            return (phi.eval(tau + kappa, 0) * np.sin(om * (tau / kappa + 1.0))
                    + 2.0 * phi.eval(tau, 0) * np.sin(om * tau / kappa)
                    + phi.eval(tau - kappa, 0) * np.sin(om * (tau / kappa - 1.0)))
        return psi
    if which == "chi":
        def psi(tau):
            tau = np.asarray(tau, dtype=float)
            fp = phi.eval(tau + kappa, 0)
            fm = phi.eval(tau - kappa, 0)
            return -0.5 * (fp + k2 * fp ** 2 - fm - k2 * fm ** 2)
        return psi
    raise ValueError(f"which must be 'eta' or 'chi', got {which!r}")


def _midpoint_integral(f, length: float, n: int) -> float:
    tau = (np.arange(n) + 0.5) * (length / n)
    return float(np.sum(f(tau)) * (length / n))


def amplitude_coefficient(wave: MonatomicWave, jost: JostSolution,
                          n_quad: int = 10 ** 6,
                          require_reliable: bool = False) -> AmplitudeCoefficient:
    """Midpoint-rule evaluation of the projection integrals and
    K = -I_chi / I_eta, with the analytic monitor for I_eta.

    The record carries the reliability flag (kappa >= 0.3 and a doubled-grid
    stability check on I_chi within 0.1%); ``require_reliable=True`` raises
    :class:`UnreliableQuadratureError` carrying both quadrature values.
    """
    if n_quad < 10 ** 4:
        raise ValueError("n_quad must be at least 1e4")
    kappa, L = wave.kappa, wave.length
    om, th, beta = jost.omega, jost.theta, jost.beta

    def gamma_part(tau):
        return np.sin(om * (tau / kappa + th)) + beta * jost.remainder.eval(tau, 0)

    psi_eta = compute_psi(wave, jost, "eta")
    psi_chi = compute_psi(wave, jost, "chi")
    # The eta pairing carries the factor 2 of the quadratic cross-term
    # 2 s1 s2: the ripple-amplitude coefficient in the second component is
    # 2*(2+A)[phi sin], so I_eta = <gamma, 2 eta>.  This is the normalization
    # under which the analytic monitor holds exactly (see LEDGER.md, entry 3).
    i_eta = 4.0 * kappa * _midpoint_integral(lambda t: gamma_part(t) * psi_eta(t), L, n_quad)
    i_chi = 2.0 * kappa * _midpoint_integral(lambda t: gamma_part(t) * psi_chi(t), L, n_quad)
    i_chi2 = 2.0 * kappa * _midpoint_integral(lambda t: gamma_part(t) * psi_chi(t), L, 2 * n_quad)

    monitor = abs(i_eta + dispersion.b_plus_prime(om, jost.sigma, 0.0)
                  * np.sin(om * th)) / abs(i_eta)
    stable = abs(i_chi2 - i_chi) <= 1e-3 * abs(i_chi)
    reliable = bool(kappa >= 0.3 and stable)
    if require_reliable and not reliable:
        raise UnreliableQuadratureError(
            f"quadrature unreliable at kappa={kappa}", i_chi, i_chi2)
    return AmplitudeCoefficient(kappa, i_eta, i_chi, i_chi2,
                                -i_chi / i_eta, monitor, reliable, n_quad)


# ---------------------------------------------------------------------------
# kappa scan
# ---------------------------------------------------------------------------

SCAN_COLUMNS = ("kappa", "sigma", "omega_ups", "theta_ups", "beta_ups",
                "I_eta", "I_chi", "K", "monitor_resid", "reliable",
                "newton_iters")


@dataclass
class ScanRow:
    kappa: float
    sigma: float
    omega_ups: float
    theta_ups: float
    beta_ups: float
    i_eta: float
    i_chi: float
    k_coeff: float
    monitor_resid: float
    reliable: bool
    newton_iters: int

    def values(self):
        return (self.kappa, self.sigma, self.omega_ups, self.theta_ups,
                self.beta_ups, self.i_eta, self.i_chi, self.k_coeff,
                self.monitor_resid, self.reliable, self.newton_iters)


@dataclass
class ScanResult:
    rows: list[ScanRow]
    waves: list[MonatomicWave]
    josts: list[JostSolution]
    aborted_reason: str | None = None

    @property
    def completed(self) -> int:
        return len(self.rows)


def kappa_values(start: float, end: float, step: float) -> np.ndarray:
    if step <= 0 or end < start:
        raise ValueError("need end >= start and step > 0")
    n = int(round((end - start) / step)) + 1
    vals = start + step * np.arange(n)
    return vals[vals <= end + 1e-12]


def save_wave(wave: MonatomicWave, path) -> None:
    ck = checkpoint.Checkpoint(
        "monatomic-wave",
        {"kappa": wave.kappa, "sigma": wave.sigma,
         "residual_norm": wave.residual_norm, "iterations": wave.iterations},
        [checkpoint.solution_to_block("profile", wave.profile)])
    checkpoint.write(ck, path)


def load_wave(path) -> MonatomicWave:
    ck = checkpoint.read(path)
    if ck.kind != "monatomic-wave":
        raise CheckpointCorruptError(f"expected a monatomic-wave checkpoint, got {ck.kind!r}")
    sol = checkpoint.block_to_solution(ck.blocks[0])
    return MonatomicWave(ck.meta["kappa"], ck.meta["sigma"], sol,
                         ck.meta["residual_norm"], ck.meta["iterations"])


def save_joint(wave: MonatomicWave, jost: JostSolution, path) -> None:
    ck = checkpoint.Checkpoint(
        "monatomic-joint",
        {"kappa": wave.kappa, "sigma": jost.sigma, "omega": jost.omega,
         "theta": jost.theta, "beta": jost.beta,
         "wave_resid": wave.residual_norm, "wave_iters": wave.iterations,
         "jost_resid": jost.residual_norm, "jost_iters": jost.iterations},
        [checkpoint.solution_to_block("profile", wave.profile),
         checkpoint.solution_to_block("jost", jost.remainder)])
    checkpoint.write(ck, path)


def load_joint(path) -> tuple[MonatomicWave, JostSolution]:
    ck = checkpoint.read(path)
    if ck.kind != "monatomic-joint":
        raise CheckpointCorruptError(f"expected a monatomic-joint checkpoint, got {ck.kind!r}")
    kappa, sigma = ck.meta["kappa"], ck.meta["sigma"]
    theta, beta = ck.meta["theta"], ck.meta["beta"]
    pols = jost_policies(kappa, sigma, 1.0 / beta, theta)

    def resolver(label, sign, right, rsign):
        return {"jost-ups": pols[0], "jost-upsp": pols[1]}.get(label)

    profile = checkpoint.block_to_solution(ck.blocks[0])
    remainder = checkpoint.block_to_solution(ck.blocks[1], affine_resolver=resolver)
    wave = MonatomicWave(kappa, sigma, profile, ck.meta["wave_resid"],
                         ck.meta["wave_iters"])
    jost = JostSolution(kappa, sigma, ck.meta["omega"], theta, beta, remainder,
                        ck.meta["jost_resid"], ck.meta["jost_iters"])
    return wave, jost


def kappa_scan(kappa_start: float, kappa_end: float, step: float = 0.25,
               cfg: MonatomicConfig | None = None, n_quad: int = 10 ** 6,
               seed: tuple[MonatomicWave, JostSolution] | None = None) -> ScanResult:
    """Continuation scan over kappa; each row reuses the previous solution
    as its guess.  Aborts at the first non-convergence, keeping the rows
    already computed."""
    if kappa_start < 0.125:
        raise ValueError("kappa_start must be at least 1/8")
    cfg = cfg or MonatomicConfig()
    result = ScanResult([], [], [])
    chain = seed
    for kap in kappa_values(kappa_start, kappa_end, step):
        try:
            wave, jost = solve_joint(kap, cfg, seed=chain)
            coeff = amplitude_coefficient(wave, jost, n_quad=n_quad)
        except NonConvergenceError as exc:
            result.aborted_reason = f"non-convergence at kappa={kap:g}: {exc}"
            break
        chain = (wave, jost)
        result.rows.append(ScanRow(kap, wave.sigma, jost.omega, jost.theta,
                                   jost.beta, coeff.i_eta, coeff.i_chi,
                                   coeff.coefficient, coeff.monitor_residual,
                                   coeff.reliable, jost.iterations))
        result.waves.append(wave)
        result.josts.append(jost)
    return result
