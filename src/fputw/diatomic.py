"""Nonlinear periodic ripples and the full diatomic traveling-wave system.

Symmetrized coordinates s = ((r_odd + r_even)/2, (r_odd - r_even)/2) with mass
deviation mu = 1/m - 1.  The wave ansatz splits into a solitary core and a
periodic background ripple,

    s(xi) = kappa^2 V(kappa xi) + beta_P * Ptilde(omega_P xi),

where V = (V1, V2) lives on tau = kappa xi in [0, L] (V1 even / V2 odd at 0,
zero beyond L) and Ptilde = (P1, P2) on the half-period tau~ = omega_P xi in
[0, L] with the 2L-periodic even/odd extensions.  Each solve fixes kappa plus
one of {sigma, mu, beta_P}; the remaining two scalars and omega_P are free,
giving 4 second-order components + 3 scalars = 11 boundary conditions.

The quadratic terms of the solitary system carry kappa^2 (the scaling that
reduces to the monatomic equation at mu = 0, beta_P = 0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint, dispersion
from .errors import (BranchJumpWarning, CheckpointCorruptError, FputwError,
                     OrientationFlipWarning)
from .mfde import (FD_STEP, BoundaryCondition, BoundaryProbe, EquationBlock,
                   FactorCache, FunctionBlockSpec, MfdeProblem, SlotSpec,
                   assemble_residual, euler_predictor, integral_bc,
                   solve_newton, value_bc)
from .monatomic import MonatomicConfig, MonatomicWave, solve_profile
from .solution import Extension, Mesh, PiecewiseSolution

SCALAR_NAMES = ("sigma", "mu", "beta_p")

# Canonical ripple orientation.  The displayed inequality
# nu1 P1(0) + nu2 L P2'(0) / (pi omega) > 0 together with the displayed
# operator conventions yields alpha_P = +K_sigma mu near mu = 0, the opposite
# of the reported data (alpha_P = -K_sigma mu with K_sigma < 0, and the
# alpha_P > 0 initial conditions above the solitary mass).  The data
# convention corresponds to the reversed inequality; see LEDGER.md, entry 1.
ORIENTATION_SIGN = -1.0

RIPPLE_POLICIES = (Extension.periodic_even(), Extension.periodic_odd(),
                   Extension.periodic_odd(), Extension.periodic_even())
SOLITARY_POLICIES = (Extension.even_zero(), Extension.odd_zero(),
                     Extension.odd_zero(), Extension.even_zero())


@dataclass(frozen=True)
class DiatomicConfig:
    length: float = MonatomicConfig.length
    solitary_intervals: int = MonatomicConfig.intervals
    ripple_intervals: int = 32
    gauss_order: int = MonatomicConfig.gauss_order

    @property
    def solitary_mesh(self) -> Mesh:
        return Mesh(self.length, self.solitary_intervals, self.gauss_order)

    @property
    def ripple_mesh(self) -> Mesh:
        return Mesh(self.length, self.ripple_intervals, self.gauss_order)

    def monatomic(self) -> MonatomicConfig:
        return MonatomicConfig(self.length, self.solitary_intervals, self.gauss_order)


def _d_rows(mu, g1_0, g1_p, g1_m, g2_0, g2_p, g2_m):
    """Rows of the coupling operator D_nu(mu) applied to (G1, G2)."""
    row1 = 0.5 * ((2.0 + mu) * (2.0 * g1_0 - g1_p - g1_m) + mu * (g2_p - g2_m))
    row2 = 0.5 * (-mu * (g1_p - g1_m) + (2.0 + mu) * (2.0 * g2_0 + g2_p + g2_m))
    return row1, row2


class ParamMap:
    """Maps the solver parameter vector [free1, free2, omega_p] to the full
    scalar set (sigma, mu, beta_p, omega_p) given the fixed scalar."""

    def __init__(self, fixed: str, value: float):
        if fixed not in SCALAR_NAMES:
            raise ValueError(f"fixed parameter must be one of {SCALAR_NAMES}")
        self.fixed = fixed
        self.value = float(value)
        self.free = tuple(s for s in SCALAR_NAMES if s != fixed)

    def unpack(self, params):
        d = {self.fixed: self.value,
             self.free[0]: float(params[0]), self.free[1]: float(params[1])}
        return d["sigma"], d["mu"], d["beta_p"], float(params[2])

    def pack(self, sigma, mu, beta_p, omega_p):
        d = {"sigma": sigma, "mu": mu, "beta_p": beta_p}
        return np.array([d[self.free[0]], d[self.free[1]], omega_p])


# ---------------------------------------------------------------------------
# periodic ripple (standalone)
# ---------------------------------------------------------------------------

@dataclass
class PeriodicRipple:
    sigma: float
    mu: float
    beta_p: float
    omega_p: float
    profile: PiecewiseSolution      # (P1, P1', P2, P2')
    residual_norm: float
    iterations: int
    orientation_ok: bool = True

    @property
    def omega_xi(self) -> float:
        """Ripple frequency per unit xi recovered from the correspondence."""
        return np.pi * self.omega_p / self.profile.mesh.length

    @property
    def alpha_p(self) -> float:
        return ripple_amplitude(self.beta_p, self.profile)


def ripple_amplitude(beta_p: float, profile: PiecewiseSolution) -> float:
    return beta_p * np.hypot(profile.sup_norm(0), profile.sup_norm(2))


def orientation_value(sigma, mu, profile: PiecewiseSolution) -> float:
    """The sign-convention quantity nu1 P1(0) + nu2 L P2'(0) / (pi omega)."""
    mode = dispersion.critical_frequency(sigma, mu)
    L = profile.mesh.length
    return (mode.nu1 * profile.eval(0.0, 0)
            + mode.nu2 * L * profile.eval(0.0, 3) / (np.pi * mode.omega))


def _signed_orientation(sigma, mu, profile: PiecewiseSolution) -> float:
    """``orientation_value`` in the data convention: positive on the
    convention branch, negative on its mirror image."""
    return ORIENTATION_SIGN * orientation_value(sigma, mu, profile)


def _flip(profile: PiecewiseSolution) -> PiecewiseSolution:
    """The negated ripple profile (the mirror orientation)."""
    return PiecewiseSolution(profile.mesh, -profile.coeffs, RIPPLE_POLICIES)


def _canonical(sigma, mu, beta_p: float, profile: PiecewiseSolution):
    """``(beta_P, Ptilde)`` in the canonical representation: the pair
    negated, which is the same wave, when its signed orientation is below 0."""
    if _signed_orientation(sigma, mu, profile) < 0.0:
        return -beta_p, _flip(profile)
    return beta_p, profile


def _ripple_block(block: int, mesh: Mesh, get_scalars, omega_index: int):
    """``(spec, equation, bcs)`` of the ripple as function block ``block``:
    slots at tau~ and tau~ +- params[omega_index], five boundary conditions,
    and get_scalars(params) -> (sigma, mu, beta_p, omega_p)."""

    def rhs(tau, slots, params):
        sigma, mu, beta, omega_p = get_scalars(params)
        P0, Pp, Pm = slots

        def gpair(P):
            p1, p2 = P[0], P[2]
            return p1 + beta * (p1 * p1 + p2 * p2), p2 + 2.0 * beta * p1 * p2

        g10, g20 = gpair(P0)
        g1p, g2p = gpair(Pp)
        g1m, g2m = gpair(Pm)
        row1, row2 = _d_rows(mu, g10, g1p, g1m, g20, g2p, g2m)
        s = omega_p * omega_p * sigma * sigma
        return np.stack([P0[1], -row1 / s, P0[3], -row2 / s])

    def norm_bc(v, p):
        return v[0] ** 2 + v[1] ** 2 - 1.0

    eq = EquationBlock(block, (SlotSpec(block),
                               SlotSpec(block, lambda t, p: t + float(p[omega_index])),
                               SlotSpec(block, lambda t, p: t - float(p[omega_index]))),
                       rhs)
    bcs = (integral_bc(block, 0, 0.0, name="mean P1"),
           value_bc(block, 1, 0.0, 0.0, name="P1'(0)"),
           value_bc(block, 2, 0.0, 0.0, name="P2(0)"),
           value_bc(block, 2, mesh.length, 0.0, name="P2(L)"),
           BoundaryCondition((BoundaryProbe(block, 0, "value", 0.0),
                              BoundaryProbe(block, 3, "value", 0.0)),
                             norm_bc, name="normalization"))
    return FunctionBlockSpec("ripple", mesh, 4, lambda p: RIPPLE_POLICIES), eq, bcs


def ripple_mode_seed(sigma: float, mu: float,
                     mesh: Mesh) -> tuple[PiecewiseSolution, float]:
    """Linearized-mode seed scaled to the normalization P1(0)^2 + P2'(0)^2 = 1."""
    mode = dispersion.critical_frequency(sigma, mu)
    L = mesh.length
    q = np.pi / L
    rho = ORIENTATION_SIGN / np.hypot(mode.nu1, q * mode.nu2)
    sol = PiecewiseSolution.from_callables(
        mesh,
        [lambda t: rho * mode.nu1 * np.cos(q * t),
         lambda t: -rho * mode.nu1 * q * np.sin(q * t),
         lambda t: rho * mode.nu2 * np.sin(q * t),
         lambda t: rho * mode.nu2 * q * np.cos(q * t)],
        RIPPLE_POLICIES)
    return sol, mode.omega * L / np.pi


def solve_periodic(sigma: float, mu: float, beta_p: float,
                   cfg: DiatomicConfig = DiatomicConfig(),
                   guess: PeriodicRipple | None = None) -> PeriodicRipple:
    """Solve the nonlinear periodic problem at fixed (sigma, mu, beta_P) with
    the computational frequency omega_P free; a ``guess`` fixes the mesh."""
    if sigma <= dispersion.sound_speed(mu) - 1e-12:
        raise dispersion.NoBracketError(
            f"sigma={sigma} at or below the sound speed C_mu")
    if guess is not None:
        seed, omega_p0 = guess.profile, guess.omega_p
    else:
        seed, omega_p0 = ripple_mode_seed(sigma, mu, cfg.ripple_mesh)
    blk, eq, bcs = _ripple_block(0, seed.mesh,
                                 lambda p: (sigma, mu, beta_p, float(p[0])), 0)
    prob = MfdeProblem((blk,), (eq,), 1, bcs)
    sols, params, rep = solve_newton(prob, [seed], [omega_p0])
    if _signed_orientation(sigma, mu, sols[0]) < 0.0:
        # converged to the mirrored orientation; at fixed beta_P the
        # convention-satisfying branch is approached from the negated profile
        sols, params, rep = solve_newton(prob, [_flip(sols[0])], [float(params[0])])
    ripple = PeriodicRipple(sigma, mu, beta_p, float(params[0]), sols[0],
                            rep.residual_norm, rep.iterations)
    if _signed_orientation(sigma, mu, ripple.profile) <= 0.0:
        ripple.orientation_ok = False
        warnings.warn("periodic ripple orientation inequality violated",
                      OrientationFlipWarning)
    return ripple


# ---------------------------------------------------------------------------
# full diatomic wave
# ---------------------------------------------------------------------------

@dataclass
class DiatomicWave:
    kappa: float
    sigma: float
    mu: float
    beta_p: float
    omega_p: float
    solitary: PiecewiseSolution     # (V1, V1', V2, V2')
    ripple: PiecewiseSolution       # (P1, P1', P2, P2')
    residual_norm: float
    iterations: int
    fixed_param: str = ""

    @property
    def m(self) -> float:
        return 1.0 / (1.0 + self.mu)

    @property
    def alpha_p(self) -> float:
        return ripple_amplitude(self.beta_p, self.ripple)

    @property
    def ripple_class(self) -> str:
        return classify_ripple(self)

    def s_components(self, include_ripple: bool = True):
        """Callables (s1, s2) with s_i(xi) = kappa^2 V_i(kappa xi) + beta_P P_i(omega_P xi)."""
        kap, b, omp = self.kappa, self.beta_p, self.omega_p

        def make(vc, pc):
            def f(xi):
                xi = np.asarray(xi, dtype=float)
                v = kap * kap * self.solitary.eval(kap * xi, vc)
                if include_ripple and b != 0.0:
                    v = v + b * self.ripple.eval(omp * xi, pc)
                return v
            return f

        return make(0, 0), make(2, 2)


def classify_ripple(wave: DiatomicWave) -> str:
    """Pointwise ripple class: exact beta_P = 0 is solitary; otherwise the
    amplitude is compared against 1e-5 * kappa^2 V1(0) = 1e-5 kappa^2/8."""
    if wave.beta_p == 0.0:
        return "solitary"
    threshold = 1e-5 * wave.kappa ** 2 / 8.0
    if abs(wave.alpha_p) < threshold:
        return "small-ripple"
    return "positive" if wave.alpha_p > 0 else "negative"


def wave_problem(kappa: float, pm: ParamMap, solitary_mesh: Mesh,
                 ripple_mesh: Mesh) -> MfdeProblem:
    k2 = kappa * kappa
    L = solitary_mesh.length

    blk_v = FunctionBlockSpec("solitary", solitary_mesh, 4, lambda p: SOLITARY_POLICIES)
    blk_p, eq_p, bcs_p = _ripple_block(1, ripple_mesh, pm.unpack, 2)

    def rhs_v(tau, slots, params):
        sigma, mu, beta, _omega_p = pm.unpack(params)
        V0, Vp, Vm, P0, Pp, Pm = slots

        def gpair(V, P):
            v1, v2, p1, p2 = V[0], V[2], P[0], P[2]
            g1 = v1 + k2 * (v1 * v1 + v2 * v2) + 2.0 * beta * (v1 * p1 + v2 * p2)
            g2 = v2 + 2.0 * k2 * v1 * v2 + 2.0 * beta * (v1 * p2 + v2 * p1)
            return g1, g2

        g10, g20 = gpair(V0, P0)
        g1p, g2p = gpair(Vp, Pp)
        g1m, g2m = gpair(Vm, Pm)
        row1, row2 = _d_rows(mu, g10, g1p, g1m, g20, g2p, g2m)
        s = k2 * sigma * sigma
        return np.stack([V0[1], -row1 / s, V0[3], -row2 / s])

    def scale(shift):
        def loc(t, p):
            omega_p = float(p[2])
            return (omega_p / kappa) * (t + shift)
        return loc

    eq_v = EquationBlock(0, (SlotSpec(0),
                             SlotSpec(0, lambda t, p: t + kappa),
                             SlotSpec(0, lambda t, p: t - kappa),
                             SlotSpec(1, scale(0.0)),
                             SlotSpec(1, scale(kappa)),
                             SlotSpec(1, scale(-kappa))), rhs_v)

    bcs = (value_bc(0, 0, 0.0, 0.125, name="V1(0)"),
           value_bc(0, 1, 0.0, 0.0, name="V1'(0)"),
           value_bc(0, 2, 0.0, 0.0, name="V2(0)"),
           value_bc(0, 0, L, 0.0, name="V1(L)"),
           value_bc(0, 2, L, 0.0, name="V2(L)"),
           value_bc(0, 3, L, 0.0, name="V2'(L)"),
           ) + bcs_p
    return MfdeProblem((blk_v, blk_p), (eq_v, eq_p), 3, bcs)


def _newton_system(wave: DiatomicWave, fix: str, value: float):
    """``(pm, problem_at, sols, params)``: the parameter map holding ``fix``
    at ``value``, the wave problem at a given kappa on the meshes of
    ``wave``, and ``wave`` as Newton solutions and parameters."""
    pm = ParamMap(fix, value)
    meshes = wave.solitary.mesh, wave.ripple.mesh
    return (pm, lambda kappa: wave_problem(kappa, pm, *meshes), [wave.solitary, wave.ripple],
            pm.pack(wave.sigma, wave.mu, wave.beta_p, wave.omega_p))


def _wave_of(pm: ParamMap, kappa: float, sols, params, residual_norm, iterations):
    """The wave of Newton solutions and parameters under ``pm``."""
    sigma, mu, beta_p, omega_p = pm.unpack(params)
    return DiatomicWave(kappa, sigma, mu, beta_p, omega_p, sols[0], sols[1],
                        residual_norm, iterations, fixed_param=pm.fixed)


def solve_wave(kappa: float, fix: str, value: float, guess: DiatomicWave,
               jump_tol: float | None = None,
               reuse: FactorCache | None = None) -> DiatomicWave:
    """Solve the full diatomic system at fixed kappa and one fixed scalar.

    ``guess`` supplies the meshes, the starting functions and all scalar
    values (its entry for the fixed scalar is replaced by ``value``).
    ``jump_tol`` bounds the acceptable movement of the free scalars; beyond
    it a BranchJumpWarning is issued (the solve still returns).  ``reuse``
    carries a sparse LU between solves (see :func:`fputw.mfde.solve_newton`).
    """
    pm, problem_at, guesses, params0 = _newton_system(guess, fix, value)
    prob = problem_at(kappa)
    sols, params, rep = solve_newton(prob, guesses, params0, reuse)
    wave = _wave_of(pm, kappa, sols, params, rep.residual_norm, rep.iterations)
    if fix == "beta_p" and value != 0.0 and \
            _signed_orientation(wave.sigma, wave.mu, wave.ripple) < 0.0:
        # beta_P pinned: move to the convention branch by re-solving from
        # the mirrored ripple profile
        sols, params, rep = solve_newton(prob, [sols[0], _flip(sols[1])],
                                         params, reuse)
        wave = _wave_of(pm, kappa, sols, params, rep.residual_norm, rep.iterations)
        if _signed_orientation(wave.sigma, wave.mu, wave.ripple) < 0.0:
            warnings.warn("ripple orientation inequality still violated",
                          OrientationFlipWarning)
    else:
        wave.beta_p, wave.ripple = _canonical(wave.sigma, wave.mu, wave.beta_p,
                                              wave.ripple)
    if jump_tol is not None:
        dist = max(abs(wave.sigma - guess.sigma), abs(wave.mu - guess.mu),
                   abs(wave.beta_p - guess.beta_p))
        if dist > jump_tol:
            warnings.warn(
                f"solution moved {dist:.3g} from its guess (tol {jump_tol:.3g}); "
                "possible branch jump", BranchJumpWarning)
    return wave


def wave_residual_norm(wave: DiatomicWave) -> float:
    """Re-assemble the residual of a wave on its own meshes under its own
    parameters."""
    fix = wave.fixed_param or "mu"
    _, problem_at, sols, params = _newton_system(wave, fix, getattr(wave, fix))
    r = assemble_residual(problem_at(wave.kappa), sols, params)
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def refresh_ripple_guess(wave: DiatomicWave, fix: str, value: float) -> DiatomicWave:
    """The guess for a solve holding ``fix`` at ``value``: a ripple-free
    wave gets the linearized mode on its ripple mesh at (wave.sigma, mu),
    mu = ``value`` for a mu fix and wave.mu otherwise, so the first Newton
    step does not crawl under damping; the mode falls back to wave.mu below
    the sound speed.  A wave with a ripple, or one where no mode exists,
    comes back as is."""
    if wave.beta_p != 0.0:
        return wave
    for mu in (value if fix == "mu" else wave.mu, wave.mu):
        try:
            rip, omega_p = ripple_mode_seed(wave.sigma, mu, wave.ripple.mesh)
        except FputwError:
            continue
        return replace(wave, ripple=rip, omega_p=omega_p)
    return wave


def kappa_tangent_guess(wave: DiatomicWave, kappa: float, fix: str, value: float,
                        reuse: FactorCache | None = None) -> DiatomicWave:
    """The Euler guess at ``kappa`` from the solved ``wave``, on its meshes,
    holding ``fix`` at ``value``: the wave plus (kappa - wave.kappa) times
    the tangent of the iso-``fix`` curve, with dR/dkappa one finite
    difference at wave.kappa + FD_STEP max(1, |wave.kappa|) (see
    :func:`fputw.mfde.euler_predictor`).  The Jacobian's LU at the wave goes
    to ``reuse``."""
    pm, problem_at, sols, params = _newton_system(wave, fix, value)
    k0 = wave.kappa
    dk = FD_STEP * max(1.0, abs(k0))
    sols, params = euler_predictor(problem_at(k0), problem_at(k0 + dk), sols, params,
                                   dk, kappa - k0, reuse)
    return _wave_of(pm, kappa, sols, params, wave.residual_norm, 0)


def seed_from_monatomic(mono: MonatomicWave,
                        cfg: DiatomicConfig = DiatomicConfig()) -> DiatomicWave:
    """Exact diatomic wave at mu = 0, beta_P = 0 built from a monatomic
    profile (V2 = 0 on the profile's mesh; ripple = linearized mode at
    (sigma, 0) on the ripple mesh of ``cfg``)."""
    z = np.zeros_like(mono.profile.coeffs[0])
    coeffs = np.stack([mono.profile.coeffs[0], mono.profile.coeffs[1], z, z])
    solitary = PiecewiseSolution(mono.profile.mesh, coeffs, SOLITARY_POLICIES)
    ripple, omega_p = ripple_mode_seed(mono.sigma, 0.0, cfg.ripple_mesh)
    return DiatomicWave(mono.kappa, mono.sigma, 0.0, 0.0, omega_p,
                        solitary, ripple, mono.residual_norm, 0, fixed_param="mu")


def seed_from_small_mass(kappa: float, mu: float,
                         cfg: DiatomicConfig = DiatomicConfig()) -> DiatomicWave:
    """Nanopteron-side seed from the small-mass limit profiles.

    At m = 0 the diatomic wave reduces to the monatomic profile at speed
    sigma/sqrt(2) sampled on a doubled lattice; the center amplitude match
    s1(0) = kappa^2/8 fixes the monatomic amplitude parameter by a secant
    iteration.
    """
    mcfg = cfg.monatomic()
    target = kappa * kappa / 8.0

    def center_amp(km: float):
        w = solve_profile(km, mcfg)
        return w, w.kappa ** 2 * (w.phi(w.kappa / 2.0) + 0.125) / 2.0

    km = kappa
    _, a0 = center_amp(km)
    km2 = km * (target / a0) ** 0.5
    for _ in range(8):
        wm, a1 = center_amp(km2)
        if abs(a1 - target) < 1e-12 or a1 == a0:
            break
        km, km2, a0 = km2, km2 - (a1 - target) * (km2 - km) / (a1 - a0), a1
    else:
        wm, _ = center_amp(km2)     # the last secant update is not solved yet
    sigma0 = np.sqrt(2.0) * wm.sigma

    def varphi(xi, d=0):
        xi = np.asarray(xi, dtype=float)
        if d == 0:
            return wm.kappa ** 2 * wm.profile.eval(wm.kappa * np.abs(xi), 0)
        sgn = np.sign(xi)
        return wm.kappa ** 3 * sgn * wm.profile.eval(wm.kappa * np.abs(xi), 1)

    k2 = kappa * kappa

    def v(comp):
        d = comp % 2                            # V1, V2 or their derivatives
        sign = 1.0 if comp < 2 else -1.0        # V1 sums, V2 differences
        scale = 2.0 * k2 if d == 0 else 4.0 * k2 * kappa

        def f(tau):
            xi = np.asarray(tau, dtype=float) / kappa
            a = (xi + 0.5) / 2.0
            b = (xi - 0.5) / 2.0
            return (varphi(a, d) + sign * varphi(b, d)) / scale
        return f

    solitary = PiecewiseSolution.from_callables(
        cfg.solitary_mesh, [v(0), v(1), v(2), v(3)], SOLITARY_POLICIES)
    ripple, omega_p = ripple_mode_seed(sigma0, mu, cfg.ripple_mesh)
    return DiatomicWave(kappa, sigma0, mu, 0.0, omega_p, solitary, ripple,
                        np.inf, 0, fixed_param="mu")


# ---------------------------------------------------------------------------
# symmetry and reconstruction
# ---------------------------------------------------------------------------

def symmetry_transform(wave: DiatomicWave) -> DiatomicWave:
    """The m <-> 1/m involution: (s1, s2, mu, sigma) -> (s1, -s2, -mu/(1+mu),
    sigma/sqrt(1+mu)); kappa and omega_P are untouched.  The ripple
    representation is re-canonicalized so the orientation inequality holds at
    the transformed parameters (flipping beta_P and the whole profile when
    needed), which fixes the sign of alpha_P."""
    mu2 = -wave.mu / (1.0 + wave.mu)
    sigma2 = wave.sigma / np.sqrt(1.0 + wave.mu)

    def negate_s2(part: PiecewiseSolution, policies) -> PiecewiseSolution:
        coeffs = part.coeffs.copy()
        coeffs[2:4] *= -1.0         # components 2, 3 carry s2
        return PiecewiseSolution(part.mesh, coeffs, policies)

    beta2, profile = _canonical(sigma2, mu2, wave.beta_p,
                                negate_s2(wave.ripple, RIPPLE_POLICIES))
    return DiatomicWave(wave.kappa, float(sigma2), float(mu2), beta2,
                        wave.omega_p, negate_s2(wave.solitary, SOLITARY_POLICIES),
                        profile, wave.residual_norm, wave.iterations,
                        fixed_param=wave.fixed_param)


def reconstruct_displacement_profiles(wave: DiatomicWave,
                                      include_ripple: bool = True):
    """Callables (r_odd, r_even) with r_odd = s1 + s2, r_even = s1 - s2."""
    s1, s2 = wave.s_components(include_ripple)
    return (lambda xi: s1(xi) + s2(xi)), (lambda xi: s1(xi) - s2(xi))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_wave(wave: DiatomicWave, path) -> None:
    ck = checkpoint.Checkpoint(
        "diatomic-wave",
        {"kappa": wave.kappa, "sigma": wave.sigma, "mu": wave.mu,
         "beta_p": wave.beta_p, "omega_p": wave.omega_p,
         "residual_norm": wave.residual_norm, "iterations": wave.iterations,
         "fixed_param": wave.fixed_param or "none"},
        [checkpoint.solution_to_block("solitary", wave.solitary),
         checkpoint.solution_to_block("ripple", wave.ripple)])
    checkpoint.write(ck, path)


def load_wave(path) -> DiatomicWave:
    return wave_from_checkpoint(checkpoint.read(path))


def wave_from_checkpoint(ck: checkpoint.Checkpoint) -> DiatomicWave:
    if ck.kind != "diatomic-wave":
        raise CheckpointCorruptError(f"expected a diatomic-wave checkpoint, got {ck.kind!r}")
    fixed = ck.meta["fixed_param"]
    return DiatomicWave(ck.meta["kappa"], ck.meta["sigma"], ck.meta["mu"],
                        ck.meta["beta_p"], ck.meta["omega_p"],
                        checkpoint.block_to_solution(ck.blocks[0]),
                        checkpoint.block_to_solution(ck.blocks[1]),
                        ck.meta["residual_norm"], ck.meta["iterations"],
                        fixed_param="" if fixed == "none" else fixed)
