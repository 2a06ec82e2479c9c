"""Finite-interval Gauss collocation solver for mixed-type functional
differential equations.

Problems are posed in first-order form

    u'(tau) = f(tau, u(tau + s_0), u(tau + s_1), ..., p),

where ``u`` collects the components of one or more *function blocks* (each
block owns a mesh and extension policies), the ``s_i`` are shift maps that may
depend on the free parameters ``p`` (constant shifts and argument rescalings
are the common cases; state-dependent shifts are not supported), and the
system is closed by scalar boundary functionals.  A well-posed problem needs
exactly ``sum(ncomp) + nparams`` boundary conditions; for ``s`` second-order
scalar equations recast to first order this is the familiar ``2 s + f`` count.

Discretization: each component is a piecewise polynomial of degree k per
interval (see :mod:`fputw.solution`); the equation is enforced at the k
Gauss-Legendre points of every interval, continuity is enforced at the
interior mesh points, and the boundary functionals complete the square
system.  The Jacobian is assembled structurally: sparse evaluation operators
(coefficients -> shifted values, including extension folds) are exact, the
pointwise nonlinearity is differentiated by finite differences slot by slot,
and free-parameter columns are finite differences of the full residual.  A
dense column-by-column finite-difference Jacobian (`fd_jacobian`) is provided
as an independent cross-check for small problems.

Stacking order of the residual: per block, collocation equations
(interval-major, then Gauss node, then component) followed by continuity
conditions; all boundary functionals last.  The residual length equals the
unknown count.

Newton is a chord (simplified Newton) iteration: once a sparse LU exists, the
full step from that frozen factorization is tried first and kept only when
the max-norm residual contracts by at least ``CHORD_RHO``; otherwise the
Jacobian is assembled and factorized at the current iterate and a damped
Newton step is taken.  A :class:`FactorCache` carries the last converged
factorization from one solve to the next, so a continuation that solves a
sequence of nearby systems factorizes only when the frozen LU stops
contracting.  The convergence test is always on the true residual.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (BoundaryCountError, FputwError, NonConvergenceError,
                     ProblemSizeError, SingularJacobianError)
from .solution import Extension, Mesh, PiecewiseSolution

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# A chord step from a frozen LU is kept only if it cuts the max-norm residual
# to at most this fraction; a weaker contraction triggers a refactorization.
CHORD_RHO = 0.25


@dataclass(frozen=True)
class FunctionBlockSpec:
    """One group of components sharing a mesh and extension policies.

    ``policy_factory(params)`` returns the per-component policies; it is
    re-evaluated at every residual evaluation so policies may depend on the
    free parameters (e.g. the Jost affine reflection).
    """

    name: str
    mesh: Mesh
    ncomp: int
    policy_factory: Callable[[np.ndarray], tuple[Extension, ...]]


@dataclass(frozen=True)
class SlotSpec:
    """A set of evaluation points feeding the right-hand side.

    ``locate(tau, params)`` maps the collocation points to evaluation
    locations of the source block; ``None`` is the identity slot.
    """

    block: int
    locate: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class EquationBlock:
    """First-order right-hand side for the components of one block.

    ``rhs(tau, slots, params)`` receives one ``(ncomp_src, npts)`` array per
    declared slot and must act pointwise across ``npts``.
    """

    block: int
    slots: tuple[SlotSpec, ...]
    rhs: Callable


@dataclass(frozen=True)
class BoundaryProbe:
    block: int
    comp: int
    kind: str = "value"      # "value" | "integral"
    tau: float = 0.0


@dataclass(frozen=True)
class BoundaryCondition:
    """Scalar functional of probe values and parameters, required to vanish."""

    probes: tuple[BoundaryProbe, ...]
    func: Callable
    name: str = ""


def value_bc(block: int, comp: int, tau: float, target: float = 0.0,
             name: str = "") -> BoundaryCondition:
    return BoundaryCondition((BoundaryProbe(block, comp, "value", tau),),
                             lambda v, p: v[0] - target, name=name)


def integral_bc(block: int, comp: int, target: float = 0.0,
                name: str = "") -> BoundaryCondition:
    return BoundaryCondition((BoundaryProbe(block, comp, "integral"),),
                             lambda v, p: v[0] - target, name=name)


@dataclass(frozen=True)
class MfdeProblem:
    blocks: tuple[FunctionBlockSpec, ...]
    equations: tuple[EquationBlock, ...]
    nparams: int
    boundary_conditions: tuple[BoundaryCondition, ...]

    def validate(self):
        targets = sorted(eq.block for eq in self.equations)
        if targets != list(range(len(self.blocks))):
            raise ValueError("need exactly one equation block per function block")
        need = sum(b.ncomp for b in self.blocks) + self.nparams
        have = len(self.boundary_conditions)
        if have != need:
            raise BoundaryCountError(
                f"problem needs {need} boundary conditions "
                f"({sum(b.ncomp for b in self.blocks)} first-order components "
                f"+ {self.nparams} parameters), got {have}")


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 25
    fd_step: float = _SQRT_EPS
    max_halvings: int = 6
    max_unknowns: int = 30_000


@dataclass
class NewtonReport:
    iterations: int             # Newton and chord steps taken
    residual_norm: float
    converged: bool
    factorizations: int = 0     # sparse LU factorizations made by this solve


@dataclass
class FactorCache:
    """One-slot holder for the sparse LU of the last converged solve.

    Pass the same holder to consecutive :func:`solve_newton` calls on systems
    of one size (a continuation) to start each solve with chord steps from
    the previous factorization.  Only converged solves write to it; an LU of
    another size is ignored.
    """

    lu: object = None


class Layout:
    """Index bookkeeping between flat unknown vectors and block coefficients.

    Coefficients are interval-major within each block:
    ``x[off + (i*ncomp + c)*(k+1) + j] = coeffs[c, i, j]``.
    """

    def __init__(self, problem: MfdeProblem):
        self.problem = problem
        self.coeff_offsets = []
        off = 0
        for b in problem.blocks:
            self.coeff_offsets.append(off)
            off += b.ncomp * b.mesh.intervals * (b.mesh.gauss_order + 1)
        self.param_offset = off
        self.size = off + problem.nparams
        # residual rows: per block collocation then continuity, BCs last
        self.colloc_offsets = []
        self.cont_offsets = []
        row = 0
        for b in problem.blocks:
            self.colloc_offsets.append(row)
            row += b.ncomp * b.mesh.intervals * b.mesh.gauss_order
            self.cont_offsets.append(row)
            row += b.ncomp * (b.mesh.intervals - 1)
        self.bc_offset = row

    def coeff_index(self, b: int, i, c: int, j):
        blk = self.problem.blocks[b]
        k1 = blk.mesh.gauss_order + 1
        return self.coeff_offsets[b] + (np.asarray(i) * blk.ncomp + c) * k1 + j

    def pack(self, solutions: Sequence[PiecewiseSolution], params) -> np.ndarray:
        x = np.empty(self.size)
        for b, sol in enumerate(solutions):
            flat = sol.coeffs.transpose(1, 0, 2).ravel()
            x[self.coeff_offsets[b]:self.coeff_offsets[b] + flat.size] = flat
        x[self.param_offset:] = np.asarray(params, dtype=float)
        return x

    def unpack(self, x: np.ndarray, params_arr=None):
        sols = []
        params = x[self.param_offset:].copy()
        for b, blk in enumerate(self.problem.blocks):
            m, n, k1 = blk.mesh.intervals, blk.ncomp, blk.mesh.gauss_order + 1
            off = self.coeff_offsets[b]
            coeffs = x[off:off + m * n * k1].reshape(m, n, k1).transpose(1, 0, 2).copy()
            sols.append(PiecewiseSolution(blk.mesh, coeffs, blk.policy_factory(params)))
        return sols, params

    def collocation_rows(self) -> np.ndarray:
        """Boolean mask selecting the collocation rows of the residual."""
        mask = np.zeros(self.size, dtype=bool)
        for b, blk in enumerate(self.problem.blocks):
            n = blk.ncomp * blk.mesh.intervals * blk.mesh.gauss_order
            mask[self.colloc_offsets[b]:self.colloc_offsets[b] + n] = True
        return mask


def _slot_structure(sol: PiecewiseSolution, pts: np.ndarray, comp: int):
    """Resolve points through the policy; return eval structure.

    Returns (idx, s, sign, offset) so that the value is
    ``sign * sum_j coeffs[comp, idx, j] s^j + offset``.
    """
    q, sign, off = sol.resolve(pts, comp)
    mesh = sol.mesh
    idx = np.clip((q / mesh.h).astype(int), 0, mesh.intervals - 1)
    s = q / mesh.h - idx
    return idx, s, sign, off


def _slot_values(sol: PiecewiseSolution, idx, s, sign, off, comp: int):
    c = sol.coeffs[comp]
    k = sol.mesh.gauss_order
    vals = np.zeros_like(s)
    for j in range(k, -1, -1):
        vals = vals * s + c[idx, j]
    return sign * vals + off


class _Assembler:
    def __init__(self, problem: MfdeProblem, cfg: NewtonConfig):
        problem.validate()
        self.problem = problem
        self.cfg = cfg
        self.layout = Layout(problem)
        if self.layout.size > cfg.max_unknowns:
            raise ProblemSizeError(
                f"{self.layout.size} unknowns exceed the cap {cfg.max_unknowns}")

    # -- residual ---------------------------------------------------------
    def residual(self, x: np.ndarray) -> np.ndarray:
        return self._assemble(x, want_jac=False)[0]

    def jacobian(self, x: np.ndarray):
        return self._assemble(x, want_jac=True)

    def _assemble(self, x: np.ndarray, want_jac: bool):
        lay = self.layout
        prob = self.problem
        sols, params = lay.unpack(x)
        r = np.zeros(lay.size)
        rows, cols, data = [], [], []

        def add(rr, cc, dd):
            rows.append(np.asarray(rr).ravel())
            cols.append(np.asarray(cc).ravel())
            data.append(np.asarray(dd).ravel())

        for eq in prob.equations:
            b = eq.block
            blk = prob.blocks[b]
            mesh = blk.mesh
            k = mesh.gauss_order
            tau = mesh.collocation_points
            npts = tau.size
            n = blk.ncomp

            # slot values (and structure for the jacobian chain)
            slot_vals = []
            slot_struct = []
            for slot in eq.slots:
                src = sols[slot.block]
                pts = tau if slot.locate is None else slot.locate(tau, params)
                vals = np.empty((src.ncomp, npts))
                struct = []
                for c in range(src.ncomp):
                    idx, s, sign, off = _slot_structure(src, pts, c)
                    vals[c] = _slot_values(src, idx, s, sign, off, c)
                    struct.append((idx, s, sign))
                slot_vals.append(vals)
                slot_struct.append(struct)

            F = np.asarray(eq.rhs(tau, slot_vals, params))
            # own derivative values at the collocation points
            i_of_pt = np.repeat(np.arange(mesh.intervals), k)
            s_of_pt = np.tile(mesh.gauss_nodes, mesh.intervals)
            base_rows = lay.colloc_offsets[b] + np.arange(npts) * n
            for c in range(n):
                cpows = sols[b].coeffs[c][i_of_pt]  # (npts, k+1)
                dvals = np.zeros(npts)
                for j in range(k, 0, -1):
                    dvals = dvals * s_of_pt + j * cpows[:, j]
                dvals /= mesh.h
                r[base_rows + c] = dvals - F[c]

            if want_jac:
                # d(u'_c)/d coeffs
                for c in range(n):
                    for j in range(1, k + 1):
                        add(base_rows + c,
                            lay.coeff_index(b, i_of_pt, c, j),
                            j * s_of_pt ** (j - 1) / mesh.h)
                # -d rhs / d slot values, chained through evaluation operators
                for si, slot in enumerate(eq.slots):
                    src_n = prob.blocks[slot.block].ncomp
                    for c in range(src_n):
                        u = slot_vals[si][c]
                        h = self.cfg.fd_step * np.maximum(1.0, np.abs(u))
                        pert = [v.copy() if t == si else v for t, v in enumerate(slot_vals)]
                        pert[si] = slot_vals[si].copy()
                        pert[si][c] = u + h
                        F2 = np.asarray(eq.rhs(tau, pert, params))
                        sens = (F2 - F) / h  # (n, npts)
                        if not np.any(sens):
                            continue
                        idx, s, sign = slot_struct[si][c]
                        for ct in range(n):
                            row_ct = base_rows + ct
                            sc = sens[ct]
                            if not np.any(sc):
                                continue
                            for j in range(k + 1):
                                add(row_ct,
                                    lay.coeff_index(slot.block, idx, c, j),
                                    -sc * sign * s ** j)

            # continuity: end of interval i == start of interval i+1
            m = mesh.intervals
            crow0 = lay.cont_offsets[b]
            for c in range(n):
                cf = sols[b].coeffs[c]
                left = cf[:-1].sum(axis=1)        # value at s=1
                right = cf[1:, 0]                 # value at s=0
                crows = crow0 + np.arange(m - 1) * n + c
                r[crows] = left - right
                if want_jac:
                    for j in range(k + 1):
                        add(crows, lay.coeff_index(b, np.arange(m - 1), c, j),
                            np.ones(m - 1))
                    add(crows, lay.coeff_index(b, np.arange(1, m), c, 0),
                        -np.ones(m - 1))

        # boundary conditions
        for q, bc in enumerate(prob.boundary_conditions):
            row = lay.bc_offset + q
            vals, structs = self._probe_values(sols, bc)
            g = float(bc.func(vals, params))
            r[row] = g
            if want_jac:
                for pi, (probe, vstruct) in enumerate(zip(bc.probes, structs)):
                    hv = self.cfg.fd_step * max(1.0, abs(vals[pi]))
                    v2 = vals.copy()
                    v2[pi] += hv
                    dg = (float(bc.func(v2, params)) - g) / hv
                    if dg == 0.0:
                        continue
                    pcols, pdata = vstruct
                    add(np.full(pcols.size, row), pcols, dg * pdata)

        if not want_jac:
            return r, None

        # free-parameter columns by finite differences of the full residual
        for pj in range(prob.nparams):
            hp = self.cfg.fd_step * max(1.0, abs(x[lay.param_offset + pj]))
            xp = x.copy()
            xp[lay.param_offset + pj] += hp
            rp = self._assemble(xp, want_jac=False)[0]
            col = (rp - r) / hp
            nz = np.nonzero(col)[0]
            add(nz, np.full(nz.size, lay.param_offset + pj), col[nz])

        J = sp.coo_matrix((np.concatenate(data),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(lay.size, lay.size)).tocsc()
        return r, J

    def _probe_values(self, sols, bc: BoundaryCondition):
        vals = np.empty(len(bc.probes))
        structs = []
        lay = self.layout
        for pi, probe in enumerate(bc.probes):
            sol = sols[probe.block]
            mesh = sol.mesh
            k = mesh.gauss_order
            if probe.kind == "integral":
                vals[pi] = sol.integral(probe.comp)
                i = np.repeat(np.arange(mesh.intervals), k + 1)
                j = np.tile(np.arange(k + 1), mesh.intervals)
                cols = lay.coeff_index(probe.block, i, probe.comp, j)
                data = np.tile(mesh.h / (np.arange(k + 1) + 1.0), mesh.intervals)
            else:
                pts = np.array([probe.tau])
                idx, s, sign, off = _slot_structure(sol, pts, probe.comp)
                vals[pi] = float(_slot_values(sol, idx, s, sign, off, probe.comp)[0])
                cols = lay.coeff_index(probe.block, np.repeat(idx, k + 1),
                                       probe.comp, np.arange(k + 1))
                data = sign[0] * s[0] ** np.arange(k + 1)
            structs.append((cols, data))
        return vals, structs


def assemble_residual(problem: MfdeProblem, solutions: Sequence[PiecewiseSolution],
                      params, cfg: NewtonConfig = NewtonConfig()) -> np.ndarray:
    """Stacked residual of a candidate: collocation and continuity equations
    per block, then the boundary functionals.  Length equals the unknown
    count."""
    asm = _Assembler(problem, cfg)
    return asm.residual(asm.layout.pack(solutions, params))


def solve_newton(problem: MfdeProblem, guesses: Sequence[PiecewiseSolution],
                 params, cfg: NewtonConfig = NewtonConfig(),
                 reuse: FactorCache | None = None):
    """Chord Newton iteration with damped Newton fallback.

    Each iteration first tries the full chord step ``lu.solve(-r)`` from the
    current factorization (one carried in by ``reuse``, or the one made
    earlier in this solve) and keeps it when the true max-norm residual drops
    to at most ``CHORD_RHO`` times its previous value.  Otherwise the
    Jacobian is assembled and factorized at the current iterate and a Newton
    step is taken with damping halvings until the residual decreases.  A
    chord step is tried only from a carried-in LU or after an undamped step,
    so a solve that needs damping does not pay for chord attempts that
    cannot contract.  Chord and Newton steps both count toward
    ``cfg.max_iter`` and the reported iterations.  On convergence the last
    factorization is stored in ``reuse``.

    Returns ``(solutions, params, report)``.  Raises
    :class:`NonConvergenceError` (carrying the final residual norm) when the
    iteration budget is exhausted and :class:`SingularJacobianError` when the
    sparse factorization fails.
    """
    asm = _Assembler(problem, cfg)
    lay = asm.layout
    x = lay.pack(guesses, params)
    r = asm.residual(x)
    norm = float(np.max(np.abs(r)))
    lu = None
    if reuse is not None and reuse.lu is not None \
            and reuse.lu.shape == (lay.size, lay.size):
        lu = reuse.lu
    try_chord = lu is not None
    factorizations = 0

    def done(iterations):
        if reuse is not None and lu is not None:
            reuse.lu = lu
        sols, p = lay.unpack(x)
        return sols, p, NewtonReport(iterations, norm, True, factorizations)

    for it in range(cfg.max_iter):
        if norm <= cfg.tol:
            return done(it)
        if try_chord:
            chord = _try_step(asm, x, lu.solve(-r))
            if chord is not None and chord[0] <= CHORD_RHO * norm:
                norm, x, r = chord
                continue
        _, J = asm.jacobian(x)
        try:
            lu = spla.splu(J)
        except RuntimeError as exc:
            raise SingularJacobianError(f"sparse LU failed: {exc}") from exc
        factorizations += 1
        step = lu.solve(-r)
        if not np.all(np.isfinite(step)):
            raise SingularJacobianError("linear solve produced non-finite step")
        lam = 1.0
        best = None
        for _ in range(cfg.max_halvings + 1):
            trial = _try_step(asm, x, lam * step)
            if trial is None:
                # step left the admissible parameter range; retry shorter
                lam *= 0.5
                continue
            if best is None or trial[0] < best[0][0]:
                best = (trial, lam)
            if trial[0] < norm:
                break
            lam *= 0.5
        if best is None:
            raise NonConvergenceError(
                "no admissible damped step found", norm, it)
        (norm, x, r), lam = best
        try_chord = lam == 1.0
    if norm <= cfg.tol:
        return done(cfg.max_iter)
    raise NonConvergenceError(
        f"Newton did not reach tol={cfg.tol:g} in {cfg.max_iter} iterations "
        f"(residual {norm:.3e})", norm, cfg.max_iter)


def _try_step(asm: _Assembler, x: np.ndarray, step: np.ndarray):
    """``(norm, x + step, residual)`` of a trial step, or None when the step
    is not finite or leaves the admissible range."""
    x_try = x + step
    if not np.all(np.isfinite(x_try)):
        return None
    try:
        r_try = asm.residual(x_try)
    except FputwError:
        return None
    n_try = float(np.max(np.abs(r_try)))
    if not np.isfinite(n_try):
        return None
    return n_try, x_try, r_try


def fd_jacobian(problem: MfdeProblem, solutions: Sequence[PiecewiseSolution],
                params, cfg: NewtonConfig = NewtonConfig()) -> np.ndarray:
    """Dense column-by-column finite-difference Jacobian (test oracle).

    Step per column: ``fd_step * max(1, |x_i|)``.  Intended for small
    problems; cost is one residual evaluation per unknown.
    """
    asm = _Assembler(problem, cfg)
    x = asm.layout.pack(solutions, params)
    r0 = asm.residual(x)
    J = np.empty((x.size, x.size))
    for i in range(x.size):
        h = cfg.fd_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (asm.residual(xp) - r0) / h
    return J


def structural_jacobian(problem: MfdeProblem, solutions, params,
                        cfg: NewtonConfig = NewtonConfig()):
    """The sparse Jacobian used by :func:`solve_newton` (dense for tests)."""
    asm = _Assembler(problem, cfg)
    x = asm.layout.pack(solutions, params)
    _, J = asm.jacobian(x)
    return J.toarray()


def refined_collocation_norm(problem: MfdeProblem, solutions, params,
                             factor: int = 2,
                             cfg: NewtonConfig = NewtonConfig()) -> float:
    """Infinity norm of the collocation residual re-evaluated on meshes with
    ``factor`` times as many intervals (discretization-error monitor)."""
    fine_blocks = tuple(
        replace(b, mesh=Mesh(b.mesh.length, b.mesh.intervals * factor,
                             b.mesh.gauss_order))
        for b in problem.blocks)
    fine = replace(problem, blocks=fine_blocks)
    fine_sols = [sol.resample(blk.mesh) for sol, blk in zip(solutions, fine_blocks)]
    asm = _Assembler(fine, replace(cfg, max_unknowns=cfg.max_unknowns * factor * 2))
    r = asm.residual(asm.layout.pack(fine_sols, params))
    return float(np.max(np.abs(r[asm.layout.collocation_rows()[:r.size]])))
