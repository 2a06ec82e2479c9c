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
system.  The Jacobian is assembled structurally: the evaluation operators
(coefficients -> shifted values, including extension folds) are exact, the
pointwise nonlinearity is differentiated by finite differences, all
components of a slot perturbed at once on stacked copies of the points (one
``rhs`` call per slot), and free-parameter columns are finite differences of
the full residual.  A dense column-by-column finite-difference Jacobian
(`fd_jacobian`) is provided as an independent cross-check for small
problems.

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
:func:`euler_predictor` starts a continuation off a solved point: it
factorizes the Jacobian there once, predicts along the tangent and leaves
that LU in the :class:`FactorCache` for the first solve.

Factorization splits block lower-triangular systems (:func:`factorize`).
Which *units* each unit's rows read is read off the assembled entries: a
unit is one (function block, component) with its collocation and
continuity rows and its coefficient columns, one boundary condition, or one
free parameter.  A maximum flow from row units to column units and the
strongly connected components of the oriented unit graph give the diagonal
blocks in solve order, found on a graph of a few dozen nodes.  Each diagonal
block gets its own ``splu`` and the solve is a block forward substitution
(:class:`BlockLU`, after the block-triangular form of KLU, Davis and
Palamadai Natarajan 2010); an irreducible system gets one ``splu`` as a
whole.  The joint wave + Jost system splits this way, because the profile
rows never read the Jost unknowns, and so does the diatomic system at
beta_P = 0.

Each assembler (one per :func:`solve_newton` call) compiles evaluation into
gather tables, like the basis tables of COLSYS/COLNEW (Ascher, Christiansen
& Russell 1981).  There is one table per equation and source block, over
the points of the equation's slots on that block in slot order, and one per
block with value probes, over its probe points; each holds, for every
component of its block and every point, the coefficient index, local
coordinate and sign after folding.  A table is folded again only when its
points change (a parameter-dependent shift) and keeps its two most recent
point sets; policies that differ only in +-1 signs share a fold.  Each
table and the collocation derivative take one Horner pass over gathered
coefficients, :func:`fputw.solution.horner` as in
:meth:`PiecewiseSolution.eval`, so the results are bitwise those of
per-point evaluation.  Affine offsets are re-evaluated at every use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import (BoundaryCountError, FputwError, NonConvergenceError,
                     ProblemSizeError, SingularJacobianError)
from .solution import (Extension, Mesh, PiecewiseSolution, fold_offset, horner,
                       interval_integral)

# Relative finite-difference step of the slot, boundary and parameter
# Jacobian entries (and of the dense oracle).
FD_STEP = float(np.sqrt(np.finfo(float).eps))

# Step halvings a damped Newton step tries before taking its best trial.
MAX_HALVINGS = 6

# A chord step from a frozen LU is kept only if it cuts the max-norm residual
# to at most this fraction; a weaker contraction triggers a refactorization.
CHORD_RHO = 0.25

# Newton converges at a max-norm residual of TOL and fails after MAX_ITER
# chord and Newton steps.  MAX_UNKNOWNS bounds LU memory: solve_newton and
# euler_predictor refuse larger systems.
TOL = 1e-10
MAX_ITER = 25
MAX_UNKNOWNS = 30_000


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


@dataclass
class NewtonReport:
    iterations: int             # Newton and chord steps taken
    residual_norm: float
    factorizations: int = 0     # sparse LU factorizations made by this solve


@dataclass
class FactorCache:
    """One-slot holder for the sparse LU of the last converged solve.

    Pass the same holder to consecutive :func:`solve_newton` calls on systems
    of one size (a continuation) to start each solve with chord steps from
    the previous factorization.  Only converged solves and
    :func:`euler_predictor` write to it; an LU of another size is ignored.
    The LU is either scipy's ``SuperLU`` or a :class:`BlockLU`; only its
    ``shape`` and ``solve`` are used, so a block factor of one system can
    drive chord steps on the next even where that one is irreducible.
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
        # units of the block split (see diagonal_blocks): one per (block,
        # component), then one per boundary condition, then one per parameter
        comp_units = np.cumsum([0] + [b.ncomp for b in problem.blocks])
        bc_unit = int(comp_units[-1])
        param_unit = bc_unit + len(problem.boundary_conditions)
        self.nunits = param_unit + problem.nparams
        row_units, col_units = [], []
        for b, blk in enumerate(problem.blocks):
            m, n, k = blk.mesh.intervals, blk.ncomp, blk.mesh.gauss_order
            comps = comp_units[b] + np.arange(n)
            row_units += [np.tile(comps, m * k), np.tile(comps, m - 1)]
            col_units.append(np.repeat(np.tile(comps, m), k + 1))
        row_units.append(bc_unit + np.arange(len(problem.boundary_conditions)))
        col_units.append(param_unit + np.arange(problem.nparams))
        self.row_unit = np.concatenate(row_units)
        self.col_unit = np.concatenate(col_units)

    def coeff_index(self, b: int, i, c: int, j):
        blk = self.problem.blocks[b]
        k1 = blk.mesh.gauss_order + 1
        return self.coeff_offsets[b] + (np.asarray(i) * blk.ncomp + c) * k1 + j

    def pack(self, solutions: Sequence[PiecewiseSolution], params) -> np.ndarray:
        x = np.empty(self.size)
        for off, blk, sol in zip(self.coeff_offsets, self.problem.blocks,
                                 solutions, strict=True):
            if sol.mesh != blk.mesh or sol.ncomp != blk.ncomp:
                raise ValueError(f"block {blk.name!r} has {blk.ncomp} components on "
                                 f"{blk.mesh}, its solution {sol.ncomp} on {sol.mesh}")
            flat = sol.coeffs.transpose(1, 0, 2).ravel()
            x[off:off + flat.size] = flat
        x[self.param_offset:] = np.asarray(params, dtype=float)
        return x

    def block_coeffs(self, x: np.ndarray, b: int) -> np.ndarray:
        """Block b's coefficients in x as an (M, ncomp, k+1) view."""
        blk = self.problem.blocks[b]
        shape = (blk.mesh.intervals, blk.ncomp, blk.mesh.gauss_order + 1)
        return x[self.coeff_offsets[b]:][:np.prod(shape)].reshape(shape)

    def unpack(self, x: np.ndarray):
        params = x[self.param_offset:].copy()
        sols = [PiecewiseSolution(blk.mesh, self.block_coeffs(x, b).transpose(1, 0, 2).copy(),
                                  blk.policy_factory(params))
                for b, blk in enumerate(self.problem.blocks)]
        return sols, params


class _Gather:
    """Gather table of one block: per component (row) and point the absolute
    coefficient base ``Layout.coeff_index(block, idx, c, 0)``, local
    coordinate and sign, and affine terms ``(comp, terms)``."""

    def __init__(self, base, s, sign, affine):
        self.base, self.s, self.sign, self.affine = base, s, sign, affine

    def values(self, x: np.ndarray, k: int, policies) -> np.ndarray:
        """``sign * horner + offset``, as :meth:`PiecewiseSolution.eval`."""
        off = np.zeros(self.s.shape)
        for c, terms in self.affine:
            off[c] = fold_offset(policies[c], terms, off.shape[1:])
        return self.sign * horner(x, self.base, self.s, k) + off


class _Assembler:
    def __init__(self, problem: MfdeProblem):
        problem.validate()
        self.problem = problem
        self.layout = lay = Layout(problem)
        self._plans: dict[object, list] = {}
        # per equation: itself, its slots grouped by the block read, its own
        # derivative's gather base and nodes, and the own-derivative and
        # continuity entries
        self._equations = []
        for eq in problem.equations:
            b = eq.block
            mesh, n = problem.blocks[b].mesh, problem.blocks[b].ncomp
            m, k = mesh.intervals, mesh.gauss_order
            groups = [(sb, [si for si, slot in enumerate(eq.slots) if slot.block == sb])
                      for sb in dict.fromkeys(slot.block for slot in eq.slots)]
            base_rows = lay.colloc_offsets[b] + np.arange(m * k) * n
            point_idx, nodes = np.repeat(np.arange(m), k), np.tile(mesh.gauss_nodes, m)
            own = [(base_rows + c, lay.coeff_index(b, point_idx, c, j),
                    j * nodes ** (j - 1) / mesh.h)
                   for c in range(n) for j in range(1, k + 1)]
            cont = []
            for c in range(n):
                crows = lay.cont_offsets[b] + np.arange(m - 1) * n + c
                cont += [(crows, lay.coeff_index(b, np.arange(m - 1), c, j), np.ones(m - 1))
                         for j in range(k + 1)]
                cont.append((crows, lay.coeff_index(b, np.arange(1, m), c, 0), -np.ones(m - 1)))
            dbase = lay.coeff_index(b, point_idx, np.arange(n)[:, None], 0)
            self._equations.append((eq, groups, dbase, nodes, base_rows, own, cont))
        # probes in boundary-condition order: the constant Jacobian entries
        # of the integral probes, and per block the indices, components and
        # points of its value probes
        probes = [p for bc in problem.boundary_conditions for p in bc.probes]
        self._probe_entries = [None] * len(probes)
        self._integral_probes, value_probes = [], {}
        for f, p in enumerate(probes):
            if p.kind == "value":
                value_probes.setdefault(p.block, []).append((f, p.comp, p.tau))
                continue
            mesh = problem.blocks[p.block].mesh
            js, m = np.arange(mesh.gauss_order + 1), mesh.intervals
            cols = lay.coeff_index(p.block, np.repeat(np.arange(m), len(js)), p.comp,
                                   np.tile(js, m))
            self._probe_entries[f] = cols, np.tile(mesh.h / (js + 1.0), m)
            self._integral_probes.append((f, p))
        self._value_probes = [(b, *map(np.array, zip(*v))) for b, v in value_probes.items()]

    # -- residual ---------------------------------------------------------
    def residual(self, x: np.ndarray) -> np.ndarray:
        return self._assemble(x, want_jac=False)[0]

    def jacobian(self, x: np.ndarray):
        return self._assemble(x, want_jac=True)[:2]

    def factor(self, x: np.ndarray):
        """``(r, lu)``: the residual at x and the :func:`factorize` LU of
        the Jacobian there, split by the unit reads of its entries."""
        r, J, reads = self._assemble(x, want_jac=True)
        lay = self.layout
        return r, factorize(J, diagonal_blocks(lay.row_unit, lay.col_unit, reads))

    def _assemble(self, x: np.ndarray, want_jac: bool):
        lay = self.layout
        prob = self.problem
        params = x[lay.param_offset:].copy()
        policies = [blk.policy_factory(params) for blk in prob.blocks]
        r = np.zeros(lay.size)
        entries = []

        for eq, groups, dbase, nodes, base_rows, own, cont in self._equations:
            b = eq.block
            mesh = prob.blocks[b].mesh
            m, k = mesh.intervals, mesh.gauss_order
            tau = mesh.collocation_points
            npts = tau.size
            slot_vals = [None] * len(eq.slots)
            tables = []
            for sb, slots in groups:
                pts = np.concatenate([tau if eq.slots[si].locate is None
                                      else eq.slots[si].locate(tau, params) for si in slots])
                tab = self._table(("slot", b, sb), sb, policies[sb], pts)
                vals = tab.values(x, prob.blocks[sb].mesh.gauss_order, policies[sb])
                for i, si in enumerate(slots):
                    slot_vals[si] = vals[:, i * npts:(i + 1) * npts]
                tables.append((sb, slots, tab))

            F = np.asarray(eq.rhs(tau, slot_vals, params))
            # own derivative at the collocation points; continuity of the ends
            X = lay.block_coeffs(x, b)
            n = X.shape[1]
            deriv = horner(x, dbase, nodes, k, deriv=1) / mesh.h
            r[lay.colloc_offsets[b]:][:m * k * n] = (deriv - F).T.ravel()
            r[lay.cont_offsets[b]:][:(m - 1) * n] = (X[:-1].sum(axis=2) - X[1:, :, 0]).ravel()
            if want_jac:
                entries += own + self._chain(eq, tables, base_rows, slot_vals, F, params) + cont

        # boundary conditions
        vals, probe_entries = self._probe_values(x, policies, want_jac)
        start = 0
        for q, bc in enumerate(prob.boundary_conditions):
            row, end = lay.bc_offset + q, start + len(bc.probes)
            v = vals[start:end]
            g = float(bc.func(v, params))
            r[row] = g
            if want_jac:
                for pi, (pcols, pdata) in enumerate(probe_entries[start:end]):
                    hv = FD_STEP * max(1.0, abs(v[pi]))
                    v2 = v.copy()
                    v2[pi] += hv
                    dg = (float(bc.func(v2, params)) - g) / hv
                    if dg == 0.0:
                        continue
                    entries.append((np.full(pcols.size, row), pcols, dg * pdata))
            start = end

        if not want_jac:
            return r, None, None

        # free-parameter columns by finite differences of the full residual
        for pj in range(prob.nparams):
            hp = FD_STEP * max(1.0, abs(x[lay.param_offset + pj]))
            xp = x.copy()
            xp[lay.param_offset + pj] += hp
            rp = self._assemble(xp, want_jac=False)[0]
            col = (rp - r) / hp
            nz = np.nonzero(col)[0]
            entries.append((nz, np.full(nz.size, lay.param_offset + pj), col[nz]))

        rows, cols, data = (np.concatenate([np.ravel(e[i]) for e in entries]) for i in range(3))
        J = sp.coo_matrix((data, (rows, cols)), shape=(lay.size, lay.size)).tocsc()
        reads = np.zeros((lay.nunits, lay.nunits), dtype=bool)
        reads[lay.row_unit[rows], lay.col_unit[cols]] = True
        return r, J, reads

    def _table(self, key, b: int, policies, pts: np.ndarray) -> _Gather:
        """The gather table of every component of block b at ``pts``, cached
        under a slot-group or probe key.  A key keeps the plans of its two
        most recent point sets, so the shifted points of a finite-difference
        parameter column (or of a rejected trial step) do not evict those of
        the current iterate.  Policies with the same rules share one
        :meth:`PiecewiseSolution.plan`, their +-1 signs following from its
        reflection counts; an affine policy gets its own, without the
        parameter-dependent offset."""
        entries = self._plans.setdefault(key, [])
        for i, (known, plans) in enumerate(entries):
            if np.array_equal(known, pts):
                entries.insert(0, entries.pop(i))
                break
        else:
            entries.insert(0, (pts, {}))
            del entries[2:]
        plans = entries[0][1]
        if policies not in plans:
            sol = PiecewiseSolution.zeros(self.problem.blocks[b].mesh, policies)
            rows = []
            for c, ext in enumerate(policies):
                rules = ("fold", ext if ext.left == "affine" else (ext.left, ext.right))
                if rules not in plans:
                    plans[rules] = ext, sol.plan(pts, c)
                maker, (idx, s, sign, terms, flips) = plans[rules]
                if ext != maker:
                    sign = np.where(sign == 0.0, 0.0,
                                    ext.left_sign ** flips[0] * ext.right_sign ** flips[1])
                rows.append((idx, s, sign, terms))
            idx, s, sign, terms = zip(*rows)
            comps = np.arange(len(policies))[:, None]
            plans[policies] = _Gather(self.layout.coeff_index(b, np.array(idx), comps, 0),
                                      np.array(s), np.array(sign),
                                      [(c, t) for c, t in enumerate(terms) if t])
        return plans[policies]

    def _chain(self, eq, tables, base_rows, slot_vals, F, params):
        """Entries ``-dF/d(slot value) * d(slot value)/d(coefficient)``.  The
        points are repeated once per component of a slot, so ``eq.rhs`` runs
        once per slot; entries come ordered by slot (grouped by the block
        read), component, rhs component, power and point."""
        tau = self.problem.blocks[eq.block].mesh.collocation_points
        npts = tau.size
        out = []
        for sb, slots, tab in tables:
            powers = np.arange(self.problem.blocks[sb].mesh.gauss_order + 1)
            for i, si in enumerate(slots):
                u = slot_vals[si]
                n = len(u)
                h = FD_STEP * np.maximum(1.0, np.abs(u))
                pert = [np.tile(v, n) for v in slot_vals]
                for c in range(n):
                    pert[si][c, c * npts:(c + 1) * npts] = u[c] + h[c]
                F2 = np.asarray(eq.rhs(np.tile(tau, n), pert, params))
                sens = (F2.reshape(len(F), n, npts).transpose(1, 0, 2) - F) / h[:, None, :]
                c, ct = np.nonzero(sens.any(axis=2))
                cols = slice(i * npts, (i + 1) * npts)
                s = tab.s[c, cols]
                pows = np.stack([s ** j for j in powers], axis=1)
                data = ((-sens[c, ct]) * tab.sign[c, cols])[:, None, :] * pows
                out.append((np.broadcast_to((base_rows + ct[:, None])[:, None, :], data.shape),
                            tab.base[c, cols][:, None, :] + powers[:, None], data))
        return out

    def _probe_values(self, x: np.ndarray, policies, want_jac: bool):
        """Every probe's value and, with ``want_jac``, the constant
        ``(cols, data)`` of its Jacobian entries, in boundary-condition
        order.  The value probes on one block are one point set of one
        gather table."""
        blocks, lay = self.problem.blocks, self.layout
        vals = np.empty(len(self._probe_entries))
        entries = list(self._probe_entries) if want_jac else None
        for b, where, comps, pts in self._value_probes:
            tab = self._table(("probe", b), b, policies[b], pts)
            j = np.arange(pts.size)
            vals[where] = tab.values(x, blocks[b].mesh.gauss_order, policies[b])[comps, j]
            if want_jac:
                js = np.arange(blocks[b].mesh.gauss_order + 1)
                for f, c, i in zip(where, comps, j):
                    entries[f] = tab.base[c, i] + js, tab.sign[c, i] * tab.s[c, i] ** js
        for f, p in self._integral_probes:
            vals[f] = interval_integral(lay.block_coeffs(x, p.block)[:, p.comp],
                                        blocks[p.block].mesh.h)
        return vals, entries


def assemble_residual(problem: MfdeProblem, solutions: Sequence[PiecewiseSolution],
                      params) -> np.ndarray:
    """Stacked residual of a candidate: collocation and continuity equations
    per block, then the boundary functionals.  Length equals the unknown
    count."""
    asm = _Assembler(problem)
    return asm.residual(asm.layout.pack(solutions, params))


def _lu_assembler(problem: MfdeProblem) -> _Assembler:
    """The assembler of a call that factorizes, within ``MAX_UNKNOWNS``."""
    asm = _Assembler(problem)
    if asm.layout.size > MAX_UNKNOWNS:
        raise ProblemSizeError(f"{asm.layout.size} unknowns exceed the cap {MAX_UNKNOWNS}")
    return asm


def solve_newton(problem: MfdeProblem, guesses: Sequence[PiecewiseSolution],
                 params, reuse: FactorCache | None = None):
    """Chord Newton iteration with damped Newton fallback.

    Each iteration first tries the full chord step ``lu.solve(-r)`` from the
    current factorization (one carried in by ``reuse``, or the one made
    earlier in this solve) and keeps it when the true max-norm residual drops
    to at most ``CHORD_RHO`` times its previous value.  Otherwise the
    Jacobian is assembled and factorized at the current iterate and a Newton
    step is taken with damping halvings until the residual decreases.  A
    chord step is tried only from a carried-in LU or after an undamped step,
    so a solve that needs damping does not pay for chord attempts that
    cannot contract.  Chord and Newton steps both count toward ``MAX_ITER``
    and the reported iterations, and the solve converges at ``TOL``.  On
    convergence the last factorization is stored in ``reuse``.

    Returns ``(solutions, params, report)``.  Raises
    :class:`NonConvergenceError` (carrying the final residual norm) when the
    iteration budget is exhausted, :class:`SingularJacobianError` when the
    sparse factorization fails and :class:`ProblemSizeError` above
    ``MAX_UNKNOWNS`` unknowns.
    """
    asm = _lu_assembler(problem)
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
        return sols, p, NewtonReport(iterations, norm, factorizations)

    for it in range(MAX_ITER):
        if norm <= TOL:
            return done(it)
        if try_chord:
            chord = _try_step(asm, x, lu.solve(-r))
            if chord is not None and chord[0] <= CHORD_RHO * norm:
                norm, x, r = chord
                continue
        _, lu = asm.factor(x)
        factorizations += 1
        step = _solve(lu, -r)
        lam = 1.0
        best = None
        for _ in range(MAX_HALVINGS + 1):
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
    if norm <= TOL:
        return done(MAX_ITER)
    raise NonConvergenceError(
        f"Newton did not reach tol={TOL:g} in {MAX_ITER} iterations "
        f"(residual {norm:.3e})", norm, MAX_ITER)


def factorize(J, blocks=None):
    """Sparse LU of ``J``; a failed factorization raises
    :class:`SingularJacobianError`.

    ``blocks`` is ``(row_block, col_block)`` from :func:`diagonal_blocks`:
    J is then factored one diagonal block at a time (:class:`BlockLU`).
    With None, J gets one ``splu`` of the whole matrix.
    """
    try:
        if blocks is None:
            return spla.splu(J)
        return BlockLU(J, *blocks)
    except RuntimeError as exc:
        raise SingularJacobianError(f"sparse LU failed: {exc}") from exc


def diagonal_blocks(row_unit, col_unit, reads):
    """``(row_block, col_block)``: the diagonal block of every row and
    column of a block lower-triangular matrix, numbered in solve order, or
    None for one block.

    ``row_unit`` and ``col_unit`` give the unit of every row and column, and
    ``reads[u, v]`` is set when a row of unit u has an entry in a column of
    unit v.  A maximum flow from row units (their rows as supply) to column
    units (their columns as demand) along ``reads`` matches rows to
    columns.  The strongly connected components of "u reads v" together
    with "v's columns carry rows of u" are the diagonal blocks; each is
    square, and its rows read only its own columns and those of blocks
    solved before it.  A flow that cannot place every row means the matrix
    is structurally singular, which is left to ``splu`` to report.  The
    last few splits are cached on the bytes of the three arrays, so the
    arrays returned are read-only.
    """
    return _split(np.asarray(row_unit, np.intp).tobytes(),
                  np.asarray(col_unit, np.intp).tobytes(),
                  np.asarray(reads, bool).tobytes(), len(reads))


@functools.lru_cache(maxsize=8)
def _split(row_unit: bytes, col_unit: bytes, reads: bytes, nu: int):
    row_unit, col_unit = (np.frombuffer(u, np.intp) for u in (row_unit, col_unit))
    reads = np.frombuffer(reads, bool).reshape(nu, nu)
    supply = np.bincount(row_unit, minlength=nu)
    # network: source 0, row units 1..nu, column units nu+1..2nu, sink 2nu+1
    cap = np.zeros((2 * nu + 2, 2 * nu + 2), dtype=np.int32)
    cap[0, 1:nu + 1] = supply
    cap[1:nu + 1, nu + 1:-1] = np.where(reads, supply[:, None], 0)
    cap[nu + 1:-1, -1] = np.bincount(col_unit, minlength=nu)
    res = csgraph.maximum_flow(sp.csr_matrix(cap), 0, 2 * nu + 1)
    if res.flow_value < row_unit.size:
        return None
    carries = res.flow.toarray()[1:nu + 1, nu + 1:-1] > 0
    graph = sp.csr_matrix(reads | carries.T)
    ncomp, comp = csgraph.connected_components(graph, connection="strong")
    if ncomp == 1:
        return None
    # a unit reaches every unit its dependencies reach, and more, so
    # ordering components by reach count solves dependencies first
    reach = np.isfinite(csgraph.shortest_path(graph, unweighted=True)).sum(axis=1)
    first = np.full(ncomp, nu)
    np.minimum.at(first, comp, np.arange(nu))
    _, block = np.unique(reach * nu + first[comp], return_inverse=True)
    rows, cols = block[row_unit], block[col_unit]
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


class BlockLU:
    """LU of a block lower-triangular matrix: one ``splu`` per diagonal
    block, and block forward substitution in :meth:`solve`.  Like scipy's
    ``SuperLU`` it has ``shape`` and ``solve``; ``factors`` holds the
    blocks' LUs in solve order."""

    def __init__(self, J, row_block, col_block):
        self.shape = J.shape
        self._rows = np.argsort(row_block, kind="stable")
        self._cols = np.argsort(col_block, kind="stable")
        Jp = J[self._rows][:, self._cols]
        ends = np.cumsum(np.bincount(row_block))
        self._spans = list(zip([0, *ends[:-1]], ends))
        self.factors = [spla.splu(Jp[a:e, a:e]) for a, e in self._spans]
        self._lower = [Jp[a:e, :a].tocsr() for a, e in self._spans]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs[self._rows]
        x = np.empty_like(b)
        for (a, e), lu, lower in zip(self._spans, self.factors, self._lower):
            x[a:e] = lu.solve(b[a:e] - lower @ x[:a])
        out = np.empty_like(x)
        out[self._cols] = x
        return out


def _solve(lu, b: np.ndarray) -> np.ndarray:
    """``lu.solve(b)``; a non-finite solution raises
    :class:`SingularJacobianError`."""
    y = lu.solve(b)
    if not np.all(np.isfinite(y)):
        raise SingularJacobianError("linear solve produced non-finite step")
    return y


def euler_predictor(problem: MfdeProblem, shifted: MfdeProblem,
                    solutions: Sequence[PiecewiseSolution], params,
                    dp: float, delta: float, reuse: FactorCache | None = None):
    """First-order (Euler) prediction along a problem parameter lambda.

    ``problem`` is posed at lambda_0 and ``shifted`` at lambda_0 + ``dp`` on
    the same unknowns; ``(solutions, params)`` is a solution of ``problem``.
    The Jacobian J at that point x is assembled and factorized once,
    dR/dlambda is the difference quotient of the two residuals at x, and
    the prediction at lambda_0 + ``delta`` is x + delta t with the tangent
    t = -J^{-1} dR/dlambda.  The LU is stored in ``reuse``, so the solve
    that corrects the prediction starts with chord steps.

    Returns ``(solutions, params)`` of the prediction.  Raises
    :class:`SingularJacobianError` when J cannot be factorized and
    :class:`ProblemSizeError` above ``MAX_UNKNOWNS`` unknowns.
    """
    asm = _lu_assembler(problem)
    lay = asm.layout
    x = lay.pack(solutions, params)
    r, lu = asm.factor(x)
    dr = (_Assembler(shifted).residual(x) - r) / dp
    t = _solve(lu, -dr)
    if reuse is not None:
        reuse.lu = lu
    return lay.unpack(x + delta * t)


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
                params) -> np.ndarray:
    """Dense column-by-column finite-difference Jacobian (test oracle).

    Step per column: ``FD_STEP * max(1, |x_i|)``.  Intended for small
    problems; cost is one residual evaluation per unknown.
    """
    asm = _Assembler(problem)
    x = asm.layout.pack(solutions, params)
    r0 = asm.residual(x)
    J = np.empty((x.size, x.size))
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        J[:, i] = (asm.residual(xp) - r0) / h
    return J


def structural_jacobian(problem: MfdeProblem, solutions, params):
    """The sparse Jacobian used by :func:`solve_newton` (dense for tests)."""
    asm = _Assembler(problem)
    x = asm.layout.pack(solutions, params)
    _, J = asm.jacobian(x)
    return J.toarray()


def refined_collocation_norm(problem: MfdeProblem, solutions, params) -> float:
    """Infinity norm of the collocation residual re-evaluated on meshes with
    twice as many intervals (discretization-error monitor)."""
    fine_blocks = tuple(
        replace(b, mesh=Mesh(b.mesh.length, b.mesh.intervals * 2,
                             b.mesh.gauss_order))
        for b in problem.blocks)
    fine = replace(problem, blocks=fine_blocks)
    fine_sols = [sol.resample(blk.mesh) for sol, blk in zip(solutions, fine_blocks)]
    asm = _Assembler(fine)
    r = asm.residual(asm.layout.pack(fine_sols, params))
    colloc = [r[o:o + b.ncomp * b.mesh.intervals * b.mesh.gauss_order]
              for o, b in zip(asm.layout.colloc_offsets, fine_blocks)]
    return float(np.max(np.abs(np.concatenate(colloc))))
