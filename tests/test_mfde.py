import numpy as np
import pytest
from scipy.special import lambertw

from fputw.errors import (BoundaryCountError, NonConvergenceError,
                          ProblemSizeError, SingularJacobianError)
from fputw.mfde import (BoundaryCondition, BoundaryProbe, EquationBlock,
                        FactorCache, FunctionBlockSpec, MfdeProblem,
                        NewtonConfig, SlotSpec, assemble_residual, fd_jacobian,
                        refined_collocation_norm, solve_newton,
                        structural_jacobian, value_bc)
from fputw.solution import Extension, Mesh, PiecewiseSolution


def scalar_problem(mesh, rhs, bcs, nparams=0, policy=None):
    pol = policy or (lambda p: (Extension.interior_only(),))
    blk = FunctionBlockSpec("u", mesh, 1, pol)
    eq = EquationBlock(0, (SlotSpec(0),), rhs)
    return MfdeProblem((blk,), (eq,), nparams, bcs)


def test_trivial_constant_zero_iterations():
    mesh = Mesh(2.0, 8, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),))
    guess = PiecewiseSolution.from_callables(mesh, [lambda t: np.ones_like(t)],
                                             (Extension.interior_only(),))
    sols, params, rep = solve_newton(prob, [guess], [])
    assert rep.converged and rep.iterations <= 1
    assert sols[0].eval(1.7, 0) == pytest.approx(1.0, abs=1e-12)


def test_zero_candidate_boundary_entry():
    mesh = Mesh(2.0, 8, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),))
    zero = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    r = assemble_residual(prob, [zero], [])
    assert r[-1] == pytest.approx(-1.0)
    assert np.max(np.abs(r[:-1])) == 0.0
    # residual length equals the unknown count
    assert r.size == 8 * 4


def test_exact_solution_residual_small():
    mesh = Mesh(2.0, 16, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),))
    exact = PiecewiseSolution.from_callables(mesh, [lambda t: np.ones_like(t)],
                                             (Extension.interior_only(),))
    assert np.max(np.abs(assemble_residual(prob, [exact], []))) < 1e-12


def test_boundary_count_enforced_before_iteration():
    mesh = Mesh(2.0, 8, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0), value_bc(0, 0, 2.0, 0.0)))
    guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    with pytest.raises(BoundaryCountError):
        solve_newton(prob, [guess], [])


def test_problem_size_cap():
    mesh = Mesh(2.0, 64, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),))
    guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    with pytest.raises(ProblemSizeError):
        solve_newton(prob, [guess], [], NewtonConfig(max_unknowns=100))


def test_nonconvergence_carries_residual():
    # u' = 1 + u^2 blows up before tau = 4; no solution with u(4) finite
    mesh = Mesh(4.0, 16, 3)
    prob = scalar_problem(mesh, lambda t, s, p: 1.0 + s[0] ** 2,
                          (value_bc(0, 0, 0.0, 0.0),))
    guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    with pytest.raises(NonConvergenceError) as err:
        solve_newton(prob, [guess], [], NewtonConfig(max_iter=8))
    assert err.value.residual_norm > 0


def test_singular_jacobian_detected():
    # free parameter that the residual never uses -> singular column
    mesh = Mesh(2.0, 8, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),
                           value_bc(0, 0, 2.0, 1.0)), nparams=1)
    guess = PiecewiseSolution.from_callables(mesh, [lambda t: 0.9 * np.ones_like(t)],
                                             (Extension.interior_only(),))
    with pytest.raises(SingularJacobianError):
        solve_newton(prob, [guess], [0.5])


# ---------------------------------------------------------------------------
# delay equation with analytic oracle
# ---------------------------------------------------------------------------

LAM = complex(lambertw(-1.0))


def delay_exact(t):
    return np.exp(LAM.real * t) * np.cos(LAM.imag * t)


def delay_problem(M):
    mesh = Mesh(2.0, M, 3)
    pol = lambda p: (Extension.prescribed_left(delay_exact),)
    blk = FunctionBlockSpec("u", mesh, 1, pol)
    eq = EquationBlock(0, (SlotSpec(0, lambda t, p: t - 1.0),),
                       lambda t, s, p: -s[0])
    return mesh, MfdeProblem((blk,), (eq,), 0, (value_bc(0, 0, 0.0, 1.0),))


def test_delay_analytic_residual_refines():
    norms = []
    for M in (32, 64):
        mesh, prob = delay_problem(M)
        cand = PiecewiseSolution.from_callables(
            mesh, [delay_exact], (Extension.prescribed_left(delay_exact),))
        norms.append(np.max(np.abs(assemble_residual(prob, [cand], []))))
    assert norms[1] < 1e-6
    assert norms[0] / norms[1] > 6.0   # interpolant residual is O(h^3)


def test_delay_solve_matches_analytic():
    mesh, prob = delay_problem(64)
    guess = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.ones_like(t)],
        (Extension.prescribed_left(delay_exact),))
    sols, _, rep = solve_newton(prob, [guess], [])
    assert rep.converged
    err = np.max(np.abs(sols[0].eval(mesh.knots, 0) - delay_exact(mesh.knots)))
    assert err < 1e-10


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,min_order", [(2, 3.0), (3, 5.0)])
def test_gauss_collocation_order(k, min_order):
    # manufactured: u' = 3 cos(3 tau), u(0) = 0 -> u = sin(3 tau)
    errs = []
    Ms = (8, 16, 32, 64)
    for M in Ms:
        mesh = Mesh(2.0, M, k)
        blk = FunctionBlockSpec("u", mesh, 1, lambda p: (Extension.interior_only(),))
        eq = EquationBlock(0, (SlotSpec(0),),
                           lambda t, s, p: (3.0 * np.cos(3.0 * t))[None, :])
        prob = MfdeProblem((blk,), (eq,), 0, (value_bc(0, 0, 0.0, 0.0),))
        guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
        sols, _, _ = solve_newton(prob, [guess], [])
        kn = mesh.knots
        errs.append(np.max(np.abs(sols[0].eval(kn, 0) - np.sin(3.0 * kn))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # empirical order at the mesh points, measured over three refinements
    assert np.all(orders > min_order)


# ---------------------------------------------------------------------------
# structural jacobian vs column-by-column finite differences
# ---------------------------------------------------------------------------

def mixed_problem():
    mesh = Mesh(3.0, 6, 2)
    pol = lambda p: (Extension.even_zero(), Extension.odd_zero())
    blk = FunctionBlockSpec("v", mesh, 2, pol)

    def rhs(t, s, p):
        u0, up, um = s
        return np.stack([u0[1],
                         -p[0] * (2 * (u0[0] + u0[0] ** 2) - up[0] - um[0]
                                  + 0.3 * up[1])])

    eq = EquationBlock(0, (SlotSpec(0),
                           SlotSpec(0, lambda t, p: t + 0.7 * p[1]),
                           SlotSpec(0, lambda t, p: t - 0.7 * p[1])), rhs)
    bcs = (value_bc(0, 0, 0.0, 0.125),
           value_bc(0, 1, 0.0, 0.0),
           BoundaryCondition((BoundaryProbe(0, 0, "value", 3.0),
                              BoundaryProbe(0, 0, "integral")),
                             lambda v, p: v[0] ** 2 + 0.5 * v[1] - 0.01),
           BoundaryCondition((BoundaryProbe(0, 1, "value", 3.0),),
                             lambda v, p: v[0] - 0.02 * p[0]))
    return mesh, pol, MfdeProblem((blk,), (eq,), 2, bcs)


def test_structural_jacobian_matches_fd_oracle(rng):
    mesh, pol, prob = mixed_problem()
    cand = PiecewiseSolution(mesh, 0.1 * rng.standard_normal((2, 6, 3)), pol(None))
    params = np.array([1.3, 1.1])
    J_fd = fd_jacobian(prob, [cand], params)
    J_st = structural_jacobian(prob, [cand], params)
    scale = max(1.0, np.max(np.abs(J_fd)))
    assert np.max(np.abs(J_fd - J_st)) / scale < 1e-6


def test_sparsity_probe_constant_shift(rng):
    mesh, pol, prob = mixed_problem()
    coeffs = 0.1 * rng.standard_normal((2, 6, 3))
    params = np.array([1.3, 1.1])
    base = assemble_residual(prob, [PiecewiseSolution(mesh, coeffs, pol(None))], params)
    pert = coeffs.copy()
    pert[0, 3, 1] += 1e-4
    changed = assemble_residual(prob, [PiecewiseSolution(mesh, pert, pol(None))], params)
    touched = np.nonzero(np.abs(changed - base) > 1e-14)[0]
    # interval 3 influences its own rows, shifted-stencil rows, continuity
    # neighbors and the nonlinear/integral boundary rows -- a strict subset
    assert 0 < touched.size < base.size / 2


def test_determinism_bitwise():
    mesh, prob = delay_problem(32)
    guess = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.ones_like(t)],
        (Extension.prescribed_left(delay_exact),))
    a, pa, _ = solve_newton(prob, [guess], [])
    b, pb, _ = solve_newton(prob, [guess], [])
    assert np.array_equal(a[0].coeffs, b[0].coeffs)
    assert np.array_equal(pa, pb)


def test_refined_collocation_norm_smoke():
    mesh, prob = delay_problem(32)
    guess = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.ones_like(t)],
        (Extension.prescribed_left(delay_exact),))
    sols, params, _ = solve_newton(prob, [guess], [])
    assert refined_collocation_norm(prob, sols, params) < 1e-5


# ---------------------------------------------------------------------------
# chord iteration and factorization reuse
# ---------------------------------------------------------------------------

def delay_guess(mesh):
    return PiecewiseSolution.from_callables(
        mesh, [lambda t: np.ones_like(t)],
        (Extension.prescribed_left(delay_exact),))


def test_factor_cache_of_other_size_ignored():
    small_mesh, small = delay_problem(16)
    mesh, prob = delay_problem(32)
    factors = FactorCache()
    solve_newton(small, [delay_guess(small_mesh)], [], reuse=factors)
    small_lu = factors.lu
    assert small_lu.shape == (64, 64)
    fresh, _, rep_fresh = solve_newton(prob, [delay_guess(mesh)], [])
    reused, _, rep = solve_newton(prob, [delay_guess(mesh)], [], reuse=factors)
    assert np.array_equal(fresh[0].coeffs, reused[0].coeffs)
    assert rep.factorizations == rep_fresh.factorizations >= 1
    assert factors.lu is not small_lu and factors.lu.shape == (128, 128)


def test_failed_solve_leaves_factor_cache():
    mesh, prob = delay_problem(16)
    factors = FactorCache()
    solve_newton(prob, [delay_guess(mesh)], [], reuse=factors)
    before = factors.lu
    # same unknown count (64), so the cached LU is tried and then replaced
    # inside the solve; the blow-up problem never converges
    blow = scalar_problem(Mesh(4.0, 16, 3), lambda t, s, p: 1.0 + s[0] ** 2,
                          (value_bc(0, 0, 0.0, 0.0),))
    zero = PiecewiseSolution.zeros(Mesh(4.0, 16, 3), (Extension.interior_only(),))
    with pytest.raises(NonConvergenceError):
        solve_newton(blow, [zero], [], NewtonConfig(max_iter=8), reuse=factors)
    assert factors.lu is before


def test_chord_steps_reuse_one_factorization():
    # u' = -u^3 with u(0) = 1: nonlinear, so Newton iterates; chord steps
    # from the first LU carry it to tolerance with fewer factorizations
    mesh = Mesh(2.0, 16, 3)
    prob = scalar_problem(mesh, lambda t, s, p: -s[0] ** 3,
                          (value_bc(0, 0, 0.0, 1.0),))
    guess = PiecewiseSolution.from_callables(
        mesh, [lambda t: 1.0 / np.sqrt(1.0 + 2.0 * t) + 0.01 * t],
        (Extension.interior_only(),))
    sols, _, rep = solve_newton(prob, [guess], [])
    assert rep.converged and rep.residual_norm <= 1e-10
    assert rep.factorizations < rep.iterations
    exact = 1.0 / np.sqrt(1.0 + 2.0 * mesh.knots)
    assert np.max(np.abs(sols[0].eval(mesh.knots, 0) - exact)) < 1e-6
