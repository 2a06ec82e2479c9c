import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, strategies as st
from scipy.special import lambertw

from fputw import mfde
from fputw.errors import (BoundaryCountError, NonConvergenceError,
                          ProblemSizeError, SingularJacobianError)
from fputw.mfde import (BlockLU, BoundaryCondition, BoundaryProbe,
                        EquationBlock, FactorCache, FunctionBlockSpec,
                        MfdeProblem, SlotSpec, assemble_residual,
                        diagonal_blocks, euler_predictor, fd_jacobian,
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
    assert rep.iterations <= 1
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


def test_problem_size_cap(monkeypatch):
    mesh = Mesh(2.0, 64, 3)
    prob = scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                          (value_bc(0, 0, 0.0, 1.0),))
    guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    monkeypatch.setattr(mfde, "MAX_UNKNOWNS", 100)
    with pytest.raises(ProblemSizeError):
        solve_newton(prob, [guess], [])


def test_nonconvergence_carries_residual(monkeypatch):
    # u' = 1 + u^2 blows up before tau = 4; no solution with u(4) finite
    mesh = Mesh(4.0, 16, 3)
    prob = scalar_problem(mesh, lambda t, s, p: 1.0 + s[0] ** 2,
                          (value_bc(0, 0, 0.0, 0.0),))
    guess = PiecewiseSolution.zeros(mesh, (Extension.interior_only(),))
    monkeypatch.setattr(mfde, "MAX_ITER", 8)
    with pytest.raises(NonConvergenceError) as err:
        solve_newton(prob, [guess], [])
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


def test_euler_predictor_follows_linear_family():
    # u' = 0, u(0) = lam: the solution u = lam is linear in lam, so the
    # Euler prediction is exact, and its LU is left for the next solve
    mesh = Mesh(2.0, 8, 3)
    pol = (Extension.interior_only(),)

    def prob(lam):
        return scalar_problem(mesh, lambda t, s, p: np.zeros((1, t.size)),
                              (value_bc(0, 0, 0.0, lam),))

    sol = PiecewiseSolution.from_callables(mesh, [lambda t: 0.5 * np.ones_like(t)], pol)
    cache = FactorCache()
    sols, _ = euler_predictor(prob(0.5), prob(0.501), [sol], [], 1e-3, 0.25,
                              reuse=cache)
    assert np.max(np.abs(sols[0].eval(mesh.knots, 0) - 0.75)) < 1e-9
    assert cache.lu is not None
    _, _, rep = solve_newton(prob(0.75), sols, [], reuse=cache)
    assert rep.factorizations == 0


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


def test_failed_solve_leaves_factor_cache(monkeypatch):
    mesh, prob = delay_problem(16)
    factors = FactorCache()
    solve_newton(prob, [delay_guess(mesh)], [], reuse=factors)
    before = factors.lu
    # same unknown count (64), so the cached LU is tried and then replaced
    # inside the solve; the blow-up problem never converges
    blow = scalar_problem(Mesh(4.0, 16, 3), lambda t, s, p: 1.0 + s[0] ** 2,
                          (value_bc(0, 0, 0.0, 0.0),))
    zero = PiecewiseSolution.zeros(Mesh(4.0, 16, 3), (Extension.interior_only(),))
    monkeypatch.setattr(mfde, "MAX_ITER", 8)
    with pytest.raises(NonConvergenceError):
        solve_newton(blow, [zero], [], reuse=factors)
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
    assert rep.residual_norm <= 1e-10
    assert rep.factorizations < rep.iterations
    exact = 1.0 / np.sqrt(1.0 + 2.0 * mesh.knots)
    assert np.max(np.abs(sols[0].eval(mesh.knots, 0) - exact)) < 1e-6


# ---------------------------------------------------------------------------
# evaluation-plan cache of the assembler
# ---------------------------------------------------------------------------

def _mixed_state(rng, params=(1.3, 1.1)):
    from fputw.mfde import _Assembler
    mesh, pol, prob = mixed_problem()
    cand = PiecewiseSolution(mesh, 0.1 * rng.standard_normal((2, 6, 3)), pol(None))
    asm = _Assembler(prob)
    return prob, asm, asm.layout.pack([cand], np.array(params))


def _fresh(prob):
    from fputw.mfde import _Assembler
    return _Assembler(prob)


def test_plan_cache_hit_is_bitwise_fresh(rng):
    prob, asm, x = _mixed_state(rng)
    r_first = asm.residual(x)
    _, J_first = asm.jacobian(x)
    r_hit = asm.residual(x)
    _, J_hit = asm.jacobian(x)
    r_new = _fresh(prob).residual(x)
    _, J_new = _fresh(prob).jacobian(x)
    assert np.array_equal(r_first, r_new) and np.array_equal(r_hit, r_new)
    assert np.array_equal(J_first.toarray(), J_new.toarray())
    assert np.array_equal(J_hit.toarray(), J_new.toarray())


def test_plan_follows_parameter_dependent_shift(rng):
    # slots 1 and 2 are shifted by 0.7 * p[1]: a new p[1] needs a new plan
    prob, asm, x = _mixed_state(rng)
    r_old = asm.residual(x)
    x2 = x.copy()
    x2[-1] += 0.05
    r_cached = asm.residual(x2)
    assert np.array_equal(r_cached, _fresh(prob).residual(x2))
    assert not np.array_equal(r_cached, r_old)
    # and the first point set is still served exactly
    assert np.array_equal(asm.residual(x), r_old)


def test_plans_shared_and_kept_across_parameter_columns(rng, monkeypatch):
    made = []
    make_plan = PiecewiseSolution.plan

    def counting(sol, pts, comp):
        made.append(comp)
        return make_plan(sol, pts, comp)

    monkeypatch.setattr(PiecewiseSolution, "plan", counting)
    mesh = Mesh(3.0, 6, 2)
    pol = lambda p: (Extension.even_zero(),) * 2
    blk = FunctionBlockSpec("v", mesh, 2, pol)
    eq = EquationBlock(0, (SlotSpec(0), SlotSpec(0, lambda t, p: t + p[0])),
                       lambda t, s, p: np.stack([s[0][1], -s[1][0]]))
    bcs = (value_bc(0, 0, 0.0, 1.0), value_bc(0, 1, 0.0, 0.0),
           value_bc(0, 0, 3.0, 0.0))
    prob = MfdeProblem((blk,), (eq,), 1, bcs)
    cand = PiecewiseSolution(mesh, 0.1 * rng.standard_normal((2, 6, 3)), pol(None))
    asm = mfde._Assembler(prob)
    x = asm.layout.pack([cand], [0.5])
    asm.residual(x)
    # one plan per slot (shared by both components) and per probe point
    assert len(made) == 2 + 2
    asm.jacobian(x)     # the p[0] column shifts slot 1 once more
    assert len(made) == 2 + 2 + 1
    asm.residual(x)     # the unperturbed plans survived that column
    assert len(made) == 5


def test_jost_affine_plan_picks_up_new_offsets():
    from fputw import monatomic as mono
    from fputw.mfde import _Assembler
    cfg = mono.MonatomicConfig(length=8.0, intervals=32)
    prob = mono.joint_problem(1.0, cfg.mesh)
    mesh = cfg.mesh
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: 0.125 / np.cosh(t) ** 2, lambda t: -0.25 * np.tanh(t) / np.cosh(t) ** 2,
               lambda t: t * np.exp(-t), lambda t: (1.0 - t) * np.exp(-t)],
        (Extension.even_zero(),) * 4)
    asm = _Assembler(prob)
    x = asm.layout.pack([sol], [1.05, 0.8, 0.3])
    r_a = asm.residual(x)
    # psi and theta change only the affine offsets of the Jost components,
    # not the fold geometry, so the cached plans are reused with new offsets
    x2 = x.copy()
    x2[-2:] = [0.6, 0.4]
    r_b = asm.residual(x2)
    assert np.array_equal(r_b, _Assembler(prob).residual(x2))
    assert not np.array_equal(r_a, r_b)
    assert np.array_equal(asm.residual(x), r_a)


# ---------------------------------------------------------------------------
# block lower-triangular factorization
# ---------------------------------------------------------------------------

def _joint_seed(kappa):
    """The joint wave + Jost problem at mesh 128 and the seed solve_jost
    starts from: the solved profile plus the default Jost guess."""
    from fputw import monatomic as mono
    cfg = mono.MonatomicConfig(intervals=128)
    wave = mono.solve_profile(kappa, cfg)
    ups, psi0, theta0 = mono._default_jost_seed(cfg.mesh, kappa, wave.sigma)
    seed = PiecewiseSolution(cfg.mesh,
                             np.concatenate([wave.profile.coeffs, ups.coeffs]),
                             (Extension.even_zero(),) * 4)
    return mono.joint_problem(kappa, cfg.mesh), seed, [wave.sigma, psi0, theta0]


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_joint_jacobian_factors_profile_block_first(kappa):
    # the profile rows never read the Jost unknowns: (Phi, Phi', sigma) is
    # the first diagonal block, (Y, Y', psi, theta) the second
    prob, seed, p0 = _joint_seed(kappa)
    asm = _fresh(prob)
    x = asm.layout.pack([seed], p0)
    r, lu = asm.factor(x)
    _, J = asm.jacobian(x)
    assert isinstance(lu, BlockLU)
    assert [f.shape for f in lu.factors] == [(1025, 1025), (1026, 1026)]
    # the reference is the monolithic LU's solve refined once: cond(J) is
    # about 7e7 at kappa = 1, so the unrefined solve alone can miss the exact
    # step by several 1e-12 relative, while the block solve stays near 1e-15
    full = spla.splu(J)
    ref = full.solve(-r)
    ref += full.solve(-r - J @ ref)
    step = lu.solve(-r)
    assert np.max(np.abs(step - ref)) <= 1e-12 * np.max(np.abs(ref))


@given(st.data())
def test_unit_split_is_square_and_lower_triangular(data):
    # a random matrix whose rows and columns are spread over a few units,
    # with entries dropped where the row's unit sits below the column's
    n = data.draw(st.integers(3, 14))
    nu = data.draw(st.integers(2, 5))
    row_unit = np.array(data.draw(st.lists(st.integers(0, nu - 1), min_size=n, max_size=n)))
    col_unit = np.array(data.draw(st.lists(st.integers(0, nu - 1), min_size=n, max_size=n)))
    level = np.array(data.draw(st.lists(st.integers(0, 2), min_size=nu, max_size=nu)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.default_rng(seed)
    mask = (gen.random((n, n)) < 0.3) | np.eye(n, dtype=bool)
    mask &= level[row_unit][:, None] >= level[col_unit][None, :]
    A = np.where(mask, gen.uniform(-1.0, 1.0, (n, n)), 0.0) + 4.0 * np.diag(mask.diagonal())
    assume(abs(np.linalg.det(A)) > 1e-6)
    i, j = np.nonzero(mask)
    reads = np.zeros((nu, nu), dtype=bool)
    reads[row_unit[i], col_unit[j]] = True
    blocks = diagonal_blocks(row_unit, col_unit, reads)
    if blocks is None:
        return
    row_block, col_block = blocks
    assert np.array_equal(np.bincount(row_block), np.bincount(col_block))
    assert np.all(row_block[i] >= col_block[j])
    b = gen.standard_normal(n)
    lu = BlockLU(sp.csc_matrix(A), row_block, col_block)
    assert np.allclose(lu.solve(b), np.linalg.solve(A, b), rtol=1e-9, atol=1e-9)


def test_unit_split_is_found_once_per_structure(monkeypatch):
    # two units, the second reading the first: two blocks
    row_unit = col_unit = np.array([0, 0, 1, 1])
    reads = np.array([[True, False], [True, True]])
    flows = []
    real = mfde.csgraph.maximum_flow
    monkeypatch.setattr(mfde.csgraph, "maximum_flow",
                        lambda *a, **k: flows.append(1) or real(*a, **k))
    mfde._split.cache_clear()
    first = diagonal_blocks(row_unit, col_unit, reads)
    again = diagonal_blocks(row_unit.copy(), col_unit.copy(), reads.copy())
    assert len(flows) == 1
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(b.flags.writeable for b in again)
    # the units reading each other are one block: a new split, and None
    assert diagonal_blocks(row_unit, col_unit, np.ones((2, 2), bool)) is None
    assert len(flows) == 2


def test_profile_jacobian_factors_whole():
    from fputw import monatomic as mono
    cfg = mono.MonatomicConfig(intervals=128)
    asm = _fresh(mono._profile_problem(1.0, cfg.mesh))
    _, lu = asm.factor(asm.layout.pack([mono._sech2_seed(cfg.mesh)], [1.05]))
    assert isinstance(lu, spla.SuperLU)


def test_pack_rejects_solution_on_other_mesh():
    from fputw import monatomic as mono
    prob = mono._profile_problem(1.0, Mesh(32.0, 512, 3))
    with pytest.raises(ValueError, match="512"):
        assemble_residual(prob, [mono._sech2_seed(Mesh(32.0, 256, 3))], [1.05])


def test_singular_diagonal_block_detected(monkeypatch):
    # u' = 0, u(0) = 1 is the first block; v' = u + p with v(0) = 1 stated
    # twice is the second, structurally square but exactly singular
    mesh = Mesh(2.0, 8, 3)
    pol = (Extension.interior_only(),) * 2
    blk = FunctionBlockSpec("uv", mesh, 2, lambda p: pol)
    eq = EquationBlock(0, (SlotSpec(0),),
                       lambda t, s, p: np.stack([0.0 * s[0][0], s[0][0] + p[0]]))
    bcs = (value_bc(0, 0, 0.0, 1.0), value_bc(0, 1, 0.0, 1.0),
           value_bc(0, 1, 0.0, 1.0))
    prob = MfdeProblem((blk,), (eq,), 1, bcs)
    guess = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.ones_like(t), lambda t: 1.0 + t], pol)
    shapes = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    with pytest.raises(SingularJacobianError):
        solve_newton(prob, [guess], [0.5])
    assert shapes == [(32, 32), (33, 33)]


def test_carried_block_factor_drives_chord_steps():
    prob, seed, p0 = _joint_seed(1.0)
    factors = FactorCache()
    sols, params, _ = solve_newton(prob, [seed], p0, reuse=factors)
    carried = factors.lu
    assert isinstance(carried, BlockLU)
    near = PiecewiseSolution(sols[0].mesh, sols[0].coeffs * (1.0 + 1e-6),
                             sols[0].policies)
    again, params2, rep = solve_newton(prob, [near], params, reuse=factors)
    assert rep.iterations >= 1 and rep.factorizations == 0
    assert factors.lu is carried
    assert np.max(np.abs(again[0].coeffs - sols[0].coeffs)) < 1e-9
    assert np.max(np.abs(params2 - params)) < 1e-9


# ---------------------------------------------------------------------------
# gather tables of the assembler against PiecewiseSolution.eval
# ---------------------------------------------------------------------------

def _small_wave_problem(rng):
    """A diatomic wave problem on small meshes with a random candidate: the
    zero-extended solitary policies read at tau +- kappa, the periodic
    ripple policies at omega_P-scaled points several periods out."""
    from fputw import diatomic as di
    mesh = Mesh(4.0, 8, 2)
    pm = di.ParamMap("mu", 0.1)
    prob = di.wave_problem(1.0, pm, mesh, mesh)
    sols = [PiecewiseSolution(mesh, 0.1 * rng.standard_normal((4, 8, 3)), pol)
            for pol in (di.SOLITARY_POLICIES, di.RIPPLE_POLICIES)]
    return prob, sols, pm.pack(1.2, 0.1, 0.01, 2.7)


def _small_joint_problem(rng):
    """The joint wave + Jost problem, whose Jost components fold through
    affine policies, on a small mesh with a random candidate."""
    from fputw import monatomic as mono
    mesh = Mesh(4.0, 8, 2)
    prob = mono.joint_problem(1.0, mesh)
    sol = PiecewiseSolution(mesh, 0.1 * rng.standard_normal((4, 8, 3)),
                            prob.blocks[0].policy_factory([1.05, 0.8, 0.3]))
    return prob, [sol], np.array([1.05, 0.8, 0.3])


@pytest.mark.parametrize("make, moved", [(_small_wave_problem, -1),
                                         (_small_joint_problem, -2)])
def test_gathered_slot_values_equal_eval_bitwise(rng, make, moved):
    from dataclasses import replace
    prob, sols, params = make(rng)
    seen = []

    def recording(rhs):
        def wrapped(tau, slots, p):
            seen.append([np.array(v) for v in slots])
            return rhs(tau, slots, p)
        return wrapped

    prob = replace(prob, equations=tuple(replace(eq, rhs=recording(eq.rhs))
                                         for eq in prob.equations))
    asm = mfde._Assembler(prob)
    x = asm.layout.pack(sols, params)
    x2 = x.copy()
    x2[moved] += 0.05          # omega_P moves the ripple slots, psi the offsets
    for y in (x, x2, x):
        seen.clear()
        asm.residual(y)
        sol_y, p = asm.layout.unpack(y)
        for eq, slots in zip(prob.equations, seen):
            tau = prob.blocks[eq.block].mesh.collocation_points
            for spec, vals in zip(eq.slots, slots):
                pts = tau if spec.locate is None else spec.locate(tau, p)
                src = sol_y[spec.block]
                ref = np.array([src.eval(pts, c) for c in range(src.ncomp)])
                assert np.array_equal(vals.view(np.int64), ref.view(np.int64))


def test_diatomic_structural_jacobian_matches_fd_oracle(rng):
    prob, sols, params = _small_wave_problem(rng)
    J_fd = fd_jacobian(prob, sols, params)
    J_st = structural_jacobian(prob, sols, params)
    scale = max(1.0, np.max(np.abs(J_fd)))
    assert np.max(np.abs(J_fd - J_st)) / scale < 1e-6
