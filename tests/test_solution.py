import numpy as np
import pytest
from hypothesis import given, strategies as st

from fputw.errors import ExtensionCoverageError
from fputw.solution import Extension, Mesh, PiecewiseSolution


def test_mesh_widths():
    assert Mesh(32.0, 512, 3).h == pytest.approx(0.0625)
    assert Mesh(32.0, 4, 3).h == pytest.approx(8.0)


def test_mesh_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Mesh(0.0, 16, 3)
    with pytest.raises(ValueError):
        Mesh(1.0, 3, 3)
    with pytest.raises(ValueError):
        Mesh(1.0, 16, 1)
    with pytest.raises(ValueError):
        Mesh(1.0, 16, 6)
    for length in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            Mesh(length, 16, 3)


def test_collocation_points_interval_major():
    mesh = Mesh(2.0, 4, 2)
    pts = mesh.collocation_points
    assert pts.shape == (8,)
    assert np.all(np.diff(pts) > 0)
    assert pts[0] > 0 and pts[-1] < 2.0


@pytest.fixture(scope="module")
def smooth_even():
    mesh = Mesh(8.0, 64, 3)
    f = lambda t: np.exp(-0.5 * t ** 2) * (1 + 0.3 * t ** 2)
    sol = PiecewiseSolution.from_callables(mesh, [f], (Extension.even_zero(),))
    return sol, f


def test_interpolation_accuracy(smooth_even):
    sol, f = smooth_even
    t = np.linspace(0.0, 8.0, 700)
    assert np.max(np.abs(sol.eval(t, 0) - f(t))) < 1e-6


def test_odd_extension_vanishes_at_zero():
    mesh = Mesh(4.0, 8, 3)
    sol = PiecewiseSolution.from_callables(mesh, [np.sin], (Extension.odd_zero(),))
    assert sol.eval(0.0, 0) == pytest.approx(0.0, abs=1e-12)


def test_even_extension_symmetry(smooth_even):
    sol, _ = smooth_even
    t = np.linspace(0.1, 7.9, 40)
    assert np.allclose(sol.eval(-t, 0), sol.eval(t, 0), rtol=0, atol=1e-14)


def test_zero_beyond_right(smooth_even):
    sol, _ = smooth_even
    assert sol.eval(9.0, 0) == 0.0
    assert np.all(sol.eval(np.array([8.001, 12.0, 100.0]), 0) == 0.0)


@given(st.floats(min_value=0.05, max_value=7.95),
       st.integers(min_value=-3, max_value=3))
def test_periodic_even_fold(tau, wrap):
    mesh = Mesh(8.0, 16, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.cos(np.pi * t / 8.0)], (Extension.periodic_even(),))
    # 2L-periodic and even: value at tau + 16*wrap and at -tau must agree
    v = sol.eval(tau, 0)
    assert sol.eval(tau + 16.0 * wrap, 0) == pytest.approx(v, abs=1e-12)
    assert sol.eval(-tau, 0) == pytest.approx(v, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=7.95),
       st.integers(min_value=-3, max_value=3))
def test_periodic_odd_fold(tau, wrap):
    mesh = Mesh(8.0, 16, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.sin(np.pi * t / 8.0)], (Extension.periodic_odd(),))
    v = sol.eval(tau, 0)
    assert sol.eval(tau + 16.0 * wrap, 0) == pytest.approx(v, abs=1e-12)
    assert sol.eval(-tau, 0) == pytest.approx(-v, abs=1e-12)


def test_affine_extension_identity():
    mesh = Mesh(4.0, 16, 3)
    g = lambda x: 0.7 * np.cos(1.3 * x)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: t * np.exp(-t)],
        (Extension.affine(-1.0, g, label="test"),))
    x = -np.linspace(0.1, 3.9, 17)
    expect = -sol.eval(-x, 0) + g(x)
    assert np.allclose(sol.eval(x, 0), expect, atol=1e-13)


def test_missing_policy_raises(smooth_even):
    mesh = Mesh(4.0, 8, 3)
    sol = PiecewiseSolution.from_callables(mesh, [np.cos], (Extension.interior_only(),))
    with pytest.raises(ExtensionCoverageError):
        sol.eval(-0.5, 0)
    with pytest.raises(ExtensionCoverageError):
        sol.eval(4.5, 0)


def test_derivative_requires_interior():
    mesh = Mesh(4.0, 64, 3)
    sol = PiecewiseSolution.from_callables(mesh, [np.cos], (Extension.even_zero(),))
    assert sol.eval(1.0, 0, deriv=1) == pytest.approx(-np.sin(1.0), abs=1e-4)
    with pytest.raises(ExtensionCoverageError):
        sol.eval(-1.0, 0, deriv=1)


def test_integral_exact():
    mesh = Mesh(3.0, 6, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: t ** 3 - 2 * t], (Extension.interior_only(),))
    exact = 3.0 ** 4 / 4 - 3.0 ** 2
    assert sol.integral(0) == pytest.approx(exact, rel=1e-12)


def test_resample_refinement_is_exact():
    mesh = Mesh(2.0, 8, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.sin(2 * t)], (Extension.even_zero(),))
    fine = sol.resample(Mesh(2.0, 16, 3))
    t = np.linspace(0.0, 2.0, 501)
    assert np.max(np.abs(fine.eval(t, 0) - sol.eval(t, 0))) < 1e-13
