import numpy as np
import pytest

from fputw import dispersion as dsp
from fputw.errors import DispersionRangeError, NoBracketError


def test_lambda_pm_anchors():
    assert dsp.lambda_pm(0.0, 0.0, -1) == pytest.approx(0.0, abs=1e-14)
    assert dsp.lambda_pm(np.pi / 2, 0.5, +1) == pytest.approx(3.0, abs=1e-12)
    assert dsp.lambda_pm(np.pi / 3, 0.0, +1) == pytest.approx(3.0, abs=1e-12)


def test_b_pm_anchors():
    for c, mu in [(1.2, 0.0), (1.7, -0.4), (2.0, 1.5)]:
        assert dsp.b_pm(0.0, c, mu, -1) == pytest.approx(0.0, abs=1e-13)
        assert dsp.b_pm(0.0, c, mu, +1) == pytest.approx(2.0 * (2.0 + mu), rel=1e-13)


def test_b_plus_prime_fd_oracle():
    w, c, mu = 1.0, 1.5, -0.5
    h = 1e-6
    fd = (dsp.b_pm(w + h, c, mu, +1) - dsp.b_pm(w - h, c, mu, +1)) / (2 * h)
    assert abs(dsp.b_plus_prime(w, c, mu) - fd) / abs(fd) < 1e-6


def test_b_plus_prime_rejects_kink():
    with pytest.raises(DispersionRangeError):
        dsp.b_plus_prime(np.pi / 2, 1.2, 0.0)


def test_factorization_identity(rng):
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(-0.9, 3.0)
        c = rng.uniform(dsp.sound_speed(mu) + 0.05, 3.0)
        w = rng.uniform(0.01, 4.0)
        det = dsp.det_char(w, c, mu)
        prod = dsp.b_pm(w, c, mu, +1) * dsp.b_pm(w, c, mu, -1)
        worst = max(worst, abs(det - prod) / max(1.0, abs(prod)))
    assert worst < 1e-12


def test_sound_speed_identity(rng):
    for m in rng.uniform(0.05, 2.0, size=20):
        mu = 1.0 / m - 1.0
        assert dsp.sound_speed(mu) == pytest.approx(np.sqrt(2.0 / (1.0 + m)),
                                                    rel=4e-16, abs=0.0)


def test_root_uniqueness_scan():
    for c, mu in [(1.1, 0.0), (1.5, -0.5), (1.8, 1.0), (2.5, 3.0)]:
        grid = np.arange(1e-3, 8.0, 1e-3)
        vals = dsp.b_pm(grid, c, mu, +1)
        crossings = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert crossings == 1


def test_eigenvector_residual(rng):
    for _ in range(20):
        mu = rng.uniform(-0.9, 2.0)
        c = rng.uniform(dsp.sound_speed(mu) + 0.05, 2.5)
        mode = dsp.critical_frequency(c, mu)
        M = dsp.char_matrix(mode.omega, c, mu)
        assert np.linalg.norm(M @ mode.nu) < 1e-10
        assert np.hypot(mode.nu1, mode.nu2) == pytest.approx(1.0, abs=1e-14)


def test_equal_mass_anchor():
    mode = dsp.critical_frequency(1.0, 0.0)
    assert abs(mode.omega - 1.478170266) < 1e-6
    assert (mode.nu1, mode.nu2) == (0.0, 1.0)


def test_large_speed_asymptote():
    # independent bisection oracle for c^2 w^2 = 2 + 2 cos w at c = 100
    c = 100.0
    f = lambda w: (c * w) ** 2 - 2.0 - 2.0 * np.cos(w)
    lo, hi = 1e-6, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    omega = dsp.critical_frequency(c, 0.0).omega
    assert 0.0199 < omega < 0.0201
    assert omega == pytest.approx(oracle, abs=1e-10)


def test_no_bracket_below_sound_speed():
    with pytest.raises(NoBracketError):
        dsp.critical_frequency(0.9, 0.0)


def test_jost_frequency_anchor_and_limits():
    assert abs(dsp.jost_frequency(1.0) - 1.478170266) < 1e-6
    # sigma = sqrt(2): residual of the defining equation below 1e-12
    w = dsp.jost_frequency(np.sqrt(2.0))
    assert abs(2.0 * w * w - 2.0 - 2.0 * np.cos(w)) < 1e-12
    assert dsp.jost_frequency(10.0) < dsp.jost_frequency(2.0)
    with pytest.raises(DispersionRangeError):
        dsp.jost_frequency(0.99)


def test_jost_consistent_with_critical():
    for sigma in (1.05, 1.2, 1.6):
        assert dsp.jost_frequency(sigma) == pytest.approx(
            dsp.critical_frequency(sigma, 0.0).omega, abs=1e-12)
