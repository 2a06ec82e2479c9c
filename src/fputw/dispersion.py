"""Characteristic functions of the linearized diatomic traveling-wave problem.

All quantities are expressed in the symmetrized coordinates with mass
deviation ``mu = 1/m - 1``.  The 2x2 characteristic matrix is kept in its
real symmetric form

    M(omega; c, mu) = [[-c^2 w^2 + (2+mu)(1-cos w),  mu sin w],
                       [ mu sin w,                   -c^2 w^2 + (2+mu)(1+cos w)]],

whose null vector (nu1, nu2) generates the real linear mode
``(nu1 cos(w xi), nu2 sin(w xi))``; its determinant equals the product
B_- * B_+ of the two dispersion branches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DispersionRangeError, NoBracketError

_BOUNDARY_SLACK = 1e-12


def sound_speed(mu):
    """Critical speed C_mu = sqrt(2(1+mu)/(2+mu)); equals sqrt(2/(1+m))."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= -1.0):
        raise DispersionRangeError("mu must exceed -1")
    out = np.sqrt(2.0 * (1.0 + mu) / (2.0 + mu))
    return float(out) if out.ndim == 0 else out


def lambda_pm(omega, mu, sign: int):
    """Branch values 2 + mu +/- sqrt(mu^2 + 4(1+mu) cos^2 omega)."""
    if mu <= -1.0:
        raise DispersionRangeError("mu must exceed -1")
    root = np.sqrt(mu * mu + 4.0 * (1.0 + mu) * np.cos(omega) ** 2)
    return 2.0 + mu + sign * root


def b_pm(omega, c, mu, sign: int):
    """Dispersion function B_+/- = -c^2 omega^2 + lambda_mu^{+/-}(omega)."""
    return -(c * omega) ** 2 + lambda_pm(omega, mu, sign)


def b_plus_prime(omega, c, mu):
    """Analytic d B_+ / d omega.

    Rejected at the nonsmooth point cos(omega) = 0 when mu = 0, where the
    square root |cos| has a kink.
    """
    root = np.sqrt(mu * mu + 4.0 * (1.0 + mu) * np.cos(omega) ** 2)
    if root < 1e-9:
        raise DispersionRangeError(
            "B_+ is not differentiable where mu = 0 and cos(omega) = 0")
    dlam = -2.0 * (1.0 + mu) * np.sin(2.0 * omega) / root
    return -2.0 * c * c * omega + dlam


def char_matrix(omega, c, mu) -> np.ndarray:
    """Real symmetric form of the 2x2 characteristic matrix."""
    b1 = -(c * omega) ** 2 + (2.0 + mu) * (1.0 - np.cos(omega))
    b2 = -(c * omega) ** 2 + (2.0 + mu) * (1.0 + np.cos(omega))
    d = mu * np.sin(omega)
    return np.array([[b1, d], [d, b2]])


def det_char(omega, c, mu):
    """det of the characteristic matrix, built from its entries (equals
    the product b_pm(+) * b_pm(-) by the factorization identity)."""
    M = char_matrix(omega, c, mu)
    return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]


@dataclass(frozen=True)
class CriticalMode:
    """Positive root of B_+ with its unit real eigenvector."""

    omega: float
    nu1: float
    nu2: float
    c: float
    mu: float

    @property
    def nu(self) -> np.ndarray:
        return np.array([self.nu1, self.nu2])

    def linear_profile(self, xi):
        """The linearized periodic solution (nu1 cos(w xi), nu2 sin(w xi))."""
        xi = np.asarray(xi, dtype=float)
        return (self.nu1 * np.cos(self.omega * xi),
                self.nu2 * np.sin(self.omega * xi))


def _bracket_first_root(f, lo, hi_seed):
    hi = hi_seed
    flo = f(lo)
    if flo <= 0.0:
        raise NoBracketError("B_+ not positive at the bracket start")
    for _ in range(200):
        if f(hi) < 0.0:
            return lo, hi
        lo_new = hi
        hi *= 1.5
        if f(lo_new) > 0.0:
            lo = lo_new
    raise NoBracketError("no sign change found for B_+")


def critical_frequency(c, mu) -> CriticalMode:
    """Unique positive root of B_+ and its eigenvector.

    Requires ``c >= C_mu`` (the closed endpoint is admitted: the root still
    exists there, and the equal-mass anchor lives exactly at c = C_0 = 1).
    The eigenvector convention is nu2 > 0 (nu1 > 0 on ties), matching the
    (0, 1) anchor at mu = 0.
    """
    cmu = sound_speed(mu)
    if c < cmu - _BOUNDARY_SLACK:
        raise NoBracketError(f"wave speed {c} below the sound speed C_mu={cmu:.6f}")

    def f(w):
        return b_pm(w, c, mu, +1)

    lo, hi = _bracket_first_root(f, 1e-8, max(np.pi / c, 0.1))
    omega = brentq(f, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    # Newton polish away from the mu=0 kink at cos = 0
    for _ in range(3):
        try:
            dp = b_plus_prime(omega, c, mu)
        except DispersionRangeError:
            break
        omega -= f(omega) / dp
    M = char_matrix(omega, c, mu)
    r1, r2 = M[0], M[1]
    row = r1 if np.dot(r1, r1) >= np.dot(r2, r2) else r2
    nu = np.array([-row[1], row[0]])
    nu /= np.linalg.norm(nu)
    if nu[1] < 0.0 or (nu[1] == 0.0 and nu[0] < 0.0):
        nu = -nu
    return CriticalMode(float(omega), float(nu[0]), float(nu[1]), float(c),
                        float(mu))


def jost_frequency(sigma) -> float:
    """Root of sigma^2 w^2 = 2 + 2 cos(w) on (0, pi).

    Defined for sigma >= 1 (the endpoint gives the equal-mass anchor
    omega = 1.478170266...); sigma < 1 is rejected.
    """
    if sigma < 1.0 - _BOUNDARY_SLACK:
        raise DispersionRangeError(f"jost frequency requires sigma >= 1, got {sigma}")

    def f(w):
        return (sigma * w) ** 2 - 2.0 - 2.0 * np.cos(w)

    omega = brentq(f, 1e-12, np.pi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    for _ in range(3):
        omega -= f(omega) / (2.0 * sigma * sigma * omega + 2.0 * np.sin(omega))
    return float(omega)
