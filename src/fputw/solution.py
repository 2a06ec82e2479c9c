"""Piecewise-polynomial representation of collocation solutions on [0, L].

Each component is stored per mesh interval in the scaled monomial basis

    u(tau) = sum_j c[i, j] * s**j,        s = (tau - i*h) / h in [0, 1],

which reproduces Gauss collocation for any polynomial basis choice.  Values
outside [0, L] are resolved through per-component extension policies:
reflection at 0 (even/odd, optionally with an affine offset such as the Jost
remainder identity), and either zero continuation or a signed reflection
beyond L (the latter encodes 2L-periodic even/odd profiles).  Policies are
applied recursively until the argument lands inside the mesh, so arguments
several periods away fold back correctly.

:func:`horner` and :func:`interval_integral` are the one Horner rule and the
one integral of the package, for :meth:`PiecewiseSolution.eval` and the
collocation assembler alike, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ExtensionCoverageError

_MAX_GAUSS = 5


@dataclass(frozen=True)
class Mesh:
    """Uniform collocation mesh on [0, L].

    Parameters
    ----------
    length : float
        Right endpoint L of the computational interval.
    intervals : int
        Number M of equal subintervals (at least 4).
    gauss_order : int
        Number k of Gauss-Legendre collocation nodes per interval (2..5).
    """

    length: float
    intervals: int
    gauss_order: int = 3

    def __post_init__(self):
        if not 0 < self.length < math.inf:
            raise ValueError(f"mesh length must be positive and finite, got {self.length}")
        if self.intervals < 4:
            raise ValueError(f"need at least 4 intervals, got {self.intervals}")
        if not 2 <= self.gauss_order <= _MAX_GAUSS:
            raise ValueError(f"gauss order must be in [2, {_MAX_GAUSS}], got {self.gauss_order}")

    @property
    def h(self) -> float:
        return self.length / self.intervals

    @cached_property
    def knots(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.intervals + 1)

    @cached_property
    def gauss_nodes(self) -> np.ndarray:
        """Gauss-Legendre nodes mapped to the unit interval (0, 1)."""
        x, _ = np.polynomial.legendre.leggauss(self.gauss_order)
        return 0.5 * (x + 1.0)

    @cached_property
    def collocation_points(self) -> np.ndarray:
        """All M*k collocation points, interval-major."""
        i = np.arange(self.intervals)[:, None]
        return ((i + self.gauss_nodes[None, :]) * self.h).ravel()


@dataclass(frozen=True)
class Extension:
    """Extension policy of one component beyond [0, L].

    Left rule (tau < 0):   u(tau) = left_sign * u(-tau) + left_offset(tau)
    Right rule (tau > L):  "zero" sets the value to 0, "reflect" applies
                           u(tau) = right_sign * u(2L - tau).

    ``left_sign = +1/-1`` with no offset gives the even/odd reflections;
    ``left_sign = 0`` with an offset prescribes an explicit history function.
    ``label`` names affine rules in checkpoint policy lines.
    """

    left: str = "none"          # "none" | "reflect" | "affine"
    left_sign: float = 1.0
    left_offset: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    right: str = "none"         # "none" | "zero" | "reflect"
    right_sign: float = 1.0
    label: str = ""

    # -- common policies -------------------------------------------------
    @staticmethod
    def even_zero() -> "Extension":
        return Extension(left="reflect", left_sign=1.0, right="zero")

    @staticmethod
    def odd_zero() -> "Extension":
        return Extension(left="reflect", left_sign=-1.0, right="zero")

    @staticmethod
    def periodic_even() -> "Extension":
        """Even at 0 and 2L-periodic (reflection-even at L)."""
        return Extension(left="reflect", left_sign=1.0, right="reflect", right_sign=1.0)

    @staticmethod
    def periodic_odd() -> "Extension":
        """Odd at 0 and 2L-periodic (reflection-odd at L)."""
        return Extension(left="reflect", left_sign=-1.0, right="reflect", right_sign=-1.0)

    @staticmethod
    def affine(sign: float, offset: Callable, label: str = "") -> "Extension":
        return Extension(left="affine", left_sign=sign, left_offset=offset,
                         right="zero", label=label)

    @staticmethod
    def prescribed_left(history: Callable) -> "Extension":
        """Explicit history on tau < 0 (delay-equation style)."""
        return Extension(left="affine", left_sign=0.0, left_offset=history,
                         right="zero", label="history")

    @staticmethod
    def interior_only() -> "Extension":
        return Extension()


@cache
def _vandermonde_inv(k: int) -> np.ndarray:
    """Inverse Vandermonde for interpolation at k+1 equispaced local nodes."""
    s = np.linspace(0.0, 1.0, k + 1)
    V = s[:, None] ** np.arange(k + 1)[None, :]
    return np.linalg.inv(V)


def horner(coeffs: np.ndarray, base, s: np.ndarray, k: int,
           deriv: int = 0) -> np.ndarray:
    """d^deriv/ds^deriv of the degree-k polynomials with coefficients
    ``coeffs[base + j]`` (j = 0..k) at s, by Horner's rule from zeros."""
    vals = np.zeros_like(s)
    for j in range(k, deriv - 1, -1):
        term = coeffs[base + j]
        if deriv:
            term = math.prod(range(j - deriv + 1, j + 1)) * term
        vals = vals * s + term
    return vals


def interval_integral(coeffs: np.ndarray, h: float) -> float:
    """Exact integral of interval polynomials ``coeffs`` (M, k+1) of width h."""
    inv = 1.0 / (np.arange(coeffs.shape[1]) + 1.0)
    return float(h * np.sum(np.ascontiguousarray(coeffs) @ inv))


def fold_offset(ext: Extension, terms, shape) -> np.ndarray:
    """Affine offset of folded points: ``sum sign * left_offset(x)`` over
    the ``terms`` of :meth:`PiecewiseSolution.fold`, with policy ``ext``."""
    off = np.zeros(shape)
    for where, x, sign in terms:
        off[where] += sign * ext.left_offset(x)
    return off


@dataclass
class PiecewiseSolution:
    """Collocation representation of n components on a shared mesh.

    ``coeffs`` has shape (ncomp, M, k+1); ``policies`` holds one
    :class:`Extension` per component.
    """

    mesh: Mesh
    coeffs: np.ndarray
    policies: tuple[Extension, ...]

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        n, m, p = self.coeffs.shape
        if m != self.mesh.intervals or p != self.mesh.gauss_order + 1:
            raise ValueError("coefficient array does not match the mesh")
        if len(self.policies) != n:
            raise ValueError("need one extension policy per component")

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[0]

    # -- construction -----------------------------------------------------
    @classmethod
    def from_callables(cls, mesh: Mesh, funcs: Sequence[Callable],
                       policies: Sequence[Extension]) -> "PiecewiseSolution":
        """Interpolate callables on each interval at k+1 equispaced nodes."""
        k = mesh.gauss_order
        vinv = _vandermonde_inv(k)
        s = np.linspace(0.0, 1.0, k + 1)
        pts = (np.arange(mesh.intervals)[:, None] + s[None, :]) * mesh.h  # (M, k+1)
        coeffs = np.empty((len(funcs), mesh.intervals, k + 1))
        for c, f in enumerate(funcs):
            vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
            coeffs[c] = vals @ vinv.T
        return cls(mesh, coeffs, tuple(policies))

    @classmethod
    def zeros(cls, mesh: Mesh, policies: Sequence[Extension]) -> "PiecewiseSolution":
        return cls(mesh, np.zeros((len(policies), mesh.intervals, mesh.gauss_order + 1)),
                   tuple(policies))

    # -- point resolution --------------------------------------------------
    def fold(self, tau: np.ndarray, comp: int):
        """Fold exterior points into [0, L] through the component's policy.

        Returns ``(q, sign, terms, flips)`` with q inside the mesh and
        u(tau) = sign * u(q) + offset; ``sign`` is 0 where a zero rule
        applied.  ``terms`` lists ``(where, x, sign)`` for every left fold
        through an affine rule, from which :func:`fold_offset` builds the
        offset; ``flips`` counts each point's left and right reflections.
        The result depends only on the points and the equality fields of
        the component's policy, never on its ``left_offset``.
        """
        ext = self.policies[comp]
        L = self.mesh.length
        x = np.array(tau, dtype=float, copy=True)
        sign = np.ones_like(x)
        terms = []
        flips = np.zeros((2,) + x.shape, dtype=int)
        if x.size == 0:
            return x, sign, terms, flips
        max_folds = int(np.max(np.abs(x)) / L) + 4
        for _ in range(max_folds):
            left = (x < 0.0) & (sign != 0.0)
            right = (x > L) & (sign != 0.0)
            if not (left.any() or right.any()):
                break
            if left.any():
                if ext.left == "none":
                    raise ExtensionCoverageError(
                        f"component {comp} evaluated at tau < 0 without a left policy")
                if ext.left == "affine":
                    terms.append((left, x[left], sign[left]))
                sign[left] *= ext.left_sign
                flips[0][left] += 1
                x[left] = -x[left]
                right = (x > L) & (sign != 0.0)
            if right.any():
                if ext.right == "none":
                    raise ExtensionCoverageError(
                        f"component {comp} evaluated at tau > L without a right policy")
                if ext.right == "zero":
                    sign[right] = 0.0
                    x[right] = 0.0
                else:
                    sign[right] *= ext.right_sign
                    flips[1][right] += 1
                    x[right] = 2.0 * L - x[right]
        else:
            if (((x < 0.0) | (x > L)) & (sign != 0.0)).any():
                raise ExtensionCoverageError("extension folding did not terminate")
        return x, sign, terms, flips

    # -- evaluation ---------------------------------------------------------
    def _locate(self, q: np.ndarray):
        """Interval index and local coordinate s in [0, 1] of interior points."""
        mesh = self.mesh
        idx = np.clip((q / mesh.h).astype(int), 0, mesh.intervals - 1)
        return idx, q / mesh.h - idx

    def _interior(self, q: np.ndarray, comp: int, deriv: int = 0) -> np.ndarray:
        idx, s = self._locate(q)
        k = self.mesh.gauss_order
        return horner(self.coeffs[comp].ravel(), idx * (k + 1), s, k, deriv) / self.mesh.h ** deriv

    def plan(self, tau: np.ndarray, comp: int):
        """``(idx, s, sign, terms, flips)``: the interval and local coordinate
        of the folded points, and the sign, affine terms and reflection
        counts of :meth:`fold`.  Like the fold, it serves every solution on
        this mesh with an equal policy."""
        q, sign, terms, flips = self.fold(tau, comp)
        idx, s = self._locate(q)
        return idx, s, sign, terms, flips

    def eval(self, tau, comp: int, deriv: int = 0):
        """Evaluate one component, resolving exterior points via its policy.

        Derivative evaluation (deriv > 0) is interior-only; first-order
        recasts carry derivatives as separate components with their own
        policies.
        """
        arr = np.asarray(tau, dtype=float)
        x = np.atleast_1d(arr).ravel().astype(float)
        if deriv == 0:
            idx, s, sign, terms, _ = self.plan(x, comp)
            k = self.mesh.gauss_order
            vals = (sign * horner(self.coeffs[comp].ravel(), idx * (k + 1), s, k)
                    + fold_offset(self.policies[comp], terms, s.shape))
        else:
            if ((x < 0.0) | (x > self.mesh.length)).any():
                raise ExtensionCoverageError("derivative evaluation requires interior points")
            vals = self._interior(x, comp, deriv)
        if arr.ndim == 0:
            return float(vals[0])
        return vals.reshape(arr.shape)

    def integral(self, comp: int) -> float:
        """Exact integral of one component over [0, L]."""
        return interval_integral(self.coeffs[comp], self.mesh.h)

    def sup_norm(self, comp: int) -> float:
        """Largest |value| over 12 equispaced samples per interval."""
        s = np.linspace(0.0, 1.0, 12)
        pts = ((np.arange(self.mesh.intervals)[:, None] + s[None, :]) * self.mesh.h).ravel()
        return float(np.max(np.abs(self._interior(pts, comp))))

    def resample(self, mesh: Mesh) -> "PiecewiseSolution":
        """Re-express the same piecewise polynomials on another mesh.

        Exact (to rounding) when the new mesh is a refinement of the old one.
        """
        L = self.mesh.length
        return PiecewiseSolution.from_callables(
            mesh, [lambda t, c=c: self._interior(np.clip(t, 0.0, L), c)
                   for c in range(self.ncomp)], self.policies)
