"""Pointwise geometry of the complex hyperbolic tangent space.

All vectors are coordinate arrays in a fixed adapted orthonormal basis
e_1, ..., e_2n with e_{2i} = J e_{2i-1}, where J is the complex
structure.  The metric is the Euclidean dot product in these
coordinates and the holomorphic sectional curvature is normalised to
-1, which pins every sectional curvature into [-1, -1/4].

The curvature tensor is available in closed form, so this module is
pure linear algebra: no connection, no coordinates on the manifold,
only pointwise curvature.  The Gauss and Codazzi equations of orbit
hypersurfaces are checked against it by
``solvable.OrbitModel.compatibility_defects``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePlaneError, as_int

__all__ = [
    "CurvatureModel",
    "complex_structure",
    "curvature",
    "curvature_component",
    "jacobi_operator",
    "sectional_curvature",
]

DEGENERATE_PLANE_TOL = 1e-12


def complex_structure(n: int) -> np.ndarray:
    """Matrix of J in the adapted basis: J e_{2i-1} = e_{2i}, J^2 = -1."""
    j = np.zeros((2 * n, 2 * n))
    first = np.arange(0, 2 * n, 2)
    j[first + 1, first], j[first, first + 1] = 1.0, -1.0
    return j


@dataclass(frozen=True)
class CurvatureModel:
    """Tangent-space model: dimension and complex structure (Euclidean metric).

    ``n`` is the complex dimension; vectors live in R^(2n).
    """

    n: int

    def __post_init__(self):
        if type(self.n) is not int:  # a numpy integer is stored as an int; a non-integer raises
            object.__setattr__(self, "n", as_int("n", self.n))
        if self.n < 1:
            raise ValueError(f"complex dimension must be >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def J(self) -> np.ndarray:
        return complex_structure(self.n)

    def as_tangents(self, v) -> np.ndarray:
        """v as a float array of tangent vectors along its last axis."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise ValueError(
                f"expected vector of dimension {self.dim}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("tangent vector has non-finite entries")
        return v

    def as_tangent(self, v) -> np.ndarray:
        """v as a single float tangent vector."""
        v = self.as_tangents(v)
        if v.ndim != 1:
            raise ValueError(
                f"expected vector of dimension {self.dim}, got shape {v.shape}"
            )
        return v


def _dot(a, b):
    """Inner products along the last axis, kept as a trailing length-one axis."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _curvature_rows(J: np.ndarray, x, y, z) -> np.ndarray:
    """R(X,Y)Z over broadcastable stacks of row vectors (..., d)."""
    jx, jy, jz = x @ J.T, y @ J.T, z @ J.T
    return -0.25 * (
        _dot(y, z) * x
        - _dot(x, z) * y
        + _dot(jy, z) * jx
        - _dot(jx, z) * jy
        - 2.0 * _dot(jx, y) * jz
    )


def curvature(model: CurvatureModel, x, y, z) -> np.ndarray:
    """Ambient curvature R(X,Y)Z in closed form.

    Convention: R_{XY} = [D_X, D_Y] - D_[X,Y], holomorphic sectional
    curvature -1.  X, Y and Z may be broadcastable stacks of vectors
    along the last axis; a single vector is the one-row case.
    """
    x = model.as_tangents(x)
    y = model.as_tangents(y)
    z = model.as_tangents(z)
    return _curvature_rows(model.J, x, y, z)


def curvature_component(model: CurvatureModel, x, y, z, w):
    """Scalar component <R(X,Y)Z, W>, one per row for stacked inputs."""
    return _dot(curvature(model, x, y, z), model.as_tangents(w))[..., 0]


def _gram(x, y):
    """Gram determinant of span{X, Y}, one per row for stacked inputs."""
    return (_dot(x, x) * _dot(y, y) - _dot(x, y) ** 2)[..., 0]


def sectional_curvature(model: CurvatureModel, x, y):
    """Sectional curvature of span{X, Y}; lies in [-1, -1/4].

    Raises ``DegeneratePlaneError`` when any plane's Gram determinant is
    below ``DEGENERATE_PLANE_TOL``.
    """
    x = model.as_tangents(x)
    y = model.as_tangents(y)
    gram = _gram(x, y)
    if np.any(gram < DEGENERATE_PLANE_TOL):
        raise DegeneratePlaneError(
            f"plane is numerically degenerate (Gram determinant {np.min(gram):.3e})"
        )
    return curvature_component(model, x, y, y, x) / gram


def jacobi_operator(model: CurvatureModel, direction) -> np.ndarray:
    """Matrix of X -> -R(X, c)c for a unit direction c.

    This is the constant-coefficient operator governing normal Jacobi
    fields in a parallel frame along the geodesic with tangent c.  Its
    eigenvalues are 1/4 transverse to J c and 1 along J c (and 0 on c
    itself).
    """
    c = model.as_tangent(direction)
    return -_curvature_rows(model.J, np.eye(model.dim), c, c).T
