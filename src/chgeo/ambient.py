"""Pointwise geometry of the complex hyperbolic tangent space.

All vectors are coordinate arrays in a fixed adapted orthonormal basis
e_1, ..., e_2n with e_{2i} = J e_{2i-1}, where J is the complex
structure.  The metric is the Euclidean dot product in these
coordinates and the holomorphic sectional curvature is normalised to
-1, which pins every sectional curvature into [-1, -1/4].

The curvature tensor is available in closed form, so this module is
pure linear algebra: no connection, no coordinates on the manifold.
Hypersurface data (unit normal, shape operator, connection samples
over a left-invariant frame) plugs into residual evaluators for the
two fundamental compatibility equations relating ambient and induced
geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePlaneError, UnsupportedModelError

__all__ = [
    "CurvatureModel",
    "HypersurfacePointData",
    "codazzi_eigenframe_residual",
    "codazzi_residual",
    "complex_structure",
    "curvature",
    "curvature_component",
    "eigenpair_bracket_residual",
    "gauss_residual",
    "jacobi_operator",
    "random_tangent",
    "random_totally_real_pair",
    "sectional_curvature",
]

DEGENERATE_PLANE_TOL = 1e-12


def complex_structure(n: int) -> np.ndarray:
    """Matrix of J in the adapted basis: J e_{2i-1} = e_{2i}, J^2 = -1."""
    j = np.zeros((2 * n, 2 * n))
    for i in range(n):
        j[2 * i + 1, 2 * i] = 1.0
        j[2 * i, 2 * i + 1] = -1.0
    return j


@dataclass(frozen=True)
class CurvatureModel:
    """Tangent-space model: dimension, inner product and complex structure.

    ``n`` is the complex dimension; vectors live in R^(2n).
    """

    n: int

    def __post_init__(self):
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

    def inner(self, x, y) -> float:
        return float(self.as_tangent(x) @ self.as_tangent(y))


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


# ---------------------------------------------------------------------------
# hypersurface point data and residual evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HypersurfacePointData:
    """Pointwise data of a hypersurface inside the ambient model.

    ``tangent_basis`` holds orthonormal rows spanning the tangent space
    (all orthogonal to ``unit_normal``); ``shape_matrix`` is the
    symmetric shape operator w.r.t. ``unit_normal`` in that frame.
    ``connection`` optionally stores the frame coefficients
    gamma[i, j, :] of the induced covariant derivative of frame field j
    along frame field i, assumed constant (left-invariant frame on a
    homogeneous model).
    """

    model: CurvatureModel
    unit_normal: np.ndarray
    tangent_basis: np.ndarray
    shape_matrix: np.ndarray
    connection: np.ndarray | None = None

    def __post_init__(self):
        xi = self.model.as_tangent(self.unit_normal)
        if abs(xi @ xi - 1.0) > 1e-12:
            raise ValueError("normal vector is not unit length")
        basis = np.asarray(self.tangent_basis, dtype=float)
        m = self.model.dim - 1
        if basis.shape != (m, self.model.dim):
            raise ValueError(f"tangent basis must be {m} x {self.model.dim}")
        if np.max(np.abs(basis @ basis.T - np.eye(m))) > 1e-10:
            raise ValueError("tangent basis is not orthonormal")
        if np.max(np.abs(basis @ xi)) > 1e-10:
            raise ValueError("tangent basis is not orthogonal to the normal")
        S = np.asarray(self.shape_matrix, dtype=float)
        if np.max(np.abs(S - S.T)) > 1e-12:
            raise ValueError("shape operator is not symmetric")

    @property
    def tangent_dim(self) -> int:
        return self.model.dim - 1

    def to_frame(self, v) -> np.ndarray:
        """Frame coefficients of an ambient vector tangent to the hypersurface."""
        v = self.model.as_tangent(v)
        coeffs = self.tangent_basis @ v
        residual = v - coeffs @ self.tangent_basis
        if np.linalg.norm(residual) > 1e-10:
            raise ValueError("vector is not tangent to the hypersurface")
        return coeffs

    def from_frame(self, coeffs) -> np.ndarray:
        return np.asarray(coeffs, dtype=float) @ self.tangent_basis

    def _gamma(self) -> np.ndarray:
        if self.connection is None:
            raise UnsupportedModelError(
                "hypersurface data carries no connection samples"
            )
        return self.connection

    def covariant(self, a, b) -> np.ndarray:
        """Induced derivative of frame-coefficient field b along a."""
        return np.einsum("i,j,ijk->k", a, b, self._gamma())

    def intrinsic_curvature(self, a, b, c) -> np.ndarray:
        """Induced curvature R(a,b)c over the constant-coefficient frame."""
        nab = self.covariant
        bracket = nab(a, b) - nab(b, a)
        return nab(a, nab(b, c)) - nab(b, nab(a, c)) - nab(bracket, c)


def gauss_residual(data: HypersurfacePointData, x, y, z, w) -> float:
    """Absolute defect of the first compatibility equation.

    Compares the ambient curvature component against the induced
    curvature corrected by shape-operator products.  Inputs are ambient
    vectors tangent to the hypersurface.
    """
    model = data.model
    lhs = curvature_component(model, x, y, z, w)
    xa, ya, za, wa = (data.to_frame(v) for v in (x, y, z, w))
    S = data.shape_matrix
    r_int = float(data.intrinsic_curvature(xa, ya, za) @ wa)
    rhs = r_int - (S @ ya @ za) * (S @ xa @ wa) + (S @ xa @ za) * (S @ ya @ wa)
    return abs(lhs - rhs)


def codazzi_residual(data: HypersurfacePointData, x, y, z) -> float:
    """Absolute defect of the second compatibility equation.

    The covariant derivative of the shape operator is assembled from
    the connection samples with the shape matrix constant in the frame.
    """
    model = data.model
    lhs = float(curvature(model, x, y, model.as_tangent(z)) @ data.unit_normal)
    xa, ya, za = (data.to_frame(v) for v in (x, y, z))
    S = data.shape_matrix

    def cov_shape(u, v):
        return data.covariant(u, S @ v) - S @ data.covariant(u, v)

    rhs = float((cov_shape(xa, ya) - cov_shape(ya, xa)) @ za)
    return abs(lhs - rhs)


def codazzi_eigenframe_residual(
    data: HypersurfacePointData, x, y, z, lam_x: float, lam_y: float, lam_z: float
) -> float:
    """Defect of the eigenframe form of the second compatibility equation.

    For fields x, y, z in the principal distributions of lam_x, lam_y,
    lam_z the normal curvature component reduces to a two-term bracket
    of connection coefficients weighted by eigenvalue gaps.
    """
    model = data.model
    lhs = float(curvature(model, x, y, model.as_tangent(z)) @ data.unit_normal)
    xa, ya, za = (data.to_frame(v) for v in (x, y, z))
    rhs = (lam_y - lam_z) * float(data.covariant(xa, ya) @ za) - (
        lam_x - lam_z
    ) * float(data.covariant(ya, xa) @ za)
    return abs(lhs - rhs)


def eigenpair_bracket_residual(
    data: HypersurfacePointData, x, y, z, lam_xy: float, lam_z: float
) -> float:
    """Defect of the same-eigenvalue pairing identity.

    For x, y in one principal distribution and z in another, the
    connection coefficient <D_x y, z> is determined by complex-structure
    pairings against the tangential part of J(normal).
    """
    model = data.model
    x = model.as_tangent(x)
    y = model.as_tangent(y)
    z = model.as_tangent(z)
    J = model.J
    jxi = J @ data.unit_normal
    lhs = 4.0 * (lam_z - lam_xy) * float(
        data.covariant(data.to_frame(x), data.to_frame(y)) @ data.to_frame(z)
    )
    rhs = (
        (J @ y @ z) * (x @ jxi)
        + (J @ x @ y) * (z @ jxi)
        + 2.0 * (J @ x @ z) * (y @ jxi)
    )
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# seeded random tangent data
# ---------------------------------------------------------------------------


def random_tangent(model: CurvatureModel, rng: np.random.Generator):
    v = rng.standard_normal(model.dim)
    return v / np.linalg.norm(v)


def random_totally_real_pair(model: CurvatureModel, rng: np.random.Generator):
    """Orthonormal pair x, y with <Jx, y> = 0 (a totally real 2-plane)."""
    x = random_tangent(model, rng)
    jx = model.J @ x
    while True:
        y = rng.standard_normal(model.dim)
        y -= (y @ x) * x + (y @ jx) * jx
        norm = np.linalg.norm(y)
        if norm > 1e-6:
            return x, y / norm
