"""Solvable Lie-group model of the ambient space.

The ambient space is realised as a solvable group with Lie algebra
a + z + v: a one-dimensional abelian part spanned by A, the
one-dimensional centre of the nilpotent part spanned by Z, and a
(2n-2)-dimensional part v carrying a complex structure i.  The metric
makes the basis A, Z, V_1, ..., V_{2n-2} orthonormal and the brackets
are

    [A, Z] = Z,   [A, V] = V/2,   [U, V] = <iU, V> Z   (U, V in v).

The left-invariant Levi-Civita connection comes from the Koszul
formula; its curvature must reproduce the closed-form ambient tensor
under the identification A -> e1, Z -> e2, V_j -> e_{2+j}, which is
enforced by tests rather than assumed.

Orbit models of subgroups provide the ruled minimal submanifolds: for
a totally real k-dimensional slice wperp of v, the subalgebra
a + z + (v - wperp) exponentiates to a (2n-k)-dimensional minimal
submanifold whose second fundamental form is concentrated on the
single pairing of Z against i(wperp).  ``build_ruled`` constructs each
such orbit, and ``OrbitModel`` checks every orbit on construction.

The structure constants are held only in factored form, the
eigenvalues w of ad_A and the pairing omega on v; the bracket, the
Koszul connection, the closure check and the shape operator are closed
forms in these two factors, so no (d, d, d) array is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import CurvatureModel, complex_structure, curvature
from .errors import ValidationError, as_int

__all__ = [
    "OrbitModel",
    "SolvableAlgebra",
    "algebra_curvature",
    "build_algebra",
    "build_ruled",
    "default_ruled_spec",
    "horosphere_model",
    "levi_civita",
]


@dataclass(frozen=True, eq=False)
class SolvableAlgebra:
    """Structure constants and metric data of the group model.

    Basis index 0 is A, index 1 is Z, indices 2..2n-1 are V_1..V_{2n-2}
    with V_{2j} = i V_{2j-1}.  The structure constants are held in two
    factors: ``weights`` w = (0, 1, 1/2, ..., 1/2), the eigenvalues of
    ad_A, and ``omega[i, j]`` = <i e_i, e_j> on v (zero on a + z), so
    that [x, y] = x_A (w o y) - y_A (w o x) + omega(x, y) Z, with o the
    entrywise product.
    """

    n: int
    weights: np.ndarray
    omega: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def J(self) -> np.ndarray:
        """Ambient complex structure under the standard identification."""
        return complex_structure(self.n)

    def bracket_of(self, x, y) -> np.ndarray:
        """[x, y] over broadcastable stacks of algebra vectors (..., d)."""
        x, y = _tangents(self, x), _tangents(self, y)
        out = x[..., :1] * (self.weights * y) - y[..., :1] * (self.weights * x)
        out[..., 1] += _dot(x @ self.omega, y)
        return out


def build_algebra(n: int) -> SolvableAlgebra:
    """Construct the algebra for complex dimension n >= 2."""
    n = as_int("n", n)
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    d = 2 * n
    # [A, Z] = Z and [A, V] = V / 2
    weights = np.full(d, 0.5)
    weights[:2] = 0.0, 1.0
    # [U, V] = <iU, V> Z on the v-part; i pairs consecutive V's
    omega = complex_structure(n).T
    omega[:2, :2] = 0.0
    return SolvableAlgebra(n=n, weights=weights, omega=omega)


def _tangents(alg: SolvableAlgebra, v) -> np.ndarray:
    return CurvatureModel(alg.n).as_tangents(v)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> along the last axis; a matrix-vector product sums a short axis fastest."""
    return (a * b) @ np.ones(a.shape[-1])


def levi_civita(alg: SolvableAlgebra, x, y) -> np.ndarray:
    """Covariant derivative D_x y of left-invariant fields at the identity.

    x of shape (..., d) and y of shape (..., d) broadcast against each
    other on their leading axes; the result has the broadcast shape
    (..., d).  The Koszul formula solved on the two structure factors:

        D_x y = <w o x, y> A - y_A (w o x)
                + (omega(x, y) Z - x_Z omega(y, .) - y_Z omega(x, .)) / 2.
    """
    x, y = _tangents(alg, x), _tangents(alg, y)
    half = 0.5 * alg.omega
    ox = x @ half
    out = x[..., 1:2] * (y @ half)
    out += y[..., 1:2] * ox
    out += y[..., :1] * (alg.weights * x)
    np.negative(out, out=out)
    out[..., 0] += (x * y) @ alg.weights
    out[..., 1] += _dot(ox, y)
    return out


def algebra_curvature(alg: SolvableAlgebra, x, y, z) -> np.ndarray:
    """Curvature R(x,y)z = [D_x, D_y]z - D_[x,y] z of the group metric.

    x, y and z may be broadcastable stacks of vectors along the last axis.
    """
    nxz = levi_civita(alg, y, z)
    nyz = levi_civita(alg, x, z)
    term1 = levi_civita(alg, x, nxz)
    term2 = levi_civita(alg, y, nyz)
    return term1 - term2 - levi_civita(alg, alg.bracket_of(x, y), z)


# ---------------------------------------------------------------------------
# ruled submanifold construction
# ---------------------------------------------------------------------------


def default_ruled_spec(alg: SolvableAlgebra, k: int) -> np.ndarray:
    """Rows of the canonical slice, spanned by V_1, V_3, ..., V_{2k-1}."""
    k = as_int("k", k)
    if not 1 <= k <= alg.n - 1:
        raise ValidationError(f"corank must lie in 1..{alg.n - 1}, got {k}")
    return np.eye(alg.dim)[2 : 2 + 2 * k : 2]


def validate_ruled_spec(alg: SolvableAlgebra, w_perp) -> np.ndarray:
    """The slice rows as a float (k, 2n) array, checked to be a totally real slice of v.

    The corank k is the number of rows; non-finite rows are rejected by name.
    """
    w = np.asarray(w_perp, dtype=float)
    if w.ndim != 2 or w.shape[1] != alg.dim:
        raise ValidationError(f"slice rows must form a (k, {alg.dim}) array, got {w.shape}")
    k = w.shape[0]
    if not 1 <= k <= alg.n - 1:
        raise ValidationError(f"corank must lie in 1..{alg.n - 1}, got {k}")
    if not np.all(np.isfinite(w)):
        raise ValidationError("slice rows must be finite")
    if np.max(np.abs(w[:, :2])) > 1e-12:
        raise ValidationError("normal slice must lie inside the v-part")
    if np.max(np.abs(w @ w.T - np.eye(k))) > 1e-12:
        raise ValidationError("normal slice basis is not orthonormal")
    # totally real: J maps the slice into its orthogonal complement
    jw = w @ alg.J.T
    if np.max(np.abs(jw @ w.T)) > 1e-12:
        raise ValidationError("normal slice is not totally real")
    return w


def _closure_leak(alg: SolvableAlgebra, t: np.ndarray, nr: np.ndarray) -> float:
    """Frobenius norm of leak[c, i, j] = <[t_i, t_j], nr_c> for rows t (m, d) and nr (k, d).

    On the factors the leak is t_iA <w o t_j, nr_c> - t_jA <w o t_i, nr_c>
    + nr_cZ omega(t_i, t_j), one (k, m, m) array.
    """
    leak = t[:, 0, None] * ((nr * alg.weights) @ t.T)[:, None, :]
    leak = leak - leak.transpose(0, 2, 1) + nr[:, 1, None, None] * (t @ alg.omega @ t.T)
    return float(np.linalg.norm(leak))


@dataclass(frozen=True, eq=False)
class OrbitModel:
    """Orbit of a subgroup through the base point, with induced data.

    ``tangent`` and ``normal`` hold orthonormal rows in algebra
    coordinates.  The second fundamental form is the normal part of the
    ambient Koszul connection restricted to the tangent rows; for a
    hypersurface orbit ``compatibility_defects`` checks the Gauss and
    Codazzi equations over the whole frame.  The closure check, the
    shape operator and ``intrinsic_gamma`` each contract over all frame
    pairs at once.  With d = 2n and m tangent and k normal rows, the
    closure check forms one (k, m, m) leak and the shape operator one
    d x d matrix, each in O(d^3) flops.  Construction checks that the
    rows are orthonormal and close under the bracket.
    """

    algebra: SolvableAlgebra
    tangent: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        t, nr = self.tangent, self.normal
        d = self.algebra.dim
        full = np.vstack([t, nr])
        # written so that a NaN fails each check
        if full.shape != (d, d) or not np.max(np.abs(full @ full.T - np.eye(d))) <= 1e-10:
            raise ValidationError("tangent/normal rows do not form an orthonormal basis")
        if not _closure_leak(self.algebra, t, nr) <= 1e-12:
            raise ValidationError("tangent space is not closed under the bracket")

    @property
    def dim(self) -> int:
        return self.tangent.shape[0]

    @property
    def codim(self) -> int:
        return self.normal.shape[0]

    def second_fundamental(self, x, y) -> np.ndarray:
        """Normal component of the ambient derivative, in algebra coordinates."""
        amb = levi_civita(self.algebra, x, y)
        return (self.normal @ amb) @ self.normal

    def shape_operator(self, xi) -> np.ndarray:
        """Symmetric matrix of the shape operator w.r.t. normal xi, tangent frame."""
        nu = self.normal.T @ (self.normal @ np.asarray(xi, dtype=float))
        t, alg = self.tangent, self.algebra
        # <[x, y], nu> is antisymmetric, so S is the symmetric part of
        # <x, ad_nu y>: ad_nu = nu_A diag(w) - (w o nu) e_A^T + e_Z (nu omega)
        ad = np.diag(nu[0] * alg.weights)
        ad[:, 0] -= alg.weights * nu
        ad[1] += nu @ alg.omega
        S = t @ ad @ t.T
        return 0.5 * (S + S.T)

    @cached_property
    def intrinsic_gamma(self) -> np.ndarray:
        """Induced connection coefficients over the tangent frame."""
        t = self.tangent
        return levi_civita(self.algebra, t[:, None], t[None, :]) @ t.T

    def compatibility_defects(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss and Codazzi defects over every tuple of tangent frame rows.

        Returns ``(gauss, codazzi)`` of shapes (m, m, m, m) and (m, m, m),
        m = 2n - 1: gauss[a, b, c, w] is <R(t_a, t_b) t_c, t_w> minus the
        induced curvature plus S_bc S_aw - S_ac S_bw, and codazzi[a, b, c]
        is <R(t_a, t_b) t_c, xi> minus <(D_a S) t_b - (D_b S) t_a, t_c>,
        with the shape operator S constant in the frame.  Both vanish on a
        hypersurface orbit; other codimensions raise ``ValidationError``.
        """
        if self.codim != 1:
            raise ValidationError("compatibility defects require a codimension-one orbit")
        t, xi = self.tangent, self.normal[0]
        G, S = self.intrinsic_gamma, self.shape_operator(xi)
        model = CurvatureModel(self.algebra.n)
        amb = curvature(model, t[:, None, None], t[None, :, None], t[None, None, :])
        # R(a, b)c = D_a D_b c - D_b D_a c - D_[a, b] c over constant frame fields
        first = np.einsum("bcp,apw->abcw", G, G)
        d_bracket = np.einsum("abp,pcw->abcw", G - G.swapaxes(0, 1), G)
        intrinsic = first - first.swapaxes(0, 1) - d_bracket
        SS = np.einsum("bc,aw->abcw", S, S)
        gauss = amb @ t.T - intrinsic + SS - SS.swapaxes(0, 1)
        # (D_a S) t_b = D_a (S t_b) - S D_a t_b
        dS = np.einsum("pb,apc->abc", S, G) - G @ S
        return gauss, amb @ xi - (dS - dS.swapaxes(0, 1))


def build_ruled(alg: SolvableAlgebra, w_perp) -> OrbitModel:
    """Orbit of the subalgebra a + z + (v minus the slice); its normal rows are the slice.

    ``w_perp`` holds the k slice rows, checked by ``validate_ruled_spec``.
    """
    w = validate_ruled_spec(alg, w_perp)
    d = alg.dim
    # tangent rows: A, Z, then an orthonormal basis of v minus the slice
    proj = np.eye(d) - w.T @ w
    v_block = proj[2:, :]
    # orthonormalise the projected v-directions
    q, r = np.linalg.qr(v_block.T)
    keep = np.abs(np.diag(r)) > 1e-9
    w_rows = q.T[keep]
    tangent = np.vstack([np.eye(d)[:2], w_rows])
    if tangent.shape[0] != d - len(w):
        raise ValidationError("slice does not have the declared dimension")
    return OrbitModel(algebra=alg, tangent=tangent, normal=w)


def horosphere_model(alg: SolvableAlgebra) -> OrbitModel:
    """Orbit of the nilpotent part z + v; the normal is the A-direction."""
    e = np.eye(alg.dim)
    return OrbitModel(algebra=alg, tangent=e[1:], normal=e[:1])

