"""Tube engine and the catalog of homogeneous hypersurface families.

Every hypersurface family here is produced by one mechanism: start
from a base submanifold (a point, a totally geodesic complex or real
subspace, or a ruled minimal orbit of the group model), propagate
Jacobi fields the tube distance along a unit normal, and read the
shape operator of the result as minus the derivative matrix against
the value matrix.  Directions are classified spectrally through the
ambient curvature operator, so no family gets hard-coded curvature
formulas.

The catalog enumerates, for a given complex dimension, the families
with two and (for n >= 3) three distinct constant principal
curvatures, recomputing every profile through the engine and flagging
which families keep the normal J-image inside a single principal
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import CurvatureModel
from .classifier import residual_hopf_weights
from .errors import FocalRadiusError, OpenCaseError, UnsupportedModelError
from .jacobi import EXCEPTIONAL_RADIUS, MAX_RADIUS, curvature_propagator
from .profiles import HopfAttitude, PrincipalProfile, make_profile, merge_spectrum
from .solvable import (
    OrbitModel,
    RuledModel,
    build_algebra,
    build_ruled,
    default_ruled_spec,
    horosphere_model,
    levi_civita,
)

__all__ = [
    "CatalogEntry",
    "HOPF_RESIDUAL_TOL",
    "TubeBase",
    "catalog",
    "equidistant_profile",
    "hopf_residual",
    "ruled_profile",
    "profile_identity_residuals",
    "structural_residuals",
    "three_curvature_families",
    "tube_base",
    "tube_eigenvector_defect",
    "tube_spectrum",
    "two_curvature_families",
    "entry_to_dict",
]

HOPF_RESIDUAL_TOL = 1e-10
FOCAL_TOL = 1e-10

BASE_KINDS = ("point", "CHk", "RHn", "Wk", "horosphere")


@dataclass(frozen=True, eq=False)
class TubeBase:
    """Initial data for the tube engine.

    ``tangent`` rows span the base tangent space, ``shape`` is the base
    shape operator w.r.t. the unit normal ``nu`` in that frame, and
    ``sphere`` rows span the unit-normal-sphere directions other than
    nu itself.  All vectors are ambient coordinates.
    """

    kind: str
    n: int
    nu: np.ndarray
    tangent: np.ndarray
    shape: np.ndarray
    sphere: np.ndarray


def _ruled_base(n: int, k: int) -> TubeBase:
    alg = build_algebra(n)
    model = build_ruled(alg, default_ruled_spec(alg, k))
    nu = model.w_perp[0]
    shape = model.orbit.shape_operator(nu)
    return TubeBase(
        kind="Wk",
        n=n,
        nu=nu,
        tangent=model.orbit.tangent,
        shape=shape,
        sphere=model.w_perp[1:],
    )


def tube_base(kind: str, n: int, k: int | None = None) -> TubeBase:
    """Base data for one of the named base submanifolds."""
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    d = 2 * n
    e = np.eye(d)
    if kind == "point":
        return TubeBase(
            kind=kind,
            n=n,
            nu=e[0],
            tangent=np.zeros((0, d)),
            shape=np.zeros((0, 0)),
            sphere=e[1:],
        )
    if kind == "CHk":
        if k is None or not 0 <= k <= n - 1:
            raise ValueError(f"complex base dimension must lie in 0..{n - 1}, got {k}")
        if k == 0:
            return tube_base("point", n)
        # base tangent: the last 2k coordinates (a complex subspace)
        tangent = e[d - 2 * k:]
        sphere = e[1 : d - 2 * k]
        return TubeBase(
            kind=kind,
            n=n,
            nu=e[0],
            tangent=tangent,
            shape=np.zeros((2 * k, 2 * k)),
            sphere=sphere,
        )
    if kind == "RHn":
        # totally real base spanned by the odd coordinates; normal = J image
        tangent = e[0::2]
        normals = e[1::2]
        return TubeBase(
            kind=kind,
            n=n,
            nu=normals[0],
            tangent=tangent,
            shape=np.zeros((n, n)),
            sphere=normals[1:],
        )
    if kind == "Wk":
        if k is None or not 1 <= k <= n - 1:
            raise ValueError(f"ruled corank must lie in 1..{n - 1}, got {k}")
        return _ruled_base(n, k)
    if kind == "horosphere":
        alg = build_algebra(n)
        orbit = horosphere_model(alg)
        nu = orbit.normal[0]
        return TubeBase(
            kind=kind,
            n=n,
            nu=nu,
            tangent=orbit.tangent,
            shape=orbit.shape_operator(nu),
            sphere=np.zeros((0, 2 * n)),
        )
    raise ValueError(f"unknown base kind {kind!r}; expected one of {BASE_KINDS}")


def _propagate(base: TubeBase, t: float):
    """Value and derivative matrices of the tube differential at distance t."""
    model = CurvatureModel(base.n)
    cos_, sin_, cos_dt, sin_dt = curvature_propagator(model, base.nu, t)
    val0 = np.vstack([base.tangent, np.zeros_like(base.sphere)]).T
    der0 = np.vstack([-(base.shape @ base.tangent), base.sphere]).T
    value = cos_ @ val0 + sin_ @ der0
    deriv = cos_dt @ val0 + sin_dt @ der0
    return value, deriv


def _orthocomplement(nu: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the complement of nu."""
    d = nu.shape[0]
    basis = np.linalg.svd(np.atleast_2d(nu))[2][1:]
    assert basis.shape == (d - 1, d)
    return basis


def _attitude_from_matrix(S: np.ndarray, jnu_coeffs: np.ndarray):
    """Hopf attitude of a shape matrix, or None when Jnu is an eigenvector."""
    residual = hopf_residual_matrix(S, jnu_coeffs)
    if residual <= HOPF_RESIDUAL_TOL:
        return None, residual
    vals, vecs = np.linalg.eigh(S)
    weights = vecs.T @ jnu_coeffs
    merged = merge_spectrum(vals)
    carriers = []
    for value, _ in merged:
        mask = np.abs(vals - value) < 1e-8
        w = float(np.linalg.norm(weights[mask]))
        if w > 1e-8:
            mult = int(np.sum(mask))
            carriers.append((value, w, mult))
    if len(carriers) != 2:
        return None, residual
    # the repeated carrier, if any, is listed first; otherwise ascending
    carriers.sort(key=lambda c: (-c[2], c[0]))
    (l1, b1, _), (l2, b2, _) = carriers
    norm = math.hypot(b1, b2)
    return HopfAttitude(b1=b1 / norm, b2=b2 / norm, lam1=l1, lam2=l2), residual


def hopf_residual_matrix(S: np.ndarray, jnu_coeffs: np.ndarray) -> float:
    """Norm of S Jnu minus its projection onto Jnu (eigenvector defect)."""
    sj = S @ jnu_coeffs
    return float(np.linalg.norm(sj - (jnu_coeffs @ sj) * jnu_coeffs))


def hopf_residual(profile: PrincipalProfile) -> float:
    """Eigenvector defect of the normal J-image computed from profile data."""
    if profile.hopf is None:
        return 0.0
    h = profile.hopf
    mean = h.b1**2 * h.lam1 + h.b2**2 * h.lam2
    sq = h.b1**2 * h.lam1**2 + h.b2**2 * h.lam2**2
    return math.sqrt(max(sq - mean**2, 0.0))


def _spectrum_from_maps(base: TubeBase, t: float):
    value, deriv = _propagate(base, t)
    rows = _orthocomplement(base.nu)
    v_red = rows @ value
    svals = np.linalg.svd(v_red, compute_uv=False)
    if svals.min() < FOCAL_TOL:
        raise FocalRadiusError(
            f"tube differential degenerates at distance {t}",
            kernel_dim=int(np.sum(svals < FOCAL_TOL)),
            singular_values=np.sort(svals)[::-1],
        )
    S = -(rows @ deriv) @ np.linalg.inv(v_red)
    asym = float(np.max(np.abs(S - S.T)))
    if asym > 1e-8:
        raise AssertionError(f"tube shape operator asymmetric by {asym:.3e}")
    S = 0.5 * (S + S.T)
    model = CurvatureModel(base.n)
    jnu = rows @ (model.J @ base.nu)
    attitude, _ = _attitude_from_matrix(S, jnu)
    return make_profile(np.linalg.eigvalsh(S), hopf=attitude), S, jnu


def tube_spectrum(base, n: int | None = None, k: int | None = None, r: float = 1.0):
    """Principal-curvature profile of the tube of radius r around a base.

    ``base`` is a TubeBase or one of the kind names.  Proper tubes
    (bases of codimension >= 2) require r > 0; hypersurface bases accept
    signed r and describe the equidistant family.
    """
    if isinstance(base, str):
        if n is None:
            raise ValueError("complex dimension n is required with a named base")
        base = tube_base(base, n, k)
    codim = 2 * base.n - base.tangent.shape[0]
    if codim >= 2 and r <= 0:
        raise ValueError(f"tube radius must be positive, got {r}")
    profile, _, _ = _spectrum_from_maps(base, r)
    return profile


def tube_eigenvector_defect(base, n: int | None = None, k: int | None = None, r: float = 1.0):
    """Norm of S(J normal) minus its projection back onto J(normal).

    Zero exactly when the translated J-image of the normal is a
    principal direction of the tube.
    """
    if isinstance(base, str):
        if n is None:
            raise ValueError("complex dimension n is required with a named base")
        base = tube_base(base, n, k)
    _, S, jnu = _spectrum_from_maps(base, r)
    return hopf_residual_matrix(S, jnu)


def ruled_profile(n: int) -> PrincipalProfile:
    """Profile of the ruled minimal hypersurface orbit itself (distance zero)."""
    base = tube_base("Wk", n, 1)
    profile, _, _ = _spectrum_from_maps(base, 0.0)
    return profile


def equidistant_profile(n: int, r: float) -> PrincipalProfile:
    """Profile of the equidistant at signed distance r from the ruled orbit.

    The sign convention orients the unit normal so that travelling the
    distance r from the hypersurface lands on the minimal orbit; the
    axis curvature is then tanh(r/2)/2.
    """
    base = tube_base("Wk", n, 1)
    profile, _, _ = _spectrum_from_maps(base, -r)
    return profile


# ---------------------------------------------------------------------------
# structural residuals on the ruled hypersurface orbit
# ---------------------------------------------------------------------------


def _carrier_frame(orbit: OrbitModel):
    """Unit carrier fields U1, U2 and the axis field A on a codim-1 orbit.

    U_i are the normalised projections of J(normal) onto the carrier
    eigenspaces, oriented to positive weights; A is fixed by
    J A = b2 U1 - b1 U2.  Raises when the J-image sits inside a single
    eigenspace (a Hopf model has no such frame).
    """
    alg = orbit.algebra
    xi = orbit.normal[0]
    S = orbit.shape_operator(xi)
    vals, vecs = np.linalg.eigh(S)
    jxi = alg.J @ xi
    jxi_f = orbit.tangent @ jxi
    carriers = []
    for value, _ in merge_spectrum(vals):
        mask = np.abs(vals - value) < 1e-8
        proj = vecs[:, mask] @ (vecs[:, mask].T @ jxi_f)
        w = np.linalg.norm(proj)
        if w > 1e-8:
            carriers.append((value, proj / w, w))
    if len(carriers) != 2:
        raise UnsupportedModelError(
            "model does not have a two-carrier normal J-image"
        )
    carriers.sort(key=lambda c: c[0])
    (l1, u1_f, b1), (l2, u2_f, b2) = carriers
    u1 = u1_f @ orbit.tangent
    u2 = u2_f @ orbit.tangent
    # A = -J(b2 U1 - b1 U2) since J^2 = -1
    a = -(alg.J @ (b2 * u1 - b1 * u2))
    lam3 = [v for v, _ in merge_spectrum(vals) if abs(v - l1) > 1e-8 and abs(v - l2) > 1e-8]
    return (l1, l2, float(lam3[0])), (b1, b2), (u1, u2, a)


def structural_residuals(
    n: int, model: RuledModel | OrbitModel | None = None
) -> dict[str, float]:
    """Connection-identity residuals on the ruled hypersurface orbit.

    Evaluates the induced covariant derivatives of the carrier and axis
    fields against their closed forms in the curvatures and projection
    weights, plus the scalar weight-balance identity.  Only orbits
    through the base point are supported (the left-invariant frame
    computes the connection exactly there); Hopf orbits carry no
    carrier frame and are rejected.
    """
    if model is None:
        alg = build_algebra(n)
        model = build_ruled(alg, default_ruled_spec(alg, 1))
    orbit = model.orbit if isinstance(model, RuledModel) else model
    if orbit.codim != 1:
        raise UnsupportedModelError("structural residuals need a hypersurface orbit")
    (l1, l2, l3), (b1, b2), (u1, u2, a) = _carrier_frame(orbit)

    tangent = orbit.tangent

    def nabla(x, y):
        return (tangent @ levi_civita(orbit.algebra, x, y)) @ tangent

    res: dict[str, float] = {}
    fields = {1: (u1, l1, b1), 2: (u2, l2, b2)}
    for i, j in ((1, 2), (2, 1)):
        ui, li, bi = fields[i]
        uj, lj, bj = fields[j]
        sign_i = -1.0 if i == 1 else 1.0
        sign_j = -1.0 if j == 1 else 1.0
        mix = 3.0 * b1 * b2 / (4.0 * (l3 - li))
        diag = li + 3.0 * bi**2 / (4.0 * (l3 - li))
        res[f"carrier_self_{i}"] = float(
            np.linalg.norm(nabla(ui, ui) - sign_i * mix * a)
        )
        res[f"carrier_cross_{i}{j}"] = float(
            np.linalg.norm(nabla(ui, uj) - sign_j * diag * a)
        )
        res[f"carrier_axis_{i}"] = float(
            np.linalg.norm(nabla(ui, a) - (sign_j * mix * ui + sign_i * diag * uj))
        )
        coeff = (sign_j / (li - lj)) * (
            (bi**2 - 2.0 * bj**2) / 4.0 + (lj - l3) * diag
        )
        res[f"axis_carrier_{i}"] = float(np.linalg.norm(nabla(a, ui) - coeff * uj))
    res["axis_geodesic"] = float(np.linalg.norm(nabla(a, a)))
    res["weight_balance"] = residual_hopf_weights(l1, l2, l3, b1**2, b2**2)
    return res


def profile_identity_residuals(profile: PrincipalProfile) -> dict[str, float]:
    """Scalar identities checkable from profile data alone.

    Used for the equidistant entries, whose orbits miss the base point
    so no left-invariant connection samples exist for them; the
    curvature/weight identities still apply and are checked here.
    """
    if profile.hopf is None:
        raise UnsupportedModelError("profile carries no carrier weights")
    h = profile.hopf
    lam3 = profile.axis_value()
    return {
        "weight_balance": residual_hopf_weights(
            h.lam1, h.lam2, lam3, h.b1**2, h.b2**2
        ),
        "weight_sum": abs(h.b1**2 + h.b2**2 - 1.0),
    }


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """One homogeneous family at representative parameters."""

    family: str
    n: int
    k: int | None
    r: float | None
    profile: PrincipalProfile
    is_hopf: bool
    classification_family: str | None = None
    constraint: str | None = None

    @property
    def g(self) -> int:
        return self.profile.g


def _require_g(entries: list[CatalogEntry], g: int) -> list[CatalogEntry]:
    """The entries, once each is checked to have g distinct curvatures."""
    for entry in entries:
        if entry.g != g:
            raise ValueError(
                f"{entry.family} at r = {entry.r} has g = {entry.g}, not {g}: its "
                f"principal curvatures merge to {list(entry.profile.entries)}"
            )
    return entries


def _entry(family, n, k, r, profile, classification_family=None, constraint=None):
    is_hopf = profile.hopf is None
    return CatalogEntry(
        family=family,
        n=n,
        k=k,
        r=r,
        profile=profile,
        is_hopf=is_hopf,
        classification_family=classification_family,
        constraint=constraint,
    )


def two_curvature_families(n: int, r: float = 1.0) -> list[CatalogEntry]:
    """The four families with two distinct constant principal curvatures."""
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    entries = [
        _entry("horosphere", n, None, None, tube_spectrum("horosphere", n, r=1.0)),
        _entry("geodesic-sphere", n, None, r, tube_spectrum("point", n, r=r)),
        _entry(
            "tube-CHk",
            n,
            n - 1,
            r,
            tube_spectrum("CHk", n, k=n - 1, r=r),
            constraint="k = n-1",
        ),
        _entry(
            "tube-RHn",
            n,
            None,
            EXCEPTIONAL_RADIUS,
            tube_spectrum("RHn", n, r=EXCEPTIONAL_RADIUS),
            constraint="r = ln(2+sqrt(3))",
        ),
    ]
    return _require_g(entries, 2)


def three_curvature_families(n: int, r: float = 1.0) -> list[CatalogEntry]:
    """Representatives of the families with three distinct curvatures.

    Defined for n >= 3; for n = 2 the classification is open and this
    raises OpenCaseError.
    """
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    if n == 2:
        raise OpenCaseError(
            "the three-curvature classification is open in complex dimension 2"
        )
    entries: list[CatalogEntry] = []
    for k in range(1, n - 1):
        entries.append(
            _entry(
                "tube-CHk",
                n,
                k,
                r,
                tube_spectrum("CHk", n, k=k, r=r),
                classification_family="a",
                constraint="k <= n-2, any r > 0",
            )
        )
    entries.append(
        _entry(
            "tube-RHn",
            n,
            None,
            r,
            tube_spectrum("RHn", n, r=r),
            classification_family="b",
            constraint="r != ln(2+sqrt(3))",
        )
    )
    entries.append(
        _entry("ruled-W", n, 1, 0.0, ruled_profile(n), classification_family="c")
    )
    entries.append(
        _entry(
            "equidistant-W",
            n,
            1,
            r,
            equidistant_profile(n, r),
            classification_family="c",
            constraint="any r != 0",
        )
    )
    for k in range(2, n):
        entries.append(
            _entry(
                "tube-Wk",
                n,
                k,
                EXCEPTIONAL_RADIUS,
                tube_spectrum("Wk", n, k=k, r=EXCEPTIONAL_RADIUS),
                classification_family="d",
                constraint="r = ln(2+sqrt(3)), 2 <= k <= n-1",
            )
        )
    return _require_g(entries, 3)


def catalog(n: int, r: float = 1.0) -> tuple[list[CatalogEntry], list[str]]:
    """All catalog entries for complex dimension n, plus notes.

    Returns the two-curvature families always and the three-curvature
    families when n >= 3; for n = 2 a note records that the latter
    classification is open.  r is at most MAX_RADIUS; further out the
    tube curvatures coth(r/2)/2 and tanh(r/2)/2 come closer than the
    merge gap.
    """
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    if not r <= MAX_RADIUS:
        raise ValueError(f"catalog radius must be at most {MAX_RADIUS:.4f}, got {r}")
    entries = two_curvature_families(n, r=r)
    notes: list[str] = []
    try:
        entries.extend(three_curvature_families(n, r=r))
    except OpenCaseError as exc:
        notes.append(str(exc))
    return entries, notes


def entry_to_dict(entry: CatalogEntry) -> dict:
    doc = {
        "family": entry.family,
        "n": entry.n,
        "k": entry.k,
        "r": entry.r,
        "g": entry.g,
        "profile": [[lam, mult] for lam, mult in entry.profile.entries],
        "hopf": entry.is_hopf,
        "b": None
        if entry.profile.hopf is None
        else [entry.profile.hopf.b1, entry.profile.hopf.b2],
    }
    if entry.classification_family is not None:
        doc["classification_family"] = entry.classification_family
    if entry.constraint is not None:
        doc["constraint"] = entry.constraint
    return doc
