"""Tube engine and the catalog of homogeneous hypersurface families.

Every hypersurface family here is produced by one mechanism: start
from a base submanifold (a point, a totally geodesic complex or real
subspace, or a ruled minimal orbit of the group model), propagate
Jacobi fields the tube distance along a unit normal, and read the
shape operator of the result as minus the derivative map against
the value map.  No family gets hard-coded curvature formulas: the
ambient Jacobi operator has two eigenvalues on the normal's complement,
1 on the line of J(normal) and 1/4 on the rest, so every field is a
mode of the closed-form rate 1 or 1/2 (``jacobi.RATES``), evaluated by
``jacobi.jacobi_mode``, the function the focal map reads; the
``jacobi-oracle`` verification suite holds that spectrum against an
``eigh`` of the operator.  The two rates make both maps diagonal plus
rank one in the base's principal frame, so each tube reduces to scalar
ratios and one small block on the directions that J(normal) meets (the
deflation of a rank-one eigenvalue update).  On a Hopf tube that block
is the line of J(normal) itself, a scalar at rate 1, so only the
paper's non-Hopf tubes reach a 2 x 2 block and an ``eigh``.  The engine
reads only a (B, G) stack of the groups of each base's principal frame
and one radius per tube.  The named bases, the horosphere and the ruled
orbits among them, have their groups written once in closed form, in
O(n) with no frame and no orbit model (``tube_base`` is one row of
them); the ``verification`` suites hold them against the solvable-group
orbits.  The engine groups each tube's few values with
``profiles.merge_spectrum`` as they come, never repeated out to one per
frame row.

The catalog enumerates, for a given complex dimension, the families
with two and (for n >= 3) three distinct constant principal
curvatures, reading their named closed forms as one stack for one
engine pass, and flagging which families keep the normal J-image
inside a single principal distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifier import residual_hopf_weights
from .errors import (
    FocalRadiusError,
    OpenCaseError,
    UnresolvedSpectrumError,
    UnsupportedModelError,
    ValidationError,
    as_int,
    as_real,
)
from .jacobi import EXCEPTIONAL_RADIUS, KERNEL_TOL, MAX_RADIUS, RATES, jacobi_mode
from .profiles import HopfAttitude, PrincipalProfile, merge_spectrum
from .solvable import OrbitModel

__all__ = [
    "CARRIER_TOL",
    "CatalogEntry",
    "TubeBase",
    "catalog",
    "equidistant_profile",
    "ruled_profile",
    "structural_residuals",
    "three_curvature_families",
    "tube_base",
    "tube_spectra",
    "tube_spectrum",
    "two_curvature_families",
    "entry_to_dict",
]

# a projection of J(normal) longer than this makes a group of frame rows with
# equal initial data, and an eigenspace, a carrier.  Over every base kind and
# n in {3, 5, 8, 16}, J(normal) projects on a group either exactly 0 or at least
# 0.707.  Over the same bases and 60 radii up to MAX_RADIUS (signed for the
# hypersurfaces), a non-carrier eigenspace has projection exactly 0, and the
# smallest carrier weight is 8.9e-14: the equidistant's at MAX_RADIUS, which
# falls like e^(-3r/2), 9x above this.
CARRIER_TOL = 1e-14

# a tube's G x G shape block S = K M K^-1 asymmetric by more than this raises.
# Over every base kind, n in {3, 5, 8, 16} and 60 radii up to MAX_RADIUS
# (signed for the hypersurfaces), the worst block |S - S^T| is 1.9e-12, around
# the ruled orbit (Wk, k = 1) in n = 3 at r = 18.2: 5,000x below this bound.
SYMMETRY_TOL = 1e-8

# a tube base whose normal nu is not a unit vector within this raises: the bound
# ``OrbitModel`` holds its own rows to.
FRAME_TOL = 1e-10

BASE_KINDS = ("point", "CHk", "RHn", "Wk", "horosphere")


@dataclass(frozen=True, eq=False)
class TubeBase:
    """Initial data for the tube engine: the groups of a base's principal frame.

    The principal frame of a base at its unit normal ``nu`` (ambient
    coordinates) is the eigenvectors of its shape operator, then the
    unit-normal-sphere directions other than nu.  A tube's Jacobi field
    starts each frame row u at alpha u with derivative beta u: (1, -sigma)
    on a tangent row of base curvature sigma, (0, 1) on a sphere row.
    Rows with equal initial data form a group, and group g holds
    ``alpha[g]``, ``beta[g]``, its multiplicity ``mult[g]`` and
    ``weight[g]``, the length of J(nu)'s projection onto its rows: the
    tangent groups in ascending sigma, then the sphere group.  This is all
    the engine reads, and it hands each group to ``merge_spectrum`` as one
    item with its multiplicity, not as mult[g] rows.  ``tube_base`` builds
    the named bases' groups in closed form.
    """

    n: int
    nu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    mult: np.ndarray
    weight: np.ndarray


def _check_row_count(n: int, tangent: int, sphere: int) -> None:
    """Raise ValidationError unless a base's tangent and sphere rows number 2n - 1."""
    if tangent + sphere != 2 * n - 1:
        raise ValidationError(
            f"a tube base in complex dimension {n} needs 2n - 1 = {2 * n - 1} "
            f"tangent and sphere rows, got {tangent} + {sphere}"
        )


def _dimension(n) -> int:
    """The complex dimension n as an int; raise ValueError unless it is an integer >= 2."""
    n = as_int("n", n)
    if n < 2:
        raise ValueError(f"complex dimension must be >= 2, got {n}")
    return n


def _named_groups(kind: str, n: int, k: int | None):
    """A named base's (index of its normal e_i, groups in ``TubeBase`` order); k checked."""
    d = 2 * n
    if kind == "RHn":
        return 1, [(1.0, -0.0, n, 1.0), (0.0, 1.0, n - 1, 0.0)]
    if kind == "horosphere":
        return 0, [(1.0, -0.5, d - 2, 0.0), (1.0, -1.0, 1, 1.0)]
    if kind == "Wk":
        half = math.sqrt(0.5)
        tangent = [(1.0, 0.5, 1, half), (1.0, -0.0, d - k - 2, 0.0), (1.0, -0.5, 1, half)]
        return 2, tangent + [(0.0, 1.0, k - 1, 0.0)] * (k > 1)
    k = k or 0
    return 0, [(1.0, -0.0, 2 * k, 0.0)] * (k > 0) + [(0.0, 1.0, d - 2 * k - 1, 1.0)]


def tube_base(kind: str, n: int, k: int | None = None) -> TubeBase:
    """Base data for one of the named base submanifolds: one row of their closed form.

    A point or CH^k (spanned by the last 2k coordinates) has normal e_0
    and zero shape operator, so its groups are one tangent group and the
    sphere, which holds J(e_0) = e_1.  RH^n (spanned by e_0, e_2, ...)
    has normal e_1, and its tangent group holds J(e_1) = -e_0.  The
    horosphere, the orbit of the nilpotent part of the group model, has
    normal e_0 = A and no sphere rows; along A its shape operator is 1/2
    on v and 1 on Z = J(A), so its groups are (sigma 1/2, multiplicity
    2n - 2, weight 0) and (sigma 1, multiplicity 1, weight 1).  W^{2n-k},
    the corank-k ruled orbit, has normal e_2 = V_1, the first row of its
    slice; along any unit normal of the slice its shape operator pairs Z
    with J(nu) and vanishes elsewhere, so its groups are (sigma -1/2,
    multiplicity 1, weight sqrt(1/2)), the kernel (0, 2n - k - 2, 0) and
    (sigma 1/2, 1, sqrt(1/2)), and J(nu) misses its k - 1 sphere rows, as
    the slice is totally real.  All are built in O(n), with no frame.
    Only CHk and Wk take a k; a k given with any other kind raises
    ValueError naming the kind and k.
    """
    n = _dimension(n)
    if k is not None:
        if kind in ("point", "RHn", "horosphere"):
            raise ValueError(f"base kind {kind!r} takes no k, got k = {k!r}")
        k = as_int("k", k)
    if kind not in BASE_KINDS:
        raise ValueError(f"unknown base kind {kind!r}; expected one of {BASE_KINDS}")
    if kind == "CHk" and (k is None or not 0 <= k <= n - 1):
        raise ValueError(f"complex base dimension must lie in 0..{n - 1}, got {k}")
    if kind == "Wk" and (k is None or not 1 <= k <= n - 1):
        raise ValueError(f"ruled corank must lie in 1..{n - 1}, got {k}")
    normal, groups = _named_groups(kind, n, k)
    nu = np.zeros(2 * n)
    nu[normal] = 1.0
    return TubeBase(n, nu, *(np.array(column) for column in zip(*groups)))


def _carrier_runs(entries, lengths) -> list[int]:
    """The carrier runs of one grouped spectrum, ``merge_spectrum``'s (entries, lengths).

    A run is a carrier when J(normal) projects onto it longer than
    CARRIER_TOL.  Returns the carrier runs' indices: the repeated one
    first, if any, otherwise ascending.  One carrier makes a Hopf model
    and two a non-Hopf one; any other count raises.
    """
    runs = [j for j, length in enumerate(lengths) if length > CARRIER_TOL]
    if not 1 <= len(runs) <= 2:
        raise UnsupportedModelError(
            f"J(normal) has {len(runs)} carrier eigenspaces, neither the one of a "
            "Hopf model nor the two of a non-Hopf model"
        )
    if len(runs) == 2 and entries[runs[1]][1] > entries[runs[0]][1]:
        runs.reverse()
    return runs


def _carriers(vals: np.ndarray, vecs: np.ndarray, jnu_coeffs: np.ndarray):
    """Merged spectrum of S and the eigenspaces that carry J(normal).

    (vals, vecs) is ``np.linalg.eigh(S)``, grouped by ``merge_spectrum``
    and picked by ``_carrier_runs``.  Each carrier is (index into the
    spectrum, weight, unit direction), the direction in the frame of S.
    """
    weights = jnu_coeffs @ vecs
    entries, lengths = merge_spectrum(
        [(value, 1, w * w) for value, w in zip(vals.tolist(), weights.tolist())]
    )
    # the entry of each eigenvector: the spectrum is ascending, so runs are contiguous
    label = np.repeat(np.arange(len(entries)), [m for _, m in entries])
    carriers = [
        (j, lengths[j], vecs @ np.where(label == j, weights, 0.0) / lengths[j])
        for j in _carrier_runs(entries, lengths)
    ]
    return entries, carriers


def _group_stacks(jobs, n: int):
    """The jobs' (B, width) stacks of alpha, beta, mult and weight, zero-padded, and their mask.

    A TubeBase the engine cannot read raises ValidationError naming the
    first job at fault: alpha, beta, mult and weight not 1-d of one
    length, or nu not of length 2n or not a unit vector within FRAME_TOL.
    ``_tube_profiles`` checks the stacks themselves.
    """
    try:
        sizes = [len(b.mult) for b, _ in jobs]
        flat, readable = [], True
        for name in ("alpha", "beta", "mult", "weight"):
            column = [getattr(b, name) for b, _ in jobs]
            readable = readable and [len(a) for a in column] == sizes
            flat.append(np.concatenate(column))
        nu = np.array([b.nu for b, _ in jobs], dtype=float)
    except (TypeError, ValueError):
        readable = False
    if not (readable and all(a.ndim == 1 for a in flat) and nu.shape == (len(jobs), 2 * n)):
        for i, (base, _) in enumerate(jobs):
            shapes = [np.shape(a) for a in (base.alpha, base.beta, base.mult, base.weight, base.nu)]
            if shapes[:4].count(shapes[0]) != 4 or len(shapes[0]) != 1 or shapes[4] != (2 * n,):
                raise ValidationError(
                    f"job {i}: a tube base in complex dimension {n} needs alpha, beta, mult and "
                    f"weight of one length and nu of length {2 * n}, got shapes {shapes}"
                )
        raise ValidationError("the tube bases cannot be stacked as real numbers")
    present = np.arange(max(sizes)) < np.array(sizes)[:, None]
    stacks = np.zeros((4, *present.shape))
    for stack, values in zip(stacks, flat):
        stack[present] = values
    length = np.sqrt(np.square(nu).sum(axis=-1))
    # written so that a NaN fails
    unit = np.abs(length - 1.0) <= FRAME_TOL
    if not unit.all():
        i = int(np.argmin(unit))
        raise ValidationError(
            f"job {i}: the normal nu has length {float(length[i])!r}, not 1 within FRAME_TOL"
        )
    return (*stacks, present)


def tube_spectra(jobs) -> list[PrincipalProfile]:
    """Principal-curvature profiles of a list of (TubeBase, r) tubes, in its order.

    Every base must be a TubeBase, or ValidationError names the job, and
    have the same complex dimension n, or ValidationError names the
    dimensions; a base the engine cannot read raises ValidationError
    naming its job.  The catalog hands the engine core the named bases'
    closed forms in the same (B, G) stack form.  On the normal's
    complement the Jacobi operator is 1 on the line of J(normal) and 1/4
    on the rest, so a mode runs at the closed-form rate 1 or 1/2
    (``jacobi.RATES``) and ``jacobi_mode`` evaluates it.  In the base's
    principal frame (the eigenvectors of its shape operator, then the
    sphere rows) each row starts as a multiple of itself, so the value
    and derivative maps V and D are diagonal plus rank one.  The engine
    reads only the frame's groups, rows with equal initial data.  Off the
    projection of J(normal), a group
    is an eigenspace with the scalar value -X/Y at rate 1/2, X and Y its
    bounded derivative and value factors.  The G projections span a
    G x G block.  A Hopf tube has G = 1: its carrier holds the J(normal)
    line, the scalar -X/Y at rate 1 with J(normal) length 1, and one
    ``jacobi_mode`` call over both rates gives every scalar.  The
    paper's non-Hopf tubes have G = 2, and ``_block_spectra`` solves
    their blocks.  Each job's scalars and block eigenpairs go to
    ``merge_spectrum`` as they are, a handful of items, which gives its
    profile's values and J(normal) lengths; ``_carrier_runs`` picks its
    carriers: a tube is Hopf when J(normal) has one carrier eigenspace,
    and non-Hopf with two.  No (2n - 1) x (2n - 1) matrix is formed, no
    row of the profile is repeated out, and Hopf tubes make no
    ``numpy.linalg`` call.

    Every r must be a real number, finite with |r| <= MAX_RADIUS.
    Proper tubes (bases of codimension >= 2) require r > 0; hypersurface
    bases accept signed r and describe the equidistant family.  A focal
    r, where a scalar's K Y or a singular value of a block's V is at
    most KERNEL_TOL, raises FocalRadiusError; a block asymmetric by more
    than SYMMETRY_TOL raises ValueError, a tube with other than one or
    two carriers UnsupportedModelError, and a tube with two distinct
    curvatures within MERGE_TOL UnresolvedSpectrumError, naming its
    radius, the two values and, as ``job``, its index in ``jobs``.
    """
    for i, (base, _) in enumerate(jobs):
        if not isinstance(base, TubeBase):
            raise ValidationError(f"job {i}: expected a TubeBase, got {base!r}")
    dims = sorted({base.n for base, _ in jobs})
    if len(dims) > 1:
        raise ValidationError(f"stacked tube spectra need one complex dimension, got n in {dims}")
    if not jobs:
        return []
    n = dims[0]
    stacks = _group_stacks(jobs, n)
    return _tube_profiles(n, *stacks, np.array([as_real("tube radius", r) for _, r in jobs]))


def _tube_profiles(n: int, alpha, beta, mult, weight, present, radii) -> list[PrincipalProfile]:
    """``tube_spectra``'s core on (B, G) group stacks, padded where not ``present``.

    Each check runs once, on the stacks, and raises for the first job at fault.
    """
    m = 2 * n - 1
    # one flag per job, written so that a NaN fails each check
    finite = (np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(weight)).all(axis=-1)
    whole = ((mult >= 1.0) & (mult == np.floor(mult)) | ~present).all(axis=-1)
    for ok, defect in (
        (finite, "a tube base needs finite alpha, beta and weight"),
        (whole, "multiplicities must be positive integers, got {}"),
    ):
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValidationError(f"job {i}: " + defect.format(mult[i][present[i]].tolist()))
    mult = mult.astype(int)
    dim = np.where(alpha == 1.0, mult, 0).sum(axis=-1)
    in_range = np.abs(radii) <= MAX_RADIUS
    fits = in_range & ((radii > 0) | (2 * n - dim < 2))
    if not fits.all():
        i = int(np.argmin(fits))
        r = float(radii[i])
        if not in_range[i]:
            raise ValueError(
                f"tube radius {r} is out of range: |r| must be finite and at most "
                f"{MAX_RADIUS:.4f}"
            )
        raise ValueError(f"tube radius must be positive, got {r}")
    short = np.flatnonzero(mult.sum(axis=-1) != m)
    if short.size:
        i = short[0]
        _check_row_count(n, int(dim[i]), int(mult[i].sum() - dim[i]))
    carrier = weight > CARRIER_TOL
    count = carrier.sum(axis=-1)
    # off its carrier direction a group is an eigenspace of multiplicity rest, at
    # rate 1/2; a Hopf tube's one carrier direction is the J(normal) line, at rate 1
    rest = mult - carrier
    line = carrier & (count == 1)[:, None]
    live = np.stack([rest > 0, line], axis=-1)
    growth, y, x = jacobi_mode(alpha[..., None], beta[..., None], RATES, radii[:, None, None])
    focal = np.flatnonzero(np.any(live & (growth * np.abs(y) <= KERNEL_TOL), axis=(-2, -1)))
    if focal.size:
        raise FocalRadiusError(f"tube differential degenerates at distance {radii[focal[0]]}")
    value = -x / np.where(live, y, 1.0)
    # each job's items: its scalar groups, its J(normal) line or its G block eigenpairs
    items = [
        [(v, size) for v, size in zip(row, sizes) if size]
        for row, sizes in zip(value[..., 0].tolist(), rest.tolist())
    ]
    jobs_at, groups_at = np.nonzero(line)
    for i, v in zip(jobs_at.tolist(), value[jobs_at, groups_at, 1].tolist()):
        items[i].append((v, 1, 1.0))
    for g in sorted(set(count.tolist()) - {0, 1}):
        rows = np.flatnonzero(count == g)
        pick = carrier[rows]
        vals, vecs = _block_spectra(
            radii[rows], *(a[rows][pick].reshape(-1, g) for a in (alpha, beta, weight))
        )
        # J(normal) is the first coordinate of the block basis, up to sign
        for i, row_vals, row_weights in zip(rows.tolist(), vals.tolist(), vecs[:, 0].tolist()):
            items[i] += [(v, 1, w * w) for v, w in zip(row_vals, row_weights)]
    grouped = [merge_spectrum(job) for job in items]
    # every job's carrier count is checked before any job's merge gap
    carriers = [_carrier_runs(*spectrum) for spectrum in grouped]
    profiles = []
    for i, ((entries, lengths), runs) in enumerate(zip(grouped, carriers)):
        hopf = None
        if len(runs) == 2:
            j1, j2 = runs
            norm = math.hypot(lengths[j1], lengths[j2])
            hopf = HopfAttitude(
                lengths[j1] / norm, lengths[j2] / norm, entries[j1][0], entries[j2][0]
            )
        try:
            profiles.append(PrincipalProfile(entries, m, hopf))
        except UnresolvedSpectrumError as exc:
            raise UnresolvedSpectrumError(
                f"the tube at distance {float(radii[i])!r}: {exc}", i
            ) from None
    return profiles


def _block_spectra(radii, alpha, beta, weight):
    """``eigh`` of the G x G shape blocks of a (B, G) stack of carrier groups, G >= 2.

    Only a non-Hopf tube has a block: a Hopf tube's one carrier is the
    J(normal) line, a scalar that ``tube_spectra`` reads itself.
    A reflection Q takes e_0 to -w/|w|, w the carriers' weights, so in
    the basis of Q's columns J(normal) is the first coordinate, the
    Jacobi operator is diagonal (1 on row 0, 1/4 on the rest) and the
    growth K is cosh(q r) per row, q the row's rate in ``RATES``.
    Carrier g starts at alpha_g and beta_g times its direction, column g
    of Q, and ``jacobi_mode`` gives K and the bounded factors Y and X.  The value map is V = K Y;
    a singular value of V at or below KERNEL_TOL raises
    FocalRadiusError.  The shape block S = K M K^-1, M = -X Y^-1, takes
    each entry S_ij = (K_i / K_j) M_ij from the side where K_i <= K_j,
    so no ratio above 1 multiplies an entry of M; asymmetric by more
    than SYMMETRY_TOL, it raises.  ``radii`` name the blocks' distances.
    """
    g = alpha.shape[-1]
    v = weight / np.linalg.norm(weight, axis=-1, keepdims=True)
    v[:, 0] += 1.0
    Q = np.eye(g) - v[:, :, None] * v[:, None, :] / v[:, :1, None]
    rates = RATES[(np.arange(g) == 0).astype(int)]  # row 0 is the J(normal) line
    # Y and X transposed, rows are directions: Q is symmetric, so entry (h, i)
    # of Q is coordinate i of direction h
    K, y_t, x_t = jacobi_mode(alpha[:, :, None], beta[:, :, None], rates, radii[:, None, None])
    y_t *= Q
    x_t *= Q
    singular = np.flatnonzero(np.linalg.svd(y_t * K, compute_uv=False).min(axis=-1) <= KERNEL_TOL)
    if singular.size:
        raise FocalRadiusError(f"tube differential degenerates at distance {radii[singular[0]]}")
    # S^T = K^-1 M^T K with M^T = -(Y^T)^-1 X^T: entry (i, j) scaled by K_j / K_i
    s_t = np.linalg.solve(y_t, x_t)
    s_t *= -K
    s_t /= np.swapaxes(K, -1, -2)
    s_tt = np.swapaxes(s_t, -1, -2)
    asym = np.max(np.abs(s_t - s_tt), axis=(-2, -1))
    skew = np.flatnonzero(asym > SYMMETRY_TOL)
    if skew.size:
        raise ValueError(
            f"tube shape operator at distance {radii[skew[0]]} asymmetric by "
            f"{asym[skew[0]]:.3e}"
        )
    # eigh reads one triangle; each entry there comes from its side with K_j <= K_i
    return np.linalg.eigh(np.where(K <= np.swapaxes(K, -1, -2), s_t, s_tt))


def _named_base(base, n: int | None, k: int | None) -> TubeBase:
    """``base`` itself, which takes no n or k, or the base of that kind name in dimension n."""
    if isinstance(base, TubeBase):
        if n is not None or k is not None:
            raise ValueError(f"a TubeBase carries its own data; got n = {n!r}, k = {k!r} with it")
        return base
    if not isinstance(base, str):
        raise ValueError(f"job 0: expected a TubeBase or one of {BASE_KINDS}, got {base!r}")
    if n is None:
        raise ValueError("complex dimension n is required with a named base")
    return tube_base(base, n, k)


def tube_spectrum(base, n: int | None = None, k: int | None = None, r: float = 1.0):
    """Principal-curvature profile of the tube of radius r around a base.

    ``base`` is a TubeBase, given without n or k, or one of the kind
    names; anything else raises ValueError.  This is the one-job case of
    ``tube_spectra``, with its radius rules.
    """
    return tube_spectra([(_named_base(base, n, k), r)])[0]


def ruled_profile(n: int) -> PrincipalProfile:
    """Profile of the ruled minimal hypersurface orbit itself (distance zero)."""
    return equidistant_profile(n, 0.0)


def equidistant_profile(n: int, r: float) -> PrincipalProfile:
    """Profile of the equidistant at signed distance r from the ruled orbit.

    The sign convention orients the unit normal so that travelling the
    distance r from the hypersurface lands on the minimal orbit; the
    axis curvature is then tanh(r/2)/2.
    """
    return tube_spectra([(tube_base("Wk", n, 1), -as_real("r", r))])[0]


# ---------------------------------------------------------------------------
# structural residuals on the ruled hypersurface orbit
# ---------------------------------------------------------------------------


def _carrier_frame(orbit: OrbitModel, entries, carriers):
    """Unit carrier fields U1, U2 and the axis field A on a codim-1 orbit.

    (entries, carriers) is ``_carriers`` of the eigendecomposition of
    the shape operator along the orbit's unit normal.  U_i are the
    normalised projections of J(normal) onto the carrier eigenspaces,
    oriented to positive weights; A is fixed by J A = b2 U1 - b1 U2, and
    lam3 is the value of the first eigenspace that is not a carrier.  A
    Hopf model has one carrier and no such frame.
    """
    if len(carriers) != 2:
        raise UnsupportedModelError("a Hopf orbit has no carrier frame")
    J, t = orbit.algebra.J, orbit.tangent
    (j1, b1, u1), (j2, b2, u2) = carriers
    u1, u2 = u1 @ t, u2 @ t
    # A = -J(b2 U1 - b1 U2) since J^2 = -1
    a = -(J @ (b2 * u1 - b1 * u2))
    lam3 = [v for j, (v, _) in enumerate(entries) if j not in (j1, j2)]
    return (entries[j1][0], entries[j2][0], lam3[0]), (b1, b2), (u1, u2, a)


def structural_residuals(orbit: OrbitModel) -> dict[str, float]:
    """Connection-identity residuals on a non-Hopf hypersurface orbit, e.g. the ruled one.

    Evaluates the induced covariant derivatives of the carrier and axis
    fields against their closed forms in the curvatures and projection
    weights, plus the scalar weight-balance identity.  Only orbits
    through the base point are supported (the left-invariant frame
    computes the connection exactly there); Hopf orbits carry no
    carrier frame and are rejected.
    """
    if orbit.codim != 1:
        raise UnsupportedModelError("structural residuals need a hypersurface orbit")
    # one decomposition and grouping of S serve the carrier frame and the pairing lemma
    xi = orbit.normal[0]
    vals, vecs = np.linalg.eigh(orbit.shape_operator(xi))
    entries, carriers = _carriers(vals, vecs, orbit.tangent @ (orbit.algebra.J @ xi))
    (l1, l2, l3), b, fields = _carrier_frame(orbit, entries, carriers)
    # frame coordinates of U1, U2, A; nabla[p, q] is the derivative of field q along p
    f = np.array(fields) @ orbit.tangent.T
    nabla = np.einsum("pi,qj,ijk->pqk", f, f, orbit.intrinsic_gamma)
    u, a, lam = f[:2], f[2], (l1, l2)

    res: dict[str, float] = {}
    for i, j in ((0, 1), (1, 0)):
        sign_i, sign_j = (-1.0, 1.0) if i == 0 else (1.0, -1.0)
        mix = 3.0 * b[0] * b[1] / (4.0 * (l3 - lam[i]))
        diag = lam[i] + 3.0 * b[i] ** 2 / (4.0 * (l3 - lam[i]))
        res[f"carrier_self_{i + 1}"] = float(
            np.linalg.norm(nabla[i, i] - sign_i * mix * a)
        )
        res[f"carrier_cross_{i + 1}{j + 1}"] = float(
            np.linalg.norm(nabla[i, j] - sign_j * diag * a)
        )
        res[f"carrier_axis_{i + 1}"] = float(
            np.linalg.norm(nabla[i, 2] - (sign_j * mix * u[i] + sign_i * diag * u[j]))
        )
        coeff = (sign_j / (lam[i] - lam[j])) * (
            (b[i] ** 2 - 2.0 * b[j] ** 2) / 4.0 + (lam[j] - l3) * diag
        )
        res[f"axis_carrier_{i + 1}"] = float(np.linalg.norm(nabla[2, i] - coeff * u[j]))
    res["axis_geodesic"] = float(np.linalg.norm(nabla[2, 2]))
    res["weight_balance"] = residual_hopf_weights(l1, l2, l3, b[0] ** 2, b[1] ** 2)
    res["eigenpair_bracket"] = _eigenpair_bracket(orbit, vals, vecs, entries)
    return res


def _eigenpair_bracket(orbit: OrbitModel, vals: np.ndarray, vecs: np.ndarray, entries) -> float:
    """Worst defect of the same-eigenvalue pairing lemma over the eigenbasis vecs of S.

    For x, y in one principal distribution (eigenvalue lam) and z in
    another (eigenvalue mu), 4 (mu - lam) <D_x y, z> = <Jy, z><x, J xi>
    + <Jx, y><z, J xi> + 2 <Jx, z><y, J xi>.  The eigenvectors of one
    entry of the merged spectrum ``entries`` span one distribution.
    """
    J, xi = orbit.algebra.J, orbit.normal[0]
    e = vecs.T @ orbit.tangent
    nabla = vecs.T @ np.tensordot(vecs.T, orbit.intrinsic_gamma, 1) @ vecs
    pair = e @ J.T @ e.T  # pair[x, y] = <Jx, y>
    jxi = e @ (J @ xi)
    gap = vals[None, None, :] - vals[:, None, None]
    rhs = (
        pair[None, :, :] * jxi[:, None, None]
        + pair[:, :, None] * jxi[None, None, :]
        + 2.0 * pair[:, None, :] * jxi[None, :, None]
    )
    label = np.repeat(np.arange(len(entries)), [m for _, m in entries])
    same = label[:, None] == label[None, :]
    mask = same[:, :, None] & ~same[:, None, :]
    return float(np.max(np.abs(4.0 * gap * nabla - rhs)[mask]))


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
    classification_family: str | None = None
    constraint: str | None = None

    @property
    def g(self) -> int:
        return self.profile.g

    @property
    def is_hopf(self) -> bool:
        return self.profile.hopf is None


def _catalog_rows(n: int, r: float) -> list:
    """Rows (g, family, kind, k, r, distance, letter, constraint), g = 2 first.

    The base is ``tube_base(kind, n, k)`` and distance the engine's signed radius.
    """
    star = EXCEPTIONAL_RADIUS
    rows = [
        (2, "horosphere", "horosphere", None, None, 1.0, None, None),
        (2, "geodesic-sphere", "point", None, r, r, None, None),
        (2, "tube-CHk", "CHk", n - 1, r, r, None, "k = n-1"),
        (2, "tube-RHn", "RHn", None, star, star, None, "r = ln(2+sqrt(3))"),
    ]
    if n == 2:
        return rows
    rows += [(3, "tube-CHk", "CHk", k, r, r, "a", "k <= n-2, any r > 0") for k in range(1, n - 1)]
    rows += [
        (3, "tube-RHn", "RHn", None, r, r, "b", "r != ln(2+sqrt(3))"),
        # the ruled orbit is its own equidistant at distance zero
        (3, "ruled-W", "Wk", 1, 0.0, -0.0, "c", None),
        (3, "equidistant-W", "Wk", 1, r, -r, "c", "any r != 0"),
    ]
    constraint = "r = ln(2+sqrt(3)), 2 <= k <= n-1"
    rows += [(3, "tube-Wk", "Wk", k, star, star, "d", constraint) for k in range(2, n)]
    return rows


def _engine_entries(n: int, rows) -> list[CatalogEntry]:
    """Catalog entries of ``_catalog_rows`` from one stack of their closed forms.

    Each entry is checked to have its row's g distinct curvatures.
    """
    groups = [_named_groups(kind, n, k)[1] for _, _, kind, k, *_ in rows]
    width = max(map(len, groups))
    stack = np.array([g + [(0.0, 0.0, 0, 0.0)] * (width - len(g)) for g in groups], dtype=float)
    present = np.arange(width) < np.array([len(g) for g in groups])[:, None]
    radii = np.array([row[5] for row in rows])
    try:
        profiles = _tube_profiles(n, *np.moveaxis(stack, -1, 0), present, radii)
    except UnresolvedSpectrumError as exc:
        _, family, _, k, *_ = rows[exc.job]
        family += "" if k is None else f" (k = {k})"
        raise UnresolvedSpectrumError(f"catalog family {family}, {exc}", exc.job) from None
    entries = []
    for (g, family, _, k, r, _, letter, constraint), profile in zip(rows, profiles):
        if profile.g != g:
            raise ValueError(
                f"{family} at r = {r} has g = {profile.g}, not {g}: its "
                f"principal curvatures merge to {list(profile.entries)}"
            )
        entries.append(CatalogEntry(family, n, k, r, profile, letter, constraint))
    return entries


_OPEN_CASE = "the three-curvature classification is open in complex dimension 2"


def two_curvature_families(n: int, r: float = 1.0) -> list[CatalogEntry]:
    """The four families with two distinct constant principal curvatures."""
    n = _dimension(n)
    return _engine_entries(n, _catalog_rows(n, as_real("r", r))[:4])


def three_curvature_families(n: int, r: float = 1.0) -> list[CatalogEntry]:
    """Representatives of the families with three distinct curvatures.

    Defined for n >= 3; for n = 2 the classification is open and this
    raises OpenCaseError.
    """
    n = _dimension(n)
    if n == 2:
        raise OpenCaseError(_OPEN_CASE)
    return _engine_entries(n, _catalog_rows(n, as_real("r", r))[4:])


def catalog(n: int, r: float = 1.0) -> tuple[list[CatalogEntry], list[str]]:
    """All catalog entries for complex dimension n, plus notes.

    Returns the two-curvature families always and the three-curvature
    families when n >= 3; for n = 2 a note records that the latter
    classification is open.  It reads the named closed forms as one
    stack, of which ``tube_base`` is one row, for one engine pass.  r
    must be a real number, and the entries store it as a float.
    """
    r = as_real("r", r)
    n = _dimension(n)
    notes = [_OPEN_CASE] if n == 2 else []
    return _engine_entries(n, _catalog_rows(n, r)), notes


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
