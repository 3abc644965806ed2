"""Normal Jacobi fields and the distance-r transversal map.

Along a unit-speed geodesic normal to a hypersurface the Jacobi
equation in a parallel frame is constant-coefficient:

    4 w'' = w + 3 <w, Jc> Jc,

where Jc is the (parallel) image of the tangent direction under the
complex structure.  For an initial vector in a principal distribution
with curvature lam the solution splits into a transverse coefficient

    f(t) = cosh(t/2) - 2 lam sinh(t/2)

and a mixing coefficient against the Jc-line

    g(t) = (cosh(t/2) - 1) (1 + 2 cosh(t/2) - 2 lam sinh(t/2)),

so the field is f(t) B_v(t) + <v, Jc(0)> g(t) Jc(t) with B_v the
parallel translate of v.  Components squarely on the Jc-line evolve
with cosh(t) - lam sinh(t).

The transversal map sends each point of the hypersurface a fixed
distance along its normal geodesic; its differential evaluates Jacobi
fields at that distance, and the shape operator of the image is read
off from minus the tangential part of the field derivatives.  In the
frame of ``normal_frame`` only the two projection carriers meet the
Jc-line, so the map is block diagonal: a 2x2 block D on the carriers
and the transverse coefficient f on every other row.  Its singular
values and the image spectrum come from D and f alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import CurvatureModel, jacobi_operator
from .errors import FocalPointError, ValidationError
from .profiles import MERGE_TOL, HopfAttitude, PrincipalProfile, merge_spectrum

__all__ = [
    "EXCEPTIONAL_RADIUS",
    "FocalMapData",
    "GeodesicNormalFrame",
    "ImageShapeData",
    "coefficient_pairs",
    "curvature_propagator",
    "image_shape_operator",
    "jacobi_field",
    "jacobi_numeric",
    "normal_frame",
    "transversal_map",
    "transversal_maps",
]

# distance at which tube spectra degenerate: 2 artanh(1/sqrt(3))
EXCEPTIONAL_RADIUS = math.log(2.0 + math.sqrt(3.0))
# largest distance at which 1/sinh(r), the gap between the principal
# curvatures coth(r/2)/2 and tanh(r/2)/2, still exceeds the merge gap
MAX_RADIUS = math.asinh(1.0 / MERGE_TOL)

KERNEL_TOL = 1e-10  # a value map's singular values at or below this are its kernel
BLOCK_DET_TOL = 1e-12  # a carrier block with |det| at most this is singular
KERNEL_GAP = 0.1  # a map with a kernel keeps its other singular values above this


# ---------------------------------------------------------------------------
# scalar coefficient functions
# ---------------------------------------------------------------------------


def coefficient_pairs(lam, t):
    """((f, g), (f_dt, g_dt)): the transverse and hopf coefficients at t and their derivatives.

    f is the coefficient of the parallel translate for initial vectors
    off the Jc-line; g mixes the initial Jc-projection back onto the
    Jc-line.  All four share one cosh(t/2), one sinh(t/2) and their
    products with lam.
    """
    c, s = np.cosh(t / 2.0), np.sinh(t / 2.0)
    two_lam_s, lam_c = 2.0 * lam * s, lam * c
    mix = 1.0 + 2.0 * c - two_lam_s
    return (
        (c - two_lam_s, (c - 1.0) * mix),
        (0.5 * s - lam_c, 0.5 * s * mix + (c - 1.0) * (s - lam_c)),
    )


# ---------------------------------------------------------------------------
# concrete frame realisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeodesicNormalFrame:
    """Concrete coordinates for a profile of the two-projection type.

    The normal is e1 and J(normal) is e2.  The distinguished tangent
    direction sits at e3 (with J-image e4), the two projection carriers
    u1, u2 mix e2 and e4, and the remaining coordinates pair off under
    J.  ``basis`` rows are ordered (u1, u2, axis, pairs...) and
    ``lambdas`` assigns the principal curvature of each row, so the
    axis curvature lam3 is ``lambdas[2]``.
    """

    n: int
    basis: np.ndarray
    lambdas: np.ndarray
    hopf: HopfAttitude

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def jxi(self) -> np.ndarray:
        return np.eye(self.dim)[1]

    def decompose(self, v) -> np.ndarray:
        """Basis-row coefficients, shape (..., m), of tangent vectors v of shape (..., d).

        Raises if any row of v leaves the span of the basis by more than 1e-10.
        """
        v = np.asarray(v, dtype=float)[..., None, :]
        coeffs = v @ self.basis.T
        if not np.all(np.linalg.norm(v - coeffs @ self.basis, axis=-1) <= 1e-10):
            raise ValueError("vector is not tangent to the hypersurface frame")
        return coeffs[..., 0, :]


def normal_frame(profile: PrincipalProfile):
    """Build the concrete frame for a three-curvature two-projection profile."""
    hopf = profile.hopf
    if hopf is None:
        raise ValidationError("profile carries no Hopf attitude")
    if profile.g != 3:
        raise ValidationError("frame construction needs three distinct curvatures")
    total = profile.total_dim
    if total % 2 != 1:
        raise ValidationError("hypersurface profile must have odd dimension")
    n = (total + 1) // 2
    lam1, lam2 = hopf.lam1, hopf.lam2
    lam3 = profile.axis_value()
    m1 = profile.multiplicity(lam1)
    if profile.multiplicity(lam2) != 1:
        raise ValidationError("second projection carrier must have multiplicity one")
    if m1 > n - 1:
        raise ValidationError(
            f"carrier multiplicity {m1} does not fit complex dimension {n}"
        )
    if profile.multiplicity(lam3) != 2 * n - 2 - m1:
        raise ValidationError("axis multiplicity inconsistent with frame layout")

    d = 2 * n
    e = np.eye(d)
    b1, b2 = hopf.b1, hopf.b2
    u1 = b1 * e[1] + b2 * e[3]
    u2 = b2 * e[1] - b1 * e[3]
    rows = [u1, u2, e[2]]
    lams = [lam1, lam2, lam3]
    pair_count = n - 2
    carriers = m1 - 1
    for p in range(pair_count):
        first, second = e[4 + 2 * p], e[5 + 2 * p]
        rows.extend([first, second])
        if p < carriers:
            lams.extend([lam1, lam3])
        else:
            lams.extend([lam3, lam3])
    return GeodesicNormalFrame(n=n, basis=np.array(rows), lambdas=np.array(lams), hopf=hopf)


def _coefficients(lambdas, t):
    """``coefficient_pairs`` for principal curvatures ``lambdas`` (..., m) at distances t.

    t, a scalar or an array, broadcasts against the leading axes of
    lambdas; each coefficient has shape (..., m, 1).
    """
    return coefficient_pairs(lambdas[..., None], np.asarray(t, dtype=float)[..., None, None])


def jacobi_field(frame: GeodesicNormalFrame, v, t):
    """Closed-form field and derivative for tangent vectors v at times t.

    v has shape (..., d) and t broadcasts against its leading axes (a
    scalar t serves every row).  Returns parallel-frame coefficient
    vectors (value, derivative), each of the broadcast shape (..., d).
    """
    coeffs = frame.decompose(v)[..., None, :]
    # the field of basis row i is f_i row_i + <row_i, Jc> g_i Jc
    w = (frame.basis @ frame.jxi)[:, None]
    return tuple(
        (coeffs @ (f * frame.basis + w * g * frame.jxi))[..., 0, :]
        for f, g in _coefficients(frame.lambdas, t)
    )


# ---------------------------------------------------------------------------
# numerical oracle
# ---------------------------------------------------------------------------


def _rk4_segment(z, zp, jc, h: float, nsteps: int):
    """nsteps classic fourth-order steps of 4 w'' = w + 3 <w, jc> jc.

    The equation is linear with constant coefficients, y' = L y for the
    stacked state y = (w, w'), so one step of the four-stage scheme is
    the fixed matrix M = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24 and
    nsteps steps are M^nsteps, formed by repeated squaring.  ``z`` and
    ``zp`` may carry trailing batch axes.
    """
    d = jc.shape[0]
    hl = np.zeros((2 * d, 2 * d))
    hl[:d, d:] = h * np.eye(d)
    hl[d:, :d] = 0.25 * h * (np.eye(d) + 3.0 * np.outer(jc, jc))
    step = term = np.eye(2 * d)
    for k in range(1, 5):
        term = term @ hl / k
        step = step + term
    y = np.tensordot(np.linalg.matrix_power(step, nsteps), np.concatenate([z, zp]), axes=1)
    return y[:d], y[d:]


def jacobi_numeric(v0, v0_prime, jc, t: float, step: float):
    """Fourth-order integration of 4 w'' = w + 3 <w, jc> jc.

    ``v0``/``v0_prime`` may carry a trailing batch axis.  Returns the
    value and derivative at parameter t.
    """
    for name, value in (("t", t), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    z = np.array(v0, dtype=float)
    zp = np.array(v0_prime, dtype=float)
    jc = np.asarray(jc, dtype=float)
    if t == 0.0:
        return z, zp
    ratio = abs(t) / step
    if not math.isfinite(ratio):
        raise ValueError(f"t / step overflows: t={t}, step={step}")
    nsteps = max(1, math.ceil(ratio))
    return _rk4_segment(z, zp, jc, t / nsteps, nsteps)


def curvature_propagator(model: CurvatureModel, direction, t):
    """Solution operators of the Jacobi equation on c-perp, in scaled diagonal form.

    Directions are classified spectrally: the operator -R(., c)c is
    diagonalised once and cosh/tanh act on its eigenvalues kappa > 0 on
    c-perp, so no per-family case analysis enters.  Returns
    (basis, ch, th, th_dt): basis rows are an orthonormal eigenbasis of
    c-perp, ch = cosh(sqrt(kappa) t), th = tanh(sqrt(kappa) t)/sqrt(kappa)
    and th_dt = sqrt(kappa) tanh(sqrt(kappa) t).  In basis coordinates a
    field's value is ch * (w(0) + th * w'(0)) and its derivative
    ch * (th_dt * w(0) + w'(0)), so the growth ch stays a factor apart.
    The factors have shape (T, d - 1) for a 1-D array of T distances (the
    tube engine passes one per tube, repeats included) and (d - 1,) for a
    scalar t.
    """
    K = jacobi_operator(model, direction)
    w, V = np.linalg.eigh(0.5 * (K + K.T))
    # the first eigenvector is c itself, with kappa = 0
    sq = np.sqrt(w[1:])
    # one row per distance against the eigenvalue axis
    st = sq * np.asarray(t, dtype=float)[..., None]
    th = np.tanh(st)
    return V[:, 1:].T, np.cosh(st), th / sq, sq * th


# ---------------------------------------------------------------------------
# transversal map
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FocalMapData:
    """Differential data of the distance-r transversal map.

    The map is block diagonal in the frame of ``normal_frame``.
    ``d_block`` is its 2x2 action D on the projection carriers, frame
    rows 0 and 1, and ``f`` the transverse coefficients of rows 2
    onwards, the axis first; ``d_block_dt`` and ``f_dt`` are their
    derivatives.  ``singular_values`` are those of D and the |f|, in
    descending order.  ``c_block`` is -d_block_dt @ inv(d_block) when
    the block is invertible.  It equals D @ carrier_block @ inv(D) for the
    ``carrier_block`` of ``image_shape_operator``, so it has the same
    trace, determinant and spectrum, but it is not symmetric.
    ``kernel_dim`` counts vanishing singular values of the full
    differential, ``rank`` is the complement and ``image_codim`` the
    ambient codimension of the image (kernel_dim plus the normal
    direction itself).
    """

    r: float
    frame: GeodesicNormalFrame
    f: np.ndarray
    f_dt: np.ndarray
    singular_values: np.ndarray
    kernel_dim: int
    d_block: np.ndarray
    d_block_dt: np.ndarray
    _c_block: np.ndarray | None
    c_reason: str | None

    @property
    def rank(self) -> int:
        return len(self.singular_values) - self.kernel_dim

    @property
    def image_codim(self) -> int:
        return self.frame.dim - self.rank

    @property
    def c_block(self) -> np.ndarray:
        if self._c_block is None:
            raise FocalPointError(f"carrier block singular at distance {self.r}: {self.c_reason}")
        return self._c_block

    @property
    def det_d(self) -> float:
        return float(np.linalg.det(self.d_block))


def transversal_map(profile: PrincipalProfile, r: float) -> FocalMapData:
    """Differential of the map travelling distance r along the normals.

    The one-job case of ``transversal_maps``, which states the limits on r.
    """
    return transversal_maps([(profile, r)])[0]


def _check_distance(lam3: float, r: float) -> None:
    """Reject a distance r that the transversal map cannot resolve at lam3."""
    if not abs(r) <= MAX_RADIUS:
        raise ValueError(
            f"distance {r} is out of range at lam3={lam3}: "
            f"|r| must be at most {MAX_RADIUS:.4f}"
        )
    if not abs(2.0 * lam3) < 1.0:
        raise ValueError(
            f"axis curvature {lam3} lies outside (-1/2, 1/2) at distance {r}: "
            "the hypersurface is no equidistant of the minimal orbit"
        )
    image_distance = abs(2.0 * math.atanh(2.0 * lam3) - r)
    if image_distance > MAX_RADIUS:
        raise ValueError(
            f"distance {r} at lam3={lam3} puts the image {image_distance:.4f} from the "
            f"minimal orbit: at most {MAX_RADIUS:.4f} keeps its curvatures apart"
        )


def transversal_maps(jobs) -> list[FocalMapData]:
    """``transversal_map`` for every (profile, r) job, computed as one stack.

    Every profile must have the same complex dimension n.  Per job, |r|
    is at most MAX_RADIUS; further out the carrier blocks, built from
    field values of size e^|r|, lose their digits.  So is the distance
    |2 artanh(2 lam3) - r| of the image from the minimal orbit, where
    lam3 is the axis curvature: further out the image curvatures come
    closer than the merge gap.  A job that fails a check raises, naming
    its lam3 and r.  Each job's data equals a call on that job alone.
    """
    jobs = list(jobs)
    frames = []
    for profile, r in jobs:
        frames.append(normal_frame(profile))
        _check_distance(float(frames[-1].lambdas[2]), r)
    if len({frame.n for frame in frames}) > 1:
        raise ValidationError(
            "stacked transversal maps need one complex dimension, got "
            f"n in {sorted({frame.n for frame in frames})}"
        )
    if not jobs:
        return []
    coefficients = _coefficients(
        np.array([frame.lambdas for frame in frames]), [r for _, r in jobs]
    )
    # the 2x2 action on the projection carriers, rows 0 and 1 of the frame:
    # diag(f) + (b b^T) g on the carrier curvatures (lam1, lam2)
    b = np.array([(frame.hopf.b1, frame.hopf.b2) for frame in frames])
    outer = b[:, :, None] * b[:, None, :]
    d_block, d_block_dt = np.zeros((2, len(jobs), 2, 2))
    for block, (f, g) in zip((d_block, d_block_dt), coefficients):
        # entries 0 and 3 of each flattened 2x2 block are its diagonal
        block.reshape(-1, 4)[:, ::3] = f[:, :2, 0]
        block += outer * g[:, :2]
    # the other rows keep their direction and scale by f
    (f, _), (f_dt, _) = coefficients
    f, f_dt = f[:, 2:, 0], f_dt[:, 2:, 0]
    svals = np.concatenate([np.linalg.svd(d_block, compute_uv=False), np.abs(f)], axis=-1)
    svals = np.sort(svals)[:, ::-1]
    kernel_dims = np.sum(svals <= KERNEL_TOL, axis=-1).tolist()
    for i, kernel_dim in enumerate(kernel_dims):
        # a job with a kernel must keep its other singular values above the gap
        if 0 < kernel_dim < svals.shape[-1] and svals[i, -kernel_dim - 1] < KERNEL_GAP:
            raise ValidationError(
                "singular values fall between the kernel threshold and the gap "
                f"guard at distance {jobs[i][1]}, lam3={frames[i].lambdas[2]}: {svals[i]}"
            )

    det = np.linalg.det(d_block)
    regular = np.abs(det) > BLOCK_DET_TOL
    # C = -D_dt D^-1 of the regular blocks, in job order
    c_blocks = iter(-d_block_dt[regular] @ np.linalg.inv(d_block[regular]))
    return [
        FocalMapData(
            r=r,
            frame=frames[i],
            f=f[i],
            f_dt=f_dt[i],
            singular_values=svals[i],
            kernel_dim=kernel_dim,
            d_block=d_block[i],
            d_block_dt=d_block_dt[i],
            _c_block=next(c_blocks) if regular[i] else None,
            c_reason=None if regular[i] else f"det of the carrier block is {det[i]:.3e}",
        )
        for i, ((_, r), kernel_dim) in enumerate(zip(jobs, kernel_dims))
    ]


@dataclass(frozen=True, eq=False)
class ImageShapeData:
    """Shape-operator data of the image of the transversal map.

    ``entries`` is the merged spectrum w.r.t. the translated normal and
    ``axis_rate`` the eigenvalue on translated axis-class directions.
    ``carrier_block`` = -inv(D) @ D_dt, with D the focal map's
    ``d_block``, is the image shape operator on the translated
    projection carriers in an orthonormal basis, so it is symmetric.
    """

    entries: tuple[tuple[float, int], ...]
    carrier_block: np.ndarray
    axis_rate: float


def image_shape_operator(focal: FocalMapData) -> ImageShapeData:
    """Spectrum of the image shape operator w.r.t. the translated normal.

    The map is block diagonal, and so is the image shape operator: on
    the translated carriers it is ``carrier_block`` = -inv(D) @ D_dt,
    and a transverse row with f above KERNEL_TOL keeps its direction
    with eigenvalue -f_dt/f; rows with f at or below KERNEL_TOL are
    kernel and leave the image.
    """
    focal.c_block  # raises FocalPointError when the carrier block is singular
    carrier_block = -np.linalg.inv(focal.d_block) @ focal.d_block_dt
    live = np.abs(focal.f) > KERNEL_TOL
    rates = -focal.f_dt[live] / focal.f[live]
    carrier = np.linalg.eigvalsh(0.5 * (carrier_block + carrier_block.T))
    entries = merge_spectrum(np.concatenate([carrier, rates]))
    # frame row 2, the axis, is never kernel: its f stays positive for |lam3| < 1/2
    return ImageShapeData(entries=entries, carrier_block=carrier_block, axis_rate=float(rates[0]))
