"""Normal Jacobi fields and the distance-r transversal map.

Along a unit-speed geodesic normal to a hypersurface the Jacobi
equation in a parallel frame is constant-coefficient:

    4 w'' = w + 3 <w, Jc> Jc,

where Jc is the (parallel) image of the tangent direction under the
complex structure.  A field that starts on the Jc-line stays there,
at rate q = 1, and one orthogonal to it stays orthogonal, at rate
q = 1/2.  ``jacobi_mode`` evaluates such a mode: the one solution of
the equation, read by the focal map here and the tube engine of
``families``, and held against RK4 (``jacobi_numeric``).  For v in a
principal distribution with curvature lam, starting with derivative
-lam v, the modes give a transverse coefficient

    f(t) = cosh(t/2) - 2 lam sinh(t/2)

and a mixing coefficient against the Jc-line

    g(t) = (cosh(t/2) - 1) (1 + 2 cosh(t/2) - 2 lam sinh(t/2)),

the rate-1 mode cosh(t) - lam sinh(t) minus f; the field is
f(t) B_v(t) + <v, Jc(0)> g(t) Jc(t) with B_v the parallel translate of
v.

The transversal map sends each point of the hypersurface a fixed
distance along its normal geodesic; its differential evaluates Jacobi
fields at that distance, and the shape operator of the image is read
off from minus the tangential part of the field derivatives.  In the
frame of ``normal_frame`` only the two projection carriers meet the
Jc-line, so the map is block diagonal: a 2x2 block D on the carriers
and the transverse coefficient f on every other row.  Every row
carries one of the three principal curvatures, so the modes are
evaluated per principal group, five per map whatever n is: lam1, lam2
and lam3 at rate 1/2 and the carriers lam1, lam2 at rate 1; the frame's
row-to-group index gathers them onto the rows.  The singular values
and the image spectrum come from D and f alone, and the 2x2 algebra
(determinant, adjugate, singular values, symmetric eigenvalues) is
written in closed form on floats: no ``numpy.linalg`` call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ambient import CurvatureModel, jacobi_operator
from .errors import FocalPointError, UnsupportedModelError, ValidationError, as_real
from .profiles import MERGE_TOL, HopfAttitude, PrincipalProfile, merge_spectrum

__all__ = [
    "EXCEPTIONAL_RADIUS",
    "FocalMapData",
    "GeodesicNormalFrame",
    "ImageShapeData",
    "curvature_propagator",
    "image_shape_operator",
    "jacobi_field",
    "jacobi_mode",
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
TANGENT_TOL = 1e-10  # a vector further than this from a frame's span is not tangent
# the rates of the modes of 4 w'' = w + 3 <w, Jc> Jc: 1/2 off the Jc-line, 1 on it
RATES = np.array([0.5, 1.0])
# the five modes of ``_group_modes``: the principal groups lam1, lam2,
# lam3 at the rate off the Jc-line, then the carriers lam1, lam2 at the
# rate on it
_MODE_GROUPS = np.array([0, 1, 2, 0, 1])
_RATES = RATES[[0, 0, 0, 1, 1]]


# ---------------------------------------------------------------------------
# the Jacobi mode
# ---------------------------------------------------------------------------


def jacobi_mode(alpha, beta, q, t):
    """Growth and bounded factors (K, Y, X) of the field starting at alpha u, beta u.

    u is an eigenvector of the Jacobi operator with eigenvalue q^2; at
    distance t the field is K Y u with derivative K X u, K = cosh(q t).
    With s the sign of t (a signed zero's included) and
    tau = 1 - tanh(q |t|) = 2 / (e^(2 q |t|) + 1), free of cancellation,
    Y = (alpha + s beta / q) - s beta tau / q and
    X = (s q alpha + beta) - s q alpha tau: each is its limit at
    |t| -> infinity minus a multiple of tau, so a decaying field, such
    as a horosphere's, keeps its digits at any distance.  The arguments
    broadcast, and the factors keep their dtype, long double included.
    """
    st = q * t
    tau = 2.0 / (np.exp(2.0 * np.abs(st)) + 1.0)
    s = np.copysign(1.0, t)
    s_beta, s_alpha_q = s * beta, s * alpha * q
    y = (alpha + s_beta / q) - s_beta * tau / q
    return np.cosh(st), y, (s_alpha_q + beta) - s_alpha_q * tau


# ---------------------------------------------------------------------------
# concrete frame realisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GeodesicNormalFrame:
    """Concrete coordinates for a profile of the two-projection type.

    The normal is e1 and J(normal) is e2.  The distinguished tangent
    direction sits at e3 (with J-image e4), the two projection carriers
    u1, u2 mix e2 and e4, and the remaining coordinates pair off under
    J.  ``basis`` rows are ordered (u1, u2, axis, pairs...).  ``groups``
    gives each row's principal group, 0 for lam1, 1 for lam2 and 2 for
    lam3: (0, 1, 2), then the first m1 - 1 pairs (0, 2) and the rest
    (2, 2), m1 the multiplicity of lam1.  ``lambdas`` is
    (lam1, lam2, lam3) gathered by ``groups``, so its first three
    entries are the three curvatures.  ``basis`` is built from n and
    ``hopf`` on first use (``jacobi_field``, ``decompose``); the focal
    map reads only ``groups``, ``lambdas`` and ``hopf``.
    """

    n: int
    groups: np.ndarray
    lambdas: np.ndarray
    hopf: HopfAttitude

    @property
    def dim(self) -> int:
        return 2 * self.n

    @cached_property
    def basis(self) -> np.ndarray:
        e = np.eye(self.dim)
        b1, b2 = self.hopf.b1, self.hopf.b2
        return np.concatenate([[b1 * e[1] + b2 * e[3], b2 * e[1] - b1 * e[3], e[2]], e[4:]])

    @cached_property
    def jxi(self) -> np.ndarray:
        return np.eye(self.dim)[1]

    def decompose(self, v) -> np.ndarray:
        """Basis-row coefficients, shape (..., m), of tangent vectors v of shape (..., d).

        Raises ValueError if the last axis of v is not d long, if an
        entry is not finite, or if any row of v leaves the span of the
        basis by more than TANGENT_TOL.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim == 0 or v.shape[-1] != self.dim:
            raise ValueError(
                f"v must have length {self.dim} in its last axis, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("v must have finite entries")
        v = v[..., None, :]
        coeffs = v @ self.basis.T
        if not np.all(np.linalg.norm(v - coeffs @ self.basis, axis=-1) <= TANGENT_TOL):
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
    groups = np.array([0, 1, 2] + [0, 2] * (m1 - 1) + [2, 2] * (n - 1 - m1))
    lambdas = np.array([lam1, lam2, lam3])[groups]
    return GeodesicNormalFrame(n=n, groups=groups, lambdas=lambdas, hopf=hopf)


def _group_modes(curvatures, t):
    """Values K Y and derivatives K X, shape (..., 5), of the principal groups' five modes.

    ``curvatures`` (..., 3) holds (lam1, lam2, lam3), and t broadcasts
    against its leading axes.  A row of curvature lam starts at
    (1, -lam) times itself.  Modes 0-2 are the groups' rate-1/2 modes,
    so a row's transverse coefficient f is mode ``groups[row]``.  Modes
    3 and 4 are the rate-1 modes of the carriers lam1 and lam2, the only
    rows that meet the Jc-line; a carrier's mixing coefficient g is its
    rate-1 mode minus its f.  All five are one ``jacobi_mode`` call.
    """
    growth, y, x = jacobi_mode(
        1.0, -curvatures[..., _MODE_GROUPS], _RATES, np.asarray(t, dtype=float)[..., None]
    )
    return growth * y, growth * x


def jacobi_field(frame: GeodesicNormalFrame, v, t):
    """Field and derivative for tangent vectors v at times t, from ``jacobi_mode``.

    v has shape (..., d) and t broadcasts against its leading axes (a
    scalar t serves every row).  The modes are evaluated once per
    principal group (``_group_modes``) and gathered onto the frame rows.
    Returns parallel-frame coefficient vectors (value, derivative), each
    of the broadcast shape (..., d).  Raises ValueError unless every t
    is a finite real number and v is a finite tangent vector (see
    ``GeodesicNormalFrame.decompose``).
    """
    times = np.asarray(t)
    if times.dtype.kind not in "iuf" or not np.all(np.isfinite(times)):
        raise ValueError(f"t must be finite real numbers, got {t!r}")
    coeffs = frame.decompose(v)[..., None, :]
    # the field of basis row i is f_i row_i + <row_i, Jc> g_i Jc; only the
    # carriers, rows 0 and 1, have <row_i, Jc> != 0
    w = (frame.basis[:2] @ frame.jxi)[:, None]
    fields = []
    for modes in _group_modes(frame.lambdas[:3], times):
        rows = modes[..., frame.groups, None] * frame.basis
        rows[..., :2, :] += w * (modes[..., 3:] - modes[..., :2])[..., None] * frame.jxi
        fields.append((coeffs @ rows)[..., 0, :])
    return tuple(fields)


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


def curvature_propagator(model: CurvatureModel, direction):
    """The two rates of the Jacobi equation on c-perp, read spectrally.

    The operator -R(., c)c is diagonalised once, and on c-perp it must
    have two eigenvalues, kappa on a line and kappa_perp on the rest, or
    UnsupportedModelError is raised.  Returns (jc, q): jc is the unit
    eigenvector of the simple eigenvalue (the line of J c, up to sign)
    and q = sqrt(kappa_perp, kappa), the rate of a mode off that line and
    on it.  The engines take the rates in closed form (``RATES``); the
    ``jacobi-oracle`` verification suite holds this route to them.
    """
    K = jacobi_operator(model, direction)
    w, V = np.linalg.eigh(0.5 * (K + K.T))
    # ascending: c's own kappa = 0, then d - 2 equal ones and a simple one on c-perp
    rest = w[1:-1]
    if not (
        rest.size
        and abs(w[0]) < MERGE_TOL
        and rest[-1] - rest[0] < MERGE_TOL <= w[-1] - rest[-1]
    ):
        raise UnsupportedModelError(
            f"the Jacobi operator along the normal has eigenvalues {w.tolist()}, not "
            "0, one of multiplicity d - 2 and a simple one"
        )
    return V[:, -1], np.sqrt([rest.mean(), w[-1]])


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
    descending order.  ``det_d`` is ad - bc of D = [[a, b], [c, d]], the
    determinant that the BLOCK_DET_TOL rule reads.  ``c_block`` is
    -d_block_dt @ adj(d_block) / det_d when the block is invertible.  It
    equals D @ carrier_block @ inv(D) for the ``carrier_block`` of
    ``image_shape_operator``, so it has the same trace, determinant and
    spectrum, but it is not symmetric.  ``kernel_dim`` counts vanishing
    singular values of the full differential, ``rank`` is the
    complement and ``image_codim`` the ambient codimension of the image
    (kernel_dim plus the normal direction itself).
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
        return _det(self.d_block.tolist())


# ---------------------------------------------------------------------------
# closed-form 2x2 algebra on blocks given as rows of floats ((a, b), (c, d))
# ---------------------------------------------------------------------------


def _carrier_rows(f0, f1, g0, g1, b1, b2):
    """The carrier block diag(f) + diag(g) b b^T, b = (b1, b2) the Hopf weights."""
    return (f0 + b1 * b1 * g0, b1 * b2 * g0), (b2 * b1 * g1, f1 + b2 * b2 * g1)


def _det(rows) -> float:
    """ad - bc."""
    (a, b), (c, d) = rows
    return a * d - b * c


def _singular_values(rows) -> tuple[float, float]:
    """(sigma_max, sigma_min), sigma_max = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2.

    The block is a rotation-scaling plus a reflection-scaling, with
    scales hypot(a + d, c - b) / 2 and hypot(a - d, b + c) / 2;
    sigma_max is their sum and sigma_min = |det| / sigma_max.
    """
    (a, b), (c, d) = rows
    sigma_max = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, b + c))
    return sigma_max, abs(_det(rows)) / sigma_max


def _adjugate(rows):
    """adj = [[d, -b], [-c, a]], so that the inverse is adj / det."""
    (a, b), (c, d) = rows
    return (d, -b), (-c, a)


def _product(left, right, denominator) -> list[list[float]]:
    """left @ right / denominator."""
    (a, b), (c, d) = left
    (p, q), (s, u) = right
    return [
        [(a * p + b * s) / denominator, (a * q + b * u) / denominator],
        [(c * p + d * s) / denominator, (c * q + d * u) / denominator],
    ]


def _symmetric_eigenvalues(rows) -> tuple[float, float]:
    """Ascending eigenvalues of the symmetric part [[x, y], [y, z]]: mid -+ hypot((x - z)/2, y)."""
    (x, y), (y_t, z) = rows
    mid, radius = 0.5 * (x + z), math.hypot(0.5 * (x - z), 0.5 * (y + y_t))
    return mid - radius, mid + radius


def transversal_map(profile: PrincipalProfile, r: float) -> FocalMapData:
    """Differential of the map travelling distance r along the normals.

    The one-job case of ``transversal_maps``, which states the limits on r.
    """
    return transversal_maps([(profile, r)])[0]


def _check_distance(lam3: float, r) -> float:
    """r as a float, or raise if the transversal map cannot resolve it at lam3."""
    r = as_real(f"distance at lam3={lam3}", r)
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
    return r


def transversal_maps(jobs) -> list[FocalMapData]:
    """``transversal_map`` for every (profile, r) job, computed as one stack.

    Every profile must have the same complex dimension n.  Per job, r
    is a real number, stored as a float, and |r| is at most MAX_RADIUS;
    further out the carrier blocks, built from field values of size
    e^|r|, lose their digits.  So is the distance |2 artanh(2 lam3) - r|
    of the image from the minimal orbit, where lam3 is the axis
    curvature: further out the image curvatures come closer than the
    merge gap.  A job that fails a check raises, naming its lam3 and r.
    The Jacobi modes of all jobs are one ``_group_modes`` call on a
    (B, 5) stack, five modes per job.  Each job's transverse rows gather
    f and f_dt by the frame's row-to-group index, and its 2x2 carrier
    algebra is closed-form on floats: for D = [[a, b], [c, d]],
    det = ad - bc, C = -D_dt adj(D) / det, and the singular values
    sigma_max = (hypot(a + d, c - b) + hypot(a - d, b + c)) / 2 and
    sigma_min = |det| / sigma_max; the kernel dimension counts the
    sorted singular values at or below KERNEL_TOL.  Each job's data
    equals a call on that job alone.
    """
    frames, radii = [], []
    for profile, r in jobs:
        frame = normal_frame(profile)
        radii.append(_check_distance(float(frame.lambdas[2]), r))
        frames.append(frame)
    if len({frame.n for frame in frames}) > 1:
        raise ValidationError(
            "stacked transversal maps need one complex dimension, got "
            f"n in {sorted({frame.n for frame in frames})}"
        )
    if not frames:
        return []
    values, derivs = _group_modes(np.array([frame.lambdas[:3] for frame in frames]), radii)
    modes = np.concatenate([values, derivs], axis=-1).tolist()
    return [
        _focal_map(r, frame, job, *rows)
        for r, frame, job, rows in zip(radii, frames, modes, zip(values, derivs))
    ]


def _focal_map(r, frame, modes, value, deriv) -> FocalMapData:
    """One job of ``transversal_maps`` from its five ``_group_modes``.

    ``value`` and ``deriv`` are the modes' values and derivatives, and
    ``modes`` is the two as one list of floats.
    """
    f0, f1, _, h0, h1, f0_dt, f1_dt, _, h0_dt, h1_dt = modes
    b1, b2 = frame.hopf.b1, frame.hopf.b2
    # g of a carrier is its rate-1 mode h minus f
    rows = _carrier_rows(f0, f1, h0 - f0, h1 - f1, b1, b2)
    rows_dt = _carrier_rows(f0_dt, f1_dt, h0_dt - f0_dt, h1_dt - f1_dt, b1, b2)
    det = _det(rows)
    regular = abs(det) > BLOCK_DET_TOL
    c_block = np.array(_product(rows_dt, _adjugate(rows), -det)) if regular else None
    # the other rows keep their direction and scale by the f of their group
    transverse = frame.groups[2:]
    f, f_dt = value[transverse], deriv[transverse]
    svals = sorted([*_singular_values(rows), *np.abs(f).tolist()])
    kernel_dim = bisect.bisect_right(svals, KERNEL_TOL)
    # a map with a kernel must keep its other singular values above the gap
    if 0 < kernel_dim < len(svals) and svals[kernel_dim] < KERNEL_GAP:
        raise ValidationError(
            "singular values fall between the kernel threshold and the gap "
            f"guard at distance {r}, lam3={frame.lambdas[2]}: {np.array(svals[::-1])}"
        )
    return FocalMapData(
        r=r,
        frame=frame,
        f=f,
        f_dt=f_dt,
        singular_values=np.array(svals[::-1]),
        kernel_dim=kernel_dim,
        d_block=np.array(rows),
        d_block_dt=np.array(rows_dt),
        _c_block=c_block,
        c_reason=None if c_block is not None else f"det of the carrier block is {det:.3e}",
    )


@dataclass(frozen=True, eq=False)
class ImageShapeData:
    """Shape-operator data of the image of the transversal map.

    ``entries`` is the merged spectrum w.r.t. the translated normal and
    ``axis_rate`` the eigenvalue on translated axis-class directions.
    ``carrier_block`` = -adj(D) @ D_dt / det(D), with D the focal map's
    ``d_block`` and det its ``det_d``, is the image shape operator on
    the translated projection carriers in an orthonormal basis, so it
    is symmetric up to rounding.
    """

    entries: tuple[tuple[float, int], ...]
    carrier_block: np.ndarray
    axis_rate: float


def image_shape_operator(focal: FocalMapData) -> ImageShapeData:
    """Spectrum of the image shape operator w.r.t. the translated normal.

    The map is block diagonal, and so is the image shape operator: on
    the translated carriers it is ``carrier_block`` = -adj(D) @ D_dt /
    det(D), det(D) the focal map's ``det_d``, with the eigenvalues of
    its symmetric part.  A transverse row keeps its direction with the
    rate -f_dt/f of its principal group, formed on floats once per group
    with the group's row count from ``frame.groups``; a group with f at
    or below KERNEL_TOL is kernel and leaves the image.  So at most four
    items reach ``merge_spectrum``, whatever n is.
    """
    focal.c_block  # raises FocalPointError when the carrier block is singular
    rows = focal.d_block.tolist()
    block = _product(_adjugate(rows), focal.d_block_dt.tolist(), -_det(rows))
    count = np.bincount(focal.frame.groups[2:], minlength=3).tolist()
    # transverse row 0 is the axis (group 2) and row 1, when m1 > 1, the first of group 0
    groups = [(0, count[2]), (1, count[0])] if count[0] else [(0, count[2])]
    f, f_dt = focal.f[:2].tolist(), focal.f_dt[:2].tolist()
    rates = [(-f_dt[i] / f[i], size) for i, size in groups if abs(f[i]) > KERNEL_TOL]
    entries, _ = merge_spectrum([*((value, 1) for value in _symmetric_eigenvalues(block)), *rates])
    # the axis is never kernel: its f stays positive for |lam3| < 1/2
    return ImageShapeData(entries=entries, carrier_block=np.array(block), axis_rate=rates[0][0])
