import json
import math
import re
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
import regen_catalog_sha256
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chgeo import ambient, classifier, families, jacobi, profiles, solvable, verification
from chgeo.ambient import CurvatureModel, jacobi_operator
from chgeo.errors import (
    FocalRadiusError,
    OpenCaseError,
    UnresolvedSpectrumError,
    UnsupportedModelError,
    ValidationError,
)
from chgeo.profiles import PrincipalProfile

R_STAR = jacobi.EXCEPTIONAL_RADIUS
SQ3 = math.sqrt(3.0)
REFERENCE = Path(__file__).parent / "data" / "catalog_reference.json"


def coth(x):
    return 1.0 / math.tanh(x)


# a base's principal-frame data: unit normal, tangent rows, shape operator along
# the normal in the tangent frame, and the other unit-normal-sphere rows
Frame = namedtuple("Frame", "n nu tangent shape sphere")
# a base's groups, the columns of a ``TubeBase``
Groups = namedtuple("Groups", "alpha beta mult weight")


def _orbit_frame(orbit):
    nu = orbit.normal[0]
    return Frame(orbit.algebra.n, nu, orbit.tangent, orbit.shape_operator(nu), orbit.normal[1:])


def _frame(kind, n, k=None):
    """The frame of a named base: the reference for its spectral ``TubeBase``."""
    d = 2 * n
    e = np.eye(d)
    if kind == "point":
        kind, k = "CHk", 0
    if kind == "CHk":
        # base tangent: the last 2k coordinates (a complex subspace); k = 0 is a point
        return Frame(n, e[0], e[d - 2 * k :], np.zeros((2 * k, 2 * k)), e[1 : d - 2 * k])
    if kind == "RHn":
        # totally real base spanned by the odd coordinates; normal = J image
        return Frame(n, e[1], e[0::2], np.zeros((n, n)), e[3::2])
    alg = solvable.build_algebra(n)
    if kind == "horosphere":
        return _orbit_frame(solvable.horosphere_model(alg))
    return _orbit_frame(solvable.build_ruled(alg, solvable.default_ruled_spec(alg, k)))


def frame_base(n, nu, tangent, shape, sphere):
    """The base of a principal frame by the frame route: the reference for ``tube_base``.

    ``tangent`` rows span the base tangent space, ``shape`` is the base
    shape operator w.r.t. the unit normal ``nu`` in that frame, and
    ``sphere`` rows span the unit-normal-sphere directions other than
    nu itself; all vectors are ambient coordinates.  The entries must be
    finite, nu a unit vector and [tangent; sphere; nu] orthonormal within
    FRAME_TOL, and the shape symmetric within SYMMETRY_TOL, or
    ValidationError names the defect, so a mistyped frame fails as itself
    rather than as a wrong reference.  One ``eigh`` of the shape gives
    the tangent rows' curvatures, ``merge_spectrum`` groups them with
    J(nu)'s squared coordinates, and J(nu) comes from
    ``ambient.complex_structure``.
    """
    nu, tangent, shape, sphere = (np.asarray(a, dtype=float) for a in (nu, tangent, shape, sphere))
    d, k, s = 2 * n, len(tangent), len(sphere)
    families._check_row_count(n, k, s)
    if (nu.shape, tangent.shape, shape.shape, sphere.shape) != ((d,), (k, d), (k, k), (s, d)):
        raise ValidationError(
            f"a frame base in complex dimension {n} needs nu of shape ({d},), tangent and "
            f"sphere rows of length {d} and a {k} x {k} shape, got nu {nu.shape}, tangent "
            f"{tangent.shape}, shape {shape.shape} and sphere {sphere.shape}"
        )
    # written so that a NaN fails each check
    full = np.vstack([tangent, sphere, nu])
    if not (np.isfinite(full).all() and np.isfinite(shape).all()):
        raise ValidationError("a frame base needs finite nu, tangent, shape and sphere entries")
    length = math.sqrt(nu @ nu)
    if not abs(length - 1.0) <= families.FRAME_TOL:
        raise ValidationError(
            f"the normal nu has length {length!r}, not 1 within FRAME_TOL = {families.FRAME_TOL:g}"
        )
    gram = full @ full.T
    gram.flat[:: d + 1] -= 1.0
    defect = np.max(np.abs(gram))
    if not defect <= families.FRAME_TOL:
        raise ValidationError(
            f"the rows [tangent; sphere; nu] are {defect:.3e} from orthonormal, above "
            f"FRAME_TOL = {families.FRAME_TOL:g}"
        )
    asym = np.max(np.abs(shape - shape.T), initial=0.0)
    if not asym <= families.SYMMETRY_TOL:
        raise ValidationError(f"base shape operator asymmetric by {asym:.3e}")
    jnu = ambient.complex_structure(n) @ nu
    sigma, vecs = np.linalg.eigh(shape)
    squares = np.square((tangent @ jnu) @ vecs).tolist()
    entries, lengths = profiles.merge_spectrum(zip(sigma.tolist(), [1] * k, squares))
    # a tangent group of curvature sigma starts at (1, -sigma), the sphere group at (0, 1)
    groups = [(1.0, -value, mult, w) for (value, mult), w in zip(entries, lengths)]
    if s:
        groups.append((0.0, 1.0, s, math.sqrt(np.add.reduce(np.square(sphere @ jnu)))))
    return families.TubeBase(n, nu, *(np.array(column) for column in zip(*groups)))


# ---------------------------------------------------------------------------
# tube spectra against closed-form oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [0.4, 1.0, 2.3])
def test_geodesic_sphere_spectrum(r):
    """Sphere w.r.t. the outward normal: -(1/2)coth(r/2) and -coth(r)."""
    profile = families.tube_spectrum("point", 3, r=r)
    expected = sorted([(-coth(r), 1), (-0.5 * coth(r / 2.0), 4)])
    assert profile.g == 2
    for (lam, mult), (elam, emult) in zip(profile.entries, expected):
        assert lam == pytest.approx(elam, abs=1e-12)
        assert mult == emult


@pytest.mark.parametrize("n,k,r", [(3, 1, 1.0), (4, 2, 0.8), (4, 1, 2.0)])
def test_complex_base_tube_spectrum(n, k, r):
    profile = families.tube_spectrum("CHk", n, k=k, r=r)
    expected = sorted(
        [
            (-0.5 * math.tanh(r / 2.0), 2 * k),
            (-0.5 * coth(r / 2.0), 2 * (n - k) - 2),
            (-coth(r), 1),
        ]
    )
    got = sorted(profile.entries)
    assert [m for _, m in got] == [m for _, m in expected]
    for (lam, _), (elam, _) in zip(got, expected):
        assert lam == pytest.approx(elam, abs=1e-12)


def test_complex_hyperplane_tube_has_two_curvatures():
    profile = families.tube_spectrum("CHk", 3, k=2, r=1.0)
    assert profile.g == 2


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_real_base_tube_spectrum(r):
    n = 3
    profile = families.tube_spectrum("RHn", n, r=r)
    expected = sorted(
        [
            (-math.tanh(r), 1),
            (-0.5 * math.tanh(r / 2.0), n - 1),
            (-0.5 * coth(r / 2.0), n - 1),
        ]
    )
    got = sorted(profile.entries)
    for (lam, mult), (elam, emult) in zip(got, expected):
        assert lam == pytest.approx(elam, abs=1e-12)
        assert mult == emult
    assert profile.g == 3


def test_real_base_tube_merges_exactly_at_exceptional_radius():
    assert families.tube_spectrum("RHn", 3, r=R_STAR).g == 2
    for r in (R_STAR - 0.05, R_STAR + 0.05, 0.5, 1.0):
        assert families.tube_spectrum("RHn", 3, r=r).g == 3


def test_ruled_base_tube_counts():
    assert families.tube_spectrum("Wk", 3, k=2, r=1.0).g == 4
    assert families.tube_spectrum("Wk", 3, k=2, r=R_STAR).g == 3
    assert families.tube_spectrum("Wk", 4, k=3, r=R_STAR).g == 3


def test_ruled_base_tube_exceptional_values():
    profile = families.tube_spectrum("Wk", 3, k=2, r=R_STAR)
    entries = dict(profile.entries)
    lams = sorted(entries)
    assert lams == pytest.approx([-SQ3 / 2.0, -SQ3 / 6.0, 0.0], abs=1e-12)
    assert entries[lams[0]] == 2  # merged carrier + sphere class, k of them
    assert entries[lams[1]] == 2  # 2n - k - 2
    assert entries[lams[2]] == 1


def test_ruled_base_tube_matches_isolated_branch_up_to_orientation():
    """The exceptional tube realises the isolated branch with flipped normal."""
    branch = classifier.solve_case_one()
    profile = families.tube_spectrum("Wk", 4, k=2, r=R_STAR)
    flipped = sorted(-lam for lam, _ in profile.entries)
    expected = sorted([branch.lambda1, branch.lambda2, branch.lambda3])
    assert flipped == pytest.approx(expected, abs=1e-12)
    hopf = profile.hopf
    assert sorted([hopf.b1**2, hopf.b2**2]) == pytest.approx(
        sorted([branch.b1_sq, branch.b2_sq]), abs=1e-12
    )


def test_horosphere_profile_and_self_parallelism():
    # every parallel of a horosphere is a horosphere: values 1/2 and 1 up to
    # rounding, which puts 1 at 0.9999999999999999 at some radii
    radii = np.linspace(-5.0, 5.0, 401)
    for n in (3, 5, 8):
        base = families.tube_base("horosphere", n)
        for r, profile in zip(radii, families.tube_spectra([(base, r) for r in radii])):
            assert [m for _, m in profile.entries] == [2 * n - 2, 1], (n, r)
            for (lam, _), want in zip(profile.entries, (0.5, 1.0)):
                assert abs(lam - want) <= 4 * math.ulp(want), (n, r)
            assert profile.hopf is None


def test_proper_tube_requires_positive_radius():
    with pytest.raises(ValueError):
        families.tube_spectrum("point", 3, r=-1.0)
    with pytest.raises(ValueError):
        families.tube_spectrum("CHk", 3, k=1, r=0.0)


def test_unknown_base_rejected():
    with pytest.raises(ValueError):
        families.tube_spectrum("torus", 3, r=1.0)


@pytest.mark.parametrize("n, k", [(5, 2), (5, None), (None, 2), (3, None)])
def test_tube_spectrum_refuses_an_n_or_k_given_with_a_tube_base(n, k):
    # (5, 2) used to return the n = 3 geodesic sphere's profile
    base = families.tube_base("point", 3)
    message = re.escape(f"a TubeBase carries its own data; got n = {n!r}, k = {k!r} with it")
    with pytest.raises(ValueError, match=message):
        families.tube_spectrum(base, n=n, k=k)
    assert families.tube_spectrum(base).g == 2


def test_tube_spectrum_refuses_a_base_that_is_neither_a_tube_base_nor_a_kind():
    # it used to end in an AttributeError on int.n
    message = re.escape("job 0: expected a TubeBase or one of ('point', 'CHk', 'RHn', 'Wk', ")
    with pytest.raises(ValueError, match=message + r".*got 42$"):
        families.tube_spectrum(42)


def test_tube_spectra_refuses_a_job_whose_base_is_not_a_tube_base():
    # it used to end in an AttributeError on None.n
    jobs = [(families.tube_base("point", 3), 1.0), (None, 1.0)]
    with pytest.raises(ValidationError, match=r"^job 1: expected a TubeBase, got None$"):
        families.tube_spectra(jobs)


def test_focal_radius_detected_for_strongly_curved_base():
    """A synthetic base with shape eigenvalue above 1/2 focalises."""
    # the transverse class collapses at coth(t/2) = 3/2
    base, r_focal = _synthetic_focal_base()
    with pytest.raises(FocalRadiusError):
        families.tube_spectrum(base, r=r_focal)
    profile = families.tube_spectrum(base, r=0.3)
    assert profile.total_dim == 5


def _synthetic_focal_frame():
    """A frame with shape eigenvalue 3/4 > 1/2, focal at 2 artanh(2/3)."""
    e = np.eye(6)
    shape = np.zeros((5, 5))
    shape[1, 1] = 0.75
    return Frame(3, e[0], e[1:], shape, np.zeros((0, 6))), 2.0 * math.atanh(2.0 / 3.0)


def _synthetic_focal_base():
    frame, r_focal = _synthetic_focal_frame()
    return frame_base(*frame), r_focal


def test_focal_radius_detected_inside_a_group():
    base, r_focal = _synthetic_focal_base()
    jobs = [
        (families.tube_base("point", 3), 0.7),
        (families.tube_base("CHk", 3, 1), 1.0),
        (base, r_focal),
        (families.tube_base("horosphere", 3), 1.0),
        (families.tube_base("Wk", 3, 2), R_STAR),
    ]
    with pytest.raises(FocalRadiusError, match=re.escape(f"distance {r_focal}")):
        families.tube_spectra(jobs)


def test_focal_radius_detected_on_the_normal_line():
    # J(normal) = e_1 is a principal direction of curvature 2: its rate-1 mode
    # cosh r - 2 sinh r vanishes at artanh(1/2), where the Hopf line is focal
    e = np.eye(4)
    base = frame_base(2, e[0], e[1:], np.diag([2.0, 0.0, 0.0]), np.zeros((0, 4)))
    r_focal = math.atanh(0.5)
    jobs = [(families.tube_base("point", 2), 0.7), (base, r_focal)]
    with pytest.raises(FocalRadiusError, match=re.escape(f"distance {r_focal}")):
        families.tube_spectra(jobs)
    assert families.tube_spectrum(base, r=0.5).hopf is None


def test_asymmetric_tube_shape_rejected():
    frame, _ = _synthetic_focal_frame()
    shape = frame.shape.copy()
    shape[1, 2] = 0.3
    with pytest.raises(ValidationError, match="base shape operator asymmetric by 3.000e-01"):
        frame_base(*frame._replace(shape=shape))


def test_tube_base_with_a_missing_frame_row_rejected():
    frame = _frame("point", 3)
    message = re.escape("2n - 1 = 5 tangent and sphere rows, got 0 + 4")
    with pytest.raises(ValidationError, match=message):
        frame_base(*frame._replace(sphere=frame.sphere[1:]))
    # the engine holds a base's groups to the same count
    base = families.tube_base("point", 3)
    short = families.TubeBase(3, base.nu, base.alpha, base.beta, base.mult - 1, base.weight)
    with pytest.raises(ValidationError, match=message):
        families.tube_spectrum(short, r=1.0)


def _with(a, index, value):
    """A copy of a with a[index] = value."""
    a = a.copy()
    a[index] = value
    return a


_NON_FINITE = "needs finite nu, tangent, shape and sphere entries"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: f._replace(shape=_with(f.shape, (0, 0), math.nan)), _NON_FINITE),
        (lambda f: f._replace(shape=_with(f.shape, (1, 2), math.inf)), _NON_FINITE),
        (lambda f: f._replace(shape=_with(f.shape, (2, 2), -math.inf)), _NON_FINITE),
        (lambda f: f._replace(tangent=_with(f.tangent, (0, 0), math.nan)), _NON_FINITE),
        (lambda f: f._replace(nu=2.0 * f.nu), "the normal nu has length 2.0, not 1 within"),
        (
            lambda f: f._replace(tangent=_with(f.tangent, 1, f.nu)),
            r"the rows \[tangent; sphere; nu\] are 1\.000e\+00 from orthonormal, above "
            r"FRAME_TOL = 1e-10",
        ),
    ],
    ids=["nan-shape", "inf-shape", "minus-inf-shape", "nan-tangent", "long-nu", "nu-as-tangent"],
)
def test_frame_base_rejects_a_frame_it_cannot_read(edit, message):
    # on the n = 3 ruled orbit's frame each used to raise numpy's LinAlgError, a
    # misleading carrier count, or give a wrong profile
    with pytest.raises(ValidationError, match=message):
        frame_base(*edit(_frame("Wk", 3, 1)))


def test_frame_base_rejects_rows_of_the_wrong_length():
    frame = _frame("CHk", 3, 1)
    with pytest.raises(ValidationError, match=r"tangent \(2, 5\)"):
        frame_base(*frame._replace(tangent=frame.tangent[:, 1:]))


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 30.0, 1e6])
@pytest.mark.parametrize("kind,k", [("point", None), ("CHk", 1), ("RHn", None), ("Wk", 1)])
def test_tube_radius_out_of_range_rejected(kind, k, r):
    with pytest.raises(ValueError, match=re.escape(f"tube radius {r} is out of range")):
        families.tube_spectrum(kind, 3, k=k, r=r)


@pytest.mark.parametrize("r", [math.nan, 40.0, -40.0])
def test_equidistant_radius_out_of_range_rejected(r):
    with pytest.raises(ValueError, match=re.escape(f"tube radius {-r} is out of range")):
        families.equidistant_profile(3, r)


def _bits(profile):
    """Every digit of a profile, signed zeros included."""
    h = profile.hopf
    return repr((profile.entries, None if h is None else (h.b1, h.b2, h.lam1, h.lam2)))


@pytest.mark.parametrize("n", [3, 8])
def test_tube_spectra_matches_one_tube_at_a_time(n):
    ruled = families.tube_base("Wk", n, 1)
    jobs = [(families.tube_base("horosphere", n), 1.0), (ruled, -0.0)]
    jobs += [(families.tube_base("CHk", n, k), r) for k in range(1, n) for r in (0.7, 2.2)]
    jobs += [(ruled, r) for r in (0.0, -0.7, 1.3)]
    jobs += [(families.tube_base("point", n), 0.7), (families.tube_base("RHn", n), R_STAR)]
    jobs += [(families.tube_base("Wk", n, k), r) for k in range(2, n) for r in (R_STAR, 1.0)]
    jobs += [(families.tube_base("horosphere", n), -1.5), (families.tube_base("RHn", n), 0.7)]
    stacked = families.tube_spectra(jobs)
    assert len(stacked) == len(jobs)
    for (base, r), profile in zip(jobs, stacked):
        assert _bits(profile) == _bits(families.tube_spectrum(base, r=r))


def _dense_tube(base, r):
    """The dense reference engine: (entries, carriers) of the tube of radius r around a Frame.

    The solution operators cos, sin and cos_dt of the Jacobi operator are
    full d x d matrices, the value and derivative maps V and D are taken
    in an orthonormal frame of the normal's complement, and S = -D V^-1.
    """
    model = CurvatureModel(base.n)
    kappa, vecs = np.linalg.eigh(jacobi_operator(model, base.nu))
    sq = np.sqrt(np.clip(kappa, 0.0, None))
    small = sq < 1e-12
    sh_over = np.where(small, r, np.sinh(sq * r) / np.where(small, 1.0, sq))
    cos_ = (vecs * np.cosh(sq * r)) @ vecs.T
    sin_ = (vecs * sh_over) @ vecs.T
    cos_dt = (vecs * (sq * np.sinh(sq * r))) @ vecs.T
    rows = np.linalg.svd(base.nu[None])[2][1:]
    val0 = np.vstack([base.tangent, np.zeros_like(base.sphere)]).T
    der0 = np.vstack([-(base.shape @ base.tangent), base.sphere]).T
    value = rows @ (cos_ @ val0 + sin_ @ der0)
    derivative = rows @ (cos_dt @ val0 + cos_ @ der0)
    S = -derivative @ np.linalg.inv(value)
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    return families._carriers(vals, vecs, rows @ (model.J @ base.nu))


def _kinds(n):
    """Every named base kind in dimension n, as (kind, k)."""
    kinds = [("point", None), ("RHn", None), ("horosphere", None)]
    return kinds + [("CHk", k) for k in range(1, n)] + [("Wk", k) for k in range(1, n)]


def _reference_jobs(n):
    """Every base kind, as (TubeBase, its Frame, r): proper tubes at positive radii,
    hypersurfaces at signed ones."""
    proper = (0.3, 1.0, R_STAR, 2.5, 5.0)
    signed = (-5.0, -2.2, -0.7, -0.0, 0.0, 0.7, 2.2, 5.0)
    kinds = [("point", None), ("RHn", None)]
    kinds += [("CHk", k) for k in range(1, n)] + [("Wk", k) for k in range(2, n)]
    jobs = [(kind, k, r) for kind, k in kinds for r in proper]
    jobs += [(kind, k, r) for kind, k in (("Wk", 1), ("horosphere", None)) for r in signed]
    return [(families.tube_base(kind, n, k), _frame(kind, n, k), r) for kind, k, r in jobs]


@pytest.mark.parametrize("n", [3, 5, 8])
def test_scaled_engine_matches_the_dense_reference(n):
    jobs = _reference_jobs(n)
    for (_, frame, r), profile in zip(jobs, families.tube_spectra([(b, r) for b, _, r in jobs])):
        entries, carriers = _dense_tube(frame, r)
        assert [m for _, m in profile.entries] == [m for _, m in entries], r
        assert [lam for lam, _ in profile.entries] == pytest.approx(
            [lam for lam, _ in entries], abs=1e-12
        ), r
        assert (profile.hopf is None) == (len(carriers) == 1), r
        if profile.hopf is not None:
            (j1, b1, _), (j2, b2, _) = carriers
            norm = math.hypot(b1, b2)
            h = profile.hopf
            want = [b1 / norm, b2 / norm, entries[j1][0], entries[j2][0]]
            assert [h.b1, h.b2, h.lam1, h.lam2] == pytest.approx(want, abs=1e-12), r


def _scaled_dense_stack(stack):
    """The scaled dense engine: profiles of (Frame, r) jobs that share n and the normal.

    Every tube's value and derivative maps V = K Y and D = K X are full
    (2n - 1) x (2n - 1) matrices in the Jacobi operator's eigenbasis of
    the normal's complement, with the growth K = cosh(sqrt(kappa) r)
    kept apart.  One solve gives M = -X Y^-1, and each entry
    S_ij = (K_i / K_j) M_ij of the shape matrix comes from the side where
    K_i <= K_j.  One eigh of the (B, 2n - 1, 2n - 1) shape stack gives
    the spectra, and ``_carriers`` groups each row and picks its carriers.
    """
    model = CurvatureModel(stack[0][0].n)
    nu = stack[0][0].nu
    kappa, vecs = np.linalg.eigh(jacobi_operator(model, nu))
    sq = np.sqrt(kappa[1:])
    st = sq * np.array([r for _, r in stack])[:, None]
    basis, th = vecs[:, 1:].T, np.tanh(st)
    init = np.zeros((len(stack), 2, *basis.shape))
    for row, (b, _) in zip(init, stack):
        k = len(b.tangent)
        row[0, :k] = b.tangent
        row[1, :k] = -(b.shape @ b.tangent)
        row[1, k:] = b.sphere
    init = init @ basis.T
    # Y and X transposed: rows are frame vectors, columns eigenbasis coordinates
    K = np.cosh(st)[:, None, :]
    y_t = init[:, 0] + init[:, 1] * (th / sq)[:, None, :]
    x_t = init[:, 0] * (sq * th)[:, None, :] + init[:, 1]
    s_t = -np.linalg.solve(y_t, x_t) * K / np.swapaxes(K, -1, -2)
    s_tt = np.swapaxes(s_t, -1, -2)
    vals, vecs = np.linalg.eigh(np.where(K <= np.swapaxes(K, -1, -2), s_t, s_tt))
    out = []
    for row_vals, row_vecs in zip(vals, vecs):
        entries, carriers = families._carriers(row_vals, row_vecs, basis @ (model.J @ nu))
        hopf = None
        if len(carriers) == 2:
            (j1, b1, _), (j2, b2, _) = carriers
            norm = math.hypot(b1, b2)
            hopf = profiles.HopfAttitude(b1 / norm, b2 / norm, entries[j1][0], entries[j2][0])
        out.append(PrincipalProfile(entries, total_dim=vals.shape[-1], hopf=hopf))
    return out


@pytest.mark.parametrize("n", [3, 5, 8])
def test_reduced_kernel_matches_the_scaled_dense_engine(n):
    ruled = (families.tube_base("Wk", n, 1), _frame("Wk", n, 1))
    jobs = _reference_jobs(n) + [(*ruled, -r) for r in (10.0, 13.5, 20.0, 21.4)]
    for (_, frame, r), got in zip(jobs, families.tube_spectra([(b, r) for b, _, r in jobs])):
        (want,) = _scaled_dense_stack([(frame, r)])
        assert [m for _, m in got.entries] == [m for _, m in want.entries], r
        assert [lam for lam, _ in got.entries] == pytest.approx(
            [lam for lam, _ in want.entries], abs=1e-12
        ), r
        assert (got.hopf is None) == (want.hopf is None), r
        if got.hopf is not None:
            h, w = got.hopf, want.hopf
            assert [h.lam1, h.lam2] == pytest.approx([w.lam1, w.lam2], abs=1e-12), r
            # the smaller weight falls like e^(-3r/2): the far-equidistant bounds
            small, want_small = min(h.b1, h.b2) ** 2, min(w.b1, w.b2) ** 2
            assert abs(small - want_small) <= (1e-10 if abs(r) <= 14.0 else 1e-6) * want_small, r


def _row_merge(items):
    """The per-row grouping the engine no longer builds: (entries, lengths) of items.

    Each (value, multiplicity[, squared weight]) item is repeated out to
    its rows, the weight on the first; sorted, a run ends where the next
    row is MERGE_TOL or more above, and a run's mean and squared length
    are correctly rounded sums.
    """
    rows = sorted(
        (value, sum(square) if i == 0 else 0.0)
        for value, mult, *square in items
        for i in range(mult)
    )
    tol = profiles.MERGE_TOL
    ends = [i + 1 for i, (a, b) in enumerate(zip(rows, rows[1:])) if b[0] - a[0] >= tol]
    runs = [rows[a:b] for a, b in zip([0, *ends], [*ends, len(rows)])]
    entries = tuple((math.fsum(v for v, _ in run) / len(run), len(run)) for run in runs)
    return entries, [math.sqrt(math.fsum(w for _, w in run)) for run in runs]


def _within_ulps(got, want, ulps):
    return all(abs(a - b) <= ulps * math.ulp(max(abs(a), abs(b))) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_grouped_items_match_their_rows(monkeypatch, n):
    # each job's scalar groups and block eigenpairs, repeated out to their
    # 2n - 1 rows and grouped row by row, give the engine's profile
    jobs = [(base, r) for base, _, r in _reference_jobs(n)]
    merge, seen = profiles.merge_spectrum, []

    def spy(items):
        seen.append(list(items))
        return merge(seen[-1])

    monkeypatch.setattr(families, "merge_spectrum", spy)
    got = families.tube_spectra(jobs)
    assert len(seen) == len(jobs)
    for items, profile, (_, r) in zip(seen, got, jobs):
        entries, lengths = _row_merge(items)
        assert [m for _, m in profile.entries] == [m for _, m in entries], r
        assert _within_ulps([v for v, _ in profile.entries], [v for v, _ in entries], 8), r
        carriers = [j for j, length in enumerate(lengths) if length > families.CARRIER_TOL]
        if len(carriers) == 2 and entries[carriers[1]][1] > entries[carriers[0]][1]:
            carriers.reverse()
        assert (profile.hopf is None) == (len(carriers) == 1), r
        if profile.hopf is not None:
            (j1, j2), h = carriers, profile.hopf
            norm = math.hypot(lengths[j1], lengths[j2])
            assert (h.b1, h.b2) == (lengths[j1] / norm, lengths[j2] / norm), r
            assert _within_ulps([h.lam1, h.lam2], [entries[j1][0], entries[j2][0]], 8), r


@pytest.mark.parametrize("n", [3, 5, 8])
def test_horosphere_has_no_focal_point_up_to_the_largest_radius(n):
    # 1 - tanh r rounds to 0 from r = 18.99; the engine's tau form keeps it
    for r in (18.0, 19.0, 19.5, 20.0, 21.0, 21.4, jacobi.MAX_RADIUS):
        profile = families.tube_spectrum("horosphere", n, r=r)
        assert profile.entries == ((0.5, 2 * n - 2), (1.0, 1)), r
        assert profile.hopf is None, r


def _closed_form_table(n, k, r):
    """Montiel's table of (value, multiplicity) by base, outward normal."""
    far, near = -0.5 / math.tanh(r / 2.0), -0.5 * math.tanh(r / 2.0)
    return {
        "horosphere": [(0.5, 2 * n - 2), (1.0, 1)],
        "point": [(far, 2 * n - 2), (-coth(r), 1)],
        "CHk": [(far, 2 * (n - k - 1)), (near, 2 * k), (-coth(r), 1)],
        "RHn": [(far, n - 1), (near, n - 1), (-math.tanh(r), 1)],
    }


@st.composite
def _tube_parameters(draw):
    n = draw(st.integers(3, 8))
    k = draw(st.integers(1, n - 2))
    r = draw(st.floats(0.05, 4.0).filter(lambda r: abs(r - R_STAR) >= 0.05))
    return n, k, r


@settings(max_examples=40)
@given(_tube_parameters())
def test_hopf_tubes_match_the_closed_form_table(params):
    n, k, r = params
    table = _closed_form_table(n, k, r)
    jobs = [(families.tube_base(kind, n, k if kind == "CHk" else None), r) for kind in table]
    profiles = families.tube_spectra(jobs)
    for (kind, want), profile in zip(table.items(), profiles):
        want = sorted(want)
        assert [m for _, m in profile.entries] == [m for _, m in want], kind
        assert [lam for lam, _ in profile.entries] == pytest.approx(
            [lam for lam, _ in want], abs=1e-12
        ), kind
        assert profile.hopf is None, kind


_CATALOG_RADII = (0.3, 0.7, 1.0, 1.3, 2.2, 5.0, 13.5)


def _hopf_jobs(n, radii):
    """Every Hopf base kind in dimension n (all but Wk) at each radius, as (kind, (base, r))."""
    kinds = [(kind, k) for kind, k in _kinds(n) if kind != "Wk"]
    return [(kind, (families.tube_base(kind, n, k), r)) for kind, k in kinds for r in radii]


def test_hopf_tubes_make_no_linear_algebra_call(monkeypatch):
    # a Hopf tube's one carrier is the J(normal) line, a scalar: no 1 x 1 block
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)):
            monkeypatch.setattr(np.linalg, name, refused)
    for n in (2, 3, 8):
        jobs = _hopf_jobs(n, _CATALOG_RADII)
        profiles = families.tube_spectra([job for _, job in jobs])
        assert all(profile.hopf is None for profile in profiles)


@pytest.mark.parametrize("n", [3, 8])
def test_hopf_normal_curvature_is_within_an_ulp_of_its_closed_form(n):
    # the J(normal) line of a tube around a point or CH^k is -coth r, around RH^n
    # -tanh r; at 50 digits, each engine value lies within 1 ulp (it used to
    # lie up to 1.68 ulp off, from scaling the 1 x 1 block by K and back)
    mpmath = pytest.importorskip("mpmath")
    jobs = [(kind, job) for kind, job in _hopf_jobs(n, _CATALOG_RADII) if kind != "horosphere"]
    for (kind, (_, r)), profile in zip(jobs, families.tube_spectra([job for _, job in jobs])):
        # the line is the one eigenspace of multiplicity 1
        [got] = [value for value, mult in profile.entries if mult == 1]
        with mpmath.workdps(50):
            exact = -(mpmath.tanh if kind == "RHn" else mpmath.coth)(mpmath.mpf(r))
            assert abs(mpmath.mpf(got) - exact) <= math.ulp(float(exact)), (kind, r)


@pytest.mark.parametrize("kind,k", [("point", 2), ("point", 0), ("RHn", 5), ("horosphere", 3)])
def test_tube_base_refuses_a_k_for_a_kind_that_takes_none(kind, k):
    # each used to return the kind's base, ignoring k
    with pytest.raises(ValueError, match=rf"^base kind '{kind}' takes no k, got k = {k}$"):
        families.tube_base(kind, 3, k)


def _edited(base, **fields):
    """A TubeBase like ``base`` with some fields replaced."""
    kept = {name: getattr(base, name) for name in ("n", "nu", "alpha", "beta", "mult", "weight")}
    return families.TubeBase(**{**kept, **fields})


_RHN = families.tube_base("RHn", 3)


@pytest.mark.parametrize(
    "base, message",
    [
        (
            _edited(_RHN, alpha=_RHN.alpha[:1]),
            r"weight of one length and nu of length 6, got shapes \[\(1,\), \(2,\), ",
        ),
        (_edited(_RHN, beta=_with(_RHN.beta, 1, math.nan)), "needs finite alpha, beta and weight"),
        (_edited(_RHN, weight=_with(_RHN.weight, 0, math.inf)), "needs finite alpha, beta"),
        (_edited(_RHN, mult=np.array([3.5, 1.5])), r"positive integers, got \[3\.5, 1\.5\]"),
        (_edited(_RHN, mult=np.array([5, 0])), r"positive integers, got \[5\.0, 0\.0\]"),
        (_edited(_RHN, nu=2.0 * _RHN.nu), "the normal nu has length 2.0, not 1 within FRAME_TOL"),
        (_edited(_RHN, nu=_RHN.nu[:-1]), r"nu of length 6, got shapes \[.*\(5,\)\]"),
    ],
    ids=["short-alpha", "nan-beta", "inf-weight", "half-mult", "zero-mult", "long-nu", "short-nu"],
)
def test_tube_spectra_refuses_a_base_it_cannot_read(base, message):
    # each used to give a profile: broadcast, NaN-valued, truncated or unchecked
    jobs = [(_RHN, 1.0), (base, 1.0)]
    with pytest.raises(ValidationError, match=f"^job 1: .*{message}"):
        families.tube_spectra(jobs)


# ---------------------------------------------------------------------------
# ruled orbit and equidistants
# ---------------------------------------------------------------------------


def test_ruled_profile_values():
    profile = families.ruled_profile(3)
    assert profile.entries == ((-0.5, 1), (0.0, 3), (0.5, 1))
    hopf = profile.hopf
    assert hopf.b1 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert hopf.b2 == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_equidistant_at_zero_is_the_orbit():
    profile = families.equidistant_profile(3, 0.0)
    assert profile.entries == ((-0.5, 1), (0.0, 3), (0.5, 1))


def test_equidistant_axis_value_convention():
    """Axis curvature is tanh(r/2)/2 for the distance-r equidistant."""
    for r in (0.8, -1.3, 2.0):
        profile = families.equidistant_profile(3, r)
        assert profile.axis_value() == pytest.approx(
            math.tanh(r / 2.0) / 2.0, abs=1e-12
        )


def test_equidistant_specific_radius():
    r = 2.0 * math.atanh(0.4)
    profile = families.equidistant_profile(3, r)
    root = math.sqrt(0.88)
    expected = sorted([(0.6 - root) / 2.0, 0.2, (0.6 + root) / 2.0])
    assert [lam for lam, _ in profile.entries] == pytest.approx(expected, abs=1e-12)


def test_equidistant_limit_approaches_half():
    """Far equidistants degenerate toward the horosphere profile."""
    profile = families.equidistant_profile(3, 20.0)
    axis_lam = next(lam for lam, mult in profile.entries if mult == 3)
    assert abs(axis_lam - 0.5) <= 1e-4


@pytest.mark.parametrize("r", [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
def test_equidistant_matches_parametric_branch(r):
    lam3 = math.tanh(r / 2.0) / 2.0
    branch = classifier.solve_case_two(lam3).branch
    profile = families.equidistant_profile(3, r)
    closed = sorted([(branch.lambda1, 1), (branch.lambda2, 1), (branch.lambda3, 3)])
    for (lam, mult), (elam, emult) in zip(sorted(profile.entries), closed):
        assert lam == pytest.approx(elam, abs=1e-10)
        assert mult == emult
    hopf = profile.hopf
    assert sorted([hopf.b1**2, hopf.b2**2]) == pytest.approx(
        sorted([branch.b1_sq, branch.b2_sq]), abs=1e-10
    )


def test_equidistant_profile_identities():
    """The weight balance and weight sum hold on the tube engine's carriers."""
    profile = families.equidistant_profile(3, 1.2)
    h = profile.hopf
    balance = classifier.residual_hopf_weights(
        h.lam1, h.lam2, profile.axis_value(), h.b1**2, h.b2**2
    )
    assert balance <= 1e-10
    assert abs(h.b1**2 + h.b2**2 - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# structural residuals
# ---------------------------------------------------------------------------


def _ruled_orbit(n):
    alg = solvable.build_algebra(n)
    return solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))


@pytest.mark.parametrize("n", [3, 4])
def test_structural_residuals_on_minimal_orbit(n):
    res = families.structural_residuals(_ruled_orbit(n))
    assert res["axis_geodesic"] <= 1e-12
    assert res["eigenpair_bracket"] <= 1e-10
    assert max(res.values()) <= 1e-10


def test_structural_residuals_decompose_the_shape_operator_once(monkeypatch):
    calls = []
    shape_operator = solvable.OrbitModel.shape_operator

    def counted(self, xi):
        calls.append(xi)
        return shape_operator(self, xi)

    orbit = _ruled_orbit(3)
    monkeypatch.setattr(solvable.OrbitModel, "shape_operator", counted)
    families.structural_residuals(orbit)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_and_tube_routes_agree_on_carriers(n):
    orbit = _ruled_orbit(n)
    xi = orbit.normal[0]
    vals, vecs = np.linalg.eigh(orbit.shape_operator(xi))
    carriers = families._carriers(vals, vecs, orbit.tangent @ (orbit.algebra.J @ xi))
    (l1, l2, _), (b1, b2), _ = families._carrier_frame(orbit, *carriers)
    h = families.ruled_profile(n).hopf
    got = np.array([l1, l2, b1, b2])
    assert np.max(np.abs(got - [h.lam1, h.lam2, h.b1, h.b2])) <= 1e-14


def test_structural_residuals_reject_hopf_orbit():
    alg = solvable.build_algebra(3)
    with pytest.raises(UnsupportedModelError):
        families.structural_residuals(solvable.horosphere_model(alg))


def test_weight_balance_closed_form_substitutions():
    assert classifier.residual_hopf_weights(0.5, -0.5, 0.0, 0.5, 0.5) == 0.0
    assert (
        classifier.residual_hopf_weights(
            SQ3 / 2.0, 0.0, SQ3 / 6.0, 8.0 / 9.0, 1.0 / 9.0
        )
        <= 1e-12
    )


# ---------------------------------------------------------------------------
# catalog assembly
# ---------------------------------------------------------------------------


def test_two_curvature_catalog_has_four_families():
    entries = families.two_curvature_families(3)
    assert [e.family for e in entries] == [
        "horosphere",
        "geodesic-sphere",
        "tube-CHk",
        "tube-RHn",
    ]
    assert all(e.g == 2 for e in entries)
    assert all(e.is_hopf for e in entries)


def test_three_curvature_catalog_composition():
    entries = families.three_curvature_families(3)
    by_family = {}
    for e in entries:
        by_family.setdefault(e.classification_family, []).append(e)
    assert sorted(by_family) == ["a", "b", "c", "d"]
    assert [e.k for e in by_family["a"]] == [1]
    assert [e.family for e in by_family["c"]] == ["ruled-W", "equidistant-W"]
    assert [e.k for e in by_family["d"]] == [2]
    assert all(e.g == 3 for e in entries)


def test_three_curvature_catalog_scales_with_dimension():
    entries = families.three_curvature_families(5)
    ks_a = [e.k for e in entries if e.classification_family == "a"]
    ks_d = [e.k for e in entries if e.classification_family == "d"]
    assert ks_a == [1, 2, 3]
    assert ks_d == [2, 3, 4]


def test_hopf_flags_split_by_family():
    entries = families.three_curvature_families(3)
    for e in entries:
        if e.classification_family in ("a", "b"):
            assert e.is_hopf
        else:
            assert not e.is_hopf
            # the eigenvector defect of J(normal); b1^2 + b2^2 = 1
            h = e.profile.hopf
            assert h.b1 * h.b2 * abs(h.lam1 - h.lam2) >= 0.01


def test_eigenvector_defect_by_family():
    """J(normal) is principal exactly for the totally geodesic bases and the horosphere."""
    assert families.tube_spectrum("CHk", 3, k=1, r=1.0).hopf is None
    assert families.tube_spectrum("RHn", 3, r=1.0).hopf is None
    assert families.tube_spectrum("point", 3, r=0.7).hopf is None
    assert families.tube_spectrum("horosphere", 3, r=1.0).hopf is None
    assert families.tube_spectrum("Wk", 3, k=2, r=R_STAR).hopf is not None
    assert families.tube_spectrum("Wk", 3, k=1, r=-1.0).hopf is not None


def _kahler_angle_base(phi):
    """Base W^4 in n = 3 whose normal slice (V1, cos phi iV1 + sin phi V3) has Kahler angle phi."""
    alg = solvable.build_algebra(3)
    e = np.eye(alg.dim)
    w_perp = np.array([e[2], math.cos(phi) * e[3] + math.sin(phi) * e[4]])
    tangent = np.vstack([e[:2], e[5], -math.sin(phi) * e[3] + math.cos(phi) * e[4]])
    orbit = solvable.OrbitModel(algebra=alg, tangent=tangent, normal=w_perp)
    return frame_base(*_orbit_frame(orbit))


@pytest.mark.parametrize("r", [0.5, 1.0])
def test_kahler_angle_tube_with_three_carriers_is_not_reported_as_hopf(r):
    # J(normal) is no eigenvector (defect 0.94 at r = 0.5, 0.40 at r = 1)
    # and spreads over three eigenspaces: neither Hopf nor a two-carrier model
    with pytest.raises(UnsupportedModelError, match="has 3 carrier eigenspaces"):
        families.tube_spectrum(_kahler_angle_base(0.7), r=r)


def test_carriers_read_the_merge_groups():
    # curvatures 5e-9 apart lie past the merge gap: three eigenspaces, and
    # J(normal) on the first and the last makes two carriers
    vals = np.array([0.5, 0.5 + 5e-9, 1.0])
    jnu = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    entries, carriers = families._carriers(vals, np.eye(3), jnu)
    assert [m for _, m in entries] == [1, 1, 1]
    assert [j for j, _, _ in carriers] == [0, 2]


def test_merge_spectrum_cuts_runs_at_merge_tol():
    # runs up to 40 long, given in any order as items of multiplicity 1 to 3
    # with squared weights: each run's value is its weighted mean, its
    # multiplicity the sum, its length the root of the summed squares
    rng = np.random.default_rng(31)
    levels = np.array([-0.5, 0.0, 0.5, 0.5 + 5e-9, 1.0])
    longest = 0
    for _ in range(200):
        counts = rng.integers(1, 41, size=rng.integers(1, 5))
        noise = [1e-12 * rng.standard_normal(c) for c in counts]
        values = np.concatenate([rng.choice(levels) + x for x in noise])
        mults, squares = rng.integers(1, 4, size=values.size), rng.random(values.size)
        items = list(zip(values.tolist(), mults.tolist(), squares.tolist()))
        entries, lengths = profiles.merge_spectrum([items[i] for i in rng.permutation(len(items))])
        order = np.argsort(values)
        cuts = [0, *(np.flatnonzero(np.diff(values[order]) >= profiles.MERGE_TOL) + 1), len(values)]
        runs = [order[a:b] for a, b in zip(cuts, cuts[1:])]
        assert [m for _, m in entries] == [int(mults[run].sum()) for run in runs]
        want = [np.dot(mults[run], values[run]) / mults[run].sum() for run in runs]
        assert [v for v, _ in entries] == pytest.approx(want, rel=1e-15, abs=1e-15)
        assert lengths == pytest.approx([math.sqrt(squares[run].sum()) for run in runs], rel=1e-15)
        assert all(type(v) is float and type(m) is int for v, m in entries)
        longest = max(longest, *(len(run) for run in runs))
    assert longest >= 9
    # a gap of exactly MERGE_TOL ends a run, a smaller one does not; ties merge
    tol = profiles.MERGE_TOL
    entries, lengths = profiles.merge_spectrum([(0.0, 1), (tol, 2), (tol, 1), (1.5 * tol, 1)])
    assert entries == ((0.0, 1), ((2 * tol + tol + 1.5 * tol) / 4, 4)) and lengths == [0.0, 0.0]
    assert profiles.merge_spectrum([]) == ((), [])


def _merge_spectrum_reference(items):
    """``merge_spectrum`` as it was written with one list per run: the bit-for-bit reference."""
    runs: list[list] = []
    last = 0.0
    for value, mult, *square in sorted(items, key=lambda item: item[0]):
        if not runs or value - last >= profiles.MERGE_TOL:
            runs.append([0.0, 0, 0.0])
        run = runs[-1]
        run[0] += mult * value
        run[1] += mult
        run[2] += sum(square)
        last = value
    return (
        tuple((total / count, count) for total, count, _ in runs),
        [math.sqrt(square) for *_, square in runs],
    )


_TOL = profiles.MERGE_TOL
# ties, signed zeros, gaps of exactly MERGE_TOL, clusters closer than it and any float
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, _TOL, -_TOL, 2 * _TOL, 0.5, 0.5 + _TOL, 0.5 - _TOL]),
    st.integers(-4, 4).map(lambda k: 0.25 + k * 3e-10),
    st.floats(-2.0, 2.0),
)
_MULTS = st.integers(1, 200)
_ITEMS = st.lists(
    st.tuples(_VALUES, _MULTS) | st.tuples(_VALUES, _MULTS, st.floats(0.0, 4.0)), max_size=12
)


@settings(max_examples=300)
@given(_ITEMS)
@example([(0.0, 1), (_TOL, 2), (-0.0, 3, 0.0), (_TOL, 1, 0.5), (2 * _TOL, 200)])
@example([(-0.0, 7), (-0.0, 1, 1.0)])
def test_merge_spectrum_is_bit_identical_to_its_reference(items):
    # every value, count and length to the bit, types included
    assert repr(profiles.merge_spectrum(items)) == repr(_merge_spectrum_reference(items))


@pytest.mark.parametrize(
    "entries, message",
    [
        (((float("nan"), 1), (0.2, 2)), "principal curvature nan is not finite"),
        (((-math.inf, 1), (0.2, 2)), "principal curvature -inf is not finite"),
        (((0.2, 1), (math.inf, 2)), "principal curvature inf is not finite"),
        (((0.5, 1), (0.2, 2)), "entries must be sorted ascending, got 0.5 before 0.2"),
    ],
)
def test_profile_names_a_non_finite_or_out_of_order_curvature(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        PrincipalProfile(entries, 3)
    assert not isinstance(info.value, UnresolvedSpectrumError)


@pytest.mark.parametrize(
    "entries, total_dim, error, message",
    [
        # each input also breaks at least one check below the one that raises
        (((0.5, 2.5), (0.2, 0), (math.nan, 1)), 9, ValueError, "multiplicity must be an integer"),
        (((math.nan, 1), (0.2, 0), (0.1, 1)), 9, ValueError, "every multiplicity must be at least"),
        (((0.5, 1), (0.5, 1), (math.nan, 1)), 9, ValueError, "multiplicities do not sum"),
        (((0.1, 1), (math.inf, 1), (0.2, 1)), 3, ValueError, "principal curvature inf is not"),
        (((0.5, 1), (0.2, 1), (math.nan, 1)), 3, ValueError, "entries must be sorted ascending"),
        (((0.5, 1), (0.5, 1), (0.2, 1)), 3, UnresolvedSpectrumError, "principal curvatures 0.5 and"),
    ],
    ids=["integer", "at-least-one", "sum", "finite", "ascending", "merge-gap"],
)
def test_profile_checks_raise_in_their_order(entries, total_dim, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        PrincipalProfile(entries, total_dim)


@pytest.mark.parametrize(
    "args, message",
    [
        ((math.nan, 1.0, 0.1, 0.2), "projection lengths must be non-negative"),
        ((0.6, math.nan, 0.1, 0.2), "projection lengths must be non-negative"),
        ((0.6, 0.8, math.nan, 0.2), "lam1 must be finite, got nan"),
        ((0.6, 0.8, 0.1, -math.inf), "lam2 must be finite, got -inf"),
    ],
)
def test_hopf_attitude_rejects_nan_and_non_finite_curvatures(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        profiles.HopfAttitude(*args)


def test_profile_multiplicity_tells_close_entries_apart():
    profile = PrincipalProfile(entries=((0.5, 2), (0.5 + 5e-9, 1), (1.0, 2)), total_dim=5)
    assert [profile.multiplicity(lam) for lam, _ in profile.entries] == [2, 1, 2]


@pytest.mark.parametrize("n", [3, 8])
def test_far_equidistant_is_non_hopf_with_the_closed_form_weight(n):
    # the smaller carrier weight falls like e^(-3r/2), 8.9e-14 at MAX_RADIUS
    for r in (13.5, 14.0, 20.0, jacobi.MAX_RADIUS):
        hopf = families.equidistant_profile(n, r).hopf
        assert hopf is not None, r
        # solve_case_two's smaller weight; at MAX_RADIUS that solver already
        # calls lambda1 and lambda3 coincident, 1e-9 apart, and gives no branch
        x = math.tanh(r / 2.0) / 2.0
        want = classifier._smaller_weight(x, math.sqrt(1.0 - 3.0 * x * x))
        got = min(hopf.b1, hopf.b2) ** 2
        assert abs(got - want) <= (1e-10 if r <= 14.0 else 1e-6) * want, r


def test_tube_spectra_decomposes_each_shape_stack_once(monkeypatch):
    n = 3
    ruled, frame = families.tube_base("Wk", n, 1), _frame("Wk", n, 1)
    # a geodesic sphere whose normal is the ruled orbit's
    sphere_rows = np.vstack([frame.tangent, frame.sphere])
    sphere = frame_base(n, frame.nu, np.zeros((0, 2 * n)), np.zeros((0, 0)), sphere_rows)
    jobs = [(ruled, -1.0), (sphere, 0.7), (families.tube_base("Wk", n, 2), R_STAR), (ruled, 0.0)]
    calls = {"eigh": [], "eigvalsh": [], "inv": [], "jacobi_operator": []}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(a, *args, **kwargs):
            calls[name].append(np.shape(a))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("eigh", "eigvalsh", "inv"):
        counted(np.linalg, name)
    counted(jacobi, "jacobi_operator")
    profiles = families.tube_spectra(jobs)
    assert [p.hopf is None for p in profiles] == [False, True, False, False]
    # the rates are closed-form: no read of the Jacobi operator
    assert calls["jacobi_operator"] == []
    # one eigh for the stack of the three G = 2 blocks; the sphere's J(normal) line
    # is a scalar, and the bases carry their spectra
    assert calls["eigh"] == [(3, 2, 2)]
    assert calls["eigvalsh"] == calls["inv"] == []


@pytest.mark.parametrize("n", [3, 4, 8])
def test_catalog_builds_its_ruled_orbits_from_one_frame(monkeypatch, n):
    # the n - 1 ruled bases are closed forms on one frame: each has the slice's
    # first row V_1 = e_2 as normal, with no slice validation and no QR
    calls = {"qr": 0, "validate_ruled_spec": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "qr")
    counted(solvable, "validate_ruled_spec")
    families.catalog(n, 1.3)
    assert calls == {"qr": 0, "validate_ruled_spec": 0}
    # every ruled row of the catalog reads the closed form whose normal is e_2 = V_1
    rows = families._catalog_rows(n, 1.3)
    ruled = [k for _, _, kind, k, *_ in rows if kind == "Wk"]
    normals = {k: families._named_groups("Wk", n, k)[0] for k in ruled}
    assert sorted(normals) == list(range(1, n))
    assert set(normals.values()) == {2}


@pytest.mark.parametrize("n", [3, 4, 8])
def test_catalog_builds_and_checks_no_orbit(monkeypatch, n):
    # the ruled bases and the horosphere are closed forms: the catalog builds no
    # orbit, so no orbit is checked or shaped even once
    calls = {"shape_operator": 0, "__post_init__": 0}

    def counted(name):
        fn = getattr(solvable.OrbitModel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(solvable.OrbitModel, name, wrapper)

    for name in calls:
        counted(name)
    families.catalog(n, 1.3)
    assert calls == {"shape_operator": 0, "__post_init__": 0}


def _assert_same_groups(got, want, bound=1e-15):
    """Two bases with the same normal, groups and multiplicities, values within bound."""
    assert np.array_equal(got.nu, want.nu)
    assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.mult, want.mult)
    assert np.max(np.abs(got.beta - want.beta)) <= bound
    assert np.max(np.abs(got.weight - want.weight)) <= bound


@pytest.mark.parametrize("n", [3, 4, 8])
def test_catalog_base_shapes_are_each_orbits_own(n):
    # the catalog's closed-form ruled bases against one Koszul orbit per corank
    alg = solvable.build_algebra(n)
    rows = families._catalog_rows(n, 1.3)
    # the closed-form groups each ruled row of the catalog reads, as columns
    bases = {
        k: Groups(*map(np.array, zip(*families._named_groups(kind, n, k)[1])))
        for _, _, kind, k, *_ in rows
        if kind == "Wk"
    }
    assert sorted(bases) == list(range(1, n))
    for k in range(1, n):
        orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, k))
        xi = orbit.normal[0]
        # the eigh of the orbit's own shape operator, grouped, against the rank-two form
        own = np.linalg.eigh(orbit.shape_operator(xi))
        squares = np.square((orbit.tangent @ (alg.J @ xi)) @ own.eigenvectors)
        entries, weights = profiles.merge_spectrum(
            [(v, 1, s) for v, s in zip(own.eigenvalues.tolist(), squares.tolist())]
        )
        tangent = bases[k].alpha == 1.0
        assert bases[k].mult[tangent].tolist() == [m for _, m in entries]
        assert np.max(np.abs(-bases[k].beta[tangent] - [v for v, _ in entries])) <= 1e-15
        assert np.max(np.abs(bases[k].weight[tangent] - weights)) <= 1e-15
        assert bases[k].mult[~tangent].tolist() == ([k - 1] if k > 1 else [])


@pytest.mark.parametrize("n", range(2, 13))
def test_spectral_bases_match_the_frame_route_on_their_frames(n):
    for kind, k in _kinds(n):
        frame = frame_base(*_frame(kind, n, k))
        # the horosphere's closed form is the frame route of its orbit, digit for digit
        bound = 0.0 if kind == "horosphere" else 1e-15
        _assert_same_groups(families.tube_base(kind, n, k), frame, bound)


@pytest.mark.parametrize("n", [3, 6])
def test_a_ruled_shape_off_its_rank_two_form_raises(monkeypatch, n):
    # verify holds the orbits to their rank-two form; the catalog reads no orbit
    want = json.dumps([families.entry_to_dict(e) for e in families.catalog(n, 1.3)[0]])
    shape_operator = solvable.OrbitModel.shape_operator

    def perturbed(self, xi):
        S = shape_operator(self, xi)
        S[0, -1] += 1e-9
        return S

    monkeypatch.setattr(solvable.OrbitModel, "shape_operator", perturbed)
    result = verification.run_suite("ruled-second-fundamental")
    assert not result.passed
    assert result.max_residual == pytest.approx(1e-9, rel=1e-6)
    assert result.detail.startswith("worst: S_xi vs the (Z, i xi) pairing, n=3, k=1, xi_0")
    got = json.dumps([families.entry_to_dict(e) for e in families.catalog(n, 1.3)[0]])
    assert got == want


def test_catalog_costs_a_fixed_number_of_eigh_and_eye_calls(monkeypatch):
    # an eigh per ruled orbit or an identity per named base grows with n; every
    # base is a closed form, so the catalog builds no algebra, slice or orbit
    counts = {}

    def counted(module, name):
        fn = getattr(module, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigh")
    counted(np.linalg, "qr")
    counted(np, "eye")
    # the rates are closed-form: the Jacobi operator is never built or split
    for module in (ambient, jacobi):
        counted(module, "jacobi_operator")
    counted(jacobi, "curvature_propagator")
    for name in ("build_algebra", "validate_ruled_spec", "horosphere_model"):
        counted(solvable, name)
    for name in ("__post_init__", "shape_operator"):
        counted(solvable.OrbitModel, name)
    # no TubeBase is built or taken apart, and one engine core checks every radius
    for name in ("tube_base", "_group_stacks", "_tube_profiles"):
        counted(families, name)
    seen = []
    for n in (4, 16, 40):
        counts.update(dict.fromkeys(counts, 0))
        families.catalog(n, 1.3)
        seen.append(dict(counts))
    # one eigh, for the stack of the non-Hopf tubes' 2 x 2 blocks, and nothing else
    assert seen[0] == seen[1] == seen[2], seen
    assert seen[0] == dict.fromkeys(counts, 0) | {"eigh": 1, "eye": 1, "_tube_profiles": 1}, seen


# at MAX_RADIUS, -coth(r/2)/2 and -tanh(r/2)/2 lie 1/sinh(r) = MERGE_TOL apart: the
# engine cuts them into two eigenspaces whose means then fall within MERGE_TOL
_UNRESOLVED = (
    r"principal curvatures -0\.500000000\d* and -0\.499999999\d* lie within "
    r"MERGE_TOL = 1e-09 of each other and cannot be told apart"
)


def test_tube_at_the_radius_cap_names_the_curvatures_it_cannot_separate():
    named = rf"^the tube at distance 21\.41641301750635\d*: {_UNRESOLVED}$"
    with pytest.raises(UnresolvedSpectrumError, match=named) as caught:
        families.tube_spectrum("CHk", 8, k=5, r=jacobi.MAX_RADIUS)
    assert caught.value.job == 0
    # in a list of jobs, the error names the job's own index
    jobs = [
        (families.tube_base("point", 8), 1.0),
        (families.tube_base("CHk", 8, 5), jacobi.MAX_RADIUS),
        (families.tube_base("point", 8), 1.0),
    ]
    with pytest.raises(UnresolvedSpectrumError, match=_UNRESOLVED) as caught:
        families.tube_spectra(jobs)
    assert caught.value.job == 1
    # a list over two dimensions is refused, naming them
    jobs[0] = (families.tube_base("point", 3), 1.0)
    with pytest.raises(ValidationError, match=r"one complex dimension, got n in \[3, 8\]$"):
        families.tube_spectra(jobs)


@pytest.mark.parametrize("r", [jacobi.MAX_RADIUS, 21.41641301750635])
def test_catalog_at_the_radius_cap_names_the_family(r):
    at = re.escape(repr(r))
    named = rf"^catalog family tube-CHk \(k = 5\), the tube at distance {at}: {_UNRESOLVED}$"
    with pytest.raises(UnresolvedSpectrumError, match=named):
        families.catalog(8, r)


def test_tube_pass_builds_no_dense_stack():
    n, r = 48, 1.3
    rows = families._catalog_rows(n, r)
    jobs = [(families.tube_base(kind, n, k), distance) for _, _, kind, k, _, distance, *_ in rows]
    # a value and a derivative stack of (B, 2n - 1, 2n - 1) doubles: 14.3 MB;
    # the dense engine peaked at 21.6 MB here, the reduced kernel at 1.4 MB
    dense = 2 * len(jobs) * (2 * n - 1) ** 2 * 8
    # one small tube first, so numpy's one-time allocations stay out of the count
    families.tube_spectrum("point", 3, r=r)
    # the TubeBase route and the catalog's one stack of closed forms
    for tube_pass in (lambda: families.tube_spectra(jobs), lambda: families.catalog(n, r)):
        tracemalloc.start()
        try:
            tube_pass()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= dense / 5, peak


def test_asymmetric_tube_block_rejected(monkeypatch):
    # the engine reads no base shape operator, so the G x G block is what raises
    monkeypatch.setattr(families, "SYMMETRY_TOL", -1.0)
    with pytest.raises(ValueError, match="tube shape operator at distance 0.7 asymmetric"):
        families.tube_spectrum("Wk", 3, k=2, r=0.7)


def test_carrier_multiplicity_one_on_non_hopf_families():
    for e in families.three_curvature_families(4):
        if e.classification_family in ("c", "d"):
            assert e.profile.multiplicity(e.profile.hopf.lam2) == 1


def test_catalog_open_case_handling():
    entries, notes = families.catalog(2)
    assert {e.family for e in entries} == {
        "horosphere",
        "geodesic-sphere",
        "tube-CHk",
        "tube-RHn",
    }
    assert notes and "open" in notes[0]
    with pytest.raises(OpenCaseError):
        families.three_curvature_families(2)


def test_catalog_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        families.catalog(1)


@pytest.mark.parametrize("n", [3.5, 4.0, "4", True])
def test_catalog_rejects_a_dimension_that_is_not_an_integer(n):
    # 3.5 used to raise numpy's bare "expected a sequence of integers"
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
        families.catalog(n, 1.0)


@pytest.mark.parametrize(
    "entry, name",
    [
        (lambda r: families.catalog(3, r), "r"),
        (lambda r: families.tube_spectrum("point", 3, r=r), "tube radius"),
        (lambda r: families.equidistant_profile(3, r), "r"),
    ],
    ids=["catalog", "tube_spectrum", "equidistant_profile"],
)
@pytest.mark.parametrize("r", [True, "1", None, 1 + 0j, np.array([1.0])])
def test_a_radius_that_is_not_a_real_number_is_refused(entry, name, r):
    # True used to reach the entries as r: true, the others raised bare TypeErrors
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {r!r}")):
        entry(r)


def test_catalog_of_a_numpy_float_radius_serialises():
    # the entries used to carry the float32, which json cannot write
    entries, _ = families.catalog(3, np.float32(1.3))
    docs = json.loads(json.dumps([families.entry_to_dict(e) for e in entries]))
    sphere = [doc["r"] for doc in docs if doc["family"] == "geodesic-sphere"]
    assert sphere == [float(np.float32(1.3))]
    assert all(type(e.r) is float for e in entries if e.r is not None)


def test_tube_base_rejects_a_corank_that_is_not_an_integer():
    # it used to raise "slice indices must be integers"
    with pytest.raises(ValueError, match=re.escape("k must be an integer, got 1.5")):
        families.tube_base("CHk", 4, 1.5)


def test_catalog_of_a_numpy_dimension_serialises():
    # the entries used to carry the numpy integer, which json cannot write
    entries, _ = families.catalog(np.int64(4), 1.0)
    assert all(type(entry.n) is int for entry in entries)
    assert json.dumps([families.entry_to_dict(e) for e in entries]) == json.dumps(
        [families.entry_to_dict(e) for e in families.catalog(4, 1.0)[0]]
    )


@pytest.mark.parametrize(
    "entries, total_dim, name",
    [(((0.5, 2.5), (1.0, 1)), 3.5, "multiplicity"), (((0.5, 2), (1.0, 1)), 3.0, "total_dim")],
)
def test_profile_rejects_a_count_that_is_not_an_integer(entries, total_dim, name):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got"):
        PrincipalProfile(entries=entries, total_dim=total_dim)
    # numpy counts are stored as plain ints
    profile = PrincipalProfile(entries=((0.5, np.int64(2)), (1.0, 1)), total_dim=np.int64(3))
    assert type(profile.entries[0][1]) is int and type(profile.total_dim) is int


def test_exceptional_representative_radius_rejected():
    with pytest.raises(ValueError, match="tube-RHn at r = .* has g = 2, not 3"):
        families.three_curvature_families(3, r=R_STAR)


def test_entry_serialisation():
    entries, _ = families.catalog(3)
    doc = families.entry_to_dict(entries[0])
    assert doc["family"] == "horosphere"
    assert doc["hopf"] is True
    assert doc["profile"] == [[0.5, 4], [1.0, 1]]
    ruled = next(e for e in entries if e.family == "ruled-W")
    rdoc = families.entry_to_dict(ruled)
    assert rdoc["hopf"] is False
    assert rdoc["b"] == pytest.approx(
        [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], abs=1e-12
    )


def test_catalog_builds_each_algebra_and_propagator_once(monkeypatch):
    counts = {"build_algebra": 0, "curvature_propagator": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(solvable, "build_algebra")
    counted(jacobi, "curvature_propagator")
    families.catalog(8, 1.0)
    # every base is a closed form, so no algebra; the tube pass takes its rates in
    # closed form, so no propagator
    assert counts == {"build_algebra": 0, "curvature_propagator": 0}


def test_catalog_json_matches_its_sha256_goldens():
    # every digit of 126 catalogs; regen_catalog_sha256.py names the (n, r) that moved
    golden = json.loads(regen_catalog_sha256.GOLDENS.read_text())
    assert len(golden) == 126
    assert regen_catalog_sha256.moved(golden, regen_catalog_sha256.hashes()) == []


@pytest.mark.parametrize("n", range(2, 17))
def test_catalog_rows_read_the_closed_form_of_tube_base_bit_for_bit(monkeypatch, n):
    # the catalog's one stack holds, row by row, the groups tube_base wraps
    stacks = []
    core = families._tube_profiles

    def spy(n, *stack):
        stacks.append(stack)
        return core(n, *stack)

    monkeypatch.setattr(families, "_tube_profiles", spy)
    entries, _ = families.catalog(n, 1.3)
    [(alpha, beta, mult, weight, present, radii)] = stacks
    rows = families._catalog_rows(n, 1.3)
    assert [(row[1], row[3], row[4]) for row in rows] == [(e.family, e.k, e.r) for e in entries]
    for i, (_, _, kind, k, _, distance, *_) in enumerate(rows):
        base = families.tube_base(kind, n, k)
        want = (base.alpha, base.beta, base.mult, base.weight)
        for got, column in zip((alpha, beta, mult, weight), want):
            assert got[i][present[i]].tobytes() == np.asarray(column, dtype=float).tobytes()
        assert radii[i : i + 1].tobytes() == np.array([distance]).tobytes()


_OUT_OF_RANGE = "tube radius {} is out of range: |r| must be finite and at most 21.4164"
_NOT_POSITIVE = "tube radius must be positive, got {}"


@pytest.mark.parametrize(
    "entry",
    [
        lambda r: families.catalog(4, r),
        lambda r: families.two_curvature_families(4, r),
        lambda r: families.three_curvature_families(4, r),
        # a signed radius around a hypersurface first, then the job at fault
        lambda r: families.tube_spectra(
            [(families.tube_base("horosphere", 4), -1.5), (families.tube_base("point", 4), r)]
        ),
    ],
    ids=["catalog", "two_curvature_families", "three_curvature_families", "tube_spectra"],
)
@pytest.mark.parametrize(
    "r, message",
    [
        (math.nan, _OUT_OF_RANGE.format("nan")),
        (math.inf, _OUT_OF_RANGE.format("inf")),
        (22.0, _OUT_OF_RANGE.format("22.0")),
        (-1.0, _NOT_POSITIVE.format("-1.0")),
        (0.0, _NOT_POSITIVE.format("0.0")),
        (-0.0, _NOT_POSITIVE.format("-0.0")),
    ],
    ids=["nan", "inf", "22", "minus-1", "zero", "minus-zero"],
)
def test_a_radius_no_tube_takes_is_refused_by_every_entry_point(entry, r, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(r)


def test_catalog_matches_reference():
    """Catalog output recorded before the tube engine was stacked.

    Structure is exact; curvatures and weights agree within 1e-12, so
    the check does not depend on the BLAS build.
    """
    for case in json.loads(REFERENCE.read_text()):
        entries, notes = families.catalog(case["n"], case["r"])
        assert notes == case["notes"]
        got = [families.entry_to_dict(e) for e in entries]
        assert len(got) == len(case["entries"])
        for doc, want in zip(got, case["entries"]):
            exact = ("family", "n", "k", "r", "g", "hopf", "classification_family", "constraint")
            assert {key: doc.get(key) for key in exact} == {key: want.get(key) for key in exact}
            assert [m for _, m in doc["profile"]] == [m for _, m in want["profile"]]
            lams = [lam for lam, _ in doc["profile"]]
            assert lams == pytest.approx([lam for lam, _ in want["profile"]], abs=1e-12)
            assert (doc["b"] is None) == (want["b"] is None)
            if want["b"] is not None:
                assert doc["b"] == pytest.approx(want["b"], abs=1e-12)
