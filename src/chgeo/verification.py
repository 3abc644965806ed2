"""Named verification suites shared by the CLI and the test harness.

Each suite exercises one block of exact identities and returns its
residuals as ``(value, label)`` records: ``value`` is a float or an
array whose max is taken, ``label`` names the check and its parameters.
``run_suite`` alone turns records into a report: it holds the worst
value to the suite's tolerance (or an override) and, on failure, names
the worst record.  The suites are deterministic given the seed, so two
runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass

import numpy as np

from . import ambient, classifier, families, jacobi, profiles, solvable
from .errors import FocalPointError, UnsupportedModelError, ValidationError

__all__ = [
    "SuiteResult",
    "case_two_grid",
    "run_all",
    "run_suite",
    "suite_names",
]

DEFAULT_SEED = 20260810
# errors the engine raises on data it cannot handle; a suite that meets one fails
_ENGINE_ERRORS = (ValidationError, UnsupportedModelError, FocalPointError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str
    seconds: float


def case_two_grid() -> np.ndarray:
    """Deterministic grid of 97 axis curvatures inside (-1/2, 1/2) without 0.

    lam3 = 0 is left out because the case-ii relations degenerate there:
    they hold for every b1^2 + b2^2 = 1, so the weights are not a
    checkable consequence of the curvatures (see ``solve_case_two``).
    """
    pts = np.linspace(-0.485, 0.485, 98)
    return pts[np.abs(pts) > 1e-9][:97]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _rk4_at_steps(z, zp, jc, h: float, steps: np.ndarray):
    """Column i of the states (z, zp) of shape (d, count) after steps[i] RK4 steps of size h.

    Bit j of a column's count advances it by 2^j steps, so the batch takes
    one ``jacobi._rk4_segment`` call per bit, not one per distinct count.
    """
    z, zp = np.array(z, dtype=float), np.array(zp, dtype=float)
    for j in range(int(steps.max(initial=0)).bit_length()):
        cols = (steps >> j) & 1 == 1
        if cols.any():
            z[:, cols], zp[:, cols] = jacobi._rk4_segment(z[:, cols], zp[:, cols], jc, h, 1 << j)
    return z, zp


# ---------------------------------------------------------------------------
# suites: each returns a list of (value, label) records
# ---------------------------------------------------------------------------


def suite_ambient_identities(seed: int = DEFAULT_SEED):
    """Tensor symmetries, first Bianchi identity and curvature pinching."""
    rng = np.random.default_rng(seed)
    records = []
    for n in (2, 3, 4):
        model = ambient.CurvatureModel(n)
        x, y, z, w = _unit_rows(rng.standard_normal((100, 4, 2 * n))).transpose(1, 0, 2)
        pair = np.abs(
            ambient.curvature_component(model, x, y, z, w)
            - ambient.curvature_component(model, z, w, x, y)
        )
        bianchi = np.linalg.norm(
            ambient.curvature(model, x, y, z)
            + ambient.curvature(model, y, z, x)
            + ambient.curvature(model, z, x, y),
            axis=-1,
        )
        jx, jy = x @ model.J.T, y @ model.J.T
        jinv = np.linalg.norm(
            ambient.curvature(model, jx, jy, z) - ambient.curvature(model, x, y, z),
            axis=-1,
        )
        records += [
            (pair, f"pair symmetry R(x,y,z,w) = R(z,w,x,y), n={n}"),
            (bianchi, f"first Bianchi identity, n={n}"),
            (jinv, f"J-invariance R(Jx,Jy) = R(x,y), n={n}"),
        ]
    model = ambient.CurvatureModel(3)
    x, y = _unit_rows(rng.standard_normal((1000, 2, model.dim))).transpose(1, 0, 2)
    # skip only the planes sectional_curvature rejects as degenerate
    plane = ambient._gram(x, y) >= ambient.DEGENERATE_PLANE_TOL
    kappa = ambient.sectional_curvature(model, x[plane], y[plane])
    records.append((np.maximum(0.0, kappa - (-0.25)), "sectional curvature above -1/4, n=3"))
    records.append((np.maximum(0.0, -1.0 - kappa), "sectional curvature below -1, n=3"))
    return records


def suite_cross_model_curvature(seed: int = DEFAULT_SEED):
    """Group-model curvature against the closed form, 500 random triples."""
    rng = np.random.default_rng(seed)
    records = []
    for n in (2, 3, 4):
        alg = solvable.build_algebra(n)
        model = ambient.CurvatureModel(n)
        x, y, z = rng.standard_normal((500, 3, 2 * n)).transpose(1, 0, 2)
        lhs = solvable.algebra_curvature(alg, x, y, z)
        rhs = ambient.curvature(model, x, y, z)
        records.append((np.linalg.norm(lhs - rhs, axis=-1), f"Koszul vs closed-form R, n={n}"))
    return records


def _ruled_base_records(orbit, k: int, xi, vals, vecs, at: str):
    """The closed-form base ``tube_base("Wk", n, k)`` against the orbit along its unit normal xi.

    (vals, vecs) is the ``eigh`` of the orbit's shape operator along xi,
    grouped with J(xi)'s squared coordinates by ``merge_spectrum``; the
    sphere length is that of J(xi)'s projection onto the normal rows
    orthogonal to xi, and the base's normal must lie in the slice.  A
    multiplicity or row count the closed form does not match scores 1.
    """
    base = families.tube_base("Wk", orbit.algebra.n, k)
    tangent = base.alpha == 1.0
    jxi = orbit.algebra.J @ xi
    squares = np.square((orbit.tangent @ jxi) @ vecs)
    items = zip(vals.tolist(), [1] * len(vals), squares.tolist())
    entries, lengths = profiles.merge_spectrum(items)
    got = [m for _, m in entries], orbit.codim - 1
    want = base.mult[tangent].tolist(), int(base.mult[~tangent].sum())
    records = [(float(got != want), f"Wk base multiplicities vs the orbit, {at}")]
    if got == want:
        sigma = np.array([v for v, _ in entries])
        records += [
            (np.abs(sigma + base.beta[tangent]), f"Wk base curvatures vs the orbit, {at}"),
            (np.abs(lengths - base.weight[tangent]), f"Wk base J(nu) lengths vs the orbit, {at}"),
        ]
    off = base.nu - (orbit.normal @ base.nu) @ orbit.normal
    records.append((math.sqrt(off @ off), f"Wk base normal off the slice, {at}"))
    # J(xi) on the normal rows, less its part along xi itself
    normal_jxi, normal_xi = orbit.normal @ jxi, orbit.normal @ xi
    sphere = normal_jxi - (normal_xi @ normal_jxi) * normal_xi
    defect = math.sqrt(sphere @ sphere) - math.sqrt(np.square(base.weight[~tangent]).sum())
    records.append((abs(defect), f"Wk base sphere length vs the orbit, {at}"))
    return records


def suite_ruled_second_fundamental():
    """Second fundamental form, shape spectra and tube bases of the ruled orbits.

    One ``build_ruled`` orbit per corank k = 1, ..., n - 1, over the
    canonical slice ``default_ruled_spec(alg, k)``.  Each orbit also holds the closed-form base ``tube_base("Wk", n, k)``,
    which the catalog reads, to its own shape operator: along the first
    slice row, the base's normal, and for k >= 2 along the normalised sum
    of the slice rows, as the base is the same over the unit normal sphere.
    """
    records = []
    for n in (3, 4, 5):
        alg = solvable.build_algebra(n)
        z_vec = np.eye(2 * n)[1]
        for k in range(1, n):
            orbit = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, k))
            expected = np.concatenate([[-0.5], np.zeros(orbit.dim - 2), [0.5]])
            for i, xi in enumerate(orbit.normal):
                at = f"n={n}, k={k}, xi_{i}"
                ixi = alg.J @ xi
                # the single non-trivial pairing
                defect = 2.0 * orbit.second_fundamental(z_vec, ixi) - xi
                records.append((np.linalg.norm(defect), f"2 II(Z, i xi) - xi, {at}"))
                # II(t_i, t_j) . xi over every frame pair: only (Z, i xi) survives
                S = orbit.shape_operator(xi)
                t_z, t_ixi = orbit.tangent @ z_vec, orbit.tangent @ ixi
                pairing = 0.5 * (np.outer(t_z, t_ixi) + np.outer(t_ixi, t_z))
                records.append((np.abs(S - pairing), f"S_xi vs the (Z, i xi) pairing, {at}"))
                vals, vecs = np.linalg.eigh(S)
                records.append((np.abs(np.sort(vals) - expected), f"spectrum of S_xi, {at}"))
                if i == 0:
                    records += _ruled_base_records(orbit, k, xi, vals, vecs, at)
                # eigenvectors of the extreme curvatures
                for sign in (+1.0, -1.0):
                    target = (z_vec + sign * ixi) / math.sqrt(2.0)
                    coeffs = orbit.tangent @ target
                    defect = np.linalg.norm(S @ coeffs - sign * 0.5 * coeffs)
                    records.append((defect, f"eigenvector Z {sign:+.0f} i xi of S_xi, {at}"))
                records.append((abs(float(np.trace(S))), f"tr S_xi, {at}"))
            if k >= 2:
                xi = _unit_rows(orbit.normal.sum(axis=0))
                vals, vecs = np.linalg.eigh(orbit.shape_operator(xi))
                records += _ruled_base_records(orbit, k, xi, vals, vecs, f"n={n}, k={k}, xi_sum")
    return records


def suite_jacobi_oracle(seed: int = DEFAULT_SEED):
    """``jacobi_field`` (``jacobi_mode``) against fourth-order integration, 200 random cases.

    Also holds ``jacobi.RATES``, the rates both engines use, and the line of
    J(normal) against ``curvature_propagator``'s ``eigh`` of the Jacobi operator.
    """
    rng = np.random.default_rng(seed)
    n = 3
    count = 200
    h = 1e-3
    branch = classifier.solve_case_two(0.2).branch
    profile = classifier.branch_profile(branch, n)
    frame = jacobi.normal_frame(profile)
    steps = rng.integers(0, int(round(3.0 / h)) + 1, size=count)
    v = rng.standard_normal((count, frame.dim))
    v[:, 0] = 0.0
    v0, v0p = jacobi.jacobi_field(frame, v, 0.0)
    z, zp = _rk4_at_steps(v0.T, v0p.T, frame.jxi, h, steps)
    value, deriv = jacobi.jacobi_field(frame, v, steps * h)
    records = [
        (np.linalg.norm(z.T - value, axis=-1), "Jacobi field vs RK4 at lam3=0.2, n=3"),
        (np.linalg.norm(zp.T - deriv, axis=-1), "Jacobi derivative vs RK4 at lam3=0.2, n=3"),
    ]
    # the closed-form rates the engines use, against an eigh of the Jacobi
    # operator along the frame's normal e_0 and three fixed unit normals
    model = ambient.CurvatureModel(n)
    fixed = [[1, 0, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 2, 0, 0], [1, -1, 1, -1, 1, -1]]
    for i, nu in enumerate(_unit_rows(np.array(fixed, dtype=float))):
        jc, q = jacobi.curvature_propagator(model, nu)
        jnu = model.J @ nu
        line = min(np.max(np.abs(jc - jnu)), np.max(np.abs(jc + jnu)))
        records += [
            (np.abs(q - jacobi.RATES), f"propagator rates vs (1/2, 1), normal {i}, n={n}"),
            (line, f"propagator line vs +-J(normal), normal {i}, n={n}"),
        ]
    return records


def suite_jacobi_field_equation(seed: int = DEFAULT_SEED):
    """Finite-difference check that ``jacobi_mode`` solves the field equation.

    The second difference at step 1e-4 cancels ~8 leading digits, so it
    is evaluated in extended precision to keep the rounding noise below
    the truncation error of the stencil.
    """
    rng = np.random.default_rng(seed)
    h = np.longdouble(1e-4)
    draws = rng.uniform([-1.0, -1.0, 0.1], [1.0, 1.0, 3.0], size=(200, 3))
    lam, w, t = draws.astype(np.longdouble).T
    tt = t + np.array([-h, 0, h], dtype=np.longdouble)[:, None]
    # rows (f, w g) at the stencil points t - h, t, t + h: f and f + g are
    # the rate-1/2 and rate-1 modes from (1, -lam), on the last axis
    growth, y, _ = jacobi.jacobi_mode(1.0, -lam[:, None], np.array([0.5, 1.0]), tt[..., None])
    f, f_plus_g = np.moveaxis(growth * y, -1, 0)
    vals = np.stack([f, w * (f_plus_g - f)])
    second = (vals[:, 2] - 2.0 * vals[:, 1] + vals[:, 0]) / h**2
    zeta = vals[:, 1]
    # <zeta, Jc> in the (B_v, Jc) expansion: B_v carries weight w on Jc
    axis = zeta[0] * w + zeta[1]
    rhs = np.stack([zeta[0], zeta[1] + 3.0 * axis])
    residuals = np.linalg.norm((4.0 * second - rhs).astype(float), axis=0)
    return [(residuals, "4 w'' - w - 3 <w, Jc> Jc by central difference, h=1e-4")]


def suite_focal_collapse():
    """Numbers of the repeated-carrier collapse at the exceptional radius."""
    r = jacobi.EXCEPTIONAL_RADIUS
    records = []
    branch = classifier.solve_case_one()
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    expected = np.array([[4.0, s2], [4.0 * s2 - 2.0 * s3, 2.0 + 4.0 * math.sqrt(6.0)]])
    block_expected = (1.0 / 18.0) * np.array([[4.0 * s2, -7.0], [-7.0, -4.0 * s2]])
    for n, m1 in ((3, 2), (4, 2), (4, 3)):
        at = f"n={n}, m1={m1}"
        profile = classifier.branch_profile(branch, n, m1=m1)
        focal = jacobi.transversal_map(profile, r)
        # f of the axis row, whose curvature is lam3
        transverse = 9.0 * focal.f[0] - 3.0 * math.sqrt(6.0)
        vanishing = np.count_nonzero(focal.singular_values <= 1e-12)
        image = jacobi.image_shape_operator(focal)
        eig = np.sort(np.linalg.eigvalsh(image.carrier_block))
        records += [
            (np.abs(9.0 * focal.d_block - expected), f"9 D, {at}"),
            (abs(transverse), f"9 f(r) - 3 sqrt(6), {at}"),
            (abs(focal.kernel_dim - (m1 - 1)), f"kernel dimension, {at}"),
            (abs(focal.image_codim - m1), f"image codimension, {at}"),
            (abs(vanishing - (m1 - 1)), f"vanishing singular values, {at}"),
            (np.abs(image.carrier_block - block_expected), f"image carrier block, {at}"),
            (np.abs(eig - np.array([-0.5, 0.5])), f"image carrier spectrum, {at}"),
            (abs(image.axis_rate), f"image axis rate, {at}"),
        ]
    return records


def suite_equidistant_identities():
    """Determinant/trace identities of the carrier block on the axis grid."""
    grid = [float(lam3) for lam3 in case_two_grid()]
    radii = [2.0 * math.atanh(2.0 * lam3) for lam3 in grid]
    jobs = [
        (classifier.branch_profile(classifier.solve_case_two(lam3).branch, 3), r)
        for lam3, r in zip(grid, radii)
    ]
    focals = jacobi.transversal_maps(jobs)
    D = np.array([focal.d_block for focal in focals])
    C = np.array([focal.c_block for focal in focals])
    det_d, det_c = np.linalg.det(D), np.linalg.det(C)
    trace_c = np.trace(C, axis1=-2, axis2=-1)
    eig = np.sort(np.linalg.eigvals(C).real, axis=-1)
    records = []
    for i, (lam3, r) in enumerate(zip(grid, radii)):
        at = f"lam3={lam3:.6g}"
        sech = 1.0 / math.cosh(r / 2.0)
        records += [
            (abs(float(det_d[i]) - sech**3), f"det D - sech^3(r/2) at {at}"),
            (abs(float(trace_c[i])), f"tr C at {at}"),
            (abs(float(det_c[i]) + 0.25), f"det C + 1/4 at {at}"),
            (np.abs(eig[i] - np.array([-0.5, 0.5])), f"spectrum of C at {at}"),
        ]
    return records


def suite_classifier(seed: int = DEFAULT_SEED):
    """Branch values, residual system and the exclusion windows."""
    iso = classifier.solve_case_one()
    s3 = math.sqrt(3.0)
    expected = (s3 / 2.0, 0.0, s3 / 6.0, 8.0 / 9.0, 1.0 / 9.0)
    got = (iso.lambda1, iso.lambda2, iso.lambda3, iso.b1_sq, iso.b2_sq)
    records = [
        (max(abs(a - b) for a, b in zip(expected, got)), "case-i branch values"),
        (abs(4.0 * iso.lambda1 * iso.lambda3 - 1.0), "4 lam1 lam3 - 1 on case i"),
    ]
    for lam3 in case_two_grid():
        branch = classifier.solve_case_two(float(lam3)).branch
        if branch is None:
            records.append((1.0, f"missing branch at lam3={lam3:.6g}"))
        else:
            worst = max(branch.residuals().values())
            records.append((worst, f"case-ii relations at lam3={lam3:.6g}"))
    exclusions = [(0.55, "ellipse"), (0.56, "ellipse"), (0.57, "ellipse")]
    exclusions += [(0.5, "coincident"), (1.0 / math.sqrt(3.0), "coincident")]
    for lam3, reason in exclusions:
        outcome = classifier.solve_case_two(lam3)
        excluded = outcome.empty and reason in (outcome.reason or "")
        records.append((float(not excluded), f"{reason} exclusion at lam3={lam3:.6g}"))
    searched = (0.2, -0.3, 0.55)
    found = classifier.validate_against_closed_form(searched, np.random.default_rng(seed))
    for lam3, anomalies in zip(searched, found):
        # scored by the number of Newton roots the closed forms do not explain
        label = f"unexplained newton roots at lam3={lam3}"
        if anomalies:
            first = ", ".join(f"{v:.12g}" for v in anomalies[0])
            label += f", first (l1, l2, b1^2, b2^2) = ({first})"
        records.append((len(anomalies), label))
    return records


def suite_structural_residuals():
    """Connection identities, pairing lemma, Gauss and Codazzi, n in {3, 4}.

    The connection identities and the pairing lemma hold on the ruled
    hypersurface orbit; Gauss and Codazzi are checked over the whole
    frame of that orbit and of the horosphere.  The horosphere's Koszul
    shape operator along A is held to the spectrum its named tube base
    takes in closed form: 1/2 with multiplicity 2n - 2, then 1.
    """
    records = []
    for n in (3, 4):
        alg = solvable.build_algebra(n)
        ruled = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
        res = families.structural_residuals(ruled)
        records += [(value, f"{name} on the ruled orbit, n={n}") for name, value in res.items()]
        horosphere = solvable.horosphere_model(alg)
        spectrum = np.linalg.eigvalsh(horosphere.shape_operator(horosphere.normal[0]))
        closed = [0.5] * (2 * n - 2) + [1.0]
        records.append(
            (np.max(np.abs(spectrum - closed)), f"shape spectrum of the horosphere along A, n={n}")
        )
        orbits = (("ruled", ruled), ("horosphere", horosphere))
        for orbit_name, orbit in orbits:
            gauss, codazzi = orbit.compatibility_defects()
            records.append((np.abs(gauss), f"gauss on the {orbit_name} orbit, n={n}"))
            records.append((np.abs(codazzi), f"codazzi on the {orbit_name} orbit, n={n}"))
    return records


def suite_catalog_counts():
    """Distinct-curvature counts across the engine-built families."""
    n = 3
    wk = families.tube_base("Wk", n, 2)
    rhn = families.tube_base("RHn", n)
    point = families.tube_base("point", n)
    checks = [
        ("tube-Wk r=1", (wk, 1.0), 4),
        ("tube-Wk exceptional", (wk, jacobi.EXCEPTIONAL_RADIUS), 3),
        ("tube-RHn exceptional", (rhn, jacobi.EXCEPTIONAL_RADIUS), 2),
        ("tube-RHn r=1", (rhn, 1.0), 3),
        ("tube-RHn r=2", (rhn, 2.0), 3),
        ("horosphere", (families.tube_base("horosphere", n), 1.0), 2),
        ("geodesic sphere r=0.7", (point, 0.7), 2),
        ("geodesic sphere r=2", (point, 2.0), 2),
    ]
    profiles = families.tube_spectra([job for _, job, _ in checks])
    return [
        (abs(profile.g - expected), f"g of {name}, n={n}")
        for (name, _, expected), profile in zip(checks, profiles)
    ]


def suite_cross_consistency():
    """Classifier branches against engine equidistants; radius relation."""
    records = []
    n = 3
    radii = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    # equidistants at signed distance r sit at engine distance -r from the ruled orbit
    ruled = families.tube_base("Wk", n, 1)
    profiles = families.tube_spectra([(ruled, -r) for r in radii])
    for r, profile in zip(radii, profiles):
        lam3 = math.tanh(r / 2.0) / 2.0
        branch = classifier.solve_case_two(lam3).branch
        closed = classifier.branch_profile(branch, n).entries
        for i, ((lv, lm), (ev, em)) in enumerate(zip(closed, profile.entries)):
            records.append((abs(lv - ev), f"curvature {i + 1} at r={r:g}, n={n}"))
            records.append((abs(lm - em), f"multiplicity {i + 1} at r={r:g}, n={n}"))
        hopf = profile.hopf
        b_closed = sorted([branch.b1_sq, branch.b2_sq])
        b_engine = sorted([hopf.b1**2, hopf.b2**2])
        records += [
            (abs(a - b), f"weight b{i + 1}^2 at r={r:g}, n={n}")
            for i, (a, b) in enumerate(zip(b_closed, b_engine))
        ]
    records.append(
        (abs(math.tanh(jacobi.EXCEPTIONAL_RADIUS / 2.0) - 1.0 / math.sqrt(3.0)),
         "tanh(r/2) - 1/sqrt(3) at the exceptional radius")
    )
    return records


# name -> (suite, tolerance, coverage text reported when the suite passes)
_SUITES = {
    "ambient-identities": (suite_ambient_identities, 1e-12, "tensor symmetries and pinching"),
    "cross-model-curvature": (
        suite_cross_model_curvature, 1e-10, "Koszul curvature vs closed form, n in {2,3,4}"
    ),
    "ruled-second-fundamental": (
        suite_ruled_second_fundamental,
        1e-12,
        "2 II(Z, i xi) = xi, spectra {0,+1/2,-1/2} and the closed-form Wk bases, "
        "n in {3,4,5}",
    ),
    "jacobi-oracle": (suite_jacobi_oracle, 1e-8, "closed form vs integrator, 200 cases on [0,3]"),
    "jacobi-field-equation": (
        suite_jacobi_field_equation, 1e-6, "central-difference residual of the closed form"
    ),
    "focal-collapse": (suite_focal_collapse, 1e-12, "repeated-carrier collapse numbers"),
    "equidistant-identities": (
        suite_equidistant_identities, 1e-10, "det/trace of the carrier block on a 97-point grid"
    ),
    "classifier-branches": (suite_classifier, 1e-12, "branches, exclusions and root validation"),
    "structural-residuals": (
        suite_structural_residuals,
        1e-10,
        "carrier/axis connection identities and pairing lemma on the minimal orbit; "
        "Gauss and Codazzi over the ruled and horosphere frames",
    ),
    # the counts are integers, so any miss scores at least 1
    "catalog-counts": (suite_catalog_counts, 0.0, "engine-recomputed eigenvalue counts"),
    "cross-consistency": (
        suite_cross_consistency, 1e-10, "closed-form branches vs engine equidistants"
    ),
}


def suite_names() -> list[str]:
    return list(_SUITES)


def _worst(records) -> tuple[float, str]:
    """The largest record value and its label; a NaN ranks above every number."""
    # plain numbers skip the array reduction, which costs microseconds a call
    scored = [
        (float(v if isinstance(v, (int, float)) else np.asarray(v).max(initial=0.0)), label)
        for v, label in records
    ]
    return max(scored, key=lambda rec: (math.isnan(rec[0]), rec[0]))


def run_suite(name: str, seed: int = DEFAULT_SEED, tolerance: float | None = None):
    """Run one suite and report it.

    An engine error raised inside the suite fails that suite alone, with
    a NaN residual and the error as its detail; any other exception
    propagates.  An unknown suite name, a seed that is not a non-negative
    integer or a tolerance that is not a finite number >= 0 raises
    ValueError naming it, before any suite runs.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {suite_names()}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if tolerance is not None and (
        isinstance(tolerance, bool)
        or not isinstance(tolerance, (int, float, np.integer, np.floating))
        or not (math.isfinite(tolerance) and tolerance >= 0)
    ):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    fn, default_tolerance, coverage = _SUITES[name]
    tolerance = default_tolerance if tolerance is None else tolerance
    started = time.perf_counter()
    try:
        # only the randomised suites take a seed; the rest are fixed grids
        records = fn(seed) if "seed" in inspect.signature(fn).parameters else fn()
    except _ENGINE_ERRORS as exc:
        detail = f"raised {type(exc).__name__}: {exc}"
        worst, passed = math.nan, False
    else:
        worst, label = _worst(records)
        passed = worst <= tolerance
        detail = coverage if passed else f"worst: {label} ({worst:.3e})"
    return SuiteResult(
        name=name,
        passed=passed,
        max_residual=worst,
        tolerance=tolerance,
        detail=detail,
        seconds=time.perf_counter() - started,
    )


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None):
    """Every suite, in order; a bad seed or tolerance raises from the first ``run_suite``."""
    return [run_suite(name, seed=seed, tolerance=tolerance) for name in _SUITES]
