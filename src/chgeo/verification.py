"""Named verification suites shared by the CLI and the test harness.

Each suite exercises one block of exact identities at a fixed
tolerance and reports the worst residual it saw.  The suites are
deterministic given the seed, so two runs with the same seed produce
byte-identical reports.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import ambient, classifier, families, jacobi, solvable
__all__ = [
    "SuiteResult",
    "case_two_grid",
    "run_all",
    "run_suite",
    "suite_names",
]

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str
    seconds: float


def case_two_grid() -> np.ndarray:
    """Deterministic grid of 97 axis curvatures inside (-1/2, 1/2) without 0."""
    pts = np.linspace(-0.485, 0.485, 98)
    return pts[np.abs(pts) > 1e-9][:97]


def _result(name, residuals, tolerance, detail, started) -> SuiteResult:
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return SuiteResult(
        name=name,
        passed=worst <= tolerance,
        max_residual=worst,
        tolerance=tolerance,
        detail=detail,
        seconds=time.perf_counter() - started,
    )


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
# suites
# ---------------------------------------------------------------------------


def suite_ambient_identities(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Tensor symmetries, first Bianchi identity and curvature pinching."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    residuals = []
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
        residuals.extend([pair, bianchi, jinv])
    model = ambient.CurvatureModel(3)
    x, y = _unit_rows(rng.standard_normal((1000, 2, model.dim))).transpose(1, 0, 2)
    # skip only the planes sectional_curvature rejects as degenerate
    plane = ambient._gram(x, y) >= ambient.DEGENERATE_PLANE_TOL
    kappa = ambient.sectional_curvature(model, x[plane], y[plane])
    residuals.append(np.maximum(0.0, kappa - (-0.25)))
    residuals.append(np.maximum(0.0, -1.0 - kappa))
    return _result(
        "ambient-identities",
        np.concatenate(residuals),
        1e-12,
        "tensor symmetries and pinching",
        started,
    )


def suite_cross_model_curvature(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Group-model curvature against the closed form, 500 random triples."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    residuals = []
    for n in (2, 3, 4):
        alg = solvable.build_algebra(n)
        model = ambient.CurvatureModel(n)
        x, y, z = rng.standard_normal((500, 3, 2 * n)).transpose(1, 0, 2)
        lhs = solvable.algebra_curvature(alg, x, y, z)
        rhs = ambient.curvature(model, x, y, z)
        residuals.append(np.linalg.norm(lhs - rhs, axis=-1))
    return _result(
        "cross-model-curvature",
        np.concatenate(residuals),
        1e-10,
        "Koszul curvature vs closed form, n in {2,3,4}",
        started,
    )


def suite_ruled_second_fundamental() -> SuiteResult:
    """Second fundamental form and shape spectra of the ruled orbits."""
    started = time.perf_counter()
    residuals = []
    for n in (3, 4, 5):
        alg = solvable.build_algebra(n)
        z_vec = np.eye(2 * n)[1]
        for k in range(1, n):
            model = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, k))
            orbit = model.orbit
            for xi in model.w_perp:
                ixi = alg.J @ xi
                # the single non-trivial pairing
                residuals.append(
                    float(
                        np.linalg.norm(
                            2.0 * orbit.second_fundamental(z_vec, ixi) - xi
                        )
                    )
                )
                # II(t_i, t_j) . xi over every frame pair: only (Z, i xi) survives
                S = orbit.shape_operator(xi)
                t_z, t_ixi = orbit.tangent @ z_vec, orbit.tangent @ ixi
                pairing = 0.5 * (np.outer(t_z, t_ixi) + np.outer(t_ixi, t_z))
                residuals.append(float(np.max(np.abs(S - pairing))))
                vals, _ = np.linalg.eigh(S)
                expected = np.concatenate(
                    [[-0.5], np.zeros(orbit.dim - 2), [0.5]]
                )
                residuals.append(float(np.max(np.abs(np.sort(vals) - expected))))
                # eigenvectors of the extreme curvatures
                for sign in (+1.0, -1.0):
                    target = (z_vec + sign * ixi) / math.sqrt(2.0)
                    coeffs = orbit.tangent @ target
                    residuals.append(
                        float(np.linalg.norm(S @ coeffs - sign * 0.5 * coeffs))
                    )
                residuals.append(abs(float(np.trace(S))))
    return _result(
        "ruled-second-fundamental",
        residuals,
        1e-12,
        "2 II(Z, i xi) = xi and spectra {0,+1/2,-1/2}, n in {3,4,5}",
        started,
    )


def suite_jacobi_oracle(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Closed forms against fourth-order integration, 200 random cases."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    n = 3
    d = 2 * n
    count = 200
    h = 1e-3
    jc = np.zeros(d)
    jc[1] = 1.0
    branch = classifier.solve_case_two(0.2).branch
    profile = classifier.branch_profile(branch, n)
    frame = jacobi.normal_frame(profile)
    steps = rng.integers(0, int(round(3.0 / h)) + 1, size=count)
    v = rng.standard_normal((count, d))
    v[:, 0] = 0.0
    v0, v0p = jacobi.jacobi_field(frame, v, 0.0)
    z, zp = _rk4_at_steps(v0.T, v0p.T, jc, h, steps)
    value, deriv = jacobi.jacobi_field(frame, v, steps * h)
    residuals = np.concatenate(
        [np.linalg.norm(z.T - value, axis=-1), np.linalg.norm(zp.T - deriv, axis=-1)]
    )
    return _result(
        "jacobi-oracle",
        residuals,
        1e-8,
        "closed form vs integrator, 200 cases on [0,3]",
        started,
    )


def suite_jacobi_field_equation(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Finite-difference check that the closed form solves the field equation.

    The second difference at step 1e-4 cancels ~8 leading digits, so it
    is evaluated in extended precision to keep the rounding noise below
    the truncation error of the stencil.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    h = np.longdouble(1e-4)
    draws = rng.uniform([-1.0, -1.0, 0.1], [1.0, 1.0, 3.0], size=(200, 3))
    lam, w, t = draws.astype(np.longdouble).T
    tt = t + np.array([-h, 0, h], dtype=np.longdouble)[:, None]
    # rows (f, w g) at the stencil points t - h, t, t + h
    vals = np.stack([jacobi.transverse_coefficient(lam, tt), w * jacobi.hopf_coefficient(lam, tt)])
    second = (vals[:, 2] - 2.0 * vals[:, 1] + vals[:, 0]) / h**2
    zeta = vals[:, 1]
    # <zeta, Jc> in the (B_v, Jc) expansion: B_v carries weight w on Jc
    axis = zeta[0] * w + zeta[1]
    rhs = np.stack([zeta[0], zeta[1] + 3.0 * axis])
    residuals = np.linalg.norm((4.0 * second - rhs).astype(float), axis=0)
    return _result(
        "jacobi-field-equation",
        residuals,
        1e-6,
        "central-difference residual of the closed form",
        started,
    )


def suite_focal_collapse() -> SuiteResult:
    """Numbers of the repeated-carrier collapse at the exceptional radius."""
    started = time.perf_counter()
    r = jacobi.EXCEPTIONAL_RADIUS
    residuals = []
    details = []
    branch = classifier.solve_case_one()
    for n, m1 in ((3, 2), (4, 2), (4, 3)):
        profile = classifier.branch_profile(branch, n, m1=m1)
        focal = jacobi.transversal_map(profile, r)
        nine = 9.0 * focal.d_block
        expected = np.array(
            [
                [4.0, math.sqrt(2.0)],
                [4.0 * math.sqrt(2.0) - 2.0 * math.sqrt(3.0), 2.0 + 4.0 * math.sqrt(6.0)],
            ]
        )
        residuals.append(float(np.max(np.abs(nine - expected))))
        residuals.append(
            abs(
                9.0 * jacobi.transverse_coefficient(branch.lambda3, r)
                - 3.0 * math.sqrt(6.0)
            )
        )
        if focal.kernel_dim != m1 - 1 or focal.image_codim != m1:
            residuals.append(1.0)
            details.append(f"kernel mismatch at n={n}, m1={m1}")
        svals = focal.singular_values
        small = svals[svals <= 1e-12]
        rest = svals[svals > 1e-12]
        if len(small) != m1 - 1 or (len(rest) and rest.min() < 0.1):
            residuals.append(1.0)
            details.append(f"singular-value gap violated at n={n}, m1={m1}")
        image = jacobi.image_shape_operator(focal)
        block_expected = (1.0 / 18.0) * np.array(
            [
                [4.0 * math.sqrt(2.0), -7.0],
                [-7.0, -4.0 * math.sqrt(2.0)],
            ]
        )
        residuals.append(float(np.max(np.abs(image.carrier_block - block_expected))))
        eig = np.sort(np.linalg.eigvalsh(image.carrier_block))
        residuals.append(float(np.max(np.abs(eig - np.array([-0.5, 0.5])))))
        residuals.append(abs(image.axis_rate))
    detail = "; ".join(details) if details else "repeated-carrier collapse numbers"
    return _result("focal-collapse", residuals, 1e-12, detail, started)


def suite_equidistant_identities() -> SuiteResult:
    """Determinant/trace identities of the carrier block on the axis grid."""
    started = time.perf_counter()
    residuals = []
    for lam3 in case_two_grid():
        branch = classifier.solve_case_two(float(lam3)).branch
        r = 2.0 * math.atanh(2.0 * float(lam3))
        profile = classifier.branch_profile(branch, 3)
        focal = jacobi.transversal_map(profile, r)
        sech = 1.0 / math.cosh(r / 2.0)
        residuals.append(abs(focal.det_d - sech**3))
        C = focal.c_block
        residuals.append(abs(float(np.trace(C))))
        residuals.append(abs(float(np.linalg.det(C)) + 0.25))
        eig = np.sort(np.linalg.eigvals(C).real)
        residuals.append(float(np.max(np.abs(eig - np.array([-0.5, 0.5])))))
    return _result(
        "equidistant-identities",
        residuals,
        1e-10,
        "det/trace of the carrier block on a 97-point grid",
        started,
    )


def suite_classifier(seed: int = DEFAULT_SEED) -> SuiteResult:
    """Branch values, residual system and the exclusion windows."""
    started = time.perf_counter()
    residuals = []
    details = []
    iso = classifier.solve_case_one()
    s3 = math.sqrt(3.0)
    expected = (s3 / 2.0, 0.0, s3 / 6.0, 8.0 / 9.0, 1.0 / 9.0)
    got = (iso.lambda1, iso.lambda2, iso.lambda3, iso.b1_sq, iso.b2_sq)
    residuals.append(max(abs(a - b) for a, b in zip(expected, got)))
    residuals.append(abs(4.0 * iso.lambda1 * iso.lambda3 - 1.0))
    for lam3 in case_two_grid():
        outcome = classifier.solve_case_two(float(lam3))
        if outcome.branch is None:
            residuals.append(1.0)
            details.append(f"missing branch at lam3={lam3}")
            continue
        residuals.append(max(outcome.branch.residuals().values()))
    for lam3 in (0.55, 0.56, 0.57):
        outcome = classifier.solve_case_two(lam3)
        if not outcome.empty or "ellipse" not in (outcome.reason or ""):
            residuals.append(1.0)
            details.append(f"expected ellipse exclusion at lam3={lam3}")
    for lam3 in (0.5, 1.0 / math.sqrt(3.0)):
        outcome = classifier.solve_case_two(lam3)
        if not outcome.empty or "coincident" not in (outcome.reason or ""):
            residuals.append(1.0)
            details.append(f"expected coincidence rejection at lam3={lam3}")
    rng = np.random.default_rng(seed)
    for lam3 in (0.2, -0.3, 0.55):
        anomalies = classifier.validate_against_closed_form(lam3, rng)
        if anomalies:
            residuals.append(1.0)
            first = ", ".join(f"{v:.12g}" for v in anomalies[0])
            details.append(
                f"newton anomaly at lam3={lam3}: {len(anomalies)} unexplained "
                f"root(s), first (l1, l2, b1^2, b2^2) = ({first})"
            )
    detail = "; ".join(details) if details else "branches, exclusions and root validation"
    return _result("classifier-branches", residuals, 1e-12, detail, started)


def suite_structural_residuals() -> SuiteResult:
    """Connection identities, pairing lemma, Gauss and Codazzi, n in {3, 4}.

    The connection identities and the pairing lemma hold on the ruled
    hypersurface orbit; Gauss and Codazzi are checked over the whole
    frame of that orbit and of the horosphere.  A failing report names
    the worst identity, its orbit and n.
    """
    started = time.perf_counter()
    labelled = []
    for n in (3, 4):
        alg = solvable.build_algebra(n)
        ruled = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
        res = families.structural_residuals(n, model=ruled)
        labelled += [(value, name, "ruled", n) for name, value in res.items()]
        orbits = (("ruled", ruled.orbit), ("horosphere", solvable.horosphere_model(alg)))
        for orbit_name, orbit in orbits:
            gauss, codazzi = orbit.compatibility_defects()
            labelled.append((float(np.max(np.abs(gauss))), "gauss", orbit_name, n))
            labelled.append((float(np.max(np.abs(codazzi))), "codazzi", orbit_name, n))
    result = _result(
        "structural-residuals",
        [value for value, *_ in labelled],
        1e-10,
        "carrier/axis connection identities and pairing lemma on the minimal orbit; "
        "Gauss and Codazzi over the ruled and horosphere frames",
        started,
    )
    if result.passed:
        return result
    value, name, orbit_name, n = max(labelled, key=lambda item: item[0])
    return replace(result, detail=f"worst: {name} on the {orbit_name} orbit, n={n} ({value:.3e})")


def suite_catalog_counts() -> SuiteResult:
    """Distinct-curvature counts across the engine-built families."""
    started = time.perf_counter()
    failures = []
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
    for (name, _, expected), profile in zip(checks, profiles):
        if profile.g != expected:
            failures.append(f"{name}: g={profile.g}, expected {expected}")
    residuals = [1.0] * len(failures)
    detail = "; ".join(failures) if failures else "engine-recomputed eigenvalue counts"
    return _result("catalog-counts", residuals, 0.5, detail, started)


def suite_cross_consistency() -> SuiteResult:
    """Classifier branches against engine equidistants; radius relation."""
    started = time.perf_counter()
    residuals = []
    n = 3
    radii = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    # equidistants at signed distance r sit at engine distance -r from the ruled orbit
    ruled = families.tube_base("Wk", n, 1)
    profiles = families.tube_spectra([(ruled, -r) for r in radii])
    for r, profile in zip(radii, profiles):
        lam3 = math.tanh(r / 2.0) / 2.0
        branch = classifier.solve_case_two(lam3).branch
        closed = sorted(
            [
                (branch.lambda1, 1),
                (branch.lambda2, 1),
                (branch.lambda3, 2 * n - 3),
            ]
        )
        engine = sorted(profile.entries)
        for (lv, lm), (ev, em) in zip(closed, engine):
            residuals.append(abs(lv - ev))
            residuals.append(0.0 if lm == em else 1.0)
        hopf = profile.hopf
        b_closed = sorted([branch.b1_sq, branch.b2_sq])
        b_engine = sorted([hopf.b1**2, hopf.b2**2])
        residuals.extend(abs(a - b) for a, b in zip(b_closed, b_engine))
    residuals.append(
        abs(math.tanh(jacobi.EXCEPTIONAL_RADIUS / 2.0) - 1.0 / math.sqrt(3.0)) * 1e4
    )
    return _result(
        "cross-consistency",
        residuals,
        1e-10,
        "closed-form branches vs engine equidistants",
        started,
    )


_SUITES = {
    "ambient-identities": suite_ambient_identities,
    "cross-model-curvature": suite_cross_model_curvature,
    "ruled-second-fundamental": suite_ruled_second_fundamental,
    "jacobi-oracle": suite_jacobi_oracle,
    "jacobi-field-equation": suite_jacobi_field_equation,
    "focal-collapse": suite_focal_collapse,
    "equidistant-identities": suite_equidistant_identities,
    "classifier-branches": suite_classifier,
    "structural-residuals": suite_structural_residuals,
    "catalog-counts": suite_catalog_counts,
    "cross-consistency": suite_cross_consistency,
}


def suite_names() -> list[str]:
    return list(_SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED, tolerance: float | None = None):
    fn = _SUITES[name]
    # only the randomised suites take a seed; the rest are fixed grids
    result = fn(seed) if "seed" in inspect.signature(fn).parameters else fn()
    if tolerance is not None:
        result = replace(
            result, tolerance=tolerance, passed=result.max_residual <= tolerance
        )
    return result


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None):
    return [run_suite(name, seed=seed, tolerance=tolerance) for name in _SUITES]
