"""Output oracles: each returns a list of problems, empty when the output is right.

References are the classical closed forms and exact constants of the
paper, written out here rather than taken from chgeo, plus two
cross-route checks: the ``equidistant-W`` catalog entry against the
classifier's parametric branch, and the classifier branch against its
closed form.  Signs follow chgeo's conventions:
tube spectra are taken w.r.t. the outward normal, so tube curvatures
are negative, and ``tube-Wk`` at the exceptional radius is the
orientation-reversed repeated-carrier branch.
"""

from __future__ import annotations

import math

import numpy as np

from chgeo import classifier

TOL = 1e-10
EXCEPTIONAL_RADIUS = math.log(2.0 + math.sqrt(3.0))
S3 = math.sqrt(3.0)
# repeated-carrier (case i) branch: lambda1, lambda2, lambda3, b1^2, b2^2
CASE_ONE = (S3 / 2.0, 0.0, S3 / 6.0, 8.0 / 9.0, 1.0 / 9.0)
SUITES = (
    "ambient-identities",
    "cross-model-curvature",
    "ruled-second-fundamental",
    "jacobi-oracle",
    "jacobi-field-equation",
    "focal-collapse",
    "equidistant-identities",
    "classifier-branches",
    "structural-residuals",
    "catalog-counts",
    "cross-consistency",
)


def _spectrum(pairs):
    """Sort (value, multiplicity) pairs, merging equal values and dropping empty ones."""
    merged: list[list[float]] = []
    for value, mult in sorted(p for p in pairs if p[1] > 0):
        if merged and abs(value - merged[-1][0]) < 1e-9:
            merged[-1][1] += mult
        else:
            merged.append([value, mult])
    return [(v, int(m)) for v, m in merged]


def _compare_spectrum(label, got, want):
    got = list(got)
    if [m for _, m in got] != [m for _, m in want]:
        return [f"{label}: multiplicities {[m for _, m in got]} != {[m for _, m in want]}"]
    worst = max(abs(a - b) for (a, _), (b, _) in zip(got, want))
    if not worst <= TOL:
        return [f"{label}: curvature off by {worst:.3e} (tol {TOL:g})"]
    return []


def _compare_weights(label, hopf, carriers):
    """carriers: [(lambda, b^2), (lambda, b^2)] in any order."""
    if hopf is None:
        return [f"{label}: expected a non-Hopf profile"]
    got = sorted([(hopf.lam1, hopf.b1**2), (hopf.lam2, hopf.b2**2)])
    worst = max(abs(x - y) for g, w in zip(got, sorted(carriers)) for x, y in zip(g, w))
    if not worst <= TOL:
        return [f"{label}: carrier data off by {worst:.3e} (tol {TOL:g})"]
    return []


def case_two_reference(lam3: float):
    """Closed form of the parametric branch: (lambda1, lambda2, b1^2, b2^2)."""
    root = math.sqrt(1.0 - 3.0 * lam3**2)
    l1 = 0.5 * (3.0 * lam3 - root)
    l2 = 0.5 * (3.0 * lam3 + root)
    b1 = (lam3 - l1) / (l2 - l1) * (1.0 + 4.0 * lam3 * (lam3 - l2))
    b2 = (lam3 - l2) / (l1 - l2) * (1.0 + 4.0 * lam3 * (lam3 - l1))
    return l1, l2, b1, b2


def reference_catalog(n: int, r: float):
    """Expected (family, k, spectrum, carriers or None) in catalog order."""
    coth_r = 1.0 / math.tanh(r)
    big = 0.5 / math.tanh(r / 2.0)  # (1/2) coth(r/2)
    small = 0.5 * math.tanh(r / 2.0)  # (1/2) tanh(r/2)
    half = 0.5 / math.tanh(EXCEPTIONAL_RADIUS / 2.0)
    rows = [
        ("horosphere", None, _spectrum([(0.5, 2 * n - 2), (1.0, 1)]), None),
        ("geodesic-sphere", None, _spectrum([(-coth_r, 1), (-big, 2 * n - 2)]), None),
        ("tube-CHk", n - 1, _spectrum([(-coth_r, 1), (-small, 2 * n - 2)]), None),
        (
            "tube-RHn",
            None,
            _spectrum(
                [
                    (-math.tanh(EXCEPTIONAL_RADIUS), 1),
                    (-half, n - 1),
                    (-0.5 * math.tanh(EXCEPTIONAL_RADIUS / 2.0), n - 1),
                ]
            ),
            None,
        ),
    ]
    for k in range(1, n - 1):
        rows.append(
            (
                "tube-CHk",
                k,
                _spectrum([(-coth_r, 1), (-big, 2 * (n - 1 - k)), (-small, 2 * k)]),
                None,
            )
        )
    rows.append(
        ("tube-RHn", None, _spectrum([(-math.tanh(r), 1), (-big, n - 1), (-small, n - 1)]), None)
    )
    rows.append(
        (
            "ruled-W",
            1,
            _spectrum([(-0.5, 1), (0.0, 2 * n - 3), (0.5, 1)]),
            [(-0.5, 0.5), (0.5, 0.5)],
        )
    )
    # independent classifier route for the equidistants
    branch = classifier.solve_case_two(math.tanh(r / 2.0) / 2.0).branch
    rows.append(
        (
            "equidistant-W",
            1,
            _spectrum([(branch.lambda1, 1), (branch.lambda2, 1), (branch.lambda3, 2 * n - 3)]),
            [(branch.lambda1, branch.b1_sq), (branch.lambda2, branch.b2_sq)],
        )
    )
    l1, l2, l3, b1, b2 = CASE_ONE
    for k in range(2, n):
        rows.append(
            (
                "tube-Wk",
                k,
                _spectrum([(-l1, k), (-l2, 1), (-l3, 2 * n - 2 - k)]),
                [(-l1, b1), (-l2, b2)],
            )
        )
    return rows


def check_catalog(n: int, r: float, entries, notes) -> list[str]:
    """Every entry of catalog(n, r) against its closed form."""
    if len(entries) != 2 * n + 3:
        return [f"catalog n={n}: {len(entries)} entries, expected {2 * n + 3}"]
    problems = []
    for entry, (family, k, spectrum, carriers) in zip(entries, reference_catalog(n, r)):
        label = f"catalog n={n} r={r:.6g} {family} k={k}"
        if (entry.family, entry.k) != (family, k):
            problems.append(f"{label}: got {entry.family} k={entry.k}")
            continue
        problems += _compare_spectrum(label, entry.profile.entries, spectrum)
        if carriers is None:
            if not entry.is_hopf:
                problems.append(f"{label}: expected a Hopf profile")
        else:
            problems += _compare_weights(label, entry.profile.hopf, carriers)
    if notes:
        problems.append(f"catalog n={n}: unexpected notes {notes}")
    return problems


def check_suites(results) -> list[list[str]]:
    """Per suite: it ran in order, passed and stayed within its tolerance."""
    names = tuple(res.name for res in results)
    if names != SUITES:
        return [[f"verify: suites {names} != {SUITES}"]] * len(SUITES)
    return [
        []
        if res.passed and res.max_residual <= res.tolerance
        else [
            f"verify {res.name}: passed={res.passed} residual {res.max_residual:.3e} "
            f"(tol {res.tolerance:g})"
        ]
        for res in results
    ]


def check_equidistant_point(lam3: float, n: int, outcome, focal, image) -> list[str]:
    """One parametric point at r = 2 artanh(2 lam3): branch, carrier block, image."""
    label = f"sweep lam3={lam3:.9g} n={n}"
    if outcome.branch is None:
        return [f"{label}: no branch ({outcome.reason})"]
    b = outcome.branch
    got = (b.lambda1, b.lambda2, b.b1_sq, b.b2_sq)
    worst = max(abs(x - y) for x, y in zip(got, case_two_reference(lam3)))
    problems = [] if worst <= TOL else [f"{label}: branch off its closed form by {worst:.3e}"]
    r = 2.0 * math.atanh(2.0 * lam3)
    C = focal.c_block
    checks = {
        "det D - sech^3(r/2)": focal.det_d - 1.0 / math.cosh(r / 2.0) ** 3,
        "tr C": float(np.trace(C)),
        "det C + 1/4": float(np.linalg.det(C)) + 0.25,
        "eig C - (-1/2, 1/2)": float(
            np.max(np.abs(np.sort(np.linalg.eigvals(C).real) - (-0.5, 0.5)))
        ),
        "eig image carrier - (-1/2, 1/2)": float(
            np.max(np.abs(np.sort(np.linalg.eigvals(image.carrier_block).real) - (-0.5, 0.5)))
        ),
        "image axis rate": image.axis_rate,
    }
    problems += [
        f"{label}: {name} = {value:.3e} (tol {TOL:g})"
        for name, value in checks.items()
        if not abs(value) <= TOL
    ]
    # the image is the ruled minimal orbit
    problems += _compare_spectrum(
        f"{label} image", image.entries, [(-0.5, 1), (0.0, 2 * n - 3), (0.5, 1)]
    )
    return problems


def check_case_one_focal(n: int, m1: int, focal, image) -> list[str]:
    """Repeated-carrier collapse at the exceptional radius."""
    label = f"focal case i n={n} m1={m1}"
    problems = []
    if (focal.kernel_dim, focal.image_codim) != (m1 - 1, m1):
        problems.append(
            f"{label}: kernel {focal.kernel_dim}, codim {focal.image_codim}, "
            f"expected {m1 - 1}, {m1}"
        )
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    nine_d = np.array([[4.0, s2], [4.0 * s2 - 2.0 * S3, 2.0 + 4.0 * s6]])
    block = np.array([[4.0 * s2, -7.0], [-7.0, -4.0 * s2]]) / 18.0
    checks = {
        "9 D": float(np.max(np.abs(9.0 * focal.d_block - nine_d))),
        "image carrier block": float(np.max(np.abs(image.carrier_block - block))),
        "image axis rate": image.axis_rate,
    }
    problems += [
        f"{label}: {name} off by {value:.3e} (tol {TOL:g})"
        for name, value in checks.items()
        if not abs(value) <= TOL
    ]
    return problems


def check_exclusion(lam3: float, outcome, reason: str) -> list[str]:
    if outcome.branch is None and reason in (outcome.reason or ""):
        return []
    return [f"exclusion lam3={lam3:.9g}: expected {reason!r}, got {outcome.reason!r}"]


def check_newton(lam3: float, anomalies) -> list[str]:
    if len(anomalies) == 0:
        return []
    return [f"newton lam3={lam3:.9g}: {len(anomalies)} unexplained roots"]
