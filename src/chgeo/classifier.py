"""Constraint solver for three-curvature non-Hopf hypersurface data.

A hypersurface with three distinct constant principal curvatures whose
normal J-image projects onto exactly two principal distributions is
pinned down by a small algebraic system in the curvatures lam1, lam2,
lam3 and the squared projection weights b1^2, b2^2:

  * a balance identity tying the weights to the curvature gaps,
  * normalisation b1^2 + b2^2 = 1 with closed-form weights,
  * a hyperbola relation in x = lam1 - lam2, y = lam1 + lam2 - 4 lam3,
  * a circle relation in the same variables.

Solutions form one curve parameterised by lam3 in (-1/2, 1/2) (the
carrier multiplicities both one) plus a single isolated point with a
repeated carrier curvature.  Outside the window the conics still meet
but force weights outside (0, 1) or coincident curvatures, so the
solver reports the obstruction instead of a branch.

Branches are computed from the closed forms and then validated against
the raw residual system by damped Newton iterations from random seeds;
a numerical root that matches no closed form is reported, never kept.
Each start runs alone on Python floats: a damped Newton on the two conic
rows, which fix (lam1, lam2) alone, then an exact solve of the weight
rows, which are linear in the weights.  The search makes no
``numpy.linalg`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import as_int
from .profiles import MERGE_TOL, HopfAttitude, PrincipalProfile

__all__ = [
    "ClassifyOutcome",
    "SolutionBranch",
    "branch_profile",
    "closed_form_weights",
    "multiplicity_quadratics",
    "newton_roots",
    "residual_hopf_weights",
    "residual_weight_sum",
    "solve_case_one",
    "solve_case_two",
    "validate_against_closed_form",
]

RESIDUAL_TOL = 1e-10
# each start's damped Newton loop on the conic rows stops below this
# residual norm or after this many steps.  The weights are not damped, so
# their singular line l1 + l2 = 2 lam3 cannot stall a start; inside
# |lam3| < 0.56 a start needs at most 20 steps, 99 % at most 13.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 30


@dataclass(frozen=True)
class SolutionBranch:
    """One admissible curvature/weight tuple with its multiplicity pattern."""

    case: str
    lambda1: float
    lambda2: float
    lambda3: float
    b1_sq: float
    b2_sq: float
    mult_pattern: tuple[str, str, str]
    window: str

    def residuals(self) -> dict[str, float]:
        """Case-appropriate residual system at the reported point.

        The conic relations belong to the multiplicity-one branch; the
        isolated branch answers to the quadratic pair and the two
        repeated-carrier relations instead.
        """
        l1, l2, l3 = self.lambda1, self.lambda2, self.lambda3
        res = {
            "weights": residual_hopf_weights(l1, l2, l3, self.b1_sq, self.b2_sq),
            "weight_sum": residual_weight_sum(self.b1_sq, self.b2_sq),
        }
        if self.case == "ii":
            res["hyperbola"] = abs(hyperbola_relation(l1, l2, l3))
            res["mean"] = abs(mean_relation(l1, l2, l3))
        else:
            q1, q2 = multiplicity_quadratics(l2, self.b2_sq)
            res["quadratic_1"] = abs(q1)
            res["quadratic_2"] = abs(q2)
            res["product_relation"] = abs(4.0 * l1 * l3 - 1.0)
            res["gap_relation"] = abs(2.0 * l1 * (l1 - l3) - 1.0)
        return res


@dataclass(frozen=True)
class ClassifyOutcome:
    """Result of the parametric solve at one lam3: a branch or a reason."""

    lambda3: float
    branch: SolutionBranch | None
    reason: str | None

    @property
    def empty(self) -> bool:
        return self.branch is None


# ---------------------------------------------------------------------------
# residual functions
# ---------------------------------------------------------------------------


def _require_distinct(l1: float, l2: float, l3: float) -> None:
    gaps = (abs(l1 - l2), abs(l1 - l3), abs(l2 - l3))
    if min(gaps) < MERGE_TOL:
        raise ValueError(
            f"principal curvatures must be distinct, got ({l1}, {l2}, {l3})"
        )


def _weight_balance(l1, l2, l3, b1_sq, b2_sq):
    """Signed weight-balance identity, zero on a solution:

    3((l3-l2)^2 b1^2 + (l3-l1)^2 b2^2)
        + (l3-l1)(l3-l2)(1 + 4 l2 (l3-l1) + 4 l1 (l3-l2)).
    """
    return 3.0 * ((l3 - l2) ** 2 * b1_sq + (l3 - l1) ** 2 * b2_sq) + (l3 - l1) * (
        l3 - l2
    ) * (1.0 + 4.0 * l2 * (l3 - l1) + 4.0 * l1 * (l3 - l2))


def residual_hopf_weights(l1, l2, l3, b1_sq, b2_sq) -> float:
    """Absolute defect of the weight-balance identity."""
    _require_distinct(l1, l2, l3)
    return abs(_weight_balance(l1, l2, l3, b1_sq, b2_sq))


def residual_weight_sum(b1_sq, b2_sq) -> float:
    return abs(b1_sq + b2_sq - 1.0)


def hyperbola_relation(l1, l2, l3) -> float:
    """(l1-l2)^2 - (l1+l2-4 l3)^2 - (1 - 4 l3^2)."""
    return (l1 - l2) ** 2 - (l1 + l2 - 4.0 * l3) ** 2 - (1.0 - 4.0 * l3**2)


def mean_relation(l1, l2, l3) -> float:
    """l3 (1 + 4 l1^2 + 4 l2^2) - (l1 + l2)(1 + 4 l3^2).

    This is the circle relation written in the curvatures: for l3 != 0
    it is 2 l3 times the circle equation in x = l1 - l2,
    y = l1 + l2 - 4 l3, and at l3 = 0 it degenerates to l1 + l2 = 0.
    """
    return l3 * (1.0 + 4.0 * l1**2 + 4.0 * l2**2) - (l1 + l2) * (1.0 + 4.0 * l3**2)


def closed_form_weights(l1, l2, l3) -> tuple[float, float]:
    """Squared projection weights from the curvature triple.

    b_i^2 = (l3 - l_i)/(l_j - l_i) * (1 + 4 l3 (l3 - l_j)); the two
    values always sum to one.
    """
    _require_distinct(l1, l2, l3)
    b1 = (l3 - l1) / (l2 - l1) * (1.0 + 4.0 * l3 * (l3 - l2))
    b2 = (l3 - l2) / (l1 - l2) * (1.0 + 4.0 * l3 * (l3 - l1))
    return float(b1), float(b2)


def _smaller_weight(x, s):
    """The smaller squared weight on the branch, with x = |lam3| and s = sqrt(1 - 3 lam3^2).

    It is b1^2 of ``closed_form_weights`` for lam3 >= 0 and b2^2 for
    lam3 <= 0 (tests/test_certificates.py proves both), written as
    (1 - 4x^2)^3 / (2s (s + x)(1 - 2x^2 + 2xs)).  The closed form's factor
    1 + 4 lam3 (lam3 - l_j) cancels as |lam3| -> 1/2; here 1 - 2x is exact
    there and nothing else cancels.
    """
    return ((1 - 2 * x) * (1 + 2 * x)) ** 3 / (2 * s * (s + x) * (1 - 2 * x * x + 2 * x * s))


def multiplicity_quadratics(lam2, b2_sq) -> tuple[float, float]:
    """The two quadratics constraining the repeated-carrier branch.

    Their sum factors as 72 b2_sq lam2 (2 lam2 - sqrt(3)), so the only
    axis candidates are lam2 = 0 and lam2 = sqrt(3)/2.
    """
    s3 = math.sqrt(3.0)
    q1 = (
        12.0 * (3.0 * b2_sq - 1.0) * lam2**2
        + 4.0 * s3 * (2.0 - 9.0 * b2_sq) * lam2
        + 3.0 * (9.0 * b2_sq - 1.0)
    )
    q2 = (
        12.0 * (9.0 * b2_sq + 1.0) * lam2**2
        - 4.0 * s3 * (2.0 + 9.0 * b2_sq) * lam2
        - 3.0 * (9.0 * b2_sq - 1.0)
    )
    return q1, q2


# ---------------------------------------------------------------------------
# branch solvers
# ---------------------------------------------------------------------------


def solve_case_two(lam3: float) -> ClassifyOutcome:
    """Parametric branch at the given axis curvature, or the obstruction.

    Valid exactly for |lam3| < 1/2; a non-finite lam3 raises
    ``ValueError``.  The window 1/2 <= |lam3| <= 1/sqrt(3)
    produces real curvature triples whose weights leave (0, 1), and
    beyond it the conics have no real common point off the coincidence
    locus.  For |lam3| < 1/2 the smaller weight is ``_smaller_weight``,
    accurate up to the edge, and the larger one is one minus it.

    At lam3 = 0 the four relations hold for every b1^2 + b2^2 = 1, so
    they do not fix the weights; the b^2 = 1/2 returned there comes from
    the geometry (the carrier weights of the ruled minimal orbit), not
    from the system.  ``verification.case_two_grid`` therefore skips 0.
    """
    if not math.isfinite(lam3):
        raise ValueError(f"lam3 must be a finite number, got {lam3}")
    # every |lam3| >= 1 has no real intersection; lam3**2 overflows for
    # the largest of them
    disc = -math.inf if abs(lam3) >= 1.0 else 1.0 - 3.0 * lam3**2
    if disc < -1e-12:
        return ClassifyOutcome(
            lam3, None, "no real intersection (3 lam3^2 exceeds 1)"
        )
    root = math.sqrt(max(disc, 0.0))
    l1 = 0.5 * (3.0 * lam3 - root)
    l2 = 0.5 * (3.0 * lam3 + root)
    if min(abs(l1 - l2), abs(l1 - lam3), abs(l2 - lam3)) < MERGE_TOL:
        return ClassifyOutcome(lam3, None, "coincident eigenvalues")
    # the smaller weight has the sign of 1 - 4 lam3^2
    if abs(lam3) >= 0.5:
        return ClassifyOutcome(
            lam3,
            None,
            "ellipse exclusion (projection weights leave the unit interval)",
        )
    small = _smaller_weight(abs(lam3), root)
    b1_sq, b2_sq = (small, 1.0 - small) if lam3 >= 0.0 else (1.0 - small, small)
    branch = SolutionBranch(
        case="ii",
        lambda1=l1,
        lambda2=l2,
        lambda3=lam3,
        b1_sq=b1_sq,
        b2_sq=b2_sq,
        mult_pattern=("1", "1", "2n-3"),
        window="|lambda3| < 1/2",
    )
    checks = branch.residuals()
    worst = max(checks.values())
    if worst > RESIDUAL_TOL:
        raise AssertionError(f"closed-form branch fails its own residuals: {checks}")
    return ClassifyOutcome(lam3, branch, None)


def solve_case_one() -> SolutionBranch:
    """The isolated branch with a repeated carrier curvature.

    The two relations 2 l1 (l1 - l3) = 1 and 4 l1 l3 = 1 fix l1 and l3
    up to orientation; the quadratic pair then admits only the axis
    value lam2 = 0 once the coincident root is discarded, and the
    weights follow.
    """
    # 2 l1^2 - 2 l1 l3 = 1 and 4 l1 l3 = 1 give l1^2 = 3/4
    l1 = math.sqrt(0.75)
    l3 = 1.0 / (4.0 * l1)
    # q1 + q2 = 72 b2^2 lam2 (2 lam2 - sqrt(3)) (proved exactly in test_certificates)
    # leaves lam2 = 0 or sqrt(3)/2, and sqrt(3)/2 is l1 itself; at lam2 = 0 the
    # first quadratic, 3 (9 b2^2 - 1), fixes b2^2 = 1/9
    b2_sq = 1.0 / 9.0
    branch = SolutionBranch(
        case="i",
        lambda1=l1,
        lambda2=0.0,
        lambda3=l3,
        b1_sq=1.0 - b2_sq,
        b2_sq=b2_sq,
        mult_pattern=("m1>=2", "1", "2n-2-m1"),
        window="isolated",
    )
    worst = max(branch.residuals().values())
    if worst > 1e-12:
        raise AssertionError("isolated branch fails the residual system")
    return branch


def branch_profile(branch: SolutionBranch, n: int, m1: int | None = None) -> PrincipalProfile:
    """Materialise a branch as a hypersurface profile in complex dimension n.

    m1 is the multiplicity of lam1: 2..n - 1 for case i (default 2), so
    n is at least 3; case ii has m1 = 1 and needs n at least 2.
    """
    n = as_int("n", n)
    if m1 is not None:
        m1 = as_int("m1", m1)
    smallest_n = 3 if branch.case == "i" else 2
    if n < smallest_n:
        raise ValueError(
            f"n must be at least {smallest_n} for a case-{branch.case} branch, got {n}"
        )
    if branch.case == "i":
        m1 = 2 if m1 is None else m1
        if not 2 <= m1 <= n - 1:
            raise ValueError(f"repeated-carrier multiplicity must lie in 2..{n - 1}")
    elif m1 not in (None, 1):
        raise ValueError(f"m1 of a case-ii branch is 1, got {m1}")
    else:
        m1 = 1
    m3 = 2 * n - 2 - m1
    hopf = HopfAttitude(
        b1=math.sqrt(branch.b1_sq),
        b2=math.sqrt(branch.b2_sq),
        lam1=branch.lambda1,
        lam2=branch.lambda2,
    )
    entries = sorted(
        [(branch.lambda1, m1), (branch.lambda2, 1), (branch.lambda3, m3)]
    )
    return PrincipalProfile(entries=tuple(entries), total_dim=2 * n - 1, hopf=hopf)


# ---------------------------------------------------------------------------
# independent validation
# ---------------------------------------------------------------------------


def _conic_residual(x, lam3):
    """The conic rows of F at x = (l1, l2)."""
    l1, l2 = x
    return hyperbola_relation(l1, l2, lam3), mean_relation(l1, l2, lam3)


def _residual(x, lam3):
    """The raw system F at x = (l1, l2, b1^2, b2^2), as four floats."""
    l1, l2, b1_sq, b2_sq = x
    weight_rows = _weight_balance(l1, l2, lam3, b1_sq, b2_sq), b1_sq + b2_sq - 1.0
    return weight_rows + _conic_residual((l1, l2), lam3)


def _newton_step(x, f, lam3):
    """The step -C^-1 f at x = (l1, l2) by Cramer, C the conic rows' Jacobian.

    None where det C = 4 (l1 - l2)(8 lam3 (l1 + l2) - 20 lam3^2 - 1) is 0.
    """
    l1, l2 = x
    eight_lam3, mean_weight = 8.0 * lam3, 1.0 + 4.0 * lam3**2
    c11, c12 = eight_lam3 - 4.0 * l2, eight_lam3 - 4.0 * l1
    c21, c22 = eight_lam3 * l1 - mean_weight, eight_lam3 * l2 - mean_weight
    det_c = c11 * c22 - c12 * c21
    if det_c == 0.0:
        return None
    return (c12 * f[1] - c22 * f[0]) / det_c, (c21 * f[0] - c11 * f[1]) / det_c


def _weights(x, lam3):
    """The weights that solve F's two weight rows at x = (l1, l2), both linear in them.

    NaN where their determinant 3 (g2^2 - g1^2), g_i = lam3 - l_i, is 0.
    """
    l1, l2 = x
    g1, g2 = lam3 - l1, lam3 - l2
    det_w = 3.0 * (g2**2 - g1**2)
    if det_w == 0.0:
        return math.nan, math.nan
    p = 1.0 + 4.0 * l2 * g1 + 4.0 * l1 * g2
    b1_sq = -g1 * (3.0 * g1 + g2 * p) / det_w
    return b1_sq, 1.0 - b1_sq


def _numeric_jacobian(F, x, h=1e-7):
    """Central differences of F at x: the tests' check on the conic step.

    Not called by the search; the benchmark counts its calls, so it stays.
    """
    columns = [(F(x + dx) - F(x - dx)) / (2.0 * h) for dx in h * np.eye(len(x))]
    return np.stack(columns, axis=1)


# backtracking tries the step fractions 1, 1/2, ..., 2^-19 (every halving
# above 1e-6) and takes the first with ||f|| < (1 - alpha/4) ||f0||
_STEP_FRACTIONS = tuple(0.5**i for i in range(20))
_FAILED = (math.nan,) * 4


def _newton_start(x, lam3):
    """Damped Newton on the conic rows from x, then the weights: a root or ``_FAILED``."""
    f = _conic_residual(x, lam3)
    norm = math.hypot(*f)
    for _ in range(NEWTON_MAX_ITER):
        if norm < NEWTON_TOL:
            break
        step = _newton_step(x, f, lam3)
        if step is None:
            return _FAILED
        (l1, l2), (d1, d2) = x, step
        for alpha in _STEP_FRACTIONS:
            trial = (l1 + alpha * d1, l2 + alpha * d2)
            f_trial = _conic_residual(trial, lam3)
            norm_trial = math.hypot(*f_trial)
            if norm_trial < (1.0 - 0.25 * alpha) * norm:
                break
        else:
            return _FAILED
        x, f, norm = trial, f_trial, norm_trial
    root = (*x, *_weights(x, lam3))
    return root if math.hypot(*_residual(root, lam3)) < 1e-10 else _FAILED


def _damped_newton(x0, lam3):
    """The root (l1, l2, b1^2, b2^2) from each start (l1, l2) of x0, or NaN.

    ``lam3`` holds the axis curvature of each row, so one call can run
    starts of several values.  A row fails when det C or the weight
    determinant is 0, when no step fraction passes ||f|| < (1 - alpha/4)
    ||f0||, or when the full residual ends above 1e-10.  The exact
    certificate in tests/test_certificates.py, not this search, proves
    the root set complete.
    """
    starts = zip(np.asarray(x0, dtype=float).tolist(), np.asarray(lam3, dtype=float).tolist())
    roots = [_newton_start(x, value) for x, value in starts]
    return np.array(roots, dtype=float).reshape(-1, 4)


def _distinct_roots(x):
    """The finite rows of x, normalised to l1 <= l2 and de-duplicated."""
    roots = []
    for l1, l2, b1_sq, b2_sq in x.tolist():
        root = (l1, l2, b1_sq, b2_sq) if l1 <= l2 else (l2, l1, b2_sq, b1_sq)
        if all(map(math.isfinite, root)) and all(math.dist(root, r) >= 1e-7 for r in roots):
            roots.append(root)
    return [np.array(root) for root in roots]


def newton_roots(lam3, rng: np.random.Generator, attempts: int = 20):
    """Roots of the raw residual system found from random seeds.

    ``lam3`` is one axis curvature or a flat sequence of them.  Every
    start of every value runs in one ``_damped_newton`` call, and the
    starts are drawn in one call, in the order that one call per value
    would draw them.  A float returns its list of roots, a sequence one
    list per value.  Roots are normalised to l1 <= l2 and de-duplicated;
    weights are not constrained to (0, 1) here so the exclusion
    mechanism stays visible.  A non-finite or nested lam3, a non-integer
    or non-positive ``attempts`` or an ``rng`` that is not a
    ``numpy.random.Generator`` raises ``ValueError`` before any draw.
    """
    values = np.atleast_1d(np.asarray(lam3, dtype=float))
    if values.ndim > 1:
        raise ValueError(f"lam3 must be a number or a flat sequence, got {lam3!r}")
    if not np.isfinite(values).all():
        raise ValueError(f"lam3 must be finite, got {lam3}")
    attempts = as_int("attempts", attempts)
    if attempts < 1:
        raise ValueError(f"attempts must be at least 1, got {attempts}")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    starts = rng.uniform(-1.5, 1.5, size=(values.size * attempts, 2))
    x = _damped_newton(starts, np.repeat(values, attempts))
    roots = [_distinct_roots(rows) for rows in x.reshape(values.size, attempts, 4)]
    return roots if np.ndim(lam3) else roots[0]


def _unexplained(lam3: float, roots):
    """The roots at lam3 that the closed forms do not explain."""
    anomalies = []
    outcome = solve_case_two(lam3)
    for root in roots:
        l1, l2, b1_sq, b2_sq = root
        if min(abs(l1 - l2), abs(l1 - lam3), abs(l2 - lam3)) < 1e-7:
            continue
        expected_b = closed_form_weights(l1, l2, lam3)
        if abs(b1_sq - expected_b[0]) < 1e-7 and abs(b2_sq - expected_b[1]) < 1e-7:
            if outcome.branch is not None:
                b = outcome.branch
                if (
                    abs(l1 - b.lambda1) < 1e-7
                    and abs(l2 - b.lambda2) < 1e-7
                    and abs(b1_sq - b.b1_sq) < 1e-7
                ):
                    continue
            if not (0.0 < b1_sq < 1.0 and 0.0 < b2_sq < 1.0):
                continue
        anomalies.append(root)
    return anomalies


def validate_against_closed_form(lam3, rng: np.random.Generator):
    """Compare Newton roots with the closed forms; return anomalies.

    ``lam3`` is one axis curvature or a sequence of them, searched in
    one ``newton_roots`` call; a float returns its list of anomalies, a
    sequence one list per value.  A root counts as explained if it
    matches the parametric branch, is a coincidence point (some
    curvature equals lam3 or the carriers collide), or reproduces the
    closed-form weights outside (0, 1).
    """
    values = np.atleast_1d(np.asarray(lam3, dtype=float))
    found = newton_roots(values, rng)
    anomalies = [_unexplained(float(v), roots) for v, roots in zip(values, found)]
    return anomalies if np.ndim(lam3) else anomalies[0]
