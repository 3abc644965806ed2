"""Exact certificates: the classifier's relations solved symbolically,
and the half-angle value at the exceptional radius.

The curvature relations are evaluated on sympy symbols and their float
coefficients turned back into exact rationals, so the solutions below
hold for the polynomials the engine evaluates, not for a copy of them.
"""

import math

import pytest
import sympy as sp

from chgeo import classifier, jacobi

L1, L2, L3 = sp.symbols("lambda1 lambda2 lambda3")
ROOT = sp.sqrt(1 - 3 * L3**2)
# the parametric branch (3 l3 -+ sqrt(1 - 3 l3^2))/2, and the reciprocal
# pair on which one carrier curvature coincides with the axis curvature
CLOSED = ((3 * L3 - ROOT) / 2, (3 * L3 + ROOT) / 2)
RECIPROCAL = (L3, L3 + 1 / (4 * L3))


def _conics():
    """hyperbola_relation and mean_relation as exact polynomials."""
    return [
        sp.nsimplify(relation(L1, L2, L3))
        for relation in (classifier.hyperbola_relation, classifier.mean_relation)
    ]


def _assert_same_pairs(got, want):
    assert len(got) == len(want)
    left = list(want)
    for pair in got:
        # cancel() reaching 0 proves the two rational functions of l3 and
        # sqrt(1 - 3 l3^2) equal
        match = [w for w in left if all(sp.cancel(a - b) == 0 for a, b in zip(pair, w))]
        assert match, f"unexpected solution {pair}"
        left.remove(match[0])


def test_conic_intersection_is_exactly_four_points():
    solutions = sp.solve(_conics(), [L1, L2], dict=True)
    got = [(s[L1], s[L2]) for s in solutions]
    _assert_same_pairs(got, [CLOSED, CLOSED[::-1], RECIPROCAL, RECIPROCAL[::-1]])


def test_conic_intersection_at_zero_axis_is_the_closed_pair():
    # 1/(4 l3) has no value at l3 = 0: only the closed-form pair is left
    conics = [c.subs(L3, 0) for c in _conics()]
    got = [tuple(p) for p in sp.solve(conics, [L1, L2])]
    half = sp.Rational(1, 2)
    _assert_same_pairs(got, [(-half, half), (half, -half)])


@pytest.mark.parametrize("lam3", [sp.Rational(1, 5), sp.Rational(-3, 10)])
def test_closed_pair_is_the_solved_branch_and_reciprocal_pair_is_rejected(lam3):
    branch = classifier.solve_case_two(float(lam3)).branch
    exact = [float(v.subs(L3, lam3)) for v in CLOSED]
    assert [branch.lambda1, branch.lambda2] == pytest.approx(exact, abs=1e-15)
    l1, l2 = (float(v.subs(L3, lam3)) for v in RECIPROCAL)
    assert l1 == float(lam3) and math.isfinite(l2)
    with pytest.raises(ValueError, match="must be distinct"):
        classifier.closed_form_weights(l1, l2, float(lam3))


def test_exceptional_radius_half_angle_is_one_over_sqrt3():
    # tanh(r/2) = (e^r - 1)/(e^r + 1) = (1 + sqrt 3)/(3 + sqrt 3) at e^r = 2 + sqrt 3
    r = sp.log(2 + sp.sqrt(3))
    gap = (sp.tanh(r / 2) - 1 / sp.sqrt(3)).rewrite(sp.exp)
    assert sp.radsimp(gap) == 0
    assert float(r) == pytest.approx(jacobi.EXCEPTIONAL_RADIUS, rel=1e-15)
