"""Exact certificates: the classifier's relations solved symbolically,
the isolated branch, and the half-angle value at the exceptional radius.

Together the conic and weight-system certificates show, for every lam3,
that the raw residual system has exactly the roots the closed forms
explain; the random-start Newton search in the classifier only
re-checks this numerically.  The raw system's Jacobian is certified
block lower-triangular, which is what the search's two stages rest on:
its closed-form conic step and its exact weight solve are certified too.

The curvature relations are evaluated on sympy symbols and their float
coefficients turned back into exact rationals, so the solutions below
hold for the polynomials the engine evaluates, not for a copy of them.
"""

import math

import pytest
import sympy as sp

from chgeo import classifier, jacobi

L1, L2, L3 = sp.symbols("lambda1 lambda2 lambda3")
B1, B2 = sp.symbols("b1_sq b2_sq")
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
    weights = classifier.closed_form_weights(branch.lambda1, branch.lambda2, float(lam3))
    assert [branch.b1_sq, branch.b2_sq] == pytest.approx(weights, abs=1e-15)
    l1, l2 = (float(v.subs(L3, lam3)) for v in RECIPROCAL)
    assert l1 == float(lam3) and math.isfinite(l2)
    with pytest.raises(ValueError, match="must be distinct"):
        classifier.closed_form_weights(l1, l2, float(lam3))


def _weight_system():
    """The weight balance and b1^2 + b2^2 = 1 as a linear system (A, rhs) in the weights."""
    balance = sp.nsimplify(classifier._weight_balance(L1, L2, L3, B1, B2))
    return sp.linear_eq_to_matrix([balance, B1 + B2 - 1], [B1, B2])


def _at(matrix, pair, lam3=L3):
    return matrix.subs({L1: pair[0], L2: pair[1]}).subs(L3, lam3)


def _solve(A, rhs):
    """The weights A^-1 rhs by the adjugate, far cheaper in sympy than LUsolve."""
    return A.adjugate() @ rhs / A.det()


def test_weight_system_determinant():
    A, _ = _weight_system()
    assert sp.expand(A.det() + 3 * (L1 - L2) * (L1 + L2 - 2 * L3)) == 0


def test_weight_system_at_the_reciprocal_pair_puts_all_weight_on_one_carrier():
    # the carrier whose curvature equals lam3 gets weight 0; det is +-3/(16 lam3^2)
    A, rhs = _weight_system()
    for pair, sign, want in ((RECIPROCAL, 1, [0, 1]), (RECIPROCAL[::-1], -1, [1, 0])):
        assert sp.cancel(_at(A, pair).det() - sign * 3 / (16 * L3**2)) == 0
        assert list(_solve(_at(A, pair), _at(rhs, pair)).applyfunc(sp.cancel)) == want


@pytest.mark.parametrize(
    "lam3", [sp.Rational(1, 5), sp.Rational(-3, 10), sp.Rational(11, 20)]
)
def test_weight_system_on_the_branch_gives_the_closed_form_weights(lam3):
    # on the branch l1 + l2 = 3 lam3, so the determinant is -3 lam3 (l1 - l2)
    A, rhs = _weight_system()
    for pair in (CLOSED, CLOSED[::-1]):
        assert sp.expand(_at(A, pair).det() + 3 * L3 * (pair[0] - pair[1])) == 0
        exact = _solve(_at(A, pair), _at(rhs, pair)).subs(L3, lam3)
        l1, l2 = (float(v.subs(L3, lam3)) for v in pair)
        weights = classifier.closed_form_weights(l1, l2, float(lam3))
        assert [float(w) for w in exact] == pytest.approx(weights, abs=1e-14)


def test_smaller_weight_is_the_branch_weight_of_its_sign():
    # with s for sqrt(1 - 3 lam3^2), the branch weights are rational in
    # (lam3, s); their difference from the smaller-weight form vanishes
    # modulo s^2 = 1 - 3 lam3^2, so the two agree for every lam3
    s = sp.Symbol("s")
    A, rhs = _weight_system()
    pair = ((3 * L3 - s) / 2, (3 * L3 + s) / 2)
    b1, b2 = _solve(_at(A, pair), _at(rhs, pair))
    for weight, x in ((b1, L3), (b2, -L3)):
        gap = sp.numer(sp.together(weight - classifier._smaller_weight(x, s)))
        assert sp.rem(sp.expand(gap), s**2 - (1 - 3 * L3**2), s) == 0


def test_weight_system_at_zero_axis_holds_for_every_unit_weight_sum():
    # at lam3 = 0 both conic points have l1 + l2 = 0 = 2 lam3: the system is
    # singular and any b1^2 + b2^2 = 1 solves it, which is why the weights
    # b^2 = 1/2 of solve_case_two(0) are not a consequence of the relations
    # and verification.case_two_grid leaves 0 out
    A, rhs = _weight_system()
    half = sp.Rational(1, 2)
    for pair in ((-half, half), (half, -half)):
        assert _at(A, pair, 0).det() == 0
        residual = _at(A, pair, 0) @ sp.Matrix([B1, 1 - B1]) - _at(rhs, pair, 0)
        assert residual.applyfunc(sp.expand) == sp.zeros(2, 1)


def _raw_system():
    """The engine's residual rows as exact polynomials, and their Jacobian."""
    rows = classifier._residual((L1, L2, B1, B2), L3)
    F = sp.Matrix([sp.nsimplify(row, rational=True) for row in rows])
    return F, F.jacobian([L1, L2, B1, B2])


def test_raw_jacobian_is_block_triangular_with_the_loops_singular_rule():
    # the conic rows do not involve the weights, so det J = det C * det W,
    # and J is singular exactly where a start fails by one of the loop's
    # two rules: det C = 0 in the conic stage or det W = 0 in the weight solve
    _, J = _raw_system()
    assert J[2:, 2:] == sp.zeros(2, 2)
    conic = 8 * L3 * (L1 + L2) - 20 * L3**2 - 1
    assert sp.expand(J[2:, :2].det() - 4 * (L1 - L2) * conic) == 0
    assert sp.expand(J[:2, 2:].det() + 3 * (L1 - L2) * (L1 + L2 - 2 * L3)) == 0
    # Berkowitz, division-free, is far cheaper in sympy than the default Bareiss here
    det = J.det(method="berkowitz")
    assert sp.expand(det + 12 * (L1 - L2) ** 2 * (L1 + L2 - 2 * L3) * conic) == 0


def _rational(values):
    """The engine's float literals, small integers, made exact."""
    values = sp.Matrix(values)
    return values.xreplace({c: sp.Rational(c) for c in values.atoms(sp.Float)})


def test_conic_step_solves_the_conic_jacobian_exactly():
    # the engine's closed-form step, on symbols, is -C^-1 f for every f,
    # with C the conic rows' block of the raw Jacobian
    f = sp.Matrix(sp.symbols("f0:2"))
    _, J = _raw_system()
    step = _rational(classifier._newton_step((L1, L2), tuple(f), L3))
    for row in J[2:, :2] @ step + f:
        assert sp.expand(sp.numer(sp.together(row))) == 0


def test_weight_solve_satisfies_the_weight_rows_exactly():
    # the engine's weights, on symbols, zero both weight rows of F for
    # every (l1, l2, lam3) off the singular line
    F, _ = _raw_system()
    b1, b2 = _rational(classifier._weights((L1, L2), L3))
    for row in F[:2, :].subs({B1: b1, B2: b2}):
        assert sp.expand(sp.numer(sp.together(row))) == 0


def test_exceptional_radius_half_angle_is_one_over_sqrt3():
    # tanh(r/2) = (e^r - 1)/(e^r + 1) = (1 + sqrt 3)/(3 + sqrt 3) at e^r = 2 + sqrt 3
    r = sp.log(2 + sp.sqrt(3))
    gap = (sp.tanh(r / 2) - 1 / sp.sqrt(3)).rewrite(sp.exp)
    assert sp.radsimp(gap) == 0
    assert float(r) == pytest.approx(jacobi.EXCEPTIONAL_RADIUS, rel=1e-15)


def _exact(expr):
    """expr with each float coefficient made exact, sqrt(3) multiples included."""
    return expr.replace(lambda x: x.is_Float, lambda x: sp.nsimplify(x, [sp.sqrt(3)]))


def test_isolated_branch_solves_its_relations_exactly():
    s3 = sp.sqrt(3)
    point = {L1: s3 / 2, L2: 0, L3: s3 / 6, B1: sp.Rational(8, 9), B2: sp.Rational(1, 9)}
    q1, q2 = (_exact(q) for q in classifier.multiplicity_quadratics(L2, B2))
    balance = _exact(classifier._weight_balance(L1, L2, L3, B1, B2))
    relations = [q1, q2, 4 * L1 * L3 - 1, 2 * L1 * (L1 - L3) - 1, balance, B1 + B2 - 1]
    assert [sp.expand(rel.subs(point)) for rel in relations] == [0] * len(relations)
    # the factorisation that leaves only lam2 in {0, sqrt(3)/2}
    assert sp.expand(q1 + q2 - 72 * B2 * L2 * (2 * L2 - s3)) == 0
    branch = classifier.solve_case_one()
    got = [branch.lambda1, branch.lambda2, branch.lambda3, branch.b1_sq, branch.b2_sq]
    assert got == pytest.approx([float(point[s]) for s in (L1, L2, L3, B1, B2)], abs=1e-15)
