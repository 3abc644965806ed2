import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chgeo import classifier, verification

SQ3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# residual functions
# ---------------------------------------------------------------------------


def test_weight_balance_at_minimal_orbit_data():
    assert classifier.residual_hopf_weights(0.5, -0.5, 0.0, 0.5, 0.5) == 0.0


def test_weight_balance_at_isolated_point():
    r = classifier.residual_hopf_weights(
        SQ3 / 2.0, 0.0, SQ3 / 6.0, 8.0 / 9.0, 1.0 / 9.0
    )
    assert r <= 1e-12


def test_weight_balance_rejects_generic_tuple():
    assert classifier.residual_hopf_weights(1.0, 0.0, 2.0, 1.0, 0.0) > 1e-3


def test_weight_balance_rejects_coincident_curvatures():
    with pytest.raises(ValueError):
        classifier.residual_hopf_weights(0.5, 0.5, 0.0, 0.5, 0.5)


def test_closed_form_weights_always_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        l1, l2, l3 = np.sort(rng.uniform(-2.0, 2.0, size=3))
        if min(l2 - l1, l3 - l2) < 1e-6:
            continue
        b1, b2 = classifier.closed_form_weights(l1, l2, l3)
        assert abs(b1 + b2 - 1.0) <= 1e-12


@given(
    lam2=st.floats(min_value=-2.0, max_value=2.0),
    b2_sq=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=50)
def test_quadratic_pair_sum_factorisation(lam2, b2_sq):
    """Q1 + Q2 = 72 b2^2 lam2 (2 lam2 - sqrt(3)) identically."""
    q1, q2 = classifier.multiplicity_quadratics(lam2, b2_sq)
    expected = 72.0 * b2_sq * lam2 * (2.0 * lam2 - SQ3)
    assert q1 + q2 == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# parametric branch
# ---------------------------------------------------------------------------


def test_branch_at_zero_axis_curvature():
    branch = classifier.solve_case_two(0.0).branch
    assert branch.lambda1 == pytest.approx(-0.5, abs=1e-15)
    assert branch.lambda2 == pytest.approx(0.5, abs=1e-15)
    assert branch.b1_sq == pytest.approx(0.5, abs=1e-15)
    assert branch.b2_sq == pytest.approx(0.5, abs=1e-15)


def test_branch_at_two_tenths():
    branch = classifier.solve_case_two(0.2).branch
    root = math.sqrt(0.88)
    assert branch.lambda1 == pytest.approx((0.6 - root) / 2.0, abs=1e-14)
    assert branch.lambda2 == pytest.approx((0.6 + root) / 2.0, abs=1e-14)
    assert max(branch.residuals().values()) <= 1e-10


@pytest.mark.parametrize("lam3", [0.55, 0.56, 0.57])
def test_ellipse_exclusion_window(lam3):
    outcome = classifier.solve_case_two(lam3)
    assert outcome.empty
    assert "ellipse" in outcome.reason


@pytest.mark.parametrize("lam3", [0.5, -0.5, 1.0 / SQ3, -1.0 / SQ3])
def test_coincidence_rejection(lam3):
    outcome = classifier.solve_case_two(lam3)
    assert outcome.empty
    assert "coincident" in outcome.reason


def test_far_exclusion():
    outcome = classifier.solve_case_two(0.7)
    assert outcome.empty
    assert "no real intersection" in outcome.reason


@pytest.mark.parametrize("lam3", [1.0, -1.0, 1e155, 1e300, -1e300, 1.7976931348623157e308])
def test_far_exclusion_does_not_overflow(lam3):
    # lam3**2 overflows from about 1.4e154 on
    outcome = classifier.solve_case_two(lam3)
    assert outcome.lambda3 == lam3
    assert outcome.branch is None
    assert outcome.reason == "no real intersection (3 lam3^2 exceeds 1)"


@pytest.mark.parametrize("lam3", [math.nan, math.inf, -math.inf])
def test_non_finite_axis_curvature_is_rejected(lam3):
    with pytest.raises(ValueError, match=f"lam3 must be a finite number, got {lam3}"):
        classifier.solve_case_two(lam3)


@given(lam3=st.floats(min_value=-0.49, max_value=0.49))
@settings(max_examples=100)
def test_branch_properties_inside_window(lam3):
    outcome = classifier.solve_case_two(lam3)
    branch = outcome.branch
    assert branch is not None
    assert branch.lambda1 < branch.lambda2
    assert 0.0 < branch.b1_sq < 1.0 and 0.0 < branch.b2_sq < 1.0
    assert max(branch.residuals().values()) <= 1e-10


def test_grid_residuals_and_weight_sum():
    from chgeo.verification import case_two_grid

    for lam3 in case_two_grid():
        branch = classifier.solve_case_two(float(lam3)).branch
        res = branch.residuals()
        assert res["hyperbola"] <= 1e-10
        assert res["mean"] <= 1e-10
        assert res["weights"] <= 1e-10
        assert res["weight_sum"] <= 1e-12


def test_branch_curve_is_smooth():
    """lambda1 as a function of lambda3 has bounded difference quotients."""
    grid = np.arange(-0.45, 0.4501, 0.01)
    values = [classifier.solve_case_two(float(g)).branch.lambda1 for g in grid]
    slopes = np.diff(values) / np.diff(grid)
    assert np.all(np.abs(slopes) < 5.0)
    assert np.all(np.abs(np.diff(slopes)) < 0.5)


# ---------------------------------------------------------------------------
# isolated branch
# ---------------------------------------------------------------------------


def test_isolated_branch_values():
    branch = classifier.solve_case_one()
    assert branch.lambda1 == pytest.approx(SQ3 / 2.0, abs=1e-12)
    assert branch.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert branch.lambda3 == pytest.approx(SQ3 / 6.0, abs=1e-12)
    assert branch.b1_sq == pytest.approx(8.0 / 9.0, abs=1e-12)
    assert branch.b2_sq == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_isolated_branch_product_relation():
    branch = classifier.solve_case_one()
    assert 4.0 * branch.lambda1 * branch.lambda3 == pytest.approx(1.0, abs=1e-14)
    assert 2.0 * branch.lambda1 * (branch.lambda1 - branch.lambda3) == pytest.approx(
        1.0, abs=1e-14
    )


def test_isolated_branch_residual_system():
    branch = classifier.solve_case_one()
    assert max(branch.residuals().values()) <= 1e-12


# ---------------------------------------------------------------------------
# grid scans and independent validation
# ---------------------------------------------------------------------------


def test_sweep_counts():
    outcomes = [classifier.solve_case_two(float(lam3)) for lam3 in np.arange(-0.4, 0.41, 0.1)]
    assert sum(o.branch is not None for o in outcomes) == 9


def test_sweep_empty_window():
    outcome = classifier.solve_case_two(0.55)
    assert outcome.empty
    assert "ellipse" in outcome.reason


def test_sweep_coincidence_gridpoint():
    outcome = classifier.solve_case_two(1.0 / SQ3)
    assert outcome.empty
    assert "coincident" in outcome.reason


@pytest.mark.parametrize("lam3", [0.2, -0.3, 0.55])
def test_newton_roots_match_closed_forms(lam3):
    rng = np.random.default_rng(42)
    assert classifier.validate_against_closed_form(lam3, rng) == []


def test_newton_finds_the_branch():
    rng = np.random.default_rng(11)
    roots = classifier.newton_roots(0.2, rng, attempts=30)
    branch = classifier.solve_case_two(0.2).branch
    target = np.array([branch.lambda1, branch.lambda2, branch.b1_sq, branch.b2_sq])
    assert any(np.linalg.norm(r - target) < 1e-7 for r in roots)


@pytest.mark.parametrize("lam3", [0.2, -0.3, 0.55])
def test_exact_jacobian_matches_finite_differences(lam3):
    F, jacobian = classifier._SYSTEM
    points = np.random.default_rng(3).uniform(-1.5, 1.5, size=(200, 4))
    exact = jacobian(points, lam3)  # all points stacked in one call
    for x, J in zip(points, exact):
        numeric = classifier._numeric_jacobian(lambda y: F(y, lam3), x)
        assert np.max(np.abs(J - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def _newton_batch():
    """Random starts with three l1 == l2 starts, where the Jacobian is singular."""
    starts = np.random.default_rng(5).uniform(
        [-1.5, -1.5, -0.5, -0.5], 1.5, size=(12, 4)
    )
    starts[[2, 7, 11], 1] = starts[[2, 7, 11], 0]
    return starts, np.array([2, 7, 11])


def test_damped_newton_batch_equals_rows_run_alone():
    F, jacobian = system = classifier._SYSTEM
    starts, singular = _newton_batch()
    lam3 = np.full(len(starts), 0.2)
    assert np.all(np.linalg.det(jacobian(starts[singular], lam3[singular])) == 0.0)
    batch = classifier._damped_newton(system, starts, lam3)
    for i, x0 in enumerate(starts):
        alone = classifier._damped_newton(system, x0[None], lam3[i : i + 1])[0]
        np.testing.assert_array_equal(batch[i], alone)
    regular = np.setdiff1d(np.arange(len(starts)), singular)
    assert np.isnan(batch[singular]).all()
    assert np.isfinite(batch[regular]).all()
    assert np.all(np.linalg.norm(F(batch[regular], 0.2), axis=-1) < 1e-10)


def test_damped_newton_takes_the_first_acceptable_step_fraction():
    # on a linear system every fraction is acceptable; the full step
    # lands on the root at once, where repeated 2^-19 steps would stall
    target = np.array([0.3, -0.7, 0.25, 0.75])
    system = (
        lambda x, lam3: x - target,
        lambda x, lam3: np.broadcast_to(np.eye(4), x.shape + (4,)),
    )
    np.testing.assert_array_equal(
        classifier._damped_newton(system, np.zeros((2, 4)), np.zeros(2)), [target, target]
    )


SEARCHED = (0.2, -0.3, 0.55)


def test_newton_starts_are_the_per_attempt_draws(monkeypatch):
    expected = np.random.default_rng(9)
    per_attempt = np.array(
        [
            [
                expected.uniform(-1.5, 1.5),
                expected.uniform(-1.5, 1.5),
                expected.uniform(-0.5, 1.5),
                expected.uniform(-0.5, 1.5),
            ]
            for _ in range(20 * len(SEARCHED))
        ]
    )
    seen = []

    def record(system, x0, lam3):
        seen.append((np.array(x0), np.array(lam3)))
        return np.full_like(x0, np.nan)

    monkeypatch.setattr(classifier, "_damped_newton", record)
    rng = np.random.default_rng(9)
    assert classifier.newton_roots(SEARCHED, rng) == [[], [], []]
    ((starts, lam3),) = seen
    np.testing.assert_array_equal(starts, per_attempt)
    np.testing.assert_array_equal(lam3, np.repeat(SEARCHED, 20))
    assert rng.random() == expected.random()


def test_one_newton_draw_equals_the_per_lambda3_draws(monkeypatch):
    seen = []

    def record(system, x0, lam3):
        seen.append(np.array(x0))
        return np.full_like(x0, np.nan)

    monkeypatch.setattr(classifier, "_damped_newton", record)
    per_value = np.random.default_rng(4)
    assert [classifier.newton_roots(lam3, per_value) for lam3 in SEARCHED] == [[], [], []]
    batched = np.random.default_rng(4)
    assert classifier.newton_roots(SEARCHED, batched) == [[], [], []]
    np.testing.assert_array_equal(seen[-1], np.concatenate(seen[:-1]))
    # the generator ends where the per-value calls left it
    assert batched.bit_generator.state == per_value.bit_generator.state


@pytest.mark.parametrize("seed", [3, 7, 11, verification.DEFAULT_SEED])
def test_mixed_lambda3_newton_rows_equal_the_per_lambda3_calls(seed):
    starts = np.random.default_rng(seed).uniform(
        [-1.5, -1.5, -0.5, -0.5], 1.5, size=(20 * len(SEARCHED), 4)
    )
    mixed = classifier._damped_newton(classifier._SYSTEM, starts, np.repeat(SEARCHED, 20))
    for k, lam3 in enumerate(SEARCHED):
        rows = slice(20 * k, 20 * (k + 1))
        alone = classifier._damped_newton(classifier._SYSTEM, starts[rows], np.full(20, lam3))
        assert mixed[rows].tobytes() == alone.tobytes()
    rng = np.random.default_rng(seed)
    per_value = [classifier.newton_roots(lam3, rng) for lam3 in SEARCHED]
    batched = classifier.newton_roots(SEARCHED, np.random.default_rng(seed))
    assert len(batched) == len(per_value)
    for one, many in zip(per_value, batched):
        assert len(one) == len(many)
        for a, b in zip(one, many):
            assert a.tobytes() == b.tobytes()


def test_validation_of_a_sequence_is_one_list_per_lambda3():
    batched = classifier.validate_against_closed_form(SEARCHED, np.random.default_rng(42))
    assert batched == [[], [], []]
    assert classifier.validate_against_closed_form(0.2, np.random.default_rng(42)) == []


@pytest.mark.parametrize(
    ("lam3", "attempts", "message"),
    [
        (math.nan, 20, "lam3 must be finite"),
        (math.inf, 20, "lam3 must be finite"),
        ((0.2, -math.inf), 20, "lam3 must be finite"),
        (0.2, 0, "attempts must be at least 1, got 0"),
        (0.2, -3, "attempts must be at least 1, got -3"),
    ],
)
def test_newton_roots_rejects_an_empty_or_non_finite_search(lam3, attempts, message):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=message):
        classifier.newton_roots(lam3, rng, attempts=attempts)
    # nothing was drawn
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


@pytest.mark.parametrize("seed", [3, 7, 11, verification.DEFAULT_SEED])
def test_capped_newton_finds_the_branch_on_the_whole_grid(seed):
    grid = verification.case_two_grid()
    found = classifier.newton_roots(grid, np.random.default_rng(seed))
    for lam3, roots in zip(grid, found):
        b = classifier.solve_case_two(float(lam3)).branch
        target = np.array([b.lambda1, b.lambda2, b.b1_sq, b.b2_sq])
        assert any(np.linalg.norm(r - target) < 1e-7 for r in roots), lam3
    anomalies = classifier.validate_against_closed_form(grid, np.random.default_rng(seed))
    assert anomalies == [[]] * len(grid)


# ---------------------------------------------------------------------------
# branch profiles
# ---------------------------------------------------------------------------


def test_branch_profile_structure():
    branch = classifier.solve_case_two(0.2).branch
    profile = classifier.branch_profile(branch, 4)
    assert profile.total_dim == 7
    assert profile.multiplicity(branch.lambda3) == 5
    assert profile.hopf.b1 == pytest.approx(math.sqrt(branch.b1_sq), abs=1e-15)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_branch_profile_rejects_non_positive_multiplicities(n):
    # the axis multiplicity 2n - 3 of a case-ii branch is below 1 for n < 2
    branch = classifier.solve_case_two(0.2).branch
    with pytest.raises(ValueError, match="multiplicity must be at least 1"):
        classifier.branch_profile(branch, n)
    assert classifier.branch_profile(branch, 2).entries[1] == (branch.lambda3, 1)


def test_branch_profile_rejects_a_dimension_that_is_not_an_integer():
    # it used to return multiplicity 4.0 and total_dim 6.0
    branch = classifier.solve_case_two(0.2).branch
    with pytest.raises(ValueError, match=re.escape("n must be an integer, got 3.5")):
        classifier.branch_profile(branch, 3.5)
    assert type(classifier.branch_profile(branch, np.int64(4)).total_dim) is int


def test_branch_profile_rejects_a_carrier_multiplicity_that_is_not_an_integer():
    # it used to return multiplicities 3.5 and 2.5
    with pytest.raises(ValueError, match=re.escape("m1 must be an integer, got 2.5")):
        classifier.branch_profile(classifier.solve_case_one(), 4, m1=2.5)


def test_isolated_profile_multiplicity_range():
    branch = classifier.solve_case_one()
    with pytest.raises(ValueError):
        classifier.branch_profile(branch, 3, m1=3)
    profile = classifier.branch_profile(branch, 4, m1=3)
    assert profile.multiplicity(branch.lambda1) == 3
