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


# A whole-array LAPACK reference for the per-start loop: the same
# residuals, conic Jacobian, step fractions, decrease rule, cap and 1e-10
# gate, with each conic step and the final weight solve by numpy.linalg.


def _reference_residuals(x, lam3):
    l1, l2, b1_sq, b2_sq = (x[..., i] for i in range(4))
    F = np.empty(x.shape)
    F[..., 0] = classifier._weight_balance(l1, l2, lam3, b1_sq, b2_sq)
    F[..., 1] = b1_sq + b2_sq - 1.0
    F[..., 2:] = _reference_conic(x, lam3)
    return F


def _reference_conic(x, lam3):
    l1, l2 = x[..., 0], x[..., 1]
    return np.stack(
        [classifier.hyperbola_relation(l1, l2, lam3), classifier.mean_relation(l1, l2, lam3)],
        axis=-1,
    )


def _reference_conic_jacobian(x, lam3):
    l1, l2 = x[..., 0], x[..., 1]
    eight_lam3, mean_weight = 8.0 * lam3, 1.0 + 4.0 * lam3**2
    C = np.empty(x.shape[:-1] + (2, 2))
    C[..., 0, 0] = eight_lam3 - 4.0 * l2
    C[..., 0, 1] = eight_lam3 - 4.0 * l1
    C[..., 1, 0] = eight_lam3 * l1 - mean_weight
    C[..., 1, 1] = eight_lam3 * l2 - mean_weight
    return C


def _reference_weights(x, lam3):
    """The weight rows W (b1^2, b2^2) = rhs solved by LAPACK; NaN where det W is 0."""
    g1, g2 = lam3 - x[:, 0], lam3 - x[:, 1]
    p = 1.0 + 4.0 * x[:, 1] * g1 + 4.0 * x[:, 0] * g2
    W = np.ones((len(x), 2, 2))
    W[:, 0, 0], W[:, 0, 1] = 3.0 * g2**2, 3.0 * g1**2
    rhs = np.stack([-g1 * g2 * p, np.ones(len(x))], axis=-1)
    weights = np.full((len(x), 2), np.nan)
    regular = np.isfinite(x).all(axis=1)
    regular[regular] = np.linalg.det(W[regular]) != 0.0
    weights[regular] = np.linalg.solve(W[regular], rhs[regular][..., None])[..., 0]
    return weights


_FRACTIONS = 0.5 ** np.arange(20)


def _reference_norm(f):
    return np.sqrt(np.add.reduce(f * f, axis=-1))


def _reference_damped_newton(x0, lam3):
    x = np.array(x0, dtype=float)
    lam3 = np.asarray(lam3, dtype=float)
    fx = _reference_conic(x, lam3)
    norm = _reference_norm(fx)
    live = np.flatnonzero(~(norm < classifier.NEWTON_TOL))
    for _ in range(classifier.NEWTON_MAX_ITER):
        if live.size == 0:
            break
        C = _reference_conic_jacobian(x[live], lam3[live])
        regular = np.linalg.det(C) != 0.0
        x[live[~regular]] = np.nan
        live = live[regular]
        step = np.linalg.solve(C[regular], -fx[live][..., None])[..., 0]
        trial = x[live, None] + _FRACTIONS[:, None] * step[:, None]
        f_trial = _reference_conic(trial, lam3[live, None])
        accept = _reference_norm(f_trial) < (1.0 - 0.25 * _FRACTIONS) * norm[live, None]
        found = accept.any(axis=1)
        x[live[~found]] = np.nan
        rows = np.flatnonzero(found)
        first = accept[rows].argmax(axis=1)
        live = live[rows]
        x[live] = trial[rows, first]
        fx[live] = f_trial[rows, first]
        norm[live] = _reference_norm(fx[live])
        live = live[~(norm[live] < classifier.NEWTON_TOL)]
    roots = np.concatenate([x, _reference_weights(x, lam3)], axis=1)
    roots[~(_reference_norm(_reference_residuals(roots, lam3)) < 1e-10)] = np.nan
    return roots


def test_per_start_newton_matches_the_lapack_reference():
    # 100 seeds x 60 starts, three lam3 per seed across and beyond the window
    for seed in range(100):
        rng = np.random.default_rng(seed)
        lam3 = np.repeat(rng.uniform(-0.7, 0.7, size=3), 20)
        starts = rng.uniform(-1.5, 1.5, size=(60, 2))
        got = classifier._damped_newton(starts, lam3)
        want = _reference_damped_newton(starts, lam3)
        failed = np.isnan(want).any(axis=1)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=f"seed {seed}")
        assert np.all(np.abs(got[~failed] - want[~failed]) <= 1e-9), seed
        for rows in np.split(np.arange(60), 3):
            count = len(classifier._distinct_roots(got[rows]))
            assert count == len(classifier._distinct_roots(want[rows])), seed


@pytest.mark.parametrize("lam3", [0.2, -0.3, 0.55])
def test_exact_jacobian_matches_finite_differences(lam3):
    # the closed-form conic step against a LAPACK solve on central
    # differences of the conic rows; the differences are good to about
    # 1e-8 relative, and the solve carries that error times the condition
    # number
    def F(y):
        return np.array(classifier._conic_residual(tuple(y), lam3))

    for x in np.random.default_rng(3).uniform(-1.5, 1.5, size=(200, 2)):
        C = classifier._numeric_jacobian(F, x)
        want = np.linalg.solve(C, -F(x))
        step = classifier._newton_step(tuple(x), tuple(F(x)), lam3)
        bound = 1e-6 * np.linalg.cond(C) * np.max(np.abs(want))
        assert np.max(np.abs(np.subtract(step, want))) <= bound


def _newton_batch():
    """Random starts with three l1 == l2 starts, where the conic Jacobian is singular."""
    starts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(12, 2))
    starts[[2, 7, 11], 1] = starts[[2, 7, 11], 0]
    return starts, np.array([2, 7, 11])


def test_damped_newton_batch_equals_rows_run_alone():
    starts, singular = _newton_batch()
    lam3 = np.full(len(starts), 0.2)
    # at l1 == l2 the conic Jacobian's two columns are equal: singular exactly
    C = _reference_conic_jacobian(starts[singular], 0.2)
    np.testing.assert_array_equal(C[..., 0], C[..., 1])
    for i in singular:
        f = classifier._conic_residual(tuple(starts[i]), 0.2)
        assert classifier._newton_step(tuple(starts[i]), f, 0.2) is None
    # the weight rows are singular on l1 + l2 = 2 lam3, where the start fails
    assert np.isnan(classifier._weights((0.25, 0.75), 0.5)).all()
    batch = classifier._damped_newton(starts, lam3)
    for i, x0 in enumerate(starts):
        alone = classifier._damped_newton(x0[None], lam3[i : i + 1])[0]
        np.testing.assert_array_equal(batch[i], alone)
    regular = np.setdiff1d(np.arange(len(starts)), singular)
    assert np.isnan(batch[singular]).all()
    assert np.isfinite(batch[regular]).all()
    assert np.all(_reference_norm(_reference_residuals(batch[regular], 0.2)) < 1e-10)


def test_damped_newton_takes_the_first_acceptable_step_fraction(monkeypatch):
    # a start whose full step and half step are rejected on the conic rows
    # and whose later fractions pass from the first one on: the loop must
    # take the first
    starts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(200, 2))
    for x0 in starts:
        f0 = _reference_conic(x0, 0.2)
        step = np.linalg.solve(_reference_conic_jacobian(x0, 0.2), -f0)
        trials = x0 + _FRACTIONS[:, None] * step
        norms = _reference_norm(_reference_conic(trials, 0.2))
        accept = norms < (1.0 - 0.25 * _FRACTIONS) * _reference_norm(f0)
        if not accept[:2].any() and accept[2:].all():
            break
    else:
        pytest.fail("no start with a rejected full step")
    first = accept.argmax()
    visited = []
    newton_step = classifier._newton_step

    def record(x, f, lam3):
        visited.append(x)
        return newton_step(x, f, lam3)

    monkeypatch.setattr(classifier, "_newton_step", record)
    classifier._damped_newton(x0[None], [0.2])
    # the second step starts where the first one ended
    np.testing.assert_allclose(visited[1], trials[first], rtol=0.0, atol=1e-14)
    assert np.all(np.abs(np.subtract(visited[1], trials[first + 1])) > 1e-6)


SEARCHED = (0.2, -0.3, 0.55)


def test_newton_starts_are_the_per_attempt_draws(monkeypatch):
    expected = np.random.default_rng(9)
    # one (l1, l2) pair per attempt: the weights are solved, not searched
    per_attempt = np.array(
        [[expected.uniform(-1.5, 1.5), expected.uniform(-1.5, 1.5)] for _ in range(60)]
    )
    seen = []

    def record(x0, lam3):
        seen.append((np.array(x0), np.array(lam3)))
        return np.full((len(x0), 4), np.nan)

    monkeypatch.setattr(classifier, "_damped_newton", record)
    rng = np.random.default_rng(9)
    assert classifier.newton_roots(SEARCHED, rng) == [[], [], []]
    ((starts, lam3),) = seen
    np.testing.assert_array_equal(starts, per_attempt)
    np.testing.assert_array_equal(lam3, np.repeat(SEARCHED, 20))
    assert rng.random() == expected.random()


def test_one_newton_draw_equals_the_per_lambda3_draws(monkeypatch):
    seen = []

    def record(x0, lam3):
        seen.append(np.array(x0))
        return np.full((len(x0), 4), np.nan)

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
    starts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(20 * len(SEARCHED), 2))
    mixed = classifier._damped_newton(starts, np.repeat(SEARCHED, 20))
    for k, lam3 in enumerate(SEARCHED):
        rows = slice(20 * k, 20 * (k + 1))
        alone = classifier._damped_newton(starts[rows], np.full(20, lam3))
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
        # these used to raise numpy's TypeError or a comparison error
        (0.2, 2.5, "attempts must be an integer, got 2.5"),
        (0.2, True, "attempts must be an integer, got True"),
        (0.2, "3", "attempts must be an integer, got '3'"),
        # this one used to be flattened into two values
        ([[0.2, 0.3]], 20, "lam3 must be a number or a flat sequence"),
    ],
)
def test_newton_roots_rejects_an_empty_or_non_finite_search(lam3, attempts, message):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match=re.escape(message)):
        classifier.newton_roots(lam3, rng, attempts=attempts)
    # nothing was drawn
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


@pytest.mark.parametrize("rng", [None, 7, np.random.RandomState(7)])
def test_newton_search_rejects_what_is_not_a_generator(rng):
    # None and 7 used to raise AttributeError on 'uniform'
    for search in (classifier.newton_roots, classifier.validate_against_closed_form):
        with pytest.raises(ValueError, match="rng must be a numpy.random.Generator, got "):
            search(0.2, rng)


def test_validation_rejects_a_nested_lambda3_before_drawing():
    # it used to raise "only 0-dimensional arrays can be converted"
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="lam3 must be a number or a flat sequence"):
        classifier.validate_against_closed_form([[0.2, 0.3]], rng)
    assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_newton_search_runs_without_numpy_linalg(monkeypatch):
    """The Newton step is closed-form: no numpy.linalg call in the search."""
    grid = verification.case_two_grid()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called in the Newton search")

    for name in ("solve", "det", "inv", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(verification.DEFAULT_SEED)
    assert classifier.validate_against_closed_form(SEARCHED, rng) == [[], [], []]
    assert classifier.validate_against_closed_form(grid, rng) == [[]] * len(grid)


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


@pytest.mark.parametrize("seed", [3, 7, 11, verification.DEFAULT_SEED])
def test_no_newton_start_stalls(monkeypatch, seed):
    # damping the full 4-vector used to stall 147-167 of the grid's starts
    # per seed near l1 + l2 = 2 lam3 and leave them NaN; damping only the
    # conic pair converges every start
    damped_newton = classifier._damped_newton
    roots = []

    def record(x0, lam3):
        roots.append(damped_newton(x0, lam3))
        return roots[-1]

    monkeypatch.setattr(classifier, "_damped_newton", record)
    grid = verification.case_two_grid()
    for searched in (grid, SEARCHED):
        classifier.newton_roots(searched, np.random.default_rng(seed))
    assert [r.shape for r in roots] == [(20 * len(grid), 4), (60, 4)]
    assert not any(np.isnan(r).any() for r in roots)


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
    # the axis multiplicity 2n - 3 of a case-ii branch is below 1 for n < 2;
    # n is refused by name before a profile is built
    branch = classifier.solve_case_two(0.2).branch
    message = f"n must be at least 2 for a case-ii branch, got {n}"
    with pytest.raises(ValueError, match=re.escape(message)):
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


@pytest.mark.parametrize("m1", [0, 2, 3, np.int64(3)])
def test_case_two_profile_refuses_a_carrier_multiplicity(m1):
    # it used to return the m1 = 1 profile whatever m1 was
    branch = classifier.solve_case_two(0.2).branch
    with pytest.raises(ValueError, match=f"m1 of a case-ii branch is 1, got {m1}"):
        classifier.branch_profile(branch, 5, m1=m1)
    for m1 in (None, 1, np.int64(1)):
        assert classifier.branch_profile(branch, 5, m1=m1) == classifier.branch_profile(branch, 5)


@pytest.mark.parametrize("n", [2, 1, 0, -4])
def test_case_one_profile_names_a_dimension_below_three(n):
    # n = 2 used to say "multiplicity must lie in 2..1"
    message = f"n must be at least 3 for a case-i branch, got {n}"
    for m1 in (None, 2):
        with pytest.raises(ValueError, match=re.escape(message)):
            classifier.branch_profile(classifier.solve_case_one(), n, m1=m1)


def test_isolated_profile_multiplicity_range():
    branch = classifier.solve_case_one()
    with pytest.raises(ValueError):
        classifier.branch_profile(branch, 3, m1=3)
    profile = classifier.branch_profile(branch, 4, m1=3)
    assert profile.multiplicity(branch.lambda1) == 3
