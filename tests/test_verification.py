import numpy as np
import pytest

from chgeo import verification


def _fake_result(name):
    return verification.SuiteResult(
        name=name, passed=True, max_residual=0.0, tolerance=1.0, detail="", seconds=0.0
    )


def test_seeded_suite_type_error_propagates(monkeypatch):
    calls = []

    def suite(seed=verification.DEFAULT_SEED):
        calls.append(seed)
        raise TypeError("failure inside the suite")

    monkeypatch.setitem(verification._SUITES, "broken", suite)
    with pytest.raises(TypeError, match="failure inside the suite"):
        verification.run_suite("broken", seed=5)
    # the suite ran once, with its seed; it was not re-run unseeded
    assert calls == [5]


def test_seed_reaches_only_suites_that_take_one(monkeypatch):
    seen = []

    def seeded(seed=verification.DEFAULT_SEED):
        seen.append(seed)
        return _fake_result("seeded")

    def fixed():
        seen.append(None)
        return _fake_result("fixed")

    monkeypatch.setitem(verification._SUITES, "seeded", seeded)
    monkeypatch.setitem(verification._SUITES, "fixed", fixed)
    verification.run_suite("seeded", seed=11)
    verification.run_suite("fixed", seed=11)
    assert seen == [11, None]


def test_newton_anomaly_detail_names_the_root(monkeypatch):
    root = np.array([0.1, 0.9, 0.25, 0.75])

    def one_root(lam3, rng):
        return [root] if lam3 == -0.3 else []

    monkeypatch.setattr(verification.classifier, "validate_against_closed_form", one_root)
    result = verification.suite_classifier()
    assert not result.passed
    assert result.detail == (
        "newton anomaly at lam3=-0.3: 1 unexplained root(s), "
        "first (l1, l2, b1^2, b2^2) = (0.1, 0.9, 0.25, 0.75)"
    )


def _spy(monkeypatch, module, name):
    """Record the positional arguments of every call to module.name."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_stacked_suite_draws_equal_the_per_case_draws(monkeypatch):
    """Each seeded suite draws in one call what the per-case loop drew."""
    seed = 7
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 3001, size=200)
    vectors = np.array([rng.standard_normal(6) for _ in range(200)])
    vectors[:, 0] = 0.0
    rng = np.random.default_rng(seed)
    # (lam, w, t) per case; w is drawn between lam and t
    cases = np.array(
        [
            [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)]
            for _ in range(200)
        ]
    )

    fields = _spy(monkeypatch, verification.jacobi, "jacobi_field")
    coefficients = _spy(monkeypatch, verification.jacobi, "transverse_coefficient")
    assert verification.suite_jacobi_oracle(seed).passed
    assert verification.suite_jacobi_field_equation(seed).passed

    (_, v_start, t_start), (_, v_end, t_end) = fields
    assert np.array_equal(v_start, vectors) and np.array_equal(v_end, vectors)
    assert t_start == 0.0
    assert np.array_equal(t_end, steps * 1e-3)
    ((lam, stencil),) = coefficients
    assert np.array_equal(lam, cases[:, 0])
    assert np.array_equal(stencil[1], cases[:, 2])
