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
