import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import regen_verify_golden

from chgeo import families, solvable, verification
from chgeo.errors import FocalPointError, UnsupportedModelError, ValidationError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_seeded_suite_type_error_propagates(monkeypatch):
    calls = []

    def suite(seed=verification.DEFAULT_SEED):
        calls.append(seed)
        raise TypeError("failure inside the suite")

    monkeypatch.setitem(verification._SUITES, "broken", (suite, 1.0, "broken"))
    with pytest.raises(TypeError, match="failure inside the suite"):
        verification.run_suite("broken", seed=5)
    # the suite ran once, with its seed; it was not re-run unseeded
    assert calls == [5]


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 7.0, "7", None, True])
def test_a_bad_seed_is_a_usage_error_naming_it(monkeypatch, seed):
    ran = []

    def seeded(seed=verification.DEFAULT_SEED):
        ran.append(seed)
        return [(0.0, "seeded check")]

    monkeypatch.setattr(verification, "_SUITES", {"seeded": (seeded, 1.0, "seeded")})
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        verification.run_all(seed=seed)
    with pytest.raises(ValueError, match=message):
        verification.run_suite("seeded", seed=seed)
    assert ran == []
    # a numpy integer and a seed past 2^64 are seeds
    assert [r.passed for r in verification.run_all(seed=np.int64(3))] == [True]
    assert verification.run_suite("seeded", seed=2**70).passed
    assert ran == [3, 2**70]


@pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0, True, "1", 1j, np.complex128(1)])
def test_a_bad_tolerance_is_a_usage_error_naming_it(monkeypatch, tolerance):
    # inf used to pass every suite, and nan and -1 to fail every suite
    ran = []

    def fixed():
        ran.append(None)
        return [(0.0, "fixed check")]

    monkeypatch.setattr(verification, "_SUITES", {"fixed": (fixed, 1.0, "fixed")})
    message = re.escape(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    with pytest.raises(ValueError, match=message):
        verification.run_all(tolerance=tolerance)
    with pytest.raises(ValueError, match=message):
        verification.run_suite("fixed", tolerance=tolerance)
    assert ran == []
    assert verification.run_suite("fixed", tolerance=0.0).passed
    assert verification.run_suite("fixed", tolerance=np.float32(1e-3)).passed


def test_an_unknown_suite_is_a_usage_error_listing_the_names():
    # it used to raise a bare KeyError
    message = re.escape(f"unknown suite 'bogus'; expected one of {verification.suite_names()}")
    with pytest.raises(ValueError, match=message):
        verification.run_suite("bogus")


def test_seed_reaches_only_suites_that_take_one(monkeypatch):
    seen = []

    def seeded(seed=verification.DEFAULT_SEED):
        seen.append(seed)
        return [(0.0, "seeded check")]

    def fixed():
        seen.append(None)
        return [(0.0, "fixed check")]

    monkeypatch.setitem(verification._SUITES, "seeded", (seeded, 1.0, "seeded"))
    monkeypatch.setitem(verification._SUITES, "fixed", (fixed, 1.0, "fixed"))
    verification.run_suite("seeded", seed=11)
    verification.run_suite("fixed", seed=11)
    assert seen == [11, None]


def test_report_names_the_worst_record_only_on_failure(monkeypatch):
    records = [(1e-12, "small"), (np.array([3e-9, 2e-9]), "large, n=3"), (1e-9, "middle")]
    monkeypatch.setitem(verification._SUITES, "stub", (lambda: records, 1e-8, "stub coverage"))
    passing = verification.run_suite("stub")
    assert (passing.passed, passing.max_residual, passing.tolerance) == (True, 3e-9, 1e-8)
    assert passing.detail == "stub coverage"
    failing = verification.run_suite("stub", tolerance=1e-9)
    assert (failing.passed, failing.max_residual, failing.tolerance) == (False, 3e-9, 1e-9)
    assert failing.detail == "worst: large, n=3 (3.000e-09)"


@pytest.mark.parametrize("nan_first", [True, False])
def test_nan_residual_fails_and_is_named(monkeypatch, nan_first):
    records = [(np.array([0.0, math.nan]), "undefined check"), (5.0, "large check")]
    records = records if nan_first else records[::-1]
    monkeypatch.setitem(verification._SUITES, "stub", (lambda: records, 10.0, "stub coverage"))
    result = verification.run_suite("stub")
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.detail == "worst: undefined check (nan)"


def test_every_suite_is_named_as_the_benchmark_expects(monkeypatch):
    # perfbench refuses a verify run whose suites differ from its list in
    # name or order, so renaming a suite starts with a benchmark change
    monkeypatch.syspath_prepend(str(PERFBENCH))
    oracles = importlib.import_module("oracles")
    assert tuple(verification.suite_names()) == oracles.SUITES


def test_newton_anomaly_detail_names_the_root(monkeypatch):
    root = np.array([0.1, 0.9, 0.25, 0.75])

    def one_root(lam3s, rng):
        return [[root] if lam3 == -0.3 else [] for lam3 in lam3s]

    monkeypatch.setattr(verification.classifier, "validate_against_closed_form", one_root)
    result = verification.run_suite("classifier-branches")
    assert not result.passed
    assert result.max_residual == 1.0
    assert result.detail == (
        "worst: unexplained newton roots at lam3=-0.3, "
        "first (l1, l2, b1^2, b2^2) = (0.1, 0.9, 0.25, 0.75) (1.000e+00)"
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
    assert verification.run_suite("jacobi-oracle", seed=seed).passed
    # jacobi_field evaluates the same table, so spy on it only afterwards
    modes = _spy(monkeypatch, verification.jacobi, "jacobi_mode")
    assert verification.run_suite("jacobi-field-equation", seed=seed).passed

    (_, v_start, t_start), (_, v_end, t_end) = fields
    assert np.array_equal(v_start, vectors) and np.array_equal(v_end, vectors)
    assert t_start == 0.0
    assert np.array_equal(t_end, steps * 1e-3)
    # one call: both rates of every case at its three stencil points
    ((alpha, beta, q, stencil),) = modes
    assert alpha == 1.0 and q.tolist() == [0.5, 1.0]
    assert np.array_equal(-beta[:, 0], cases[:, 0])
    assert np.array_equal(stencil[1, :, 0], cases[:, 2])


def test_classifier_suite_makes_one_newton_call(monkeypatch):
    calls = _spy(monkeypatch, verification.classifier, "_damped_newton")
    assert verification.run_suite("classifier-branches", seed=7).passed
    ((starts, lam3),) = calls
    assert starts.shape == (60, 2)
    assert np.array_equal(lam3, np.repeat([0.2, -0.3, 0.55], 20))


def test_equidistant_suite_stacks_its_transversal_maps(monkeypatch):
    one_job = _spy(monkeypatch, verification.jacobi, "transversal_map")
    stacked = _spy(monkeypatch, verification.jacobi, "transversal_maps")
    assert verification.run_suite("equidistant-identities").passed
    assert one_job == []
    ((jobs,),) = stacked
    assert len(jobs) == len(verification.case_two_grid())


def test_every_orbit_of_the_ruled_suite_passes_its_checks(monkeypatch):
    # one build_ruled per corank k = 1, ..., n - 1: each of the 2 + 3 + 4 orbits
    # is checked on construction, and none is built around the checks
    checks = _spy(monkeypatch, solvable.OrbitModel, "__post_init__")
    leaks = _spy(monkeypatch, solvable, "_closure_leak")
    assert verification.run_suite("ruled-second-fundamental").passed
    assert len(leaks) == len(checks) == 9
    assert [(o.algebra.n, o.codim) for (o,) in checks] == [
        (n, k) for n in (3, 4, 5) for k in range(1, n)
    ]


def test_verify_json_matches_its_goldens():
    # every bit of every field at three seeds; regen_verify_golden.py names what moved
    golden = json.loads(regen_verify_golden.GOLDENS.read_text())
    assert [doc["seed"] for doc in golden] == regen_verify_golden.SEEDS
    assert regen_verify_golden.moved(golden, regen_verify_golden.reports()) == []


@pytest.mark.parametrize(
    "error",
    [
        ValidationError("frame is broken"),
        FocalPointError("block is singular"),
        np.linalg.LinAlgError("Singular matrix"),
        UnsupportedModelError("J(normal) has 0 carrier eigenspaces"),
    ],
)
def test_engine_error_fails_only_its_suite(monkeypatch, error):
    def broken():
        raise error

    monkeypatch.setitem(verification._SUITES, "broken", (broken, 1.0, "broken coverage"))
    result = verification.run_suite("broken")
    assert not result.passed
    assert math.isnan(result.max_residual)
    assert result.tolerance == 1.0
    assert result.detail == f"raised {type(error).__name__}: {error}"
    assert result.seconds >= 0.0


def test_unsupported_model_fails_the_suite_that_meets_it(monkeypatch):
    # no eigenspace carries J(normal) longer than 2, so the tube engine raises
    monkeypatch.setattr(families, "CARRIER_TOL", 2.0)
    result = verification.run_suite("catalog-counts")
    assert not result.passed
    assert result.detail.startswith("raised UnsupportedModelError: J(normal) has 0 carrier")
