"""The traced benchmark run wraps chgeo entry points by name.

Renaming or deleting one of them breaks ``perfbench/run.py --trace 1``;
this test makes the same installation, so the rename fails here too.
"""

import importlib
from pathlib import Path

import numpy as np

from chgeo import classifier, families, solvable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spans = _spans(monkeypatch)
    structural_residuals = families.structural_residuals
    shape_operator = solvable.OrbitModel.shape_operator
    alg = solvable.build_algebra(3)
    ruled = solvable.build_ruled(alg, solvable.default_ruled_spec(alg, 1))
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        assert families.structural_residuals is not structural_residuals
        recorder.begin_op(0)
        # the residuals shape the orbit, so the method wrapper is exercised
        families.structural_residuals(ruled)
        recorder.end_op()
    finally:
        tracer.uninstall()
    assert families.structural_residuals is structural_residuals
    assert solvable.OrbitModel.shape_operator is shape_operator
    calls = recorder.ops[0].calls
    assert calls["families.structural_residuals"] == 1
    assert calls["solvable.shape_operator"] == 1


def test_newton_validation_is_one_span_per_lambda3(monkeypatch):
    # every start runs in one _damped_newton call, so one span per lambda3
    spans = _spans(monkeypatch)
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        recorder.begin_op(0)
        classifier.validate_against_closed_form(0.2, np.random.default_rng(1))
        recorder.end_op()
    finally:
        tracer.uninstall()
    calls = recorder.ops[0].calls
    assert calls["classifier.validate_against_closed_form"] == 1
    assert calls["classifier.newton"] == 1


def test_catalog_orbits_stay_visible_to_the_tracer(monkeypatch):
    # every catalog base is a closed form: the traced catalog opens no solvable.* span
    spans = _spans(monkeypatch)
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        recorder.begin_op(0)
        families.catalog(3, 1.0)
        recorder.end_op()
    finally:
        tracer.uninstall()
    calls = recorder.ops[0].calls
    assert calls["families.catalog"] == 1
    assert [name for name in calls if name.startswith("solvable.")] == []
    # the tube pass takes its rates in closed form: no propagator eigh per normal
    assert calls["jacobi.curvature_propagator"] == 0
