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
    tube_spectrum = families.tube_spectrum
    shape_operator = solvable.OrbitModel.shape_operator
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        assert families.tube_spectrum is not tube_spectrum
        recorder.begin_op(0)
        # the ruled base shapes its orbit, so the method wrapper is exercised
        families.tube_spectrum("Wk", 3, k=2)
        recorder.end_op()
    finally:
        tracer.uninstall()
    assert families.tube_spectrum is tube_spectrum
    assert solvable.OrbitModel.shape_operator is shape_operator
    calls = recorder.ops[0].calls
    assert calls["families.tube_spectrum"] == 1
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
    # the benchmark's solvable.build_ruled.self_s layer reads these spans
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
    # the orbits of coranks k = 1, 2 are one flag from one build_ruled call; one
    # shape operator serves the whole flag; the horosphere is a named base
    assert calls["solvable.build_ruled"] == 1
    assert calls["solvable.shape_operator"] == 1
    # the tube pass takes its rates in closed form: no propagator eigh per normal
    assert calls["jacobi.curvature_propagator"] == 0
