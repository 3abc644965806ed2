"""The traced benchmark run wraps chgeo entry points by name.

Renaming or deleting one of them breaks ``perfbench/run.py --trace 1``;
this test makes the same installation, so the rename fails here too.
"""

import importlib
from pathlib import Path

from chgeo import families, solvable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tube_spectrum = families.tube_spectrum
    shape_operator = solvable.OrbitModel.shape_operator
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        assert families.tube_spectrum is not tube_spectrum
        recorder.begin_op(0)
        families.tube_spectrum("horosphere", 2)
        recorder.end_op()
    finally:
        tracer.uninstall()
    assert families.tube_spectrum is tube_spectrum
    assert solvable.OrbitModel.shape_operator is shape_operator
    calls = recorder.ops[0].calls
    assert calls["families.tube_spectrum"] == 1
    assert calls["solvable.shape_operator"] == 1
