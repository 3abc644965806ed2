"""Self-tests of the benchmark: metrics emitted, oracles bite, counts repeat.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import layers
import oracles
import run
from chgeo import families, profiles
from chgeo.verification import SuiteResult
from workloads import Catalog, Sweep, Verify

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "verify": Verify,
    "catalog": lambda: Catalog(ladder=(3, 4)),
    "sweep": lambda: Sweep(points=6),
}


def _tiny_run(name, trace, seed=7):
    args = Namespace(workload=name, seed=seed, seconds=0.01, trace=trace)
    return run.run(TINY[name](), args)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    report, result = _tiny_run(name, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in listed]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"]["value"] == 0.0
    assert report["environment"]["seed"] == 7
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.METRICS
    ]
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)


def test_counts_repeat_exactly_at_one_seed():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    counted.append("classifier.newton.converged_ratio")
    for name in ("catalog", "sweep"):
        first = _tiny_run(name, 1, seed=3)[1]["metrics"]
        second = _tiny_run(name, 1, seed=3)[1]["metrics"]
        assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
        assert any(first[k]["value"] for k in counted)


def _untimed(name, fn, *args):
    return fn(*args)


def _failed(workload, inputs, outputs):
    tally = run.Tally()
    tally.check(workload, inputs, outputs)
    return tally.failed


def test_shifted_catalog_profile_is_counted_failed():
    workload = Catalog(ladder=(4,))
    inputs = workload.draw(np.random.default_rng(1))
    ((entries, notes),) = workload.execute(inputs, _untimed)
    assert _failed(workload, inputs, [(entries, notes)]) == 0
    shifted = list(entries)
    profile = shifted[1].profile
    (lam, mult), *rest = profile.entries
    shifted[1] = dataclasses.replace(
        shifted[1],
        profile=profiles.PrincipalProfile(((lam + 1e-6, mult), *rest), profile.total_dim),
    )
    assert _failed(workload, inputs, [(shifted, notes)]) == 1


def test_corrupted_carrier_block_is_counted_failed():
    workload = Sweep(points=3)
    inputs = workload.draw(np.random.default_rng(2))
    outputs = workload.execute(inputs, _untimed)
    assert _failed(workload, inputs, outputs) == 0
    points, *rest = outputs
    outcome, focal, image = points[0]
    corrupted = dataclasses.replace(focal, _c_block=focal.c_block + 1e-6)
    assert _failed(workload, inputs, ([(outcome, corrupted, image), *points[1:]], *rest)) == 1


def test_failed_suite_and_crash_are_counted():
    workload = Verify()
    results = [SuiteResult(name, True, 0.0, 1e-12, "", 0.0) for name in oracles.SUITES]
    assert _failed(workload, {}, results) == 0
    results[3] = dataclasses.replace(results[3], max_residual=1e-9)
    assert _failed(workload, {}, results) == 1
    tally = run.Tally()
    tally.crash(workload, {}, RuntimeError("boom"))
    assert (tally.attempted, tally.failed) == (len(oracles.SUITES),) * 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_catalog_reference_is_exact_on_the_engine():
    # the closed forms and the engine agree on a rung the workload does not use
    entries, notes = families.catalog(5, 0.9)
    assert oracles.check_catalog(5, 0.9, entries, notes) == []
