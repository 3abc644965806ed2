"""Per-layer metrics of the traced run, in the order BENCHMARK.json lists them.

Counts (``*.calls``, ``jacobi.rk4.steps``, ``classifier.newton.*`` and
``solvable.gamma_bytes_computed``) are exact and come from the first
traced op, whose inputs are fixed by the seed, so they repeat exactly
across runs at one seed.  ``*.self_s`` is a span's duration minus its
child spans, summed over one op, median over the traced ops.
``families.catalog.n*_s`` and the slope come from the median untraced
call at each n, so they carry no tracing overhead.  Times are
normalised by the reference kernel of clock.py.  A layer the workload
never reaches reads 0.

What each metric should move, and where, is in README.md.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import oracles
from spans import OpStats


@dataclass
class TraceSummary:
    ops: list[OpStats]
    factor: float = 1.0  # wall seconds -> normalised seconds (clock.py)
    rungs: dict[int, float] = field(default_factory=dict)  # catalog n -> median s
    overhead_frac: float = 0.0


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _calls(span):
    return lambda t: t.ops[0].calls[span] if t.ops else 0


def _count(key):
    return lambda t: t.ops[0].counts[key] if t.ops else 0


def _self_s(span):
    return lambda t: t.factor * _median(op.self_ns[span] for op in t.ops) / 1e9


def _span_s(span):
    return lambda t: t.factor * _median(op.dur_ns[span] for op in t.ops) / 1e9


def _rung(n):
    return lambda t: t.rungs.get(n, 0.0)


def _loglog_slope(t):
    """Least-squares slope of log(seconds) against log(n) over the ladder."""
    points = [(math.log(n), math.log(s)) for n, s in t.rungs.items() if s > 0]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def _converged_ratio(t):
    if not t.ops:
        return 0.0
    counts = t.ops[0].counts
    attempts = counts["classifier.newton.attempts"]
    return counts["classifier.newton.converged"] / attempts if attempts else 0.0


def _span_count(t):
    return sum(t.ops[0].calls.values()) if t.ops else 0


S, COUNT = "s", "count"
METRICS = [
    ("solvable.build_ruled.self_s", S, "lower", _self_s("solvable.build_ruled")),
    ("solvable.shape_operator.calls", COUNT, "lower", _calls("solvable.shape_operator")),
    ("solvable.shape_operator.self_s", S, "lower", _self_s("solvable.shape_operator")),
    ("solvable.levi_civita.calls", COUNT, "lower", _calls("solvable.levi_civita")),
    ("solvable.levi_civita.self_s", S, "lower", _self_s("solvable.levi_civita")),
    ("solvable.build_algebra.calls", COUNT, "lower", _calls("solvable.build_algebra")),
    ("solvable.gamma_bytes_computed", "bytes", "lower", _count("solvable.gamma_bytes_computed")),
    ("solvable.algebra_curvature.self_s", S, "lower", _self_s("solvable.algebra_curvature")),
    ("families.catalog.n4_s", S, "lower", _rung(4)),
    ("families.catalog.n8_s", S, "lower", _rung(8)),
    ("families.catalog.n12_s", S, "lower", _rung(12)),
    ("families.catalog.n16_s", S, "lower", _rung(16)),
    ("families.catalog.loglog_slope", "ratio", "lower", _loglog_slope),
    ("families.tube_spectrum.calls", COUNT, "lower", _calls("families.tube_spectrum")),
    ("families.tube_spectrum.self_s", S, "lower", _self_s("families.tube_spectrum")),
    ("families.tube_base.self_s", S, "lower", _self_s("families.tube_base")),
    ("jacobi.curvature_propagator.calls", COUNT, "lower", _calls("jacobi.curvature_propagator")),
    ("jacobi.curvature_propagator.self_s", S, "lower", _self_s("jacobi.curvature_propagator")),
    ("ambient.jacobi_operator.calls", COUNT, "lower", _calls("ambient.jacobi_operator")),
    ("jacobi.rk4.steps", COUNT, "lower", _count("jacobi.rk4.steps")),
    ("jacobi.rk4.self_s", S, "lower", _self_s("jacobi.rk4")),
    ("jacobi.jacobi_field.calls", COUNT, "lower", _calls("jacobi.jacobi_field")),
    ("jacobi.jacobi_field.self_s", S, "lower", _self_s("jacobi.jacobi_field")),
    ("ambient.curvature.calls", COUNT, "lower", _calls("ambient.curvature")),
    ("ambient.curvature.self_s", S, "lower", _self_s("ambient.curvature")),
    ("jacobi.transversal_map.calls", COUNT, "lower", _calls("jacobi.transversal_map")),
    ("jacobi.transversal_map.self_s", S, "lower", _self_s("jacobi.transversal_map")),
    ("jacobi.image_shape_operator.self_s", S, "lower", _self_s("jacobi.image_shape_operator")),
    ("classifier.solve_case_two.calls", COUNT, "lower", _calls("classifier.solve_case_two")),
    ("classifier.solve_case_two.self_s", S, "lower", _self_s("classifier.solve_case_two")),
    ("classifier.newton.attempts", COUNT, "lower", _count("classifier.newton.attempts")),
    ("classifier.newton.jacobians", COUNT, "lower", _count("classifier.newton.jacobians")),
    ("classifier.newton.converged_ratio", "ratio", "higher", _converged_ratio),
    ("classifier.newton.self_s", S, "lower", _self_s("classifier.newton")),
    *(
        (f"verification.{suite}.s", S, "lower", _span_s(f"verification.{suite}"))
        for suite in oracles.SUITES
    ),
    ("trace.spans", COUNT, "lower", _span_count),
    ("trace.overhead_frac", "ratio", "lower", lambda t: t.overhead_frac),
]


def layer_metrics(summary: TraceSummary) -> dict:
    return {name: {"value": get(summary), "unit": unit} for name, unit, _, get in METRICS}
