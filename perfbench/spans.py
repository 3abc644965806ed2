"""Span recorder for the traced benchmark run.

The recorder wraps chgeo's public entry points from outside the
package; no file under ``src/`` changes.  chgeo modules import each
other by name (``families.build_ruled`` is the same function object as
``solvable.build_ruled``), so every module-level binding of a wrapped
function is replaced, and calls made through any of them land in one
span name.  Calls made through a reference taken before ``install`` are
not seen, which is why the workloads call ``module.function`` at call
time.

Spans are kept in memory with parent ids and written out once, when the
run ends.  A span's self time is its duration minus the durations of
its direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from chgeo import ambient, classifier, families, jacobi, solvable, verification

# (module, attribute, span name); None names the span "<module>.<function>".
# A name may be a function of the call's positional arguments.
_FUNCTIONS = [
    (ambient, "curvature", None),
    (ambient, "curvature_component", None),
    (ambient, "sectional_curvature", None),
    (ambient, "jacobi_operator", None),
    (solvable, "build_algebra", None),
    (solvable, "build_ruled", None),
    (solvable, "horosphere_model", None),
    (solvable, "levi_civita", None),
    (solvable, "algebra_curvature", None),
    (jacobi, "jacobi_field", None),
    (jacobi, "jacobi_numeric", None),
    (jacobi, "_rk4_segment", "jacobi.rk4"),
    (jacobi, "curvature_propagator", None),
    (jacobi, "normal_frame", None),
    (jacobi, "transversal_map", None),
    (jacobi, "image_shape_operator", None),
    (families, "tube_base", None),
    (families, "tube_spectrum", None),
    (families, "ruled_profile", None),
    (families, "equidistant_profile", None),
    (families, "structural_residuals", None),
    (families, "two_curvature_families", None),
    (families, "three_curvature_families", None),
    (families, "catalog", None),
    (classifier, "solve_case_one", None),
    (classifier, "solve_case_two", None),
    (classifier, "branch_profile", None),
    (classifier, "newton_roots", None),
    (classifier, "validate_against_closed_form", None),
    (classifier, "_damped_newton", "classifier.newton"),
    (verification, "run_all", None),
    (verification, "run_suite", lambda args: f"verification.{args[0]}"),
]

# OrbitModel methods are wrapped on the class.  The closure check in
# OrbitModel.__post_init__ is left unwrapped on purpose: it is the bulk
# of solvable.build_ruled's self time.
_METHODS = [
    (solvable.OrbitModel, "shape_operator", "solvable.shape_operator"),
]

# calls that only feed a counter, without a span, so their time stays in
# the caller's self time
_COUNTED = [(classifier, "_numeric_jacobian")]


def _argument(fn, argname):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[argname]

    return get


def _hooks():
    """Counters updated after a wrapped call returns, keyed by span name."""
    nsteps = _argument(jacobi._rk4_segment, "nsteps")

    def rk4(counts, args, kwargs, result):
        counts["jacobi.rk4.steps"] += int(nsteps(args, kwargs))

    def gamma(counts, args, kwargs, result):
        # one dense pass over the d^3 connection tensor of float64
        d = args[0].dim
        counts["solvable.gamma_bytes_computed"] += 8 * d**3

    def newton(counts, args, kwargs, result):
        counts["classifier.newton.attempts"] += 1
        counts["classifier.newton.converged"] += result is not None

    def jacobian(counts, args, kwargs, result):
        counts["classifier.newton.jacobians"] += 1

    return {
        "jacobi.rk4": rk4,
        "solvable.levi_civita": gamma,
        "classifier.newton": newton,
        "classifier._numeric_jacobian": jacobian,
    }


@dataclass
class OpStats:
    """Per-op aggregates: span calls, self and total time, and counters."""

    index: int
    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    dur_ns: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Recorder:
    """In-memory span store with per-op aggregates."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.ops: list[OpStats] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op: OpStats | None = None

    def begin_op(self, index: int) -> None:
        self._op = OpStats(index)
        self._stack = []
        self._open("op")

    def end_op(self) -> None:
        self._close(self._stack[0])
        self.ops.append(self._op)
        self._op = None

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, parent, name, 0, time.perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        sid, parent, name, child_ns, start = frame
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        op = self._op
        op.calls[name] += 1
        op.self_ns[name] += dur - child_ns
        op.dur_ns[name] += dur
        self.spans.append((op.index, sid, parent, name, start, end))

    def wrap(self, name, fn, hook):
        """fn inside a span named ``name`` (or a function of the positional
        arguments giving it; None opens no span), then ``hook`` on the op's
        counters.  Installed only while an op is being traced."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = recorder._op
            if name is None:
                result = fn(*args, **kwargs)
            else:
                frame = recorder._open(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder._close(frame)
            if hook is not None:
                hook(op.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path, header: dict) -> None:
        """Write the header and every span as JSON lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            out.write(json.dumps(["op", "id", "parent", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _bindings(fn):
    """Every (module, attribute) inside chgeo that binds the object fn."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname == "chgeo" or modname.startswith("chgeo."):
            found.extend((module, attr) for attr, value in vars(module).items() if value is fn)
    return found


class Tracer:
    """Installs and removes the wrappers around one Recorder."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []
        hooks = _hooks()
        self._plan = []
        for module, attr, name in _FUNCTIONS:
            span = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            key = span if isinstance(span, str) else None
            self._plan.append((module, attr, span, hooks.get(key)))
        for module, attr in _COUNTED:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._plan.append((module, attr, None, hooks[key]))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, span, hook in self._plan:
            fn = getattr(module, attr)
            traced = self.recorder.wrap(span, fn, hook)
            for owner, name in _bindings(fn):
                self._saved.append((owner, name, fn))
                setattr(owner, name, traced)
        for cls, attr, span in _METHODS:
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self.recorder.wrap(span, fn, None))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved = []
