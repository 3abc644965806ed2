"""chgeo benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The library is imported from the
checkout's ``src/`` and driven in-process by one caller, with BLAS
pinned to one thread.  Every output is checked against the oracles in
oracles.py; a wrong answer counts as failed, never as fast.

``--trace 0`` prints the end-to-end metrics: ``op_s`` (median seconds
per op), ``setup_s`` (median over fresh interpreters of start-up,
``import chgeo``, input generation and one small warm-up call) and
``peak_rss_mb``; times are normalised as clock.py explains.
``--trace 1`` runs each op untraced and then traced on the same inputs
and prints the per-layer metrics of layers.py; the spans go to
perfbench/out/.  The last line of standard output is the result; the
line before it is a report with the run environment and the
workload's own named figures.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every child interpreter
PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "chgeo" / "__init__.py").is_file():
    sys.exit(f"perfbench: no chgeo sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import chgeo  # noqa: E402
import layers  # noqa: E402
from clock import REF_S, Stopwatch  # noqa: E402
from spans import Recorder, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if Path(chgeo.__file__).resolve().parent != SRC / "chgeo":
    sys.exit(f"perfbench: imported chgeo from {chgeo.__file__}, not from {SRC}")

SETUP_PROBES = 7
OUT = Path(__file__).resolve().parent / "out"
MAX_PROBLEMS = 10


def environment(args) -> dict:
    """What the figures depend on, so runs from different machines are not compared silently."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            models = (line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in PINNED},
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _now() -> float:
    """A clock that reads the same in every process of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupProbe:
    """Set-up time: from spawning a fresh interpreter until it is ready.

    Ready means chgeo imported, the inputs drawn and one small warm-up
    call returned; the child prints the moment.  The probes are spread
    over the run, between ops, so the run's normalising factor fits them
    as well as the ops; a kernel run follows each, as it follows each op
    part.  The first probe also writes the bytecode caches and is dropped.
    """

    def __init__(self, args, watch: Stopwatch):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.watch = watch
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        spawned = _now()
        done = subprocess.run(self.cmd, check=True, timeout=120, capture_output=True,
                              text=True, cwd=ROOT)
        ready = float(done.stdout.split()[-1])
        self.watch.tick()
        return ready - spawned

    def due(self, fraction: float) -> None:
        """Probe if fewer than ``fraction`` of the probes are done."""
        if len(self.times) < min(fraction, 1.0) * SETUP_PROBES:
            self.times.append(self._probe())


class Tally:
    """Outputs attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, workload, inputs, outputs) -> None:
        try:
            per_output = workload.check(inputs, outputs)
        except Exception as exc:  # a check that cannot read the output fails it
            per_output = [[f"check raised {exc!r}"]] * workload.items(inputs)
        self.record(per_output)

    def crash(self, workload, inputs, exc) -> None:
        self.record([[f"op raised {exc!r}"]] * workload.items(inputs))

    def record(self, per_output) -> None:
        self.attempted += len(per_output)
        for problems in per_output:
            self.failed += bool(problems)
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def measure(workload, seed: int, seconds: float, trace: bool, watch: Stopwatch, setup=None):
    """Closed loop for ``seconds``: (tally, op wall seconds, op parts, traced ops, overheads).

    With ``trace`` each op runs twice on the same inputs, untraced and
    then traced; the overheads are traced over untraced wall time, less 1.
    """
    rng = np.random.default_rng(seed)
    inputs = workload.draw(rng)
    watch.start()
    workload.execute(inputs, watch)  # warm-up op, untimed: lazy set-up finishes first
    tally = Tally()
    op_seconds, parts, overhead = [], [], []
    recorder = Recorder()
    tracer = Tracer(recorder)
    began = time.perf_counter()
    deadline = began + seconds
    index = 0
    while True:
        plain = None
        watch.start()
        try:
            outputs = workload.execute(inputs, watch)
        except Exception as exc:  # counted as failed outputs; the run goes on
            tally.crash(workload, inputs, exc)
        else:
            plain = watch.seconds
            op_seconds.append(plain)
            parts.append(watch.parts)
            tally.check(workload, inputs, outputs)
        if trace:
            watch.start()
            tracer.install()
            recorder.begin_op(index)
            try:
                outputs = workload.execute(inputs, watch)
            except Exception as exc:
                outputs = None
                tally.crash(workload, inputs, exc)
            finally:
                recorder.end_op()
                tracer.uninstall()
            if outputs is not None:
                tally.check(workload, inputs, outputs)
                if plain is not None:
                    overhead.append(watch.seconds / plain - 1.0)
        if setup is not None:
            setup.due((time.perf_counter() - began) / seconds)
        if time.perf_counter() >= deadline:
            break
        index += 1
        inputs = workload.draw(rng)
    while setup is not None and len(setup.times) < SETUP_PROBES:
        setup.due(1.0)
    return tally, op_seconds, parts, recorder, overhead


def _median(values):
    return statistics.median(values) if values else 0.0


def run(workload, args):
    """One benchmark run: (report, result) as printed on the last two lines."""
    watch = Stopwatch()
    probe = None if args.trace else SetupProbe(args, watch)
    tally, op_seconds, parts, recorder, overhead = measure(
        workload, args.seed, args.seconds, bool(args.trace), watch, probe
    )
    setup = probe.times if probe else []
    factor = watch.factor
    parts = [{name: factor * value for name, value in part.items()} for part in parts]
    report = {
        "environment": environment(args),
        "failed_frac": {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
        "samples": {
            "op_s": len(op_seconds), "setup_s": len(setup), "traced_ops": len(recorder.ops)
        },
        "workload_metrics": workload.summarize(parts),
        "raw_op_s": {"median": _median(op_seconds), "unit": "s"},
        "reference_kernel_s": {
            "mean": REF_S / factor, "nominal": REF_S, "runs": len(watch.refs)
        },
        "problems": tally.problems,
    }
    if args.trace:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.write(path, {"environment": report["environment"]})
        report["spans_file"] = str(path.relative_to(ROOT))
        summary = layers.TraceSummary(
            ops=recorder.ops,
            factor=factor,
            rungs=workload.rung_times(parts) if hasattr(workload, "rung_times") else {},
            overhead_frac=_median(overhead),
        )
        metrics = layers.layer_metrics(summary)
    else:
        metrics = {
            "op_s": {"value": factor * _median(op_seconds), "unit": "s"},
            "setup_s": {"value": factor * _median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        workload.warmup(workload.draw(np.random.default_rng(args.seed)))
        print(_now())
        return 0
    report, result = run(workload, args)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
