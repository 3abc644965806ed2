"""The three workloads: inputs drawn from a seed, one op, and its checks.

Each workload is a closed loop with one caller: the next op starts when
the previous one returns.  An op calls chgeo through module attributes
(``families.catalog``, not a name imported once), so the traced run sees
every call.  ``execute(inputs, timer)`` returns the outputs and runs
each part a user waits for through ``timer`` (a clock.Stopwatch), which
records the part's wall seconds under its name; ``check`` returns
one list of problems per output it checked, empty when that output is
right.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import oracles
from chgeo import classifier, families, jacobi, verification

MARGIN = 0.05  # distance kept from the exceptional radius


def _figure(values, unit, scale=1.0):
    """A named figure: median over the run, with its sample count."""
    median = scale * statistics.median(values) if values else 0.0
    return {"value": median, "unit": unit, "samples": len(values)}


class Verify:
    """One op is ``verification.run_all(seed)``: all eleven suites."""

    name = "verify"

    def draw(self, rng):
        return {"seed": int(rng.integers(1, 2**31))}

    def warmup(self, inputs):
        verification.run_suite("structural-residuals", seed=inputs["seed"])

    def items(self, inputs):
        return len(oracles.SUITES)

    def execute(self, inputs, timer):
        return timer("verify_pass_s", verification.run_all, inputs["seed"])

    def check(self, inputs, results):
        return oracles.check_suites(results)

    def summarize(self, parts):
        return {"verify_pass_s": _figure([p["verify_pass_s"] for p in parts], "s")}


class Catalog:
    """One op is ``families.catalog(n, r)`` for every n on the ladder."""

    name = "catalog"
    LADDER = (4, 8, 12, 16)

    def __init__(self, ladder=LADDER):
        self.ladder = tuple(ladder)

    def draw(self, rng):
        while True:
            r = float(rng.uniform(0.25, 2.5))
            if abs(r - oracles.EXCEPTIONAL_RADIUS) >= MARGIN:
                return {"r": r}

    def warmup(self, inputs):
        families.catalog(self.ladder[0], inputs["r"])

    def items(self, inputs):
        return len(self.ladder)

    def execute(self, inputs, timer):
        return [timer(f"catalog_n{n}_s", families.catalog, n, inputs["r"]) for n in self.ladder]

    def check(self, inputs, outputs):
        return [
            oracles.check_catalog(n, inputs["r"], entries, notes)
            for n, (entries, notes) in zip(self.ladder, outputs)
        ]

    def rung_times(self, parts):
        """Median seconds per catalog call at each n, over the run."""
        if not parts:
            return {}
        return {n: statistics.median(p[f"catalog_n{n}_s"] for p in parts) for n in self.ladder}

    def summarize(self, parts):
        lo, hi = self.ladder[0], self.ladder[-1]
        return {
            f"catalog_n{lo}_ms": _figure([p[f"catalog_n{lo}_s"] for p in parts], "ms", 1e3),
            f"catalog_n{hi}_s": _figure([p[f"catalog_n{hi}_s"] for p in parts], "s"),
        }


class Sweep:
    """One op is a batch over the axis curvature lambda3.

    Each parametric point runs solve_case_two -> branch_profile ->
    transversal_map -> image_shape_operator at the distance
    r = 2 artanh(2 lambda3) that carries the equidistant onto the ruled
    orbit, with n cycling through N_CYCLE.  A batch also runs the
    repeated-carrier collapse at the exceptional radius, exclusion-window
    points that must return their reason, and one Newton validation.
    """

    name = "sweep"
    N_CYCLE = (3, 6, 10)
    CASE_ONE = ((3, 2), (4, 2), (4, 3))
    EDGE = 0.485  # parametric points stay inside |lambda3| < EDGE

    def __init__(self, points=48):
        self.points = points

    def draw(self, rng):
        lam3 = []
        while len(lam3) < self.points:
            value = float(rng.uniform(-self.EDGE, self.EDGE))
            if abs(value) > 1e-3:
                lam3.append(value)
        window = (0.5 + 0.005, 1.0 / math.sqrt(3.0) - 0.005)
        signs = [float(s) for s in rng.choice((-1.0, 1.0), size=3)]
        exclusions = [
            (signs[0] * float(rng.uniform(*window)), "ellipse exclusion"),
            (signs[1] * float(rng.uniform(0.6, 2.0)), "no real intersection"),
            (signs[2] * 0.5, "coincident eigenvalues"),
        ]
        return {
            "lam3": lam3,
            "exclusions": exclusions,
            "newton_seed": int(rng.integers(1, 2**31)),
        }

    def warmup(self, inputs):
        self._point(inputs["lam3"][0], self.N_CYCLE[0])

    def items(self, inputs):
        return len(inputs["lam3"]) + len(self.CASE_ONE) + len(inputs["exclusions"]) + 1

    @staticmethod
    def _point(lam3, n):
        outcome = classifier.solve_case_two(lam3)
        profile = classifier.branch_profile(outcome.branch, n)
        focal = jacobi.transversal_map(profile, 2.0 * math.atanh(2.0 * lam3))
        return outcome, focal, jacobi.image_shape_operator(focal)

    def _points(self, lam3s):
        cycle = self.N_CYCLE
        return [self._point(lam3, cycle[i % len(cycle)]) for i, lam3 in enumerate(lam3s)]

    def _collapse_and_exclusions(self, exclusions):
        branch = classifier.solve_case_one()
        collapse = []
        for n, m1 in self.CASE_ONE:
            focal = jacobi.transversal_map(
                classifier.branch_profile(branch, n, m1=m1), oracles.EXCEPTIONAL_RADIUS
            )
            collapse.append((focal, jacobi.image_shape_operator(focal)))
        return collapse, [classifier.solve_case_two(lam3) for lam3, _ in exclusions]

    def execute(self, inputs, timer):
        points = timer("points_s", self._points, inputs["lam3"])
        collapse, excluded = timer(
            "collapse_s", self._collapse_and_exclusions, inputs["exclusions"]
        )
        anomalies = timer(
            "newton_s",
            classifier.validate_against_closed_form,
            inputs["lam3"][0],
            np.random.default_rng(inputs["newton_seed"]),
        )
        return points, collapse, excluded, anomalies

    def check(self, inputs, outputs):
        points, collapse, excluded, anomalies = outputs
        cycle = self.N_CYCLE
        return (
            [
                oracles.check_equidistant_point(lam3, cycle[i % len(cycle)], *point)
                for i, (lam3, point) in enumerate(zip(inputs["lam3"], points))
            ]
            + [
                oracles.check_case_one_focal(n, m1, *pair)
                for (n, m1), pair in zip(self.CASE_ONE, collapse)
            ]
            + [
                oracles.check_exclusion(lam3, outcome, reason)
                for (lam3, reason), outcome in zip(inputs["exclusions"], excluded)
            ]
            + [oracles.check_newton(inputs["lam3"][0], anomalies)]
        )

    def summarize(self, parts):
        return {
            "focal_points_per_s": _figure([self.points / p["points_s"] for p in parts], "1/s"),
            "newton_call_ms": _figure([p["newton_s"] for p in parts], "ms", 1e3),
        }


WORKLOADS = {cls.name: cls for cls in (Verify, Catalog, Sweep)}
