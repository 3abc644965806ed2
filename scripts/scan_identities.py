"""Scan the carrier-block identities over the axis-curvature window.

Writes one CSV row per grid point with the block determinant, its
predicted value sech(r/2)^3, the trace and determinant of the shape
block, and the branch data, suitable for plotting.

Example:
    python scripts/scan_identities.py --count 97 > identities.csv
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from chgeo import classifier, jacobi
from chgeo.cli import _MAX_DIMENSION, _MAX_SWEEP_POINTS
from chgeo.verification import case_two_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=97)
    parser.add_argument("--n", type=int, default=3)
    args = parser.parse_args()
    if not 1 <= args.count <= _MAX_SWEEP_POINTS:
        parser.error(f"--count must lie in 1..{_MAX_SWEEP_POINTS}, got {args.count}")
    if not 3 <= args.n <= _MAX_DIMENSION:
        parser.error(f"--n must lie in 3..{_MAX_DIMENSION}, got {args.n}")

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "lambda3",
            "r",
            "lambda1",
            "lambda2",
            "det_d",
            "sech3",
            "trace_c",
            "det_c",
        ]
    )
    for lam3 in case_two_grid(args.count):
        branch = classifier.solve_case_two(float(lam3)).branch
        r = 2.0 * math.atanh(2.0 * float(lam3))
        focal = jacobi.transversal_map(
            classifier.branch_profile(branch, args.n), r
        )
        C = focal.c_block
        writer.writerow(
            [
                f"{lam3:.10f}",
                f"{r:.10f}",
                f"{branch.lambda1:.12f}",
                f"{branch.lambda2:.12f}",
                f"{focal.det_d:.15e}",
                f"{1.0 / math.cosh(r / 2.0) ** 3:.15e}",
                f"{float(np.trace(C)):.3e}",
                f"{float(np.linalg.det(C)):.15e}",
            ]
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
