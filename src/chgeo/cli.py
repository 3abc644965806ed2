"""Command-line surface: catalog, verify, classify, focal and sweep.

Documents go to stdout (JSON is schema-versioned as ``chgeo/1``),
diagnostics to stderr.  Exit codes: 0 on success (including
legitimately empty results), 1 on verification failure, 2 on usage
errors.  Known irrational constants are emitted alongside a symbolic
tag so that downstream comparisons are not at the mercy of printed
precision.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import families
from . import classifier, jacobi, verification
from .errors import FocalPointError

__all__ = ["main", "run", "symbol_for"]

SCHEMA = "chgeo/1"
_MAX_SWEEP_POINTS = 10_000
# fraction of a step by which the sweep's last point may pass --hi, so that
# a (hi - lo)/step that rounds to just below an integer keeps its endpoint
_SWEEP_SLACK = 1e-9
# catalog --n 100 takes 0.15-0.23 s and 33 MB (8 runs, 2-CPU Intel Xeon under
# outside load), n = 64 0.22 s and 33 MB; no base builds an orbit, and the cap,
# checked before anything is built, is kept until a larger n is measured
_MAX_DIMENSION = 100

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)

_SYMBOLS = [
    (0.0, "0"),
    (0.5, "1/2"),
    (-0.5, "-1/2"),
    (1.0, "1"),
    (-1.0, "-1"),
    (1.0 / 3.0, "1/3"),
    (8.0 / 9.0, "8/9"),
    (1.0 / 9.0, "1/9"),
    (0.25, "1/4"),
    (-0.25, "-1/4"),
    (_SQ3 / 2.0, "sqrt(3)/2"),
    (-_SQ3 / 2.0, "-sqrt(3)/2"),
    (_SQ3 / 6.0, "sqrt(3)/6"),
    (-_SQ3 / 6.0, "-sqrt(3)/6"),
    (1.0 / _SQ3, "1/sqrt(3)"),
    (-1.0 / _SQ3, "-1/sqrt(3)"),
    (1.0 / _SQ2, "1/sqrt(2)"),
    (2.0 * _SQ2 / 3.0, "2*sqrt(2)/3"),
    (_SQ6 / 2.0, "sqrt(6)/2"),
    (_SQ6 / 3.0, "sqrt(6)/3"),
    (jacobi.EXCEPTIONAL_RADIUS, "ln(2+sqrt(3))"),
    (-jacobi.EXCEPTIONAL_RADIUS, "-ln(2+sqrt(3))"),
]


def symbol_for(value: float) -> str | None:
    """Symbolic tag for a recognised constant within 1e-12, or None."""
    for ref, name in _SYMBOLS:
        if abs(value - ref) <= 1e-12:
            return name
    return None


def _tagged(value: float | None):
    if value is None:
        return None
    return {"value": value, "symbol": symbol_for(value)}


def _weight(value: float) -> dict:
    """A branch weight lies strictly inside (0, 1), so it is never tagged 0 or 1."""
    symbol = symbol_for(value)
    return {"value": value, "symbol": None if symbol in ("0", "1") else symbol}


# ---------------------------------------------------------------------------
# document builders
# ---------------------------------------------------------------------------


def _entry_doc(entry) -> dict:
    doc = families.entry_to_dict(entry)
    doc["r"] = _tagged(doc["r"])
    doc["profile_symbols"] = [symbol_for(lam) for lam, _ in entry.profile.entries]
    return doc


def _branch_doc(branch: classifier.SolutionBranch | None, lambda3=None, reason=None):
    if branch is None:
        return {
            "case": "ii",
            "lambda3": _tagged(lambda3),
            "branch": None,
            "reason": reason,
        }
    return {
        "case": branch.case,
        "lambda3": _tagged(branch.lambda3),
        "lambda1": _tagged(branch.lambda1),
        "lambda2": _tagged(branch.lambda2),
        "b1sq": _weight(branch.b1_sq),
        "b2sq": _weight(branch.b2_sq),
        "mults": list(branch.mult_pattern),
        "window": branch.window,
        "reason": reason,
    }


def _require_dimension_cap(n: int) -> None:
    if n > _MAX_DIMENSION:
        raise ValueError(f"--n must be at most {_MAX_DIMENSION}, got {n}")


def cmd_catalog(args):
    if args.n < 2:
        raise ValueError("catalog requires --n >= 2")
    _require_dimension_cap(args.n)
    if args.r <= 0:
        raise ValueError(f"catalog requires --r > 0, got {args.r}")
    entries, notes = families.catalog(args.n, r=args.r)
    return {"n": args.n, "entries": [_entry_doc(e) for e in entries], "notes": notes}, 0


def cmd_classify(args):
    if args.case == "i":
        return _branch_doc(classifier.solve_case_one()), 0
    if args.lambda3 is None:
        raise ValueError("classify requires --lambda3 or --case i")
    outcome = classifier.solve_case_two(args.lambda3)
    return _branch_doc(outcome.branch, lambda3=args.lambda3, reason=outcome.reason), 0


def cmd_sweep(args):
    if args.step <= 0 or args.hi < args.lo:
        raise ValueError("sweep requires --lo <= --hi and --step > 0")
    span = (args.hi - args.lo) / args.step  # inf when hi - lo overflows
    # the last point is the last one <= --hi, up to the rounding slack
    count = math.floor(span + _SWEEP_SLACK) if math.isfinite(span) else math.inf
    if count >= _MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep grid would have {count + 1:.6g} points; at most "
            f"{_MAX_SWEEP_POINTS} are allowed"
        )
    grid = [args.lo + i * args.step for i in range(count + 1)]
    if not math.isfinite(grid[-1]):
        # the slack lets the last point pass --hi, and so the largest float
        raise ValueError(f"sweep grid overflows: its last point is {grid[-1]}")
    outcomes = [classifier.solve_case_two(lam3) for lam3 in grid]
    doc = {
        "grid": grid,
        "outcomes": [
            _branch_doc(o.branch, lambda3=o.lambda3, reason=o.reason) for o in outcomes
        ],
        "isolated": _branch_doc(classifier.solve_case_one()),
    }
    return doc, 0


def cmd_focal(args):
    if args.n < 3:
        raise ValueError("focal reports require --n >= 3")
    _require_dimension_cap(args.n)
    if args.case == "i":
        branch = classifier.solve_case_one()
        profile = classifier.branch_profile(branch, args.n, m1=args.k)
        r = args.r if args.r is not None else jacobi.EXCEPTIONAL_RADIUS
    else:
        if args.lambda3 is None:
            raise ValueError("focal --case ii requires --lambda3")
        if args.k is not None:
            raise ValueError("focal --k sets the carrier multiplicity of --case i only")
        outcome = classifier.solve_case_two(args.lambda3)
        if outcome.branch is None:
            return (
                {
                    "case": "ii",
                    "lambda3": _tagged(args.lambda3),
                    "result": None,
                    "reason": outcome.reason,
                },
                0,
            )
        branch = outcome.branch
        profile = classifier.branch_profile(branch, args.n)
        r = args.r if args.r is not None else 2.0 * math.atanh(2.0 * branch.lambda3)
    focal = jacobi.transversal_map(profile, r)
    doc = {
        "case": args.case,
        "n": args.n,
        "r": _tagged(r),
        "d_block": focal.d_block.tolist(),
        "det_d": focal.det_d,
        "kernel_dim": focal.kernel_dim,
        "rank": focal.rank,
        "image_codim": focal.image_codim,
        "singular_values": focal.singular_values.tolist(),
    }
    if focal.c_reason is not None:
        # kernel-reporting path: the carrier block cannot be inverted
        doc.update(
            {
                "c_block": None,
                "image_spectrum": None,
                "carrier_block": None,
                "reason": focal.c_reason,
            }
        )
        return doc, 0
    image = jacobi.image_shape_operator(focal)
    doc.update(
        {
            "c_block": focal.c_block.tolist(),
            "image_spectrum": [
                {"lambda": _tagged(lam), "mult": mult} for lam, mult in image.entries
            ],
            "carrier_block": image.carrier_block.tolist(),
        }
    )
    return doc, 0


def cmd_verify(args):
    results = verification.run_all(seed=args.seed, tolerance=args.tolerance)
    doc = {
        "seed": args.seed,
        "suites": [
            {
                "name": r.name,
                "passed": r.passed,
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "detail": r.detail,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
        # wall seconds per suite: the one part of the report that varies between runs
        "timings": {r.name: r.seconds for r in results},
    }
    return doc, 0 if doc["passed"] else 1


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _render_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _csv_rows(doc):
    if doc["command"] == "catalog":
        header = ["family", "n", "k", "r", "lambda", "mult"]
        rows = []
        for entry in doc["entries"]:
            r = entry["r"]["value"] if entry["r"] else ""
            for (lam, mult) in entry["profile"]:
                rows.append(
                    [entry["family"], entry["n"], entry["k"] or "", r, lam, mult]
                )
        return header, rows
    if doc["command"] == "sweep":
        values = ["lambda3", "lambda1", "lambda2", "b1sq", "b2sq"]
        # an excluded outcome has no curvatures or weights: their cells stay empty
        rows = [
            [out["case"]]
            + [out[key]["value"] if key in out else "" for key in values]
            + [out["reason"] or ""]
            for out in doc["outcomes"] + [doc["isolated"]]
        ]
        return ["case", *values, "reason"], rows
    if doc["command"] == "verify":
        header = ["suite", "passed", "max_residual", "tolerance"]
        rows = [
            [s["name"], s["passed"], s["max_residual"], s["tolerance"]]
            for s in doc["suites"]
        ]
        return header, rows
    raise ValueError(f"no CSV layout for command {doc['command']!r}")


def _render_csv(doc) -> str:
    header, rows = _csv_rows(doc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_table(doc) -> str:
    lines = []
    if doc["command"] == "catalog":
        for entry in doc["entries"]:
            profile = ", ".join(
                f"{lam:+.6f} x{mult}" for lam, mult in entry["profile"]
            )
            k = f" k={entry['k']}" if entry["k"] is not None else ""
            r = (
                f" r={entry['r']['value']:.6f}"
                if entry["r"] is not None
                else ""
            )
            hopf = "hopf" if entry["hopf"] else "non-hopf"
            lines.append(
                f"{entry['family']:<16}{k}{r}  g={entry['g']}  {hopf}  [{profile}]"
            )
        lines.extend(f"note: {note}" for note in doc["notes"])
    elif doc["command"] == "verify":
        for s in doc["suites"]:
            flag = "PASS" if s["passed"] else "FAIL"
            lines.append(
                f"[{flag}] {s['name']:<26} max residual {s['max_residual']:.3e} "
                f"(tol {s['tolerance']:.1e}) {s['detail']}"
            )
        lines.append("all suites passed" if doc["passed"] else "verification FAILED")
    elif doc["command"] in ("classify", "sweep", "focal"):
        lines.append(_render_json(doc))
    return "\n".join(lines)


def render(doc, fmt: str) -> str:
    if fmt == "json":
        return _render_json(doc)
    if fmt == "csv":
        return _render_csv(doc)
    return _render_table(doc)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _global_flags(**defaults) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument(
        "--seed",
        type=_seed,
        help="seed for randomised checks (env CHGEO_SEED overrides the default)",
    )
    flags.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv", "table"),
        help="output format (default: table)",
    )
    flags.set_defaults(**defaults)
    return flags


def build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand.  The
    # top-level parser holds their defaults (seed None means "not given");
    # each subparser repeats the flags with SUPPRESS, so an absent flag after
    # the subcommand leaves the value parsed before it.
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="chgeo",
        parents=[_global_flags(seed=None, fmt="table")],
        description="catalog and verification engine for homogeneous "
        "hypersurface geometry in complex hyperbolic space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_catalog = sub.add_parser(
        "catalog", parents=[common], help="list the homogeneous families"
    )
    p_catalog.add_argument("--n", type=int, required=True)
    p_catalog.add_argument(
        "--r",
        type=_finite_float,
        default=1.0,
        help=f"representative radius, 0 < r <= {jacobi.MAX_RADIUS:.4f}",
    )
    p_catalog.set_defaults(handler=cmd_catalog)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run every verification suite"
    )
    p_verify.add_argument("--tolerance", type=_finite_float, default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_classify = sub.add_parser(
        "classify", parents=[common], help="solve the constraint system"
    )
    p_classify.add_argument("--lambda3", type=_finite_float, default=None)
    p_classify.add_argument("--case", choices=("i", "ii"), default="ii")
    p_classify.set_defaults(handler=cmd_classify)

    p_focal = sub.add_parser("focal", parents=[common], help="transversal-map report")
    p_focal.add_argument("--case", choices=("i", "ii"), required=True)
    p_focal.add_argument("--n", type=int, default=3)
    p_focal.add_argument("--k", type=int, default=None)
    p_focal.add_argument("--lambda3", type=_finite_float, default=None)
    p_focal.add_argument("--r", type=_finite_float, default=None)
    p_focal.set_defaults(handler=cmd_focal)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="scan the parametric branch"
    )
    p_sweep.add_argument("--lo", type=_finite_float, required=True)
    p_sweep.add_argument("--hi", type=_finite_float, required=True)
    p_sweep.add_argument("--step", type=_finite_float, required=True)
    p_sweep.set_defaults(handler=cmd_sweep)
    return parser


def _resolve_seed(args) -> int:
    """The seed from --seed, else from CHGEO_SEED, else the default."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("CHGEO_SEED", str(verification.DEFAULT_SEED))
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"CHGEO_SEED {exc}") from None


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.seed = _resolve_seed(args)
        doc, code = args.handler(args)
        text = render({"schema": SCHEMA, "command": args.command, **doc}, args.fmt)
    except (ValueError, FocalPointError, np.linalg.LinAlgError) as exc:
        # OpenCaseError is a ValueError; FocalRadiusError a FocalPointError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``chgeo ... | head``).  Point
        # stdout at devnull so the flush at interpreter exit cannot raise
        # again; exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
