"""Emit the homogeneous-family catalog over a range of dimensions.

Example:
    python scripts/run_catalog.py --min-n 2 --max-n 5 --out catalog.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from chgeo.cli import _MAX_DIMENSION, SCHEMA, _entry_doc
from chgeo.errors import FocalPointError
from chgeo.families import catalog


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--r", type=float, default=1.0, help="representative radius")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    args = parser.parse_args()
    if args.min_n < 2:
        parser.error(f"--min-n must be >= 2, got {args.min_n}")
    if args.max_n < args.min_n:
        parser.error(f"--max-n must be >= --min-n, got {args.max_n} < {args.min_n}")
    if args.max_n > _MAX_DIMENSION:
        parser.error(f"--max-n must be <= {_MAX_DIMENSION}, got {args.max_n}")
    if not (math.isfinite(args.r) and args.r > 0):
        parser.error(f"--r must be a finite number > 0, got {args.r}")

    documents = []
    for n in range(args.min_n, args.max_n + 1):
        try:
            entries, notes = catalog(n, r=args.r)
        except FocalPointError as exc:
            parser.error(str(exc))
        documents.append(
            {
                "n": n,
                "entries": [_entry_doc(e) for e in entries],
                "notes": notes,
            }
        )
    payload = json.dumps({"schema": SCHEMA, "catalogs": documents}, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
