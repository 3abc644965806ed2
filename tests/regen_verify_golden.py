"""Regenerate ``tests/data/verify_golden.json``, the verify report's goldens.

Each golden is the document of ``chgeo --seed S --format json verify``
without its ``timings``, the one part that varies between runs, one per
seed of ``SEEDS``.  Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_verify_golden.py

It prints each (seed, suite, field) that moved against the file, then
rewrites the file.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from chgeo import cli, verification

GOLDENS = Path(__file__).parent / "data" / "verify_golden.json"
SEEDS = [7, 11, verification.DEFAULT_SEED]


def report(seed: int) -> dict:
    """The verify JSON document at ``seed``, less its ``timings``."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.run(["--seed", str(seed), "--format", "json", "verify"])
    doc = json.loads(out.getvalue())
    del doc["timings"]
    return doc


def reports() -> list[dict]:
    """One report per seed of ``SEEDS``, in that order."""
    return [report(seed) for seed in SEEDS]


def _fields(doc: dict) -> dict:
    """Each (suite, field) of a report to the JSON of its value; top-level fields under suite "-".

    A float's JSON is its shortest round-trip repr, so equal text is equal bits.
    """
    out = {("-", key): json.dumps(value) for key, value in doc.items() if key != "suites"}
    for suite in doc["suites"]:
        out.update({(suite["name"], key): json.dumps(value) for key, value in suite.items()})
    return out


def moved(old: list[dict], new: list[dict]) -> list[tuple]:
    """The (seed, suite, field) of each value that differs or that only one side holds."""
    was, now = ({d["seed"]: _fields(d) for d in docs} for docs in (old, new))
    out = []
    for seed in sorted(was.keys() | now.keys()):
        a, b = was.get(seed, {}), now.get(seed, {})
        out += [(seed, *key) for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return out


def main() -> None:
    old = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []
    new = reports()
    for seed, suite, field in moved(old, new):
        print(f"moved: seed = {seed}, suite = {suite}, field = {field}")
    GOLDENS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} reports to {GOLDENS}")


if __name__ == "__main__":
    main()
