"""Regenerate ``tests/data/verify_golden.json``, the verify report's goldens.

Each golden is the document of ``chgeo --seed S --format json verify``
without its ``timings``, the one part that varies between runs, one per
seed of ``SEEDS``.  Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_verify_golden.py

It prints each (seed, suite, field) that moved against the file, with
each moved float's old value, new value and move in ulp, then rewrites
the file.
"""

import io
import json
import math
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
    """(seed, suite, field, old JSON, new JSON) of each value that differs; None where absent."""
    was, now = ({d["seed"]: _fields(d) for d in docs} for docs in (old, new))
    out = []
    for seed in sorted(was.keys() | now.keys()):
        a, b = was.get(seed, {}), now.get(seed, {})
        keys = sorted(a.keys() | b.keys())
        out += [(seed, *key, a.get(key), b.get(key)) for key in keys if a.get(key) != b.get(key)]
    return out


def ulp_moves(old, new, at: str = "") -> list[str]:
    """Each float that differs between two JSON values, as "[at: ]old -> new (k ulp)".

    Lists of one length and dicts are walked in step, so ``at`` is the
    float's path; values of other types or shapes give no line.  The move
    is (new - old) / math.ulp(old).
    """
    if isinstance(old, float) and isinstance(new, float):
        if json.dumps(old) == json.dumps(new):
            return []
        move = f"{old!r} -> {new!r} ({(new - old) / math.ulp(old):+.4g} ulp)"
        return [f"{at}: {move}" if at else move]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    elif isinstance(old, dict) and isinstance(new, dict):
        pairs = [(f".{key}", old[key], new[key]) for key in sorted(old.keys() & new.keys())]
    else:
        return []
    return [line for key, a, b in pairs for line in ulp_moves(a, b, at + key)]


def print_moves(moves, names) -> None:
    """Print each move of a ``moved`` list, its key named by ``names``, then its float moves."""
    for *key, old, new in moves:
        print("moved: " + ", ".join(f"{name} = {value}" for name, value in zip(names, key)))
        if old is not None and new is not None:
            for line in ulp_moves(json.loads(old), json.loads(new)):
                print(f"    {line}")


def main() -> None:
    old = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []
    new = reports()
    print_moves(moved(old, new), ("seed", "suite", "field"))
    GOLDENS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} reports to {GOLDENS}")


if __name__ == "__main__":
    main()
