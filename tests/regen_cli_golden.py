"""Regenerate ``tests/data/cli_golden.json``, the goldens of the sweep, classify and focal commands.

Each golden is the JSON document of ``chgeo --format json ARGS`` for one
argument list of ``COMMANDS``, run in process with no ``CHGEO_SEED`` in
the environment.  Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_cli_golden.py

It prints each (command, field) that moved against the file, with each
moved float's old value, new value and move in ulp, then rewrites the
file.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from regen_verify_golden import print_moves

from chgeo import cli

GOLDENS = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = [
    ["sweep", "--lo", "-0.49", "--hi", "0.49", "--step", "0.01"],
    ["classify", "--lambda3", "0.2"],
    ["classify", "--case", "i"],
    ["classify", "--lambda3", "-0.3"],
    ["focal", "--case", "i", "--n", "4"],
    ["focal", "--case", "ii", "--n", "5", "--lambda3", "0.2"],
    # the focal image's edge point, next to the ellipse exclusion at lambda3 = -1/2
    ["focal", "--case", "ii", "--lambda3=-0.49999999"],
]


def document(args: list[str]) -> dict:
    """The JSON document of ``chgeo --format json *args``."""
    out = io.StringIO()
    env = {key: value for key, value in os.environ.items() if key != "CHGEO_SEED"}
    with mock.patch.dict(os.environ, env, clear=True), redirect_stdout(out):
        code = cli.run(["--format", "json", *args])
    if code != 0:
        raise RuntimeError(f"chgeo {' '.join(args)} exited {code}")
    return json.loads(out.getvalue())


def documents() -> list[dict]:
    """One {args, doc} per argument list of ``COMMANDS``, in that order."""
    return [{"args": args, "doc": document(args)} for args in COMMANDS]


def moved(old: list[dict], new: list[dict]) -> list[tuple]:
    """(command, field, old JSON, new JSON) of each value that differs; None where absent.

    A float's JSON is its shortest round-trip repr, so equal text is equal bits.
    """
    was, now = (
        {" ".join(case["args"]): case["doc"] for case in cases} for cases in (old, new)
    )
    out = []
    for command in sorted(was.keys() | now.keys()):
        a, b = was.get(command, {}), now.get(command, {})
        for field in sorted(a.keys() | b.keys()):
            texts = [json.dumps(doc[field]) if field in doc else None for doc in (a, b)]
            if texts[0] != texts[1]:
                out.append((command, field, *texts))
    return out


def main() -> None:
    old = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []
    new = documents()
    print_moves(moved(old, new), ("command", "field"))
    GOLDENS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(new)} documents to {GOLDENS}")


if __name__ == "__main__":
    main()
