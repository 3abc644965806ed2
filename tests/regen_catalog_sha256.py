"""Regenerate ``tests/data/catalog_sha256.json``, the catalog's hash goldens.

Each golden is the SHA-256 of the sorted-key JSON of ``{entries, notes}``
from ``families.catalog(n, r)``, one per (n, r) of ``DIMENSIONS`` x
``RADII``.  Run from the root of a checkout:

    PYTHONPATH=src python tests/regen_catalog_sha256.py

It prints each (n, r) whose hash moved against the file, then rewrites
the file.
"""

import hashlib
import json
from pathlib import Path

from chgeo import families

GOLDENS = Path(__file__).parent / "data" / "catalog_sha256.json"
DIMENSIONS = [*range(2, 17), 32, 64, 100]
RADII = [0.3, 0.7, 1.0, 1.3, 2.2, 5.0, 13.5]


def catalog_sha256(n: int, r: float) -> str:
    """SHA-256 of the sorted-key JSON of catalog(n, r)'s entries and notes."""
    entries, notes = families.catalog(n, r)
    doc = {"entries": [families.entry_to_dict(e) for e in entries], "notes": notes}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def hashes() -> list[dict]:
    """One {n, r, sha256} per case, n-major."""
    return [{"n": n, "r": r, "sha256": catalog_sha256(n, r)} for n in DIMENSIONS for r in RADII]


def moved(old: list[dict], new: list[dict]) -> list[tuple]:
    """The (n, r) of each case whose hash differs or that only one list holds."""
    was, now = ({(c["n"], c["r"]): c["sha256"] for c in cases} for cases in (old, new))
    return sorted(case for case in was.keys() | now.keys() if was.get(case) != now.get(case))


def main() -> None:
    old = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else []
    new = hashes()
    for n, r in moved(old, new):
        print(f"moved: n = {n}, r = {r}")
    GOLDENS.write_text("[\n" + ",\n".join(json.dumps(case) for case in new) + "\n]\n")
    print(f"wrote {len(new)} hashes to {GOLDENS}")


if __name__ == "__main__":
    main()
