"""Import chgeo from the checkout's src/ in the self-tests, as run.py does in a run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
