import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import chgeo

# chgeo.__main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(chgeo.__path__) if m.name != "__main__"]


def test_every_exported_name_resolves():
    missing = [f"chgeo.{name}" for name in chgeo.__all__ if not hasattr(chgeo, name)]
    for name in MODULES:
        module = importlib.import_module(f"chgeo.{name}")
        missing += [f"chgeo.{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_runtime_imports_are_numpy_and_the_standard_library():
    # pyproject.toml declares numpy as the only runtime dependency
    foreign = []
    for path in sorted(Path(chgeo.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in {"numpy", "chgeo", *sys.stdlib_module_names}
            ]
    assert foreign == []
