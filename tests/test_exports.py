import importlib
import pkgutil

import chgeo

# chgeo.__main__ runs the CLI on import
MODULES = [m.name for m in pkgutil.iter_modules(chgeo.__path__) if m.name != "__main__"]


def test_every_exported_name_resolves():
    missing = [f"chgeo.{name}" for name in chgeo.__all__ if not hasattr(chgeo, name)]
    for name in MODULES:
        module = importlib.import_module(f"chgeo.{name}")
        missing += [f"chgeo.{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
