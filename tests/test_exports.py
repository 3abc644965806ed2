import ast
import importlib
import pkgutil
import re
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


def test_readme_names_every_tolerance_with_its_module_and_value():
    # every module-level *_TOL and *_GAP constant, as (module, value)
    in_code = {}
    for path in sorted(Path(chgeo.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", "")
                if re.fullmatch(r"[A-Z_]+_(TOL|GAP)", name):
                    in_code[name] = (path.stem, ast.literal_eval(node.value))
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("- The named tolerances:\n", 1)[1].split("\n- ", 1)[0]
    in_readme = {
        name: (module, float(value))
        for name, value, module in re.findall(r"^  - `(\w+)` = (\S+) \(`(\w+)`\)", listed, re.M)
    }
    assert in_readme == in_code


def test_every_named_tolerance_is_read():
    # a module-level *_TOL or *_GAP that nothing reads is a stale tolerance;
    # its own assignment, an import and an ``__all__`` entry are not reads
    defined, read = set(), set()
    for path in sorted(Path(chgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                name = getattr(node.targets[0], "id", "")
                if re.fullmatch(r"[A-Z_]+_(TOL|GAP)", name):
                    defined.add(f"{path.stem}.{name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted(q for q in defined if q.partition(".")[2] not in read) == []


def test_only_jacobi_mode_evaluates_the_jacobi_equation():
    # numpy's cosh, sinh, tanh and exp appear only in the one mode function, so
    # no second copy of the field can come back; the checks' math.* calls are
    # not covered
    functions = {"cosh", "sinh", "tanh", "exp"}
    found = set()
    for path in sorted(Path(chgeo.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        numpy_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "numpy"
        }
        for top in tree.body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                    if node.module.partition(".")[0] == "numpy" and any(
                        alias.name in functions for alias in node.names
                    ):
                        found.add(owner)
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr in functions
                    and isinstance(node.value, ast.Name)
                    and node.value.id in numpy_names
                ):
                    found.add(owner)
    assert sorted(found) == ["jacobi.jacobi_mode"]
