import ast
import importlib
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import levywave

MODULES = [info.name for info in pkgutil.iter_modules(levywave.__path__)]


def test_exports_resolve_and_package_imports_are_exported():
    for name in MODULES:
        module = importlib.import_module(f"levywave.{name}")
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"levywave.{name}.__all__ lists missing {symbol!r}"

    tree = ast.parse(pathlib.Path(levywave.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        exported = importlib.import_module(f"levywave.{node.module}").__all__
        for alias in node.names:
            assert alias.name in exported, f"{alias.name!r} is not in levywave.{node.module}.__all__"


def test_readme_library_example_runs():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library layout", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = pathlib.Path(levywave.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.split()
    assert len(lines) == 1 and math.isfinite(float(lines[0])), done.stdout
