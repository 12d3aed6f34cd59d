import ast
import importlib
import pathlib
import pkgutil

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
