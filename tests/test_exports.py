"""Each module's ``__all__`` names live objects, and the package re-exports only exported names.

A deletion that leaves a name in ``__all__``, or in ``nmrsim/__init__.py``,
fails here rather than at a user's ``from nmrsim import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nmrsim

MODULES = sorted(m.name for m in pkgutil.iter_modules(nmrsim.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_exist(module):
    mod = importlib.import_module(f"nmrsim.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_reexports_are_exported():
    tree = ast.parse(Path(nmrsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.module.startswith("nmrsim.")]
    assert imports  # the scan finds the re-exports
    stale = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if alias.name not in importlib.import_module(node.module).__all__
    ]
    assert stale == []
