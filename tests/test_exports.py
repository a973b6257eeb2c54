"""Each module's ``__all__`` names live objects, and the package root re-exports exactly those lists.

A deletion that leaves a name in ``__all__`` fails here rather than at a
user's ``from nmrsim import *``, and a hand-kept name list in
``nmrsim/__init__.py`` fails the re-export scan.  README's library tour runs
against the root imports.
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
    # the root re-exports by ``from nmrsim.<module> import *`` only, so each module's ``__all__`` is the one list
    tree = ast.parse(Path(nmrsim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports  # the scan finds the re-exports
    not_star = [
        ast.unparse(node)
        for node in imports
        if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nmrsim."))
        or [alias.name for alias in node.names] != ["*"]
    ]
    assert not_star == []
    assert [node.module for node in imports if not hasattr(importlib.import_module(node.module), "__all__")] == []


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    exec(tour, ns)
    assert ns["extract_epsilon"](ns["rho"], ns["target"]).epsilon == pytest.approx(0.25, abs=1e-12)
    assert ns["critical_epsilon"](ns["target"]) == pytest.approx(1 / 3, abs=1e-12)
    assert ns["is_separable_2q"](ns["rho"]).is_ppt
    assert ns["np"].allclose(ns["recon"], ns["rho"].matrix)
    assert ns["report"].max_dev_vs_printed_th == pytest.approx(5e-5, abs=1e-12)
