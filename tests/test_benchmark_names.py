"""The benchmark looks up library names and checks library values; keep both alive.

``perfbench/spans.py`` wraps the functions listed in its ``LAYERS`` table
with ``getattr``, and the workloads reach into ``nmrsim`` modules by
attribute, so deleting or renaming one of those names would break only a
benchmark run.  Those tests read the harness sources without importing them.
Each workload that ``BENCHMARK.json`` gates is also set up from
``perfbench/workloads.py`` and run for one pass, so a library change that
moves a value an operation checks fails here, not only as failed operations
in a benchmark run.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers() -> dict:
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS table in perfbench/spans.py")


def _module_references() -> set:
    """``(module, name)`` for every ``nmrsim`` name the harness sources use."""
    refs = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {}  # local name -> nmrsim submodule
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "nmrsim":
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nmrsim."):
                refs.update((node.module[len("nmrsim."):], a.name) for a in node.names)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                refs.add((aliases[owner.id], node.attr))
            elif isinstance(owner, ast.Attribute) and getattr(owner.value, "id", None) == "nmrsim":
                refs.add((owner.attr, node.attr))
    return refs


@pytest.mark.parametrize("module, fns", sorted(_layers().items()))
def test_layer_functions_exist(module, fns):
    mod = importlib.import_module(f"nmrsim.{module}")
    for fn in fns:
        assert callable(getattr(mod, fn, None)), f"nmrsim.{module}.{fn}"


def test_harness_references_exist():
    refs = _module_references()
    assert ("repro", "check_against_baselines") in refs  # the scan finds attribute uses
    missing = [f"nmrsim.{m}.{n}" for m, n in sorted(refs) if not hasattr(importlib.import_module(f"nmrsim.{m}"), n)]
    assert not missing


def test_pauli_matrix_cache_statistics_exist():
    from nmrsim.tomography import pauli_matrix

    assert callable(pauli_matrix.cache_info)


def _workloads():
    """``perfbench/workloads.py``, loaded from its file under the name the harness imports it by."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATED = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_ops_pass_their_checks(workload, tmp_path):
    failed = {}
    for op in _workloads().SETUPS[workload](1, tmp_path).ops:
        if op.prepare:
            op.prepare()
        reason = op.check(op.run(None))
        if reason is not None:
            failed[op.label] = reason
    assert failed == {}
