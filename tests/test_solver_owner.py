"""Every eigen-solve in the package goes through core's helpers, and every read-only mark through ``core._freeze``.

``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the Hermitian part
``(a + a.conj().T) / 2`` may appear only inside them, so a new call site
cannot skip the finiteness check, the ``NumericalFailureError`` mapping or a
state's stored spectrum.  ``setflags`` may appear only inside ``_freeze``.
"""

import ast
from pathlib import Path

import nmrsim

OWNERS = {("core", "_eigh"), ("core", "_eigvalsh"), ("core", "_hermitian_part")}


def _is_hermitian_part(node) -> bool:
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and isinstance(node.left, ast.BinOp)):
        return False
    left, right = ast.unparse(node.left.left), ast.unparse(node.left.right)
    return isinstance(node.left.op, ast.Add) and right in (f"{left}.conj().T", f"{left}.T.conj()")


def _owned_sites(module: str, tree: ast.AST, where: str = "") -> set[tuple[str, str, str]]:
    sites = set()
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "setflags"):
            sites.add((module, where, node.attr))
        elif _is_hermitian_part(node):
            sites.add((module, where, "hermitian part"))
        sites |= _owned_sites(module, node, inner)
    return sites


def _package_sites() -> set[tuple[str, str, str]]:
    sites = set()
    for path in sorted(Path(nmrsim.__file__).parent.glob("*.py")):
        sites |= _owned_sites(path.stem, ast.parse(path.read_text()))
    return sites


def test_eigen_solves_live_in_core_helpers():
    sites = {site for site in _package_sites() if site[2] != "setflags"}
    assert {(module, where) for module, where, _ in sites} == OWNERS, sorted(sites)


def test_read_only_marks_live_in_core_freeze():
    sites = {site for site in _package_sites() if site[2] == "setflags"}
    assert sites == {("core", "_freeze", "setflags")}, sorted(sites)
