"""Every eigen-solve in the package goes through core's helpers, and every read-only mark through ``core._freeze``.

``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the Hermitian part, written
``(a + a.conj().T) / 2`` or ``a / 2 + a.conj().T / 2``, may appear only
inside them, so a new call site cannot skip the finiteness check, the
``NumericalFailureError`` mapping or a state's stored spectrum.  The
hermiticity defect ``a - a.conj().T`` and the trace of an array (not of a
product) may appear only in ``core._trace_and_defect``, so validation and
both projections measure one way.  ``setflags`` may appear only inside
``_freeze``.  No module raises a bare ``ValueError``, which the CLI would not
map to an exit code, and only ``core`` defines ``MAX_QUBITS``.
"""

import ast
from pathlib import Path

import nmrsim

OWNERS = {("core", "_eigh"), ("core", "_eigvalsh"), ("core", "_hermitian_part")}
MEASURED = ("trace", "hermiticity defect")


def _is_op(node, op) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def _is_hermitian_part(node) -> bool:
    if _is_op(node, ast.Div) and _is_op(node.left, ast.Add):  # (a + a^dag) / 2
        left, right = node.left.left, node.left.right
    elif _is_op(node, ast.Add) and _is_op(node.left, ast.Div) and _is_op(node.right, ast.Div):  # a / 2 + a^dag / 2
        left, right = node.left.left, node.right.left
    else:
        return False
    left, right = ast.unparse(left), ast.unparse(right)
    return right in (f"{left}.conj().T", f"{left}.T.conj()")


def _is_hermiticity_defect(node) -> bool:
    if not _is_op(node, ast.Sub):  # a - a^dag or a^dag - a
        return False
    left, right = ast.unparse(node.left), ast.unparse(node.right)
    return any(y in (f"{x}.conj().T", f"{x}.T.conj()") for x, y in ((left, right), (right, left)))


def _is_trace_read(node) -> bool:
    # ``a.trace()`` or ``np.trace(a)``; the trace of a product (purity, overlaps) reads no checked array's trace
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "trace"):
        return False
    return ast.unparse(node.func.value) != "np" or not (node.args and _is_op(node.args[0], ast.MatMult))


def _owned_sites(module: str, tree: ast.AST, where: str = "") -> set[tuple[str, str, str]]:
    sites = set()
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh", "setflags"):
            sites.add((module, where, node.attr))
        elif _is_hermitian_part(node):
            sites.add((module, where, "hermitian part"))
        elif _is_hermiticity_defect(node):
            sites.add((module, where, "hermiticity defect"))
        elif _is_trace_read(node):
            sites.add((module, where, "trace"))
        sites |= _owned_sites(module, node, inner)
    return sites


def _package_trees() -> dict[str, ast.AST]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(Path(nmrsim.__file__).parent.glob("*.py"))}


def _package_sites() -> set[tuple[str, str, str]]:
    sites = set()
    for module, tree in _package_trees().items():
        sites |= _owned_sites(module, tree)
    return sites


def test_eigen_solves_live_in_core_helpers():
    sites = {site for site in _package_sites() if site[2] not in ("setflags", *MEASURED)}
    assert {(module, where) for module, where, _ in sites} == OWNERS, sorted(sites)


def test_trace_and_defect_are_measured_only_in_core_helper():
    sites = {site for site in _package_sites() if site[2] in MEASURED}
    assert sites == {("core", "_trace_and_defect", kind) for kind in MEASURED}, sorted(sites)


def test_measurement_scan_flags_both_defect_forms_and_method_traces():
    for src in ("m - m.conj().T", "a - a.T.conj()", "a.conj().T - a"):
        assert _is_hermiticity_defect(ast.parse(src, mode="eval").body), src
    assert not _is_hermiticity_defect(ast.parse("a.conj().T @ a - np.eye(2)", mode="eval").body)
    for src in ("a.trace()", "np.trace(a)"):
        assert _is_trace_read(ast.parse(src, mode="eval").body), src
    assert not _is_trace_read(ast.parse("np.trace(a @ b)", mode="eval").body)


def test_read_only_marks_live_in_core_freeze():
    sites = {site for site in _package_sites() if site[2] == "setflags"}
    assert sites == {("core", "_freeze", "setflags")}, sorted(sites)


def test_hermitian_part_scan_flags_both_forms():
    for src in ("(a + a.conj().T) / 2", "a / 2.0 + a.conj().T / 2.0", "(m + m.T.conj()) / 2.0"):
        assert _is_hermitian_part(ast.parse(src, mode="eval").body), src
    assert not _is_hermitian_part(ast.parse("a / 2 + b.conj().T / 2", mode="eval").body)


def test_no_bare_value_error_is_raised():
    raised = [
        (module, node.lineno)
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == "ValueError"
    ]
    assert raised == []


def test_qubit_limit_is_defined_only_in_core():
    defined = [
        module
        for module, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "MAX_QUBITS"
    ]
    assert defined == ["core"]
