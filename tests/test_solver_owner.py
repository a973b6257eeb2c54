"""Every eigen-solve in the package goes through core's helpers, and every read-only mark through ``core._freeze``.

``np.linalg.eigh``, ``np.linalg.eigvalsh`` and the Hermitian part, written
``(a + a.conj().T) / 2`` or ``a / 2 + a.conj().T / 2``, may appear only
inside them, so a new call site cannot skip the finiteness check, the
``NumericalFailureError`` mapping or a state's stored spectrum.  The
hermiticity defect ``a - a.conj().T`` and the trace of an array (not of a
product) may appear only in ``core._trace_and_defect``, so validation and
both projections measure one way.  ``setflags`` may appear only inside
``_freeze``.  No module raises a bare ``ValueError``, which the CLI would not
map to an exit code, and only ``core`` defines ``MAX_QUBITS``.  Every
filesystem call sits in ``serialize.load_json`` or in a ``with _writing(...)``
block, so the OS refusing a read or a write is a typed error.  No function
hands one of its parameters, and no ``__post_init__`` one of its fields,
straight to ``np.array`` or ``np.asarray``: caller data becomes numbers only
in ``core._numbers``, so one rule decides what counts as a number.  An
``isinstance`` against a package type sits only in the three functions that
dispatch on a state or an array; every guard on a package-typed argument goes
through ``core._expect``.  Each state type has one builder: a ``DensityMatrix``
is constructed only in ``core._checked_density`` and ``core.evolve``, so every
state carries its eigenpairs, a ``PureState`` only in ``core.pure_state`` and a
``UnitaryOperator`` only in ``core.validate_unitary``; each of those constructor
calls is the direct argument of ``core._seal``, so every instance a builder
returns carries the mark that ``core._expect`` requires.
"""

import ast
from pathlib import Path

import nmrsim

OWNERS = {("core", "_eigh"), ("core", "_eigvalsh"), ("core", "_hermitian_part")}
MEASURED = ("trace", "hermiticity defect")
FILESYSTEM_CALLS = ("read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "open")
ARRAY_CALLS = ("np.array", "np.asarray", "np.asanyarray")
# The rule itself, and the wire-format side: ``_parse_part`` and ``_complex_array`` convert rows that
# ``serialize._require_numbers`` has already checked.
NUMBERS_OWNERS = {
    ("core", "_numbers"),
    ("serialize", "_parse_part"),
    ("serialize", "_complex_array"),
}
PACKAGE_TYPES = {
    "DensityMatrix",
    "PureState",
    "UnitaryOperator",
    "PauliExpectationSet",
    "ShotNoiseConfig",
    "EnsembleHistory",
    "PopulationVector",
    "ValidationProfile",
}
BUILDERS = {
    ("core", "_checked_density", "DensityMatrix"),
    ("core", "evolve", "DensityMatrix"),
    ("core", "pure_state", "PureState"),
    ("core", "validate_unitary", "UnitaryOperator"),
}
# ``core._expect`` checks against the type it is handed, so a guard that names a package type here is not it.
TYPE_CHECKERS = {
    ("core", "_eigh"),
    ("tomography", "closest_physical_state"),
}


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


def _unguarded_io(module: str, tree: ast.AST, where: str = "") -> list[tuple[str, str, str]]:
    """Filesystem calls outside ``serialize.load_json`` and outside every ``with _writing(...)`` block."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.With) and any(ast.unparse(i.context_expr).startswith("_writing(") for i in node.items):
            continue
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if (module, inner) == ("serialize", "load_json"):
            continue
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if name in FILESYSTEM_CALLS:
                found.append((module, where, name))
        found += _unguarded_io(module, node, inner)
    return found


def test_filesystem_calls_are_typed_where_they_happen():
    found = [site for module, tree in _package_trees().items() for site in _unguarded_io(module, tree)]
    assert found == []


def test_io_scan_flags_unguarded_calls_only():
    tree = ast.parse("def f(p):\n    open(p)\n    p.mkdir()\n    with _writing(p) as q:\n        q.write_text('')")
    assert _unguarded_io("m", tree) == [("m", "f", "open"), ("m", "f", "mkdir")]


def _unchecked_conversions(module: str, tree: ast.AST) -> list[tuple[str, str, str]]:
    """Array calls on a parameter of the enclosing function, or on a field in a ``__post_init__``."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or (module, fn.name) in NUMBERS_OWNERS:
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ARRAY_CALLS and node.args:
                arg = ast.unparse(node.args[0])
                if arg in params or (fn.name == "__post_init__" and arg.startswith("self.")):
                    found.append((module, fn.name, arg))
    return found


def test_caller_data_becomes_numbers_only_in_core():
    found = [site for module, tree in _package_trees().items() for site in _unchecked_conversions(module, tree)]
    assert found == []


def test_numbers_scan_flags_unguarded_conversions_only():
    src = (
        "def f(m, k):\n    a = np.array(m, dtype=complex)\n    b = np.asarray(k + 1)\n    c = _numbers(k, float, 'k')\n"
        "class C:\n    def __post_init__(self):\n        v = np.asarray(self.values)\n"
        "def _numbers(x, dtype, what):\n    return np.array(x, order='C')"
    )
    expected = [("core", "f", "m"), ("core", "__post_init__", "self.values")]
    assert _unchecked_conversions("core", ast.parse(src)) == expected


def _type_checks(module: str, tree: ast.AST, where: str = "") -> set[tuple[str, str]]:
    """``(module, function)`` of every ``isinstance`` call against a package type, by name or attribute."""
    sites = set()
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            if names & PACKAGE_TYPES:
                sites.add((module, where))
        sites |= _type_checks(module, node, inner)
    return sites


def test_package_types_are_checked_only_by_the_guard_and_the_dispatch_sites():
    found = set().union(*(_type_checks(module, tree) for module, tree in _package_trees().items()))
    assert found == TYPE_CHECKERS


def test_type_check_scan_flags_package_types_only():
    src = (
        "def f(x):\n    if not isinstance(x, (int, PureState)):\n        raise TypeError\n"
        "def g(x):\n    return isinstance(x, core.DensityMatrix)\n"
        "def h(x):\n    return isinstance(x, (dict, np.ndarray))"
    )
    assert _type_checks("m", ast.parse(src)) == {("m", "f"), ("m", "g")}


def _constructed(node) -> str | None:
    """The state type a call constructs, by name or attribute, or ``None``."""
    if isinstance(node, ast.Call):
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
        if name in {kind for _, _, kind in BUILDERS}:
            return name
    return None


def _constructions(module: str, tree: ast.AST, where: str = "") -> set[tuple[str, str, str]]:
    """``(module, function, type)`` of every call that constructs a state type."""
    sites = set()
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else where
        if kind := _constructed(node):
            sites.add((module, where, kind))
        sites |= _constructions(module, node, inner)
    return sites


def _unsealed(tree: ast.AST) -> list[str]:
    """Every constructor call of a state type that is not the direct argument of ``_seal`` or ``core._seal``."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and node.args]
    sealed = {id(node.args[0]) for node in calls if ast.unparse(node.func) in ("_seal", "core._seal")}
    return [ast.unparse(node) for node in ast.walk(tree) if _constructed(node) and id(node) not in sealed]


def test_each_state_type_is_constructed_only_by_its_builder():
    found = set().union(*(_constructions(module, tree) for module, tree in _package_trees().items()))
    assert found == BUILDERS


def test_construction_scan_flags_a_state_built_outside_its_builder():
    src = (
        "def pure_state(v):\n    return PureState(v, len(v))\n"
        "def density_from_pure(psi):\n    return core.DensityMatrix(psi.projector(), psi.dim, 1)\n"
        "def g(rho):\n    return isinstance(rho, DensityMatrix)"
    )
    assert _constructions("core", ast.parse(src)) == {
        ("core", "pure_state", "PureState"),
        ("core", "density_from_pure", "DensityMatrix"),
    }


def test_each_state_type_construction_is_sealed():
    found = [site for tree in _package_trees().values() for site in _unsealed(tree)]
    assert found == []


def test_seal_scan_flags_a_state_built_without_the_mark():
    src = (
        "def pure_state(v):\n    return PureState(v, len(v))\n"
        "def validate_unitary(m):\n    return _seal(UnitaryOperator(m, len(m)))\n"
        "def evolve(m, s):\n    return core._seal(core.DensityMatrix(m, 4, 2, s))\n"
        "def density_from_pure(psi):\n    return _seal(_freeze(DensityMatrix(psi.projector(), 4, 2, None)))\n"
    )
    assert _unsealed(ast.parse(src)) == ["PureState(v, len(v))", "DensityMatrix(psi.projector(), 4, 2, None)"]
