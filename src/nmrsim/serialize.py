"""Repo-wide JSON wire format for complex matrices.

Schema: ``{"rows": int, "cols": int, "re": [[float, ...], ...],
"im": [[float, ...], ...]}``, row-major.  Ragged rows are rejected.  Matrix
rows and history amplitudes (:mod:`nmrsim.ensemble`) share one rule for JSON
number lists, ``_require_numbers``, and one construction of their complex
values, ``_complex_array``.  ``_to_json`` writes the package's JSON output.
"""

import contextlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from nmrsim.core import _is_integer, _numbers, _real
from nmrsim.errors import BadArgumentError, ParseError

__all__ = ["matrix_to_dict", "matrix_from_dict", "load_matrix", "save_matrix", "load_json"]
_quote = json.encoder.encode_basestring_ascii  # json.dumps' C quoting of a string, ASCII only


def matrix_to_dict(m) -> dict:
    a = _numbers(m, complex, "matrix entries")
    if a.ndim != 2:
        raise ParseError(f"expected a 2-d matrix, got {a.ndim}-d data")
    # load_matrix refuses a matrix with no rows or columns, and NaN and Infinity, which json.dumps would write
    if not (a.size and np.isfinite(a).all()):
        raise BadArgumentError(f"matrix entries must be finite and non-empty to be written as JSON, got {a.shape}")
    return {"rows": a.shape[0], "cols": a.shape[1], "re": a.real.tolist(), "im": a.imag.tolist()}


def _require_number(x, where: str) -> float:
    """``x`` as a float if it is a finite number by ``core._real``'s rule, else ``ParseError``."""
    v = _real(x, None)
    if v is None:
        raise ParseError(f"{where}: expected a number, got {type(x).__name__}")
    if not math.isfinite(v):
        raise ParseError(f"{where}: non-finite value {x!r}")
    return v


def _finite_numbers(values: list) -> bool:
    """Whether every entry is a finite int or float, not a bool: one pass over the types and one over the values."""
    with contextlib.suppress(OverflowError):  # a JSON integer beyond the double range
        return set(map(type, values)) <= {int, float} and all(map(math.isfinite, values))
    return False


def _require_numbers(values: list, where: str) -> None:
    """Raise :func:`_require_number`'s ``ParseError`` for the first entry of ``values`` that is not a finite number."""
    if not _finite_numbers(values):
        for x in values:
            _require_number(x, where)


def _parse_part(part, name: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(part, list) or len(part) != rows:
        raise ParseError(f'"{name}" must be a list of {rows} rows')
    # a well-formed part is checked in one pass over all its entries; only another row by row, to name its first fault
    if not (set(map(type, part)) == {list} and set(map(len, part)) == {cols}
            and _finite_numbers(list(itertools.chain.from_iterable(part)))):
        for i, row in enumerate(part):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(f'"{name}" row {i} is ragged: expected {cols} entries')
            _require_numbers(row, f'"{name}"[{i}]')
    return np.array(part, dtype=float)


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    missing = {"rows", "cols", "re", "im"} - obj.keys()
    if missing:
        raise ParseError(f"matrix document missing keys: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    for label, v in (("rows", rows), ("cols", cols)):
        if not (_is_integer(v) and v >= 1):
            raise ParseError(f'"{label}" must be a positive integer')
    return _complex_array(_parse_part(obj["re"], "re", rows, cols), _parse_part(obj["im"], "im", rows, cols))


def _complex_array(re, im) -> np.ndarray:
    """``re + i im``, the imaginary part assigned, not added as ``1j * im``, so the sign of a zero survives."""
    z = np.asarray(re, dtype=float).astype(complex)
    z.imag = im
    return z


def load_json(path) -> object:
    """The decoded document at ``path``; an unreadable file or an undecodable document is a ``ParseError``."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError, TypeError) as exc:  # not UTF-8, a NUL byte in the path, or not a path
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, an over-long integer, or deep nesting
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(load_json(path))


@contextlib.contextmanager
def _writing(path):
    """Yield ``Path(path)``; the OS refusing a write in the block is a ``BadArgumentError`` naming ``path``."""
    try:
        yield Path(path)
    except (OSError, ValueError, TypeError) as exc:  # a NUL byte in the path, or not a path
        raise BadArgumentError(f"cannot write {str(path)!r}: {exc}") from exc


def _to_json(o, nl: str = "\n") -> str:
    """``json.dumps(o, indent=2, default=matrix_to_dict)`` byte for byte, for str-keyed dicts, lists, tuples,
    str, int, bool, None, float and arrays: the stdlib indents in pure Python, one call per float of a matrix."""
    if isinstance(o, str):
        return _quote(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return float.__repr__(o) if math.isfinite(o) else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    i = nl + "  "
    if isinstance(o, (list, tuple)):
        return "[" + i + ("," + i).join([_to_json(v, i) for v in o]) + nl + "]" if o else "[]"
    if isinstance(o, dict):
        items = [f"{_quote(k)}: {_to_json(v, i)}" for k, v in o.items()]
        return "{" + i + ("," + i).join(items) + nl + "}" if o else "{}"
    d = matrix_to_dict(o)  # json.dumps' default; its rows are non-empty lists of finite floats, each one join
    j, k = i + "  ", i + "    "
    re, im = ("[" + j + ("," + j).join(["[" + k + ("," + k).join(map(float.__repr__, row)) + j + "]" for row in part])
              + i + "]" for part in (d["re"], d["im"]))
    return f'{{{i}"rows": {d["rows"]},{i}"cols": {d["cols"]},{i}"re": {re},{i}"im": {im}{nl}}}'


def save_matrix(m, path) -> None:
    text = _to_json(_numbers(m, complex, "matrix entries")) + "\n"  # an array, so written as a matrix
    with _writing(path) as p:
        p.write_text(text)
