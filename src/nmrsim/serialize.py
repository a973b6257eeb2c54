"""Repo-wide JSON wire format for complex matrices.

Schema: ``{"rows": int, "cols": int, "re": [[float, ...], ...],
"im": [[float, ...], ...]}``, row-major.  Ragged rows are rejected.  Matrix
rows and history amplitudes (:mod:`nmrsim.ensemble`) share one rule for JSON
number lists, :func:`require_numbers`, and one construction of their complex
values, ``_complex_array``.
"""

import contextlib
import json
import math
from pathlib import Path

import numpy as np

from nmrsim.errors import BadArgumentError, ParseError

__all__ = ["require_number", "require_numbers", "matrix_to_dict", "matrix_from_dict", "load_matrix", "save_matrix",
           "load_json"]


def matrix_to_dict(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ParseError(f"expected a 2-d matrix, got {a.ndim}-d data")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def require_number(x, where: str) -> float:
    """``x`` as a float if it is a finite JSON number (not a bool), else ``ParseError``."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{where}: expected a number, got {type(x).__name__}")
    try:
        v = float(x)
    except OverflowError:  # a JSON integer beyond the double range
        v = math.inf
    if not math.isfinite(v):
        raise ParseError(f"{where}: non-finite value {x!r}")
    return v


def require_numbers(values: list, where: str) -> None:
    """Raise :func:`require_number`'s ``ParseError`` for the first entry of ``values`` that is not a finite JSON number.

    Only a list that fails one pass over the types and one over the values is checked entry by entry.
    """
    try:
        if set(map(type, values)) <= {int, float} and all(map(math.isfinite, values)):
            return
    except OverflowError:  # a JSON integer beyond the double range
        pass
    for x in values:
        require_number(x, where)


def _parse_part(part, name: str, rows: int, cols: int) -> np.ndarray:
    if not isinstance(part, list) or len(part) != rows:
        raise ParseError(f'"{name}" must be a list of {rows} rows')
    for i, row in enumerate(part):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f'"{name}" row {i} is ragged: expected {cols} entries')
        require_numbers(row, f'"{name}"[{i}]')
    return np.array(part, dtype=float)


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    missing = {"rows", "cols", "re", "im"} - obj.keys()
    if missing:
        raise ParseError(f"matrix document missing keys: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    for label, v in (("rows", rows), ("cols", cols)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
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
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise BadArgumentError(f"cannot write {str(path)!r}: {exc}") from exc


def save_matrix(m, path) -> None:
    text = json.dumps(matrix_to_dict(m), indent=2) + "\n"
    with _writing(path) as p:
        p.write_text(text)
