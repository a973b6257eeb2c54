import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from nmrsim.ensemble import history_from_dict
from nmrsim.errors import BadArgumentError, NmrsimError, ParseError
from nmrsim.repro import load_baselines
from nmrsim.serialize import (
    _parse_part,
    _require_number,
    _to_json,
    load_json,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    save_matrix,
)

GOLDEN = Path(__file__).parent / "golden"

# Everything json.loads can return.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_dict_round_trip():
    m = np.array([[1.5, -2j], [0.25 + 1j, 0]])
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)


@given(
    arrays(
        complex,
        array_shapes(min_dims=2, max_dims=2, max_side=5),
        elements=st.complex_numbers(allow_nan=False, allow_infinity=False),
    )
)
@example(np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)]]))
def test_dict_round_trip_is_bit_exact(m):
    assert matrix_from_dict(matrix_to_dict(m)).tobytes() == m.tobytes()


def _dict_like(key_sets):
    # arbitrary JSON objects, plus ones carrying the keys a parser looks for
    return json_values | st.fixed_dictionaries({k: json_values for k in key_sets})


@given(_dict_like(("rows", "cols", "re", "im")))
def test_matrix_parser_raises_only_documented_errors(obj):
    try:
        matrix_from_dict(obj)
    except (NmrsimError, ValueError):
        pass


@given(
    _dict_like(("label", "members"))
    | st.fixed_dictionaries({"label": st.text(), "members": st.lists(_dict_like(("weight", "re", "im")), max_size=3)})
)
def test_history_parser_raises_only_documented_errors(obj):
    try:
        history_from_dict(obj)
    except (NmrsimError, ValueError):
        pass


def test_rejects_ragged_rows():
    doc = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)


def test_rejects_missing_keys():
    with pytest.raises(ParseError):
        matrix_from_dict({"rows": 1, "cols": 1, "re": [[1.0]]})


def test_rejects_wrong_row_count():
    doc = {"rows": 2, "cols": 1, "re": [[1.0]], "im": [[0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)


def _with_entry(part: str, value) -> dict:
    """A valid 2x2 document whose ``part`` has ``value`` at row 1, column 0."""
    doc = {"rows": 2, "cols": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    doc[part][1][0] = value
    return doc


def test_rejects_non_numeric_entries():
    for part in ("re", "im"):
        for value, kind in ((True, "bool"), ("one", "str"), (None, "NoneType"), ([0.5], "list")):
            with pytest.raises(ParseError) as exc:
                matrix_from_dict(_with_entry(part, value))
            assert str(exc.value) == f'"{part}"[1]: expected a number, got {kind}'


def test_rejects_non_finite():
    for part in ("re", "im"):
        for value in (float("nan"), float("inf"), -float("inf"), 10**400):  # the last overflows a double
            with pytest.raises(ParseError) as exc:
                matrix_from_dict(_with_entry(part, value))
            assert str(exc.value) == f'"{part}"[1]: non-finite value {value!r}'


def test_first_bad_entry_in_document_order_is_reported():
    # "re" before "im", rows in order, and a row's length before its entries
    doc = _with_entry("im", "one")
    doc["re"][1] = [0.0, float("nan")]
    doc["re"].append([1.0])
    with pytest.raises(ParseError, match=r'^"re"\[1\]: non-finite value nan$'):
        matrix_from_dict({**doc, "rows": 3})
    doc["re"][1] = [0.0, 0.5]
    with pytest.raises(ParseError, match='^"re" row 2 is ragged: expected 2 entries$'):
        matrix_from_dict({**doc, "rows": 3})


def _two_path_parse_part(part, name: str, rows: int, cols: int) -> np.ndarray:
    """The matrix-part parser before the JSON number-list rule had one implementation, kept as the oracle."""
    if not isinstance(part, list) or len(part) != rows:
        raise ParseError(f'"{name}" must be a list of {rows} rows')
    if all(isinstance(row, list) and len(row) == cols and set(map(type, row)) <= {int, float} for row in part):
        try:
            a = np.array(part, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(a).all():
                return a
    out = []
    for i, row in enumerate(part):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f'"{name}" row {i} is ragged: expected {cols} entries')
        out.append([_require_number(x, f'"{name}"[{i}]') for x in row])
    return np.array(out, dtype=float)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.sampled_from([0.0, -0.0])
_ENTRIES = _FINITE | st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, -(10**400), True, False, "0.5", None, [0.5],
     np.float64(0.25), np.float64(-0.0), np.float64(math.nan), np.float32(0.1), np.int64(3)]
)
# mostly well-formed 3-entry rows, so that whole parts parse often enough to compare their arrays
_ROWS = st.lists(_FINITE, min_size=3, max_size=3) | st.lists(_ENTRIES, min_size=2, max_size=4) | _ENTRIES


def _outcome(parse, part):
    try:
        a = parse(part, "re", 3, 3)
    except ParseError as exc:
        return str(exc)
    return a.dtype, a.shape, a.tobytes()


@given(st.lists(_ROWS, min_size=3, max_size=3) | st.lists(_ROWS, min_size=2, max_size=4) | _ENTRIES)
@example([[0.0, -0.0, 1], [-0.0, 2**63, -(2**70)], [np.float64(-0.0), 0.5, 3]])
@example([[0.5, 0.5, 0.5], [0.5, 0.5, 10**400], [0.5, 0.5]])
def test_parse_part_matches_the_two_path_oracle(part):
    # the same bit-identical array, or the same first error message, as the parser it replaced
    assert _outcome(_parse_part, part) == _outcome(_two_path_parse_part, part)


def _row_by_row_parse_part(part, name: str, rows: int, cols: int) -> np.ndarray:
    """The matrix-part parser that checked each row on its own, kept as the oracle of the one-pass check."""
    if not isinstance(part, list) or len(part) != rows:
        raise ParseError(f'"{name}" must be a list of {rows} rows')
    for i, row in enumerate(part):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f'"{name}" row {i} is ragged: expected {cols} entries')
        for x in row:
            _require_number(x, f'"{name}"[{i}]')
    return np.array(part, dtype=float)


def _json_list(items):
    return items.map(lambda texts: "[" + ", ".join(texts) + "]")


# JSON number tokens json.dumps writes, and tokens a part must refuse: non-numbers, nesting, an integer beyond the
# double range, a float literal that overflows to inf, and the NaN/Infinity tokens json.loads accepts
_GOOD_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers().map(str)
_BAD_TOKENS = st.sampled_from(
    ["true", "false", "null", '"0.5"', "[0.5]", "[]", "{}", "1" + "0" * 400, "-1" + "0" * 400, "1e400",
     "NaN", "Infinity", "-Infinity"]
)
# mostly well-formed 3x3 parts, so that whole documents parse often enough to compare their arrays
_ROW_TEXTS = (_json_list(st.lists(_GOOD_TOKENS, min_size=3, max_size=3))
              | _json_list(st.lists(_GOOD_TOKENS | _BAD_TOKENS, min_size=2, max_size=4)) | _BAD_TOKENS)
_PART_TEXTS = (_json_list(st.lists(_ROW_TEXTS, min_size=3, max_size=3))
               | _json_list(st.lists(_ROW_TEXTS, min_size=2, max_size=4)) | _BAD_TOKENS)


@given(_PART_TEXTS, _PART_TEXTS)
@example("[[0.5, -0.0, 1], [2, 3, 4], [5, 6, 7]]", "[[0, 0, 0], [0, 0, 0], [0, 0, 1e-320]]")
@example("[[0.5, 0.5, 0.5], [0.5, NaN, 0.5], [0.5, 0.5]]", "[[true, 0, 0]]")
@example("[[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]", "[[0, 0, 0], [0, [0], 0], [0, 0, 1%s]]" % ("0" * 400))
def test_one_pass_part_check_matches_the_row_by_row_rule(re_text, im_text):
    # a decoded document gives the same bit-identical arrays, or the same first error message, as checking each row
    doc = json.loads('{"re": %s, "im": %s}' % (re_text, im_text))

    def outcome(parse):
        try:
            return [(a.dtype, a.shape, a.tobytes()) for a in (parse(doc[k], k, 3, 3) for k in ("re", "im"))]
        except ParseError as exc:
            return str(exc)

    assert outcome(_parse_part) == outcome(_row_by_row_parse_part)


# Strings a placeholder scheme could have used as a matrix's marker must come out as strings.
_LABELS = st.text() | st.lists(
    st.sampled_from(["\x00", '"', "\\", "\u00e9", "\u03bb", "\U0001f600", "\u2028", "\n", "0", "1", "M", "_", "@"]),
    max_size=6,
).map("".join)
_ENTRIES = st.complex_numbers(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [complex(0.5, -0.0), complex(-0.0, -0.0), complex(5e-324, -1e308)]
)
_MATRICES = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(lambda s: arrays(complex, s, elements=_ENTRIES))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _LABELS
            | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]))
_PAYLOADS = st.recursive(
    _SCALARS | _MATRICES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_LABELS, children, max_size=4),
    max_leaves=12,
)


@given(_PAYLOADS)
@example({"label": "\x000\x00", "density": np.eye(2) / 2})
@example({"label": "\x00M0\x00", "members": [np.eye(1), "\x00M1\x00", {"\x00M0\x00": np.eye(2)}]})
@example(np.array([[complex(-0.0, -0.0)]]))
def test_json_writer_matches_json_dumps_byte_for_byte(payload):
    assert _to_json(payload) == json.dumps(payload, indent=2, default=matrix_to_dict)


def _with_arrays(doc):
    """``doc`` with every wire-format matrix replaced by its array."""
    if isinstance(doc, dict):
        if doc.keys() == {"rows", "cols", "re", "im"}:
            return matrix_from_dict(doc)
        return {k: _with_arrays(v) for k, v in doc.items()}
    return [_with_arrays(v) for v in doc] if isinstance(doc, list) else doc


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_json_writer_rewrites_every_golden_payload(path):
    text = path.read_text()
    payload = json.loads(text)
    assert _to_json(payload) + "\n" == text
    assert _to_json(_with_arrays(payload)) + "\n" == text


def test_rejects_bad_dimensions():
    doc = {"rows": 0, "cols": 1, "re": [], "im": []}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)
    doc = {"rows": True, "cols": 1, "re": [[1.0]], "im": [[0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)


def test_to_dict_rejects_non_matrix(tmp_path):
    # a write, not a parse: the argument is outside the domain, as with empty or non-finite data
    with pytest.raises(BadArgumentError, match="expected a 2-d matrix, got 1-d data") as exc:
        matrix_to_dict(np.array([1.0, 0.0]))
    assert isinstance(exc.value, ValueError)
    for m in (np.float64(0.5), np.zeros((2, 2, 2)), np.zeros(3)):
        with pytest.raises(BadArgumentError, match=f"got {np.ndim(m)}-d data"):
            matrix_to_dict(m)
        with pytest.raises(BadArgumentError, match=f"got {np.ndim(m)}-d data"):
            save_matrix(m, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("m", [[["x"]], [[True]], [[0.5, False], [0.0, 0.5]], [["0.5"]], [[None]]])
def test_writing_data_that_is_not_numbers_is_a_bad_argument(m, tmp_path):
    with pytest.raises(BadArgumentError, match="matrix entries"):
        matrix_to_dict(m)
    with pytest.raises(BadArgumentError, match="matrix entries"):
        save_matrix(m, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.5, -math.inf)], ids=["nan", "inf", "imag-inf"])
def test_writing_a_non_finite_entry_is_a_bad_argument(entry, tmp_path):
    m = [[0.5, 0.0], [0.0, entry]]
    with pytest.raises(BadArgumentError, match="must be finite"):
        matrix_to_dict(m)
    with pytest.raises(BadArgumentError, match="must be finite"):
        save_matrix(m, tmp_path / "m.json")
    assert not (tmp_path / "m.json").exists()


@given(arrays(complex, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4), elements=st.complex_numbers()))
@example(np.array([[complex(-0.0, math.nan)]]))
@example(np.zeros((0, 0), complex))  # load_matrix refuses "rows" or "cols" 0, so nothing empty may be written
@example(np.zeros((0, 2), complex))
@example(np.zeros((2, 0), complex))
def test_what_save_matrix_writes_load_matrix_reads_back_bit_exact(m):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        try:
            save_matrix(m, path)
        except BadArgumentError:
            assert not path.exists() and not (m.size and np.isfinite(m).all())
            return
        assert load_matrix(path).tobytes() == m.tobytes()


def test_rejects_non_object():
    with pytest.raises(ParseError):
        matrix_from_dict([1, 2, 3])


def test_load_matrix_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_matrix(tmp_path / "absent.json")


@pytest.mark.parametrize("path", [5, None, b"x"], ids=["int", "none", "bytes"])
def test_reading_an_argument_that_is_not_a_path_is_a_bad_argument(path):
    # an argument that is no path is the caller's fault, not bad input; load_baselines(None) reads the bundled file
    for read in (load_json, load_matrix) if path is None else (load_json, load_matrix, load_baselines):
        with pytest.raises(BadArgumentError, match="^cannot read "):
            read(path)


def test_load_matrix_nul_in_path():
    with pytest.raises(ParseError, match="cannot read"):
        load_matrix("m\0.json")


@pytest.mark.parametrize("where", ["missing/m.json", "."], ids=["missing-parent", "directory"])
def test_save_matrix_refused_by_the_os_is_a_bad_argument(tmp_path, where):
    with pytest.raises(BadArgumentError, match="^cannot write '"):
        save_matrix(np.eye(2) / 2, tmp_path / where)
    assert list(tmp_path.iterdir()) == []


def test_save_matrix_nul_in_path(tmp_path):
    # the OS refuses such a path with a ValueError, which no exit code maps; library callers get the typed error too
    with pytest.raises(BadArgumentError, match="cannot write .*embedded null byte"):
        save_matrix(np.eye(2) / 2, tmp_path / "m\0.json")
    assert list(tmp_path.iterdir()) == []
