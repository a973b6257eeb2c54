import numpy as np
import pytest

from nmrsim.errors import ParseError
from nmrsim.serialize import load_matrix, matrix_from_dict, matrix_to_dict, save_matrix


def test_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert np.array_equal(load_matrix(path), m)


def test_dict_round_trip():
    m = np.array([[1.5, -2j], [0.25 + 1j, 0]])
    assert np.array_equal(matrix_from_dict(matrix_to_dict(m)), m)


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


def test_rejects_non_numeric_entries():
    doc = {"rows": 1, "cols": 1, "re": [["one"]], "im": [[0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)
    doc = {"rows": 1, "cols": 1, "re": [[True]], "im": [[0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)


def test_rejects_non_finite():
    for value in (float("nan"), float("inf"), 10**400):  # the last overflows a double
        doc = {"rows": 1, "cols": 1, "re": [[value]], "im": [[0.0]]}
        with pytest.raises(ParseError):
            matrix_from_dict(doc)


def test_rejects_bad_dimensions():
    doc = {"rows": 0, "cols": 1, "re": [], "im": []}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)
    doc = {"rows": True, "cols": 1, "re": [[1.0]], "im": [[0.0]]}
    with pytest.raises(ParseError):
        matrix_from_dict(doc)


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
