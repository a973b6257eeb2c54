"""Every CLI input gets a right answer or a typed error with its documented exit code.

One hypothesis test writes adversarial input files for all five subcommands
(matrices of every shape up to 9x9 with overflowing, subnormal, non-finite
and non-numeric entries, physical states and unitaries with such entries
planted in them, histories, baselines files, undecodable bytes, over-long
integers and deep nesting) and runs ``cli.main`` on them.  No exception but
argparse's ``SystemExit(1)`` may escape, no warning may be raised, the exit
code must be 0-3 with nothing on stdout on failure (``repro``'s drift report
aside), and exit 0 must print a state that validates again.
"""

import contextlib
import io
import json
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from helpers import random_amplitudes, random_density, random_unitary
from nmrsim.cli import main
from nmrsim.core import EXPERIMENTAL, STRICT, validate_density
from nmrsim.serialize import matrix_from_dict

SPECIAL = [1e308, -1e308, 1e200, -1e200, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0, -1.0, 0.5,
           1e-11, 5e-5, math.nan, math.inf, -math.inf]
numbers = st.sampled_from(SPECIAL) | st.floats(-2.0, 2.0)
json_values = numbers | st.sampled_from([None, True, "0.5", [], {}, 10**400, 2**63, 3])

RAW = [b"\xff\xfe\x00", b"\xc3(", b"1" * 5000, b"[" * 100_000, b"", b"{", b"null", b'{"rows": 2}']
raw_docs = st.sampled_from(RAW)


@st.composite
def _planted(draw, m: np.ndarray) -> np.ndarray:
    """``m`` with up to two entries replaced by special values; bulk entries come from a drawn seed, for speed."""
    m = m.astype(complex)
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):
        i, j = draw(st.integers(0, m.shape[0] - 1)), draw(st.integers(0, m.shape[1] - 1))
        m[i, j] = complex(draw(numbers), draw(st.sampled_from([0.0, 0.0, *SPECIAL[:7]])))
    return m


def _rng(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def _states(draw) -> np.ndarray:
    """A 1- to 4-qubit state: pure (as ``--critical`` needs) or of full rank."""
    d, rng = draw(st.sampled_from([2, 4, 8, 16])), _rng(draw)
    pure = d == 16 or draw(st.booleans())
    if pure:
        v = random_amplitudes(rng, d)  # the projector of a 4-qubit state, which pure_state refuses
        return draw(_planted(np.outer(v, v.conj())))
    return draw(_planted(random_density(rng, d).matrix))


@st.composite
def _unitaries(draw) -> np.ndarray:
    return draw(_planted(random_unitary(_rng(draw), draw(st.sampled_from([2, 4, 8, 16]))).matrix))


@st.composite
def _any_matrix(draw) -> np.ndarray:
    rows = draw(st.integers(1, 9))
    cols = draw(st.sampled_from([rows, rows, draw(st.integers(1, 9))]))
    rng = _rng(draw)
    return draw(_planted(rng.uniform(-2.0, 2.0, (rows, cols)) + 1j * rng.uniform(-2.0, 2.0, (rows, cols))))


@st.composite
def _matrix_doc(draw, matrices) -> dict:
    m = draw(matrices)
    doc = {"rows": len(m), "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}
    corruption = draw(st.sampled_from([None] * 6 + ["entry", "rows", "key"]))
    if corruption == "entry":
        doc[draw(st.sampled_from(["re", "im"]))][0][0] = draw(json_values)
    elif corruption == "rows":
        doc["rows"] = draw(json_values)
    elif corruption == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def _history_doc(draw) -> dict:
    members = []
    n = draw(st.sampled_from([1, 2, 2, 3, 4]))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.sampled_from([True] * 3 + [False])):
            v = random_amplitudes(_rng(draw), 1 << n)
            re, im = v.real.tolist(), v.imag.tolist()
        else:
            pairs = draw(st.lists(st.tuples(numbers, numbers), max_size=9))
            re, im = [x for x, _ in pairs], [y for _, y in pairs]
        members.append({"weight": draw(json_values), "re": re, "im": im})
    if draw(st.sampled_from([True] * 3 + [False])):
        for entry in members:
            entry["weight"] = 1.0 / len(members)
    return {"label": draw(st.sampled_from(["fuzz"] * 6 + [3, None])), "members": members}


with resources.as_file(resources.files("nmrsim").joinpath("data/baselines.json")) as _path:
    BASELINES = _path.read_text()


@st.composite
def _baselines_doc(draw) -> dict:
    doc = json.loads(BASELINES)
    table = draw(st.sampled_from(["values", "tolerances", None]))
    if table is not None:
        doc[table][draw(st.sampled_from(sorted(doc[table])))] = draw(json_values)
    elif draw(st.booleans()):
        doc = draw(json_values)
    return doc


def _mostly(usual, *others):
    """``usual`` three times in four, else one of ``others``."""
    return st.sampled_from([usual] * 3 * len(others) + list(others)).flatmap(lambda strategy: strategy)


def _encode(doc) -> bytes:
    return doc if isinstance(doc, bytes) else json.dumps(doc).encode()


def _file(docs):
    """Bytes of a document from ``docs``, or of some other kind of file."""
    return _mostly(docs, raw_docs, _matrix_doc(_any_matrix())).map(_encode)


STATE = _file(_matrix_doc(_mostly(_states(), _any_matrix())))
UNITARY = _file(_matrix_doc(_mostly(_unitaries(), _any_matrix())))
TOL = st.sampled_from(["1e-10", "0", "nan", "-1", "1e308", "5e-324"])


@st.composite
def _invocation(draw, command: str) -> tuple[list, dict]:
    """``(argv, files)`` for ``command``: the arguments, with file names in place of the bytes in ``files``."""
    files = {}
    argv = [command, "--format", draw(st.sampled_from(["json", "text"]))]
    if command != "repro" and command != "ensemble":
        argv += ["--profile", draw(st.sampled_from(["strict", "experimental"]))]
    if command == "evolve":
        files = {"state": draw(STATE), "unitary": draw(UNITARY)}
        argv += ["state", "unitary"]
    elif command == "separability":
        mode = draw(st.sampled_from(["state", "epsilon", "critical"]))
        files = {"state" if mode == "state" else "rho1": draw(STATE)}
        if mode == "state":
            argv += ["state"]
        elif mode == "epsilon":
            argv += ["--rho1", "rho1", "--epsilon", repr(draw(_mostly(st.floats(0.0, 1.0), numbers)))]
        else:
            argv += ["--critical", "--rho1", "rho1"]
        if mode != "critical" and draw(st.booleans()):
            argv += ["--tol", draw(TOL)]
    elif command == "tomography":
        files = {"state": draw(STATE)}
        shots = draw(st.sampled_from([0, 0, 1, 100, -1, 2**63]))
        argv += ["state", "--shots", str(shots)]
        seed = draw(st.sampled_from([None, 0, 7, -1]) if shots else st.sampled_from([None, None, 7]))
        argv += [] if seed is None else ["--seed", str(seed)]
    elif command == "ensemble":
        files = {"history": draw(_file(_history_doc()))}
        argv += ["history"]
    else:
        files = {"baselines": draw(_file(_baselines_doc()))}
        argv += ["--baselines", "baselines"]
    return argv, files


def _revalidates(argv: list, doc: dict) -> None:
    """Check the payload of a successful JSON run: each printed state validates again, each verdict is consistent."""
    profile = EXPERIMENTAL if "experimental" in argv else STRICT
    if doc["command"] == "evolve":
        validate_density(matrix_from_dict(doc["state"]), profile)
    elif doc["command"] == "tomography":
        validate_density(matrix_from_dict(doc["state"]), STRICT)
        assert 0.0 <= doc["fidelity_to_input"] <= 1.0
    elif doc["command"] == "ensemble":
        validate_density(matrix_from_dict(doc["density"]), STRICT)
        assert all(0.0 <= m["concurrence"] <= 1.0 for m in doc.get("members", []))
    elif doc["command"] == "separability" and doc["mode"] == "critical":
        assert 0.0 <= doc["critical_epsilon"] <= 1.0
    elif doc["command"] == "separability":
        assert math.isfinite(doc["min_eigenvalue"])
        assert doc["is_ppt"] == (doc["min_eigenvalue"] >= -doc["tolerance"])
    else:
        assert doc["all_baselines_ok"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@pytest.mark.parametrize("command", ["evolve", "separability", "tomography", "ensemble", "repro"])
@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_input_gets_an_answer_or_a_typed_error(workdir, command, data):
    argv, files = data.draw(_invocation(command))
    for name, content in files.items():
        (workdir / name).write_bytes(content)
    argv = [str(workdir / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 1
            code = 1
    assert [str(w.message) for w in caught] == []
    assert code in (0, 1, 2, 3)
    event(f"{argv[0]} exits {code}")
    if code == 0:
        assert err.getvalue() == ""
        if "json" in argv:
            _revalidates(argv, json.loads(out.getvalue()))
        else:
            assert out.getvalue()
    elif argv[0] == "repro" and code == 2:  # the report is printed before exiting on drift
        assert not json.loads(out.getvalue())["all_baselines_ok"] if "json" in argv else "FAIL" in out.getvalue()
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("nmrsim: ", "usage: "))
