import argparse
import json
import math
import os
import shlex
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nmrsim import errors
from nmrsim.cli import _matrix_lines, build_parser, main
from nmrsim.repro import reproduce_theory
from nmrsim.separability import DEFAULT_PPT_TOL
from nmrsim.serialize import load_matrix, matrix_to_dict, save_matrix

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


def data_path(name: str) -> str:
    with resources.as_file(resources.files("nmrsim").joinpath(f"data/{name}")) as p:
        return str(p)


# every error class the package defines, which the CLI maps to an exit code by family
ERROR_TYPES = [e for e in vars(errors).values() if isinstance(e, type) and issubclass(e, errors.NmrsimError)]


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_close(got, expected, where="$"):
    assert type(got) is type(expected), f"{where}: {type(got).__name__} != {type(expected).__name__}"
    if isinstance(got, dict):
        assert set(got) == set(expected), f"{where}: keys {sorted(got)} != {sorted(expected)}"
        for k in got:
            assert_json_close(got[k], expected[k], f"{where}.{k}")
    elif isinstance(got, list):
        assert len(got) == len(expected), f"{where}: length {len(got)} != {len(expected)}"
        for i, (a, b) in enumerate(zip(got, expected)):
            assert_json_close(a, b, f"{where}[{i}]")
    elif isinstance(got, float):
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9), f"{where}: {got} != {expected}"
    else:
        assert got == expected, f"{where}: {got!r} != {expected!r}"


def assert_matches_golden(stdout: str, name: str):
    got = json.loads(stdout)
    path = GOLDEN / name
    if os.environ.get("NMRSIM_REGEN_GOLDEN"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2) + "\n")
    expected = json.loads(path.read_text())
    assert_json_close(got, expected)


def assert_matches_text_golden(stdout: str, name: str):
    path = GOLDEN / name
    if os.environ.get("NMRSIM_REGEN_GOLDEN"):
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(stdout)
    assert stdout == path.read_text()


# The golden runs, by golden file stem; --format is appended per test.
GOLDEN_RUNS = {
    "repro": ["repro"],
    "evolve_mixed": ["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json")],
    "separability_mixed": ["separability", data_path("maximally_mixed_2q.json")],
    "separability_critical_bell": ["separability", "--critical", "--rho1", data_path("bell_state.json")],
    "separability_ghz3": ["separability", data_path("ghz3.json")],
    "tomography_exact_mixed": ["tomography", data_path("maximally_mixed_2q.json"), "--shots", "0"],
    "ensemble_basis": ["ensemble", data_path("basis_mixture.json")],
    "ensemble_bell": ["ensemble", data_path("bell_mixture.json")],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_text_output_matches_golden(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN_RUNS[name], "--format", "text")
    assert code == 0
    assert_matches_text_golden(out, f"{name}.txt")


class TestGolden:
    def test_repro_json(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "--format", "json")
        assert code == 0
        assert_matches_golden(out, "repro.json")

    def test_evolve_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"), "--format", "json"
        )
        assert code == 0
        assert_matches_golden(out, "evolve_mixed.json")

    def test_separability_state_json(self, capsys):
        code, out, _ = run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"), "--format", "json")
        assert code == 0
        assert_matches_golden(out, "separability_mixed.json")

    def test_separability_critical_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--critical", "--rho1", data_path("bell_state.json"), "--format", "json"
        )
        assert code == 0
        assert_matches_golden(out, "separability_critical_bell.json")

    def test_separability_three_qubits_json(self, capsys):
        code, out, _ = run_cli(capsys, "separability", data_path("ghz3.json"), "--format", "json")
        assert code == 0
        assert_matches_golden(out, "separability_ghz3.json")

    def test_tomography_exact_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "0", "--format", "json"
        )
        assert code == 0
        assert_matches_golden(out, "tomography_exact_mixed.json")

    def test_ensemble_basis_json(self, capsys):
        code, out, _ = run_cli(capsys, "ensemble", data_path("basis_mixture.json"), "--format", "json")
        assert code == 0
        assert_matches_golden(out, "ensemble_basis.json")

    def test_ensemble_bell_json(self, capsys):
        code, out, _ = run_cli(capsys, "ensemble", data_path("bell_mixture.json"), "--format", "json")
        assert code == 0
        assert_matches_golden(out, "ensemble_bell.json")


class TestTextOutput:
    def test_repro_text_reports_baselines(self, capsys):
        code, out, _ = run_cli(capsys, "repro")
        assert code == 0
        assert "baseline checks:" in out
        assert "PASS" in out and "FAIL" not in out

    def test_three_qubit_banner(self, capsys):
        code, out, _ = run_cli(capsys, "separability", data_path("ghz3.json"))
        assert code == 0
        assert "necessary condition only" in out

    def test_two_qubit_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"))
        assert code == 0
        assert "2-qubit verdict: separable" in out

    def test_ensemble_member_table(self, capsys):
        code, out, _ = run_cli(capsys, "ensemble", data_path("bell_mixture.json"))
        assert code == 0
        assert "concurrence" in out

    def test_tomography_echoes_shots(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "100", "--seed", "5"
        )
        assert code == 0
        assert "100 shots" in out
        assert "fidelity" in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"), "--out"], ["repro", "--export"]],
        ids=["evolve--out", "repro--export"],
    )
    def test_nul_byte_in_output_path_is_usage_error(self, capsys, tmp_path, argv):
        # the OS refuses such a path with a ValueError, which used to end in a traceback
        path = str(tmp_path / "a\0b")
        code, out, err = run_cli(capsys, *argv, path)
        assert (code, out) == (1, "")
        assert err == f"nmrsim: cannot write {path!r}: embedded null byte\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"), "--out"], "missing/m.json"),
            (["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"), "--out"], "."),
            (["repro", "--export"], "taken"),
        ],
        ids=["out-missing-parent", "out-directory", "export-onto-file"],
    )
    def test_unwritable_output_path_is_usage_error(self, capsys, tmp_path, argv, target):
        (tmp_path / "taken").write_text("kept")
        code, out, err = run_cli(capsys, *argv, str(tmp_path / target))
        assert (code, out) == (1, "")
        assert err.startswith("nmrsim: cannot write '")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    @pytest.mark.parametrize("error", ERROR_TYPES, ids=[e.__name__ for e in ERROR_TYPES])
    def test_each_error_family_exits_with_its_documented_code(self, capsys, monkeypatch, error):
        # the documented map: 3 for validation failures, 2 for dimension and numerical failures, else 1
        if issubclass(error, errors.ValidationError):
            documented = 3, "validation failure: "
        elif issubclass(error, (errors.DimMismatchError, errors.WrongDimError, errors.NumericalFailureError)):
            documented = 2, ""
        else:
            documented = 1, "cannot parse input: " if issubclass(error, errors.ParseError) else ""
        assert (error.exit_code, error.lead) == documented
        exc = error(0.5)  # the one argument every constructor takes

        def refuse(path):
            raise exc

        monkeypatch.setattr("nmrsim.cli.load_json", refuse)
        code, out, err = run_cli(capsys, "ensemble", data_path("bell_mixture.json"))
        assert (code, out, err) == (documented[0], "", f"nmrsim: {documented[1]}{exc}\n")

    def test_untyped_error_propagates(self, monkeypatch):
        # only NmrsimError maps to an exit code; a raw OSError from a command is a bug, not exit 1
        def refuse(path):
            raise OSError("refused")

        monkeypatch.setattr("nmrsim.cli.load_matrix", refuse)
        with pytest.raises(OSError, match="refused"):
            main(["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json")])

    def test_cli_names_no_os_error(self):
        # every read and write is typed where it happens, so the CLI neither catches OSError nor pre-checks paths
        source = (Path(__file__).resolve().parents[1] / "src" / "nmrsim" / "cli.py").read_text()
        assert "OSError" not in source and "_check_output_path" not in source

    def test_ragged_input_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "evolve", str(FIXTURES / "ragged.json"), data_path("step_matrix.json"))
        assert code == 1
        assert out == ""
        assert "parse" in err.lower()

    def test_nonpsd_strict_is_validation_failure(self, capsys):
        code, out, err = run_cli(capsys, "evolve", str(FIXTURES / "nonpsd.json"), data_path("step_matrix.json"))
        assert code == 3
        assert out == ""
        assert "validation" in err.lower()

    @pytest.mark.parametrize("shots", [["--shots", "0"], ["--shots", "100", "--seed", "1"]], ids=["exact", "shots"])
    def test_experimental_state_beyond_pauli_range_is_validation_failure(self, capsys, tmp_path, shots):
        # experimental-valid (min eigenvalue -0.04), yet <IZ> = 1.08: the input breaks an invariant, not the usage
        state = tmp_path / "over_range.json"
        save_matrix(np.diag([1.04, -0.04, 0.0, 0.0]), state)
        code, out, err = run_cli(capsys, "tomography", str(state), "--profile", "experimental", *shots)
        assert (code, out) == (3, "")
        assert err == "nmrsim: validation failure: expectation IZ = 1.08 exceeds magnitude 1\n"

    def test_experimental_profile_accepts_printed_state(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "evolve",
            data_path("rho_initial.json"),
            data_path("step_matrix.json"),
            "--profile",
            "experimental",
        )
        assert code == 0

    def test_dim_mismatch_exit(self, capsys, tmp_path):
        small = tmp_path / "mixed_1q.json"
        save_matrix(np.eye(2, dtype=complex) / 2, small)
        code, out, _ = run_cli(capsys, "evolve", str(small), data_path("step_matrix.json"))
        assert code == 2
        assert out == ""

    def test_tampered_baselines_exit(self, capsys, tmp_path):
        tampered = json.loads(Path(data_path("baselines.json")).read_text())
        tampered["values"]["max_dev_vs_printed_th"] = 1.25e-4
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(tampered))
        code, out, _ = run_cli(capsys, "repro", "--baselines", str(path))
        assert code == 2
        assert "FAIL" in out

    def test_epsilon_out_of_range_is_usage_error(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--epsilon", "1.5", "--rho1", data_path("bell_state.json")
        )
        assert code == 1
        assert out == ""

    def test_critical_requires_pure_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--critical", "--rho1", data_path("maximally_mixed_2q.json")
        )
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize(
        "dim, code, message",
        [(3, 3, "validation failure: dimension 3 is not a power of two >= 2"),
         (16, 2, "at most 3 qubits are supported, got 4 (dimension 16)")],
    )
    def test_unitary_gets_the_qubit_rule(self, capsys, tmp_path, dim, code, message):
        # as a state of that size does; a 3x3 unitary used to exit 2 as a dimension mismatch
        path = tmp_path / "unitary.json"
        save_matrix(np.eye(dim, dtype=complex), path)
        got, out, err = run_cli(capsys, "evolve", data_path("maximally_mixed_2q.json"), str(path))
        assert (got, out, err) == (code, "", f"nmrsim: {message}\n")

    def test_too_many_qubits_is_dimension_error(self, capsys, tmp_path):
        # the same exit as separability gives a 4-qubit state: an unsupported dimension, not a usage error
        big = tmp_path / "four_qubits.json"
        save_matrix(np.eye(16, dtype=complex) / 16, big)
        code, out, _ = run_cli(capsys, "tomography", str(big), "--shots", "0")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["evolve", "ensemble", "separability"])
    def test_four_qubits_are_a_dimension_error_everywhere(self, capsys, tmp_path, command):
        state, unitary, history = tmp_path / "state.json", tmp_path / "unitary.json", tmp_path / "history.json"
        save_matrix(np.eye(16, dtype=complex) / 16, state)
        save_matrix(np.eye(16, dtype=complex), unitary)
        member = {"weight": 1.0, "re": [1] + [0] * 15, "im": [0] * 16}
        history.write_text(json.dumps({"label": "4 qubits", "members": [member]}))
        argv = {"evolve": [state, unitary], "ensemble": [history], "separability": [state]}[command]
        code, out, err = run_cli(capsys, command, *map(str, argv))
        assert (code, out) == (2, "")
        assert err == "nmrsim: at most 3 qubits are supported, got 4 (dimension 16)\n"

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"1" * 5000, b"[" * 100_000], ids=["not-utf8", "long-integer", "deep-nesting"]
    )
    @pytest.mark.parametrize("command", ["evolve", "ensemble"])
    def test_undecodable_file_is_parse_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [str(path), data_path("step_matrix.json")] if command == "evolve" else [str(path)]
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("nmrsim: cannot parse input: ")

    @pytest.mark.parametrize("command", ["evolve", "separability"])
    def test_overflowing_hermitian_part_is_not_psd(self, capsys, tmp_path, command):
        # finite, Hermitian and unit-trace, so only its eigenvalue -1e308 is wrong with it
        path = tmp_path / "huge.json"
        save_matrix(np.diag([1e308, -1e308, 1.0, 0.0]).astype(complex), path)
        argv = [str(path), data_path("step_matrix.json")] if command == "evolve" else [str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, *argv)
        assert (code, out) == (3, "")
        assert err.endswith("not positive semidefinite: min eigenvalue = -1.000e+308\n")

    def test_untyped_error_escapes_as_a_bug(self, capsys, monkeypatch):
        # only typed errors are the user's fault; a ValueError from a kernel is not reported as a usage error
        def broken(rho, u):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr("nmrsim.cli.evolve", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json")])
        assert capsys.readouterr().out == ""

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""

    def test_separability_without_inputs_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "separability")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_ppt_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"), "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tolerance" in err

    @pytest.mark.parametrize(
        "member",
        [
            '{"weight": NaN, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
            '{"weight": 1.0, "re": [Infinity, 0, 0, 0], "im": [0, 0, 0, 0]}',
        ],
        ids=["nan-weight", "infinite-amplitude"],
    )
    def test_non_finite_history_is_parse_error(self, capsys, tmp_path, member):
        path = tmp_path / "history.json"
        path.write_text(f'{{"label": "bad", "members": [{member}]}}')
        code, out, err = run_cli(capsys, "ensemble", str(path))
        assert code == 1
        assert out == ""
        assert "cannot parse input" in err

    def test_unequal_re_im_history_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "history.json"
        path.write_text('{"label": "bad", "members": [{"weight": 1.0, "re": [1, 0, 0, 0], "im": [0, 0, 0]}]}')
        code, out, err = run_cli(capsys, "ensemble", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("nmrsim: cannot parse input: ") and "equal-length" in err

    def test_shots_without_seed_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "10")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("shots", [str(2**63), "100000000000000000000000000000"])
    def test_shot_count_beyond_int64_is_usage_error(self, capsys, shots):
        # the binomial draw takes at most 2**63 - 1 trials; beyond that numpy raised a raw OverflowError
        code, out, err = run_cli(
            capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", shots, "--seed", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("nmrsim: shots must be an integer in [1, 2**63 - 1]")

    def test_negative_seed_is_usage_error(self, capsys):
        # numpy's own error for a negative seed names no flag
        code, out, err = run_cli(
            capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "10", "--seed", "-1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("nmrsim: ") and "--seed" in err

    def test_seed_without_shots_is_usage_error(self, capsys):
        # exact expectations draw nothing, so a seed would be echoed but never read
        code, out, err = run_cli(
            capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "0", "--seed", "5"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("nmrsim: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["maximally_mixed_2q.json", "--epsilon", "0.9", "--rho1", "bell_state.json"],
            ["maximally_mixed_2q.json", "--rho1", "bell_state.json"],
            ["maximally_mixed_2q.json", "--epsilon", "0.2"],
            ["maximally_mixed_2q.json", "--critical", "--rho1", "bell_state.json"],
            ["--critical", "--epsilon", "0.2", "--rho1", "bell_state.json"],
            ["--epsilon", "0.2"],
            ["--critical", "--rho1", "bell_state.json", "--tol", "1e-3"],
            ["--critical"],
            ["--rho1", "bell_state.json"],
            ["--tol", "1e-3"],
            ["maximally_mixed_2q.json", "--critical", "--epsilon", "0.2", "--rho1", "bell_state.json", "--tol", "1e-3"],
        ],
        ids=["state+epsilon+rho1", "state+rho1", "state+epsilon", "critical+state", "critical+epsilon",
             "epsilon-without-rho1", "critical+tol", "critical-without-rho1", "rho1-alone", "tol-alone",
             "every-input"],
    )
    def test_conflicting_separability_inputs_are_usage_errors(self, capsys, argv):
        # each input mode must not silently drop another mode's flags
        argv = [data_path(a) if a.endswith(".json") else a for a in argv]
        code, out, err = run_cli(capsys, "separability", *argv)
        assert code == 1
        assert out == ""
        assert err == (
            "nmrsim: give STATE_FILE [--tol T], or --epsilon E --rho1 FILE [--tol T], or --critical --rho1 FILE\n"
        )

    def test_zero_epsilon_is_given(self, capsys):
        # 0.0 is falsy, but --epsilon 0 is an input: the mode check must not read it as absent
        code, out, _ = run_cli(
            capsys, "separability", "--epsilon", "0", "--rho1", data_path("bell_state.json"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == 0.0

    @pytest.mark.parametrize(
        "table, name", [("tolerances", "fidelity_exp_vs_computed_th"), (None, "documented_ceiling_max_dev")]
    )
    def test_negative_tolerance_or_ceiling_is_parse_error(self, capsys, tmp_path, table, name):
        # no deviation can be below a negative limit, so either one read as drift: [FAIL] and exit 2
        doc = json.loads(Path(data_path("baselines.json")).read_text())
        (doc[table] if table else doc)[name] = -1e-9
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "repro", "--baselines", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("nmrsim: cannot parse input: ") and "must be nonnegative" in err

    @pytest.mark.parametrize(
        "doc",
        [
            "5",
            '{"values": {}, "tolerances": {}}',
            '{"values": {"max_dev_vs_printed_th": 123, "fidelity_exp_vs_computed_th": 123, '
            '"trace_distance_exp_vs_computed_th": 123}, "tolerances": {"max_dev_vs_printed_th": Infinity, '
            '"fidelity_exp_vs_computed_th": Infinity, "trace_distance_exp_vs_computed_th": Infinity}}',
        ],
        ids=["not-an-object", "empty-tables", "infinite-tolerances"],
    )
    def test_malformed_baselines_are_parse_errors(self, capsys, tmp_path, doc):
        path = tmp_path / "baselines.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "repro", "--baselines", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("nmrsim: cannot parse input: ")


class TestBehaviour:
    def test_exported_files_evolve_to_repro_result_bit_for_bit(self, capsys, tmp_path):
        out_file = tmp_path / "evolved.json"
        code, _, _ = run_cli(
            capsys,
            "evolve",
            data_path("rho_initial.json"),
            data_path("step_matrix.json"),
            "--profile",
            "experimental",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert np.array_equal(load_matrix(out_file), reproduce_theory().computed_rho_th)

    def test_tomography_deterministic_for_seed(self, capsys):
        args = ("tomography", data_path("maximally_mixed_2q.json"), "--shots", "100000", "--seed", "7",
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_tomography_noisy_reports_lower_fidelity(self, capsys):
        code, out, _ = run_cli(
            capsys, "tomography", data_path("bell_state.json"), "--shots", "100", "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["shots"] == 100
        assert payload["fidelity_to_input"] < 1.0

    def test_repro_export_writes_dataset(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "repro", "--export", str(tmp_path / "out"))
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert "rho_initial.json" in names and "metadata.json" in names

    def test_compose_then_ppt_via_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "separability", "--epsilon", "0.2", "--rho1", data_path("bell_state.json"),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_ppt"] is True
        assert payload["separability_conclusive"] is True

    def test_single_member_history(self, capsys, tmp_path):
        doc = {"label": "just |00>", "members": [{"weight": 1.0, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}]}
        path = tmp_path / "single.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "ensemble", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["members"][0]["concurrence"] == 0.0
        assert payload["density"]["re"][0][0] == 1.0

    def test_one_qubit_history_has_no_member_table(self, capsys, tmp_path):
        path = tmp_path / "one_qubit.json"
        path.write_text(json.dumps({"label": "just |0>", "members": [{"weight": 1.0, "re": [1, 0], "im": [0, 0]}]}))
        code, out, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "(per-member concurrence is reported for 2-qubit members only)"
        code, out, _ = run_cli(capsys, "ensemble", str(path), "--format", "json")
        assert code == 0
        assert "members" not in json.loads(out)

    def test_no_color_env_var(self, monkeypatch):
        import sys

        from nmrsim.cli import _style

        monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
        monkeypatch.delenv("NMRSIM_NO_COLOR", raising=False)
        assert _style("x", "32") == "\x1b[32mx\x1b[0m"
        monkeypatch.setenv("NMRSIM_NO_COLOR", "1")
        assert _style("x", "32") == "x"

    def test_no_writes_outside_given_paths(self, capsys, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_cli(capsys, "repro", "--format", "json")
        run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"))
        run_cli(capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "50", "--seed", "1")
        run_cli(capsys, "ensemble", data_path("bell_mixture.json"))
        run_cli(capsys, "evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"))
        assert list(workdir.iterdir()) == []


class TestParserReuse:
    """``main`` builds its parser once; no call may leak state into the next."""

    def test_flags_do_not_leak_into_the_next_call(self, capsys):
        state = data_path("maximally_mixed_2q.json")
        code, out, _ = run_cli(capsys, "separability", state, "--tol", "1e-3", "--format", "json")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-3
        code, out, _ = run_cli(capsys, "separability", state, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tolerance"] == DEFAULT_PPT_TOL
        assert payload["mode"] == "ppt"
        # a leaked --tol would make --critical a usage error
        code, out, _ = run_cli(
            capsys, "separability", "--critical", "--rho1", data_path("bell_state.json"), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["mode"] == "critical"

    def test_usage_error_then_valid_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tomography", data_path("maximally_mixed_2q.json"), "--shots", "many"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "repro", "--format", "json")
        assert code == 0
        assert_matches_golden(out, "repro.json")

    def test_baselines_are_read_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "baselines.json"
        baselines = json.loads(Path(data_path("baselines.json")).read_text())
        path.write_text(json.dumps(baselines))
        assert run_cli(capsys, "repro", "--baselines", str(path))[0] == 0
        baselines["values"]["max_dev_vs_printed_th"] = 1.0
        path.write_text(json.dumps(baselines))
        code, out, _ = run_cli(capsys, "repro", "--baselines", str(path), "--format", "json")
        assert code == 2
        assert not json.loads(out)["all_baselines_ok"]

    def test_parser_is_built_once(self, capsys):
        for argv in (
            ["repro", "--format", "json"],
            ["separability", data_path("maximally_mixed_2q.json")],
            ["ensemble", data_path("bell_mixture.json")],
            ["repro"],
        ):
            assert run_cli(capsys, *argv)[0] == 0
        assert build_parser.cache_info().misses == 1
        assert build_parser() is build_parser()


SUBCOMMANDS = ("repro", "evolve", "separability", "tomography", "ensemble")
_USAGE = "usage: nmrsim [-h] {repro,evolve,separability,tomography,ensemble} ...\n"


class TestDispatch:
    """A subcommand's argv is parsed by that subcommand's parser alone; usage errors and help read as before."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro", "--format", "json"],
            ["evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json")],
            ["separability", data_path("maximally_mixed_2q.json"), "--tol", "1e-3"],
            ["tomography", data_path("maximally_mixed_2q.json"), "--shots", "50", "--seed", "1"],
            ["ensemble", data_path("bell_mixture.json"), "--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_subcommand_argv_is_parsed_once(self, capsys, monkeypatch, argv):
        parsed_by = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(parser, *args, **kwargs):
            parsed_by.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run_cli(capsys, *argv)[0] == 0
        assert parsed_by == [f"nmrsim {argv[0]}"]

    @pytest.mark.parametrize(
        "argv, stderr",
        [
            ([], _USAGE + "nmrsim: error: the following arguments are required: command\n"),
            (["frobnicate"], _USAGE + "nmrsim: error: argument command: invalid choice: 'frobnicate' "
                                      "(choose from 'repro', 'evolve', 'separability', 'tomography', 'ensemble')\n"),
            (["evolve", "A", "B", "extra"], _USAGE + "nmrsim: error: unrecognized arguments: extra\n"),
            (["repro", "--format", "json", "x", "--y"], _USAGE + "nmrsim: error: unrecognized arguments: x --y\n"),
        ],
        ids=["empty", "unknown", "evolve-extra", "repro-extras"],
    )
    def test_usage_errors_read_as_the_top_level_parser_writes_them(self, capsys, argv, stderr):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", stderr)

    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"]] + [[sub, "--help"] for sub in SUBCOMMANDS], ids=" ".join
    )
    def test_help_exits_zero_with_its_parsers_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(_USAGE if argv[0] not in SUBCOMMANDS else f"usage: nmrsim {argv[0]} [-h]")
        assert err == ""


def readme_commands() -> list[list[str]]:
    """The arguments of every ``nmrsim`` line in README's "Command line" block."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in lines if words[:1] == ["nmrsim"]]


def bundled(argv: list[str]) -> list[str]:
    """``argv`` with README's checkout paths read from the installed data directory."""
    prefix = "src/nmrsim/data/"
    return [data_path(a[len(prefix):]) if a.startswith(prefix) else a for a in argv]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    # the README runs from a checkout; here bundled inputs come from the
    # installed data directory and written files land in a scratch cwd
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"repro", "evolve", "separability", "tomography", "ensemble"}
    for argv in map(bundled, commands):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


# eigh, eigvalsh and svd calls per command: one eigh per distinct matrix validated or projected
SOLVER_COUNTS = {
    "repro": {"eigh": 4, "eigvalsh": 1, "svd": 2},
    "tomography": {"eigh": 2, "svd": 1},
    "evolve": {"eigh": 1},
    "separability STATE": {"eigh": 1, "eigvalsh": 1},
    "separability --epsilon": {"eigh": 2, "eigvalsh": 1},
    "separability --critical": {"eigh": 1, "eigvalsh": 1},
    "ensemble": {"eigh": 1},
}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_solver_counts(capsys, tmp_path, monkeypatch, cold_repro, solver_calls, argv):
    monkeypatch.chdir(tmp_path)
    row = argv[0]
    if row == "separability":
        row += " " + next((flag for flag in ("--epsilon", "--critical") if flag in argv), "STATE")
    assert run_cli(capsys, *bundled(argv))[0] == 0
    assert solver_calls == SOLVER_COUNTS[row]
    if row == "repro":
        # the report is computed once per process
        solver_calls.clear()
        assert run_cli(capsys, *bundled(argv))[0] == 0
        assert solver_calls == {}


@settings(deadline=None)
@given(
    st.sampled_from([2, 4, 8]).flatmap(
        lambda d: arrays(
            complex,
            (d, d),
            elements=st.builds(
                complex,
                st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 5e-5, -5e-5, 1e-9, -1e-9]) | st.floats(-2.0, 2.0),
                st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 5e-5, -5e-5, 1e-9, -1e-9]) | st.floats(-2.0, 2.0),
            ),
        )
    )
)
def test_rendering_from_lists_matches_per_element_form(m):
    def _fmt_complex(z: complex) -> str:
        return f"{z.real:+.4f}{z.imag:+.4f}i"

    per_element = {"re": [[float(x) for x in row] for row in m.real], "im": [[float(x) for x in row] for row in m.imag]}
    assert json.dumps(matrix_to_dict(m)) == json.dumps({"rows": len(m), "cols": len(m), **per_element})
    assert _matrix_lines(m) == ["  " + "  ".join(_fmt_complex(z) for z in row) for row in m]


def test_rendering_of_strided_and_real_matrices():
    m = np.arange(12.0).reshape(3, 4) - 5.5 + 1j * np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    for a, indent in ((m.T, ""), (m[:, ::-2], "    "), (m.real, "  ")):
        assert _matrix_lines(a, indent) == [indent + "  ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row) for row in a]
