import json
import math
import os
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from nmrsim.cli import build_parser, main
from nmrsim.repro import reproduce_theory
from nmrsim.separability import DEFAULT_PPT_TOL
from nmrsim.serialize import load_matrix, save_matrix

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"


def data_path(name: str) -> str:
    with resources.as_file(resources.files("nmrsim").joinpath(f"data/{name}")) as p:
        return str(p)


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
    def test_ragged_input_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "evolve", str(FIXTURES / "ragged.json"), data_path("step_matrix.json"))
        assert code == 1
        assert "parse" in err.lower()

    def test_nonpsd_strict_is_validation_failure(self, capsys):
        code, _, err = run_cli(capsys, "evolve", str(FIXTURES / "nonpsd.json"), data_path("step_matrix.json"))
        assert code == 3
        assert "validation" in err.lower()

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
        code, _, _ = run_cli(capsys, "evolve", str(small), data_path("step_matrix.json"))
        assert code == 2

    def test_tampered_baselines_exit(self, capsys, tmp_path):
        tampered = json.loads(Path(data_path("baselines.json")).read_text())
        tampered["values"]["max_dev_vs_printed_th"] = 1.25e-4
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(tampered))
        code, out, _ = run_cli(capsys, "repro", "--baselines", str(path))
        assert code == 2
        assert "FAIL" in out

    def test_epsilon_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "separability", "--epsilon", "1.5", "--rho1", data_path("bell_state.json")
        )
        assert code == 1

    def test_critical_requires_pure_target(self, capsys):
        code, _, _ = run_cli(
            capsys, "separability", "--critical", "--rho1", data_path("maximally_mixed_2q.json")
        )
        assert code == 3

    def test_too_many_qubits_is_usage_error(self, capsys, tmp_path):
        big = tmp_path / "four_qubits.json"
        save_matrix(np.eye(16, dtype=complex) / 16, big)
        code, _, _ = run_cli(capsys, "tomography", str(big), "--shots", "0")
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_separability_without_inputs_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "separability")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_ppt_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"), "--tol", tol)
        assert code == 1
        assert "verdict" not in out
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
        code, _, err = run_cli(capsys, "ensemble", str(path))
        assert code == 1
        assert "cannot parse input" in err

    def test_shots_without_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "tomography", data_path("maximally_mixed_2q.json"), "--shots", "10")
        assert code == 1


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
        code, out, _ = run_cli(
            capsys, "separability", "--critical", "--rho1", data_path("bell_state.json"), "--tol", "1e-3",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-3
        code, out, _ = run_cli(capsys, "separability", data_path("maximally_mixed_2q.json"), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tolerance"] == DEFAULT_PPT_TOL
        assert payload["mode"] == "ppt"

    def test_usage_error_then_valid_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tomography", data_path("maximally_mixed_2q.json"), "--shots", "many"])
        assert exc.value.code == 1
        assert "invalid int value" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "repro", "--format", "json")
        assert code == 0
        assert_matches_golden(out, "repro.json")

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
