import copy
import importlib.util
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import max_abs_diff
from nmrsim.core import EXPERIMENTAL, check_unitary, validate_density
from nmrsim.errors import BadArgumentError, ParseError
from nmrsim.repro import (
    ReproReport,
    check_against_baselines,
    export_dataset,
    load_baselines,
    load_dataset,
    reproduce_theory,
)
from nmrsim.serialize import load_matrix

DATA = Path(__file__).resolve().parents[1] / "src" / "nmrsim" / "data"
CHECKED = ("max_dev_vs_printed_th", "fidelity_exp_vs_computed_th", "trace_distance_exp_vs_computed_th")


def frac_complex_matrix(m):
    """Exact (re, im) Fraction pairs for a matrix of 4-decimal doubles."""
    out = []
    for row in np.asarray(m):
        frow = []
        for z in row:
            re = Fraction(round(z.real * 1e4), 10**4)
            im = Fraction(round(z.imag * 1e4), 10**4)
            assert float(re) == z.real and float(im) == z.imag
            frow.append((re, im))
        out.append(frow)
    return out


def frac_mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            re = Fraction(0)
            im = Fraction(0)
            for k in range(n):
                (ar, ai), (br, bi) = a[i][k], b[k][j]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            row.append((re, im))
        out.append(row)
    return out


def frac_dagger(a):
    n = len(a)
    return [[(a[j][i][0], -a[j][i][1]) for j in range(n)] for i in range(n)]


class TestDataset:
    def test_initial_state_diagonal_as_printed(self):
        ds = load_dataset()
        assert np.array_equal(np.diag(ds.rho_initial).real, [0.1794, 0.2453, 0.3616, 0.2137])

    def test_prediction_diagonal_as_printed(self):
        ds = load_dataset()
        assert np.array_equal(np.diag(ds.rho_th_printed).real, [0.1849, 0.0999, 0.3876, 0.3277])

    def test_step_matrix_corner_entries(self):
        ds = load_dataset()
        assert ds.c_corrected.matrix[0, 0] == 0.75 + 0.25j
        assert ds.c_corrected.matrix[3, 3] == 0.25 - 0.75j
        assert ds.c_raw[3, 3] == 0.25 + 0.75j

    def test_notes_record_ambiguous_entry_verbatim(self):
        assert "{1/4}{3I/4}" in load_dataset().notes

    def test_printed_matrices_exactly_hermitian(self):
        ds = load_dataset()
        for m in (ds.rho_initial, ds.rho_exp_after, ds.rho_th_printed):
            assert max_abs_diff(m, m.conj().T) == 0.0

    def test_initial_trace_exactly_printed_one(self):
        ds = load_dataset()
        assert abs(np.trace(ds.rho_initial) - 1.0) < 1e-12

    def test_all_printed_matrices_pass_experimental_validation(self):
        # any failure here is a data-entry bug, not a tolerance issue
        ds = load_dataset()
        for m in (ds.rho_initial, ds.rho_exp_after, ds.rho_th_printed):
            validate_density(m, EXPERIMENTAL)

    def test_step_matrix_unitary_by_exact_arithmetic(self):
        # independent oracle: Fraction arithmetic, no floating point at all
        ds = load_dataset()
        c = frac_complex_matrix(ds.c_corrected.matrix)
        prod = frac_mat_mul(frac_dagger(c), c)
        for i in range(4):
            for j in range(4):
                assert prod[i][j] == (Fraction(int(i == j)), Fraction(0))

    def test_step_matrix_is_a_phase_matched_search_step(self):
        # (I - (1 - i)|s><s|) diag(1, 1, 1, -i): a pi/2 diffusion phase about the uniform state |s>
        # and a -pi/2 oracle phase on |11>; every entry is a multiple of 1/4, so float64 is exact
        ds = load_dataset()
        s = np.full(4, 0.5)
        step = (np.eye(4) - (1 - 1j) * np.outer(s, s)) @ np.diag([1, 1, 1, -1j])
        assert np.array_equal(ds.c_corrected.matrix, step)
        # the literal reading differs only in the sign of the (4,4) entry's imaginary part
        assert ds.c_raw[3, 3] == 0.25 + 0.75j and step[3, 3] == 0.25 - 0.75j
        raw = step.copy()
        raw[3, 3] = raw[3, 3].conjugate()
        assert np.array_equal(ds.c_raw, raw)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## The embedded experiment and its baselines\n", 1)[1].split("\n## ", 1)[0]
        section = " ".join(section.split())
        assert "phase-matched search step" in section and "quant-ph/9906020" in section

    def test_raw_step_matrix_fails_unitarity(self):
        ds = load_dataset()
        ok, defect = check_unitary(ds.c_raw, 1e-6)
        assert not ok and defect > 0.1


class TestReproduceTheory:
    def test_computed_evolution_invariants(self):
        report = reproduce_theory()
        computed = report.computed_rho_th
        assert max_abs_diff(computed, computed.conj().T) <= 1e-15
        assert abs(np.trace(computed) - 1.0) <= 1e-12

    def test_eigenvalues_preserved_from_initial(self):
        ds = load_dataset()
        report = reproduce_theory()
        ev_in = np.sort(np.linalg.eigvalsh(ds.rho_initial))
        ev_out = np.sort(np.linalg.eigvalsh(report.computed_rho_th))
        assert max_abs_diff(ev_in, ev_out) <= 1e-9

    def test_max_dev_against_exact_rational_oracle(self):
        # recompute c rho c^dag and the deviation in exact rational arithmetic
        ds = load_dataset()
        c = frac_complex_matrix(ds.c_corrected.matrix)
        rho = frac_complex_matrix(ds.rho_initial)
        th = frac_complex_matrix(ds.rho_th_printed)
        computed = frac_mat_mul(frac_mat_mul(c, rho), frac_dagger(c))
        max_sq = Fraction(0)
        for i in range(4):
            for j in range(4):
                dre = computed[i][j][0] - th[i][j][0]
                dim = computed[i][j][1] - th[i][j][1]
                max_sq = max(max_sq, dre * dre + dim * dim)
        exact_dev = float(max_sq) ** 0.5
        report = reproduce_theory()
        assert abs(report.max_dev_vs_printed_th - exact_dev) <= 1e-12

    def test_matches_frozen_baselines(self):
        report = reproduce_theory()
        checks = check_against_baselines(report, load_baselines())
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]

    def test_max_dev_below_documented_ceiling(self):
        assert reproduce_theory().max_dev_vs_printed_th <= 5e-3

    def test_diagnostics_record_psd_projection(self):
        report = reproduce_theory()
        assert report.diagnostics["rho_exp_after"]["psd_projected"]
        assert report.diagnostics["rho_exp_after"]["trace_renormalized"]
        assert report.diagnostics["computed_rho_th"]["psd_projected"]
        assert not report.diagnostics["computed_rho_th"]["trace_renormalized"]

    def test_diagnostics_record_printed_prediction_handling(self):
        # the printed prediction (trace 1.0001, min eigenvalue -0.0077) is
        # renormalized and projected before its informational fidelity
        printed = reproduce_theory().diagnostics["rho_th_printed"]
        assert printed["trace_renormalized"] and printed["psd_projected"]
        assert printed["trace_deviation"] > 1e-12 and printed["min_eigenvalue"] < 0.0

    def test_metric_bounds(self):
        report = reproduce_theory()
        assert 0.0 <= report.fidelity_exp_vs_computed_th <= 1.0
        assert report.trace_distance_exp_vs_computed_th >= 0.0

    def test_report_is_computed_once_and_callers_cannot_change_it(self, cold_repro):
        first = reproduce_theory()
        diagnostics, computed = json.dumps(first.diagnostics), first.computed_rho_th.copy()
        first.diagnostics["rho_initial"]["trace_real"] = -1.0
        first.diagnostics.clear()
        with pytest.raises(ValueError, match="read-only"):
            first.computed_rho_th[0, 0] = 0.0
        second = reproduce_theory()
        assert json.dumps(second.diagnostics) == diagnostics
        assert second.computed_rho_th.tobytes() == computed.tobytes()
        assert not second.computed_rho_th.flags.writeable

    def test_printed_prediction_agrees_with_computed(self):
        # informational: the printed prediction is the rounded computed state,
        # so their fidelity sits essentially at 1
        assert reproduce_theory().fidelity_computed_vs_printed_th > 0.999999


class TestExportAndBaselines:
    def test_export_round_trips(self, tmp_path):
        ds = load_dataset()
        written = export_dataset(tmp_path)
        assert sorted(p.name for p in written) == [
            "metadata.json",
            "rho_exp_after.json",
            "rho_initial.json",
            "rho_th_printed.json",
            "step_matrix.json",
            "step_matrix_raw.json",
        ]
        for path in written:
            assert path.read_bytes() == (DATA / path.name).read_bytes(), path.name
        assert np.array_equal(load_matrix(tmp_path / "rho_initial.json"), ds.rho_initial)
        assert np.array_equal(load_matrix(tmp_path / "step_matrix.json"), ds.c_corrected.matrix)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "{1/4}{3I/4}" in meta["notes"]

    def test_export_to_nul_byte_path_is_a_bad_argument(self, tmp_path):
        # the OS refuses such a path with a ValueError, which no exit code maps; library callers get the typed error too
        with pytest.raises(BadArgumentError, match="embedded null byte"):
            export_dataset(tmp_path / "a\0b")
        assert list(tmp_path.iterdir()) == []

    def test_export_onto_a_regular_file_is_a_bad_argument(self, tmp_path):
        target = tmp_path / "taken"
        target.write_text("kept")
        with pytest.raises(BadArgumentError, match="^cannot write '.*taken'"):
            export_dataset(target)
        assert target.read_text() == "kept"

    def test_failed_export_deletes_the_files_it_created(self, tmp_path):
        # metadata.json is written last, so the five matrix files exist when its write fails
        (tmp_path / "metadata.json").mkdir()
        (tmp_path / "rho_initial.json").write_text("old")
        with pytest.raises(BadArgumentError):
            export_dataset(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["metadata.json", "rho_initial.json"]
        assert (tmp_path / "metadata.json").is_dir()
        assert (tmp_path / "rho_initial.json").read_bytes() == (DATA / "rho_initial.json").read_bytes()

    def test_bundled_dataset_matches_independent_transcription(self):
        # scripts/freeze_baselines.py re-transcribes the printed values as
        # exact strings; every entry of the bundled files must equal them
        pytest.importorskip("mpmath")
        path = Path(__file__).resolve().parents[1] / "scripts" / "freeze_baselines.py"
        spec = importlib.util.spec_from_file_location("freeze_baselines", path)
        freeze = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(freeze)
        ds = load_dataset()
        for name, rows, matrix in (
            ("step matrix", freeze.STEP, ds.c_corrected.matrix),
            ("rho_initial", freeze.RHO_INITIAL, ds.rho_initial),
            ("rho_exp_after", freeze.RHO_EXP_AFTER, ds.rho_exp_after),
            ("rho_th_printed", freeze.RHO_TH_PRINTED, ds.rho_th_printed),
        ):
            freeze.check_transcription(name, freeze.frac_matrix(rows), matrix)

    def test_dataset_is_read_once_and_read_only(self):
        ds = load_dataset()
        assert load_dataset() is ds
        for m in (ds.c_raw, ds.c_corrected.matrix, ds.rho_initial, ds.rho_exp_after, ds.rho_th_printed):
            assert not m.flags.writeable

    def test_baselines_well_formed(self):
        baselines = load_baselines()
        assert set(baselines["values"]) == set(baselines["tolerances"])
        assert baselines["values"]["max_dev_vs_printed_th"] == 5e-5

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b["values"].update(fidelity_exp_vs_computed_th="0.97"),
            lambda b: b["tolerances"].update(max_dev_vs_printed_th=True),
            lambda b: b["tolerances"].pop("trace_distance_exp_vs_computed_th"),
            lambda b: b.update(documented_ceiling_max_dev=[0.005]),
            lambda b: b.update(values=[]),
        ],
        ids=["string-value", "bool-tolerance", "missing-tolerance", "list-ceiling", "values-not-a-table"],
    )
    def test_malformed_baselines_rejected(self, tmp_path, edit):
        baselines = json.loads((DATA / "baselines.json").read_text())
        edit(baselines)
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps(baselines))
        with pytest.raises(ParseError):
            load_baselines(path)

    @pytest.mark.parametrize(
        "baselines",
        [
            {"values": dict.fromkeys(CHECKED, 123.0), "tolerances": dict.fromkeys(CHECKED, math.inf)},
            {"values": dict.fromkeys(CHECKED, 0.5)},
            {"values": dict.fromkeys(CHECKED, 0.5), "tolerances": dict.fromkeys(CHECKED, "1e-9")},
            {"values": dict.fromkeys(CHECKED, 0.5), "tolerances": dict.fromkeys(CHECKED, -1.0)},
        ],
        ids=["infinite-tolerances", "missing-tolerances", "string-tolerances", "negative-tolerances"],
    )
    def test_hand_built_baselines_are_checked(self, baselines):
        with pytest.raises(ParseError):
            check_against_baselines(reproduce_theory(), baselines)

    @pytest.mark.parametrize(
        "report",
        [
            ReproReport("x", "y", "z", "w", "v", {}),
            ReproReport(None, None, None, None, None, {}),
            replace(reproduce_theory(), trace_distance_exp_vs_computed_th=True),
        ],
        ids=["strings", "nones", "bool-distance"],
    )
    def test_hand_built_report_field_that_is_no_number_is_a_bad_argument(self, report):
        # only reproduce_theory makes a report, so no field of one needs checking again
        with pytest.raises(BadArgumentError, match="must be a ReproReport from reproduce_theory,"):
            check_against_baselines(report, load_baselines())

    def test_a_copied_report_is_still_checked(self):
        checks = check_against_baselines(copy.deepcopy(reproduce_theory()), load_baselines())
        assert [c.ok for c in checks] == [True] * len(checks)

    def test_missing_baselines_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_baselines(tmp_path / "absent.json")
