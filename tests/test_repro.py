import json
from fractions import Fraction

import numpy as np
import pytest

from helpers import max_abs_diff
from nmrsim.core import EXPERIMENTAL, STRICT, check_unitary, validate_density
from nmrsim.errors import NumericalFailureError
from nmrsim.repro import (
    check_against_baselines,
    closest_physical_state,
    export_dataset,
    load_baselines,
    load_dataset,
    reproduce_theory,
)
from nmrsim.serialize import load_matrix


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
        report = reproduce_theory(ds)
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
        report = reproduce_theory(ds)
        assert abs(report.max_dev_vs_printed_th - exact_dev) <= 1e-12

    def test_matches_frozen_baselines(self):
        report = reproduce_theory()
        checks = check_against_baselines(report, load_baselines())
        assert all(c.ok for c in checks), [c for c in checks if not c.ok]

    def test_max_dev_below_documented_ceiling(self):
        assert reproduce_theory().max_dev_vs_printed_th <= 5e-3

    def test_diagnostics_record_psd_projection(self):
        report = reproduce_theory()
        assert report.diagnostics["rho_exp_after"].psd_projected
        assert report.diagnostics["rho_exp_after"].trace_renormalized
        assert report.diagnostics["computed_rho_th"].psd_projected
        assert not report.diagnostics["computed_rho_th"].trace_renormalized

    def test_metric_bounds(self):
        report = reproduce_theory()
        assert 0.0 <= report.fidelity_exp_vs_computed_th <= 1.0
        assert report.trace_distance_exp_vs_computed_th >= 0.0

    def test_printed_prediction_agrees_with_computed(self):
        # informational: the printed prediction is the rounded computed state,
        # so their fidelity sits essentially at 1
        assert reproduce_theory().fidelity_computed_vs_printed_th > 0.999999


class TestClosestPhysicalState:
    def test_strict_state_untouched(self):
        state, renorm, projected = closest_physical_state(np.eye(4) / 4)
        assert not renorm and not projected
        assert max_abs_diff(state.matrix, np.eye(4) / 4) <= 1e-15

    def test_output_is_strict_valid(self):
        ds = load_dataset()
        state, renorm, projected = closest_physical_state(ds.rho_exp_after)
        assert renorm and projected
        validate_density(state.matrix, STRICT)


    def test_non_finite_entry_is_numerical_failure(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            closest_physical_state(m)


class TestExportAndBaselines:
    def test_export_round_trips(self, tmp_path):
        ds = load_dataset()
        written = export_dataset(tmp_path, ds)
        assert sorted(p.name for p in written) == [
            "metadata.json",
            "rho_exp_after.json",
            "rho_initial.json",
            "rho_th_printed.json",
            "step_matrix.json",
            "step_matrix_raw.json",
        ]
        assert np.array_equal(load_matrix(tmp_path / "rho_initial.json"), ds.rho_initial)
        assert np.array_equal(load_matrix(tmp_path / "step_matrix.json"), ds.c_corrected.matrix)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert "{1/4}{3I/4}" in meta["notes"]

    def test_bundled_dataset_files_match_embedded(self):
        from importlib import resources

        ds = load_dataset()
        data = resources.files("nmrsim").joinpath("data")
        for name, matrix in (
            ("rho_initial.json", ds.rho_initial),
            ("rho_exp_after.json", ds.rho_exp_after),
            ("rho_th_printed.json", ds.rho_th_printed),
            ("step_matrix.json", ds.c_corrected.matrix),
        ):
            with resources.as_file(data.joinpath(name)) as path:
                assert np.array_equal(load_matrix(path), matrix), name

    def test_baselines_well_formed(self):
        baselines = load_baselines()
        assert set(baselines["values"]) == set(baselines["tolerances"])
        assert baselines["values"]["max_dev_vs_printed_th"] == 5e-5
