"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py``; a one-line PASS/FAIL summary per
criterion is printed at the end of the session (see conftest.py).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import critical_epsilon_bisection, max_abs_diff, random_density, random_pure, random_unitary
from nmrsim.core import (
    STRICT,
    basis_state,
    bell_state,
    check_unitary,
    density_from_pure,
    evolve,
    fidelity,
    validate_density,
)
from nmrsim.ensemble import density_of, entanglement_report, history_from_dict
from nmrsim.pseudopure import PopulationVector, compose_pseudopure, extract_epsilon, net_signal
from nmrsim.repro import check_against_baselines, load_baselines, load_dataset, reproduce_theory
from nmrsim.separability import critical_epsilon, is_separable_2q
from nmrsim.serialize import load_json
from nmrsim.tomography import (
    ShotNoiseConfig,
    pauli_expectations,
    project_psd,
    reconstruct_linear,
    simplex_project,
    simulate_shot_noise,
)
from test_cli import assert_matches_golden, data_path, run_cli
from test_tomography import brute_force_simplex

FIXTURES = Path(__file__).parent / "fixtures"


def test_c01_step_matrix_unitarity():
    """criterion 1: corrected step matrix is unitary, the literal reading is not"""
    ds = load_dataset()
    ok, defect = check_unitary(ds.c_corrected.matrix, 1e-12)
    assert ok and defect <= 1e-12
    ok_raw, defect_raw = check_unitary(ds.c_raw, 1e-6)
    assert not ok_raw
    assert defect_raw > 0.1


def test_c02_evolution_reproduction():
    """criterion 2: evolved state is Hermitian/unit-trace and hits the frozen deviation baseline"""
    report = reproduce_theory()
    computed = report.computed_rho_th
    assert max_abs_diff(computed, computed.conj().T) <= 1e-15
    assert abs(np.trace(computed) - 1.0) <= 1e-12
    frozen = load_baselines()["values"]["max_dev_vs_printed_th"]
    # the frozen value is the exact-rational oracle result; double arithmetic
    # reproduces it to round-off, far below the documented 5e-3 ceiling
    assert abs(report.max_dev_vs_printed_th - frozen) <= 1e-12
    assert report.max_dev_vs_printed_th <= 5e-3


def test_c03_experiment_vs_theory_distances():
    """criterion 3: measured-vs-computed fidelity and trace distance match frozen baselines"""
    report = reproduce_theory()
    checks = {c.name: c for c in check_against_baselines(report, load_baselines())}
    assert checks["fidelity_exp_vs_computed_th"].ok
    assert checks["trace_distance_exp_vs_computed_th"].ok


def test_c04_same_density_different_entanglement():
    """criterion 4: bundled basis/Bell mixtures share I/4 yet report opposite entanglement"""
    h_basis = history_from_dict(load_json(data_path("basis_mixture.json")))
    h_bell = history_from_dict(load_json(data_path("bell_mixture.json")))
    mixed = np.eye(4) / 4
    assert max_abs_diff(density_of(h_basis).matrix, mixed) <= 1e-15
    assert max_abs_diff(density_of(h_bell).matrix, mixed) <= 1e-15
    basis_members = entanglement_report(h_basis).members
    bell_members = entanglement_report(h_bell).members
    assert all(m.concurrence == 0.0 and m.is_product for m in basis_members)
    assert all(abs(m.concurrence - 1.0) <= 1e-12 and not m.is_product for m in bell_members)


def test_c05_werner_threshold():
    """criterion 5: Bell pseudo-pure mixtures stop being separable at exactly 1/3"""
    rho1 = density_from_pure(bell_state("phi+"))
    closed = critical_epsilon(rho1)
    assert abs(closed - 1 / 3) <= 1e-9
    assert abs(critical_epsilon_bisection(rho1) - closed) <= 1e-9
    assert is_separable_2q(compose_pseudopure(0.32, rho1)).is_ppt
    assert not is_separable_2q(compose_pseudopure(0.35, rho1)).is_ppt


def test_c06_single_qubit_readout():
    """criterion 6: populations (5,3) give net signal 2 and coefficient 0.25"""
    assert net_signal(PopulationVector(np.array([5.0, 3.0]))).net_upward == 2.0
    rho = validate_density(np.diag([5 / 8, 3 / 8]).astype(complex), STRICT)
    est = extract_epsilon(rho, density_from_pure(basis_state(1, 0)))
    assert abs(est.epsilon - 0.25) <= 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_c07_mixture_algebra(dim):
    """criterion 7: coefficient extraction inverts composition and commutes with evolution"""
    rng = np.random.default_rng(1000 + dim)
    for _ in range(100):
        eps = float(rng.uniform(0.0, 1.0))
        rho1 = density_from_pure(random_pure(rng, dim))
        est = extract_epsilon(compose_pseudopure(eps, rho1), rho1)
        assert abs(est.epsilon - eps) <= 1e-12
    for _ in range(20):
        eps = float(rng.uniform(0.0, 1.0))
        rho1 = density_from_pure(random_pure(rng, dim))
        u = random_unitary(rng, dim)
        lhs = evolve(compose_pseudopure(eps, rho1), u)
        rhs = compose_pseudopure(eps, evolve(rho1, u))
        assert max_abs_diff(lhs.matrix, rhs.matrix) <= 1e-12


def test_c08_tomography_round_trip():
    """criterion 8: noiseless reconstruction is exact; 1e5-shot fidelity >= 0.99 in >= 48/50"""
    rng = np.random.default_rng(2024)
    states = [random_density(rng, 4) for _ in range(50)]
    for rho in states:
        recon = reconstruct_linear(pauli_expectations(rho))
        assert max_abs_diff(recon, rho.matrix) <= 1e-10
    good = 0
    for seed, rho in enumerate(states):
        noisy = simulate_shot_noise(rho, ShotNoiseConfig(10**5, seed))
        state = project_psd(reconstruct_linear(noisy))
        if fidelity(state, rho) >= 0.99:
            good += 1
    assert good >= 48, f"only {good}/50 reconstructions reached fidelity 0.99"


def test_c09_psd_projection():
    """criterion 9: PSD projection is idempotent and matches the brute-force simplex oracle"""
    rng = np.random.default_rng(3030)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        v = rng.normal(size=d)
        v = v - (v.sum() - 1.0) / d
        assert max_abs_diff(simplex_project(v), brute_force_simplex(v)) <= 1e-12
    for _ in range(10):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        h = h + (1.0 - np.trace(h).real) * np.eye(4) / 4
        once = project_psd(h)
        twice = project_psd(once.matrix)
        assert max_abs_diff(once.matrix, twice.matrix) <= 1e-12


def test_c10_cli_contract(capsys, tmp_path):
    """criterion 10: all five subcommands match their golden files and exit codes hold"""
    golden_runs = [
        (("repro", "--format", "json"), "repro.json"),
        (("evolve", data_path("maximally_mixed_2q.json"), data_path("step_matrix.json"),
          "--format", "json"), "evolve_mixed.json"),
        (("separability", data_path("maximally_mixed_2q.json"), "--format", "json"),
         "separability_mixed.json"),
        (("tomography", data_path("maximally_mixed_2q.json"), "--shots", "0", "--format", "json"),
         "tomography_exact_mixed.json"),
        (("ensemble", data_path("basis_mixture.json"), "--format", "json"), "ensemble_basis.json"),
    ]
    for argv, golden in golden_runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, golden
        assert_matches_golden(out, golden)

    # exit-code table: 1 usage/parse, 2 assertion/regression, 3 validation
    code, _, _ = run_cli(capsys, "evolve", str(FIXTURES / "ragged.json"), data_path("step_matrix.json"))
    assert code == 1
    code, _, _ = run_cli(capsys, "evolve", str(FIXTURES / "nonpsd.json"), data_path("step_matrix.json"))
    assert code == 3
    tampered = json.loads(Path(data_path("baselines.json")).read_text())
    tampered["values"]["fidelity_exp_vs_computed_th"] = 0.5
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(tampered))
    code, _, _ = run_cli(capsys, "repro", "--baselines", str(path))
    assert code == 2
