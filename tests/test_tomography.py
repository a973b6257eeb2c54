import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import densities, max_abs_diff, random_density
from nmrsim.core import (
    STRICT,
    DensityMatrix,
    basis_state,
    bell_state,
    density_from_pure,
    fidelity,
    validate_density,
)
from nmrsim.errors import BadTraceError, NotHermitianError, NotSquareError, NumericalFailureError
from nmrsim.repro import load_dataset
from nmrsim.tomography import (
    PauliExpectationSet,
    ShotNoiseConfig,
    closest_physical_state,
    pauli_expectations,
    pauli_labels,
    pauli_matrix,
    project_psd,
    reconstruct_linear,
    simplex_project,
    simulate_shot_noise,
)


def brute_force_simplex(v):
    """Independent oracle: try every support set, keep the feasible optimum."""
    v = np.asarray(v, dtype=float)
    d = v.size
    best, best_x = None, None
    for mask in range(1, 1 << d):
        support = [i for i in range(d) if mask >> i & 1]
        shift = (1.0 - sum(v[i] for i in support)) / len(support)
        x = np.zeros(d)
        for i in support:
            x[i] = v[i] + shift
        if (x >= -1e-15).all():
            dist = float(np.sum((x - v) ** 2))
            if best is None or dist < best - 1e-15:
                best, best_x = dist, x
    return best_x


_ORACLE_PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def oracle_expectations(rho):
    """Independent oracle: ``tr(rho P)`` label by label, in canonical order."""
    out = {}
    for chars in itertools.product("IXYZ", repeat=rho.n_qubits):
        p = reduce(np.kron, [_ORACLE_PAULI[c] for c in chars])
        out["".join(chars)] = complex(np.trace(rho.matrix @ p))
    return out


def oracle_shot_noise(rho, shots, seed):
    """The documented randomness contract, one scalar binomial draw per label."""
    rng = np.random.default_rng(seed)
    identity = "I" * rho.n_qubits
    values = {identity: 1.0}
    for label, t in oracle_expectations(rho).items():
        if label == identity:
            continue
        p_up = min(max((1.0 + t.real) / 2.0, 0.0), 1.0)
        values[label] = 2.0 * int(rng.binomial(shots, p_up)) / shots - 1.0
    return values


def by_label(e):
    """The set's values keyed by Pauli label, in canonical order."""
    return dict(zip(pauli_labels(e.n_qubits), e.values.tolist()))


class TestPauliBasis:
    def test_labels_canonical_order(self):
        assert pauli_labels(1) == ("I", "X", "Y", "Z")
        assert pauli_labels(2)[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert len(pauli_labels(3)) == 64
        assert pauli_labels(3) is pauli_labels(3)

    def test_leftmost_label_is_first_factor(self):
        assert max_abs_diff(pauli_matrix("ZI"), np.diag([1, 1, -1, -1])) == 0.0
        assert max_abs_diff(pauli_matrix("IZ"), np.diag([1, -1, 1, -1])) == 0.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            pauli_matrix("XQ")


class TestExpectations:
    def test_maximally_mixed(self):
        e = pauli_expectations(validate_density(np.eye(4) / 4, STRICT))
        for label, v in by_label(e).items():
            assert v == (1.0 if label == "II" else pytest.approx(0.0, abs=1e-12))

    def test_basis_state(self):
        e = by_label(pauli_expectations(density_from_pure(basis_state(2, 0))))
        for label in ("ZI", "IZ", "ZZ"):
            assert e[label] == pytest.approx(1.0, abs=1e-12)
        others = set(e) - {"II", "ZI", "IZ", "ZZ"}
        for label in others:
            assert e[label] == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        e = by_label(pauli_expectations(density_from_pure(bell_state("phi+"))))
        assert e["XX"] == pytest.approx(1.0, abs=1e-12)
        assert e["YY"] == pytest.approx(-1.0, abs=1e-12)
        assert e["ZZ"] == pytest.approx(1.0, abs=1e-12)
        others = set(e) - {"II", "XX", "YY", "ZZ"}
        for label in others:
            assert e[label] == pytest.approx(0.0, abs=1e-12)

    def test_too_many_qubits(self):
        with pytest.raises(ValueError):
            pauli_expectations(validate_density(np.eye(16) / 16, STRICT))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_matches_per_label_trace_oracle(self, n_qubits):
        rng = np.random.default_rng(70 + n_qubits)
        for _ in range(10):
            rho = random_density(rng, 1 << n_qubits)
            got = by_label(pauli_expectations(rho))
            want = oracle_expectations(rho)
            assert list(got) == list(want)
            assert max(abs(got[k] - want[k].real) for k in want) <= 1e-15

    def test_imaginary_residue_is_numerical_failure(self):
        # built directly to skip validation: tr(rho Y) = 0.5i, tr(rho X) is real
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericalFailureError, match="expectation Y has imaginary part"):
            pauli_expectations(DensityMatrix(m, 2, 1))

    @pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_nan_entry_is_numerical_failure(self, where):
        # built directly to skip validation; a NaN expectation must not come back
        m = np.eye(4, dtype=complex) / 4
        m[where] = np.nan
        with pytest.raises(NumericalFailureError, match="imaginary part nan"):
            pauli_expectations(DensityMatrix(m, 4, 2))

    def test_set_invariants(self):
        cases = [
            ([1.0, 0.0, 0.0], "expected 4 expectations"),
            ([0.999, 0.0, 0.0, 0.0], "identity expectation must be exactly 1"),
            ([1.0, 1.5, 0.0, 0.0], "expectation X = 1.5 exceeds magnitude 1"),
            ([1.0, 0.0, float("nan"), 0.0], "expectation Y = nan exceeds magnitude 1"),
            ([1.0, 0.0, 0.0, 0.0, 0.0], "expected 4 expectations"),
            # a bare float cast would drop 0.5j with only a ComplexWarning
            ([1.0, 0.5j, 0.0, 0.0], "must be real numbers"),
        ]
        for values, message in cases:
            with pytest.raises(ValueError, match=message):
                PauliExpectationSet(1, values)

    def test_values_are_a_read_only_copy(self):
        caller = np.array([1.0, 0.25, -0.5, 0.0])
        e = PauliExpectationSet(1, caller)
        assert e.values.dtype == np.float64 and not e.values.flags.writeable
        assert not np.shares_memory(e.values, caller)
        caller[1] = 0.75
        assert e.values.tolist() == [1.0, 0.25, -0.5, 0.0]
        with pytest.raises(ValueError):
            e.values[1] = 0.0

    def test_sets_compare_by_identity(self):
        e = pauli_expectations(validate_density(np.eye(2) / 2, STRICT))
        assert e == e and e != PauliExpectationSet(1, e.values)


class TestReconstruct:
    @pytest.mark.parametrize("n_qubits,dim", [(1, 2), (2, 4), (3, 8)])
    def test_round_trip_random(self, n_qubits, dim):
        rng = np.random.default_rng(80 + n_qubits)
        count = 50 if n_qubits == 2 else 10
        for _ in range(count):
            rho = random_density(rng, dim)
            recon = reconstruct_linear(pauli_expectations(rho))
            assert max_abs_diff(recon, rho.matrix) <= 1e-10

    def test_zero_set_gives_maximally_mixed(self):
        values = np.zeros(len(pauli_labels(2)))
        values[0] = 1.0
        recon = reconstruct_linear(PauliExpectationSet(2, values))
        assert max_abs_diff(recon, np.eye(4) / 4) == 0.0

    def test_basis_state_round_trip(self):
        rho = density_from_pure(basis_state(2, 0))
        recon = reconstruct_linear(pauli_expectations(rho))
        assert max_abs_diff(recon, rho.matrix) <= 1e-15

    def test_trace_pinned_to_one(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            recon = reconstruct_linear(pauli_expectations(random_density(rng, 4)))
            assert abs(np.trace(recon) - 1.0) < 1e-14


class TestShotNoise:
    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(89)
        rho = random_density(rng, 4)
        cfg = ShotNoiseConfig(1000, 12345)
        a = simulate_shot_noise(rho, cfg)
        b = simulate_shot_noise(rho, cfg)
        assert a.values.tolist() == b.values.tolist()

    def test_single_shot_values(self):
        rng = np.random.default_rng(97)
        rho = random_density(rng, 4)
        e = simulate_shot_noise(rho, ShotNoiseConfig(1, 7))
        for label, v in by_label(e).items():
            if label != "II":
                assert v in (-1.0, 1.0)

    def test_many_shots_concentrate(self):
        # 10^6 shots: per-observable std <= 1e-3, so 0.01 is a 10-sigma bound
        rng = np.random.default_rng(101)
        rho = random_density(rng, 4)
        exact = pauli_expectations(rho)
        noisy = simulate_shot_noise(rho, ShotNoiseConfig(10**6, 31))
        dev = float(np.max(np.abs(noisy.values - exact.values)))
        assert dev < 0.01

    def test_identity_untouched(self):
        rng = np.random.default_rng(103)
        rho = random_density(rng, 4)
        e = simulate_shot_noise(rho, ShotNoiseConfig(3, 5))
        assert by_label(e)["II"] == 1.0

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("shots", [1, 1000, 10**5])
    def test_matches_scalar_draw_oracle(self, n_qubits, shots):
        rng = np.random.default_rng(60 + n_qubits)
        for seed in (0, 1, 7, 12345, 2**31 - 1):
            rho = random_density(rng, 1 << n_qubits)
            got = by_label(simulate_shot_noise(rho, ShotNoiseConfig(shots, seed)))
            want = oracle_shot_noise(rho, shots, seed)
            assert list(got.items()) == list(want.items())

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            ShotNoiseConfig(0, 1)


class TestProjectPsd:
    def test_valid_state_is_fixed_point(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            rho = random_density(rng, 4)
            out = project_psd(rho.matrix)
            assert max_abs_diff(out.matrix, rho.matrix) <= 1e-12

    def test_two_level_example(self):
        out = project_psd(np.diag([1.2, -0.2]).astype(complex))
        assert max_abs_diff(out.matrix, np.diag([1.0, 0.0])) <= 1e-12
        assert max_abs_diff(np.diag(out.matrix).real, brute_force_simplex([1.2, -0.2])) <= 1e-12

    def test_four_level_example(self):
        # oracle value: brute-force simplex projection of (0.7, 0.5, -0.1, -0.1)
        v = [0.7, 0.5, -0.1, -0.1]
        oracle = brute_force_simplex(v)
        assert max_abs_diff(oracle, [0.6, 0.4, 0.0, 0.0]) <= 1e-15
        out = project_psd(np.diag(v).astype(complex))
        assert max_abs_diff(np.sort(np.diag(out.matrix).real)[::-1], oracle) <= 1e-12

    def test_simplex_matches_brute_force(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            v = rng.normal(size=d)
            v = v - (v.sum() - 1.0) / d  # keep sums near 1 like real use
            assert max_abs_diff(simplex_project(v), brute_force_simplex(v)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = (g + g.conj().T) / 2
            h = h + (1.0 - np.trace(h).real) * np.eye(4) / 4
            once = project_psd(h)
            twice = project_psd(once.matrix)
            assert max_abs_diff(once.matrix, twice.matrix) <= 1e-12

    def test_contractive_toward_valid_states(self):
        rng = np.random.default_rng(127)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        h = h + (1.0 - np.trace(h).real) * np.eye(4) / 4
        projected = project_psd(h).matrix
        for _ in range(100):
            target = random_density(rng, 4).matrix
            before = float(np.linalg.norm(h - target))
            after = float(np.linalg.norm(projected - target))
            assert after <= before + 1e-12

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-3
        with pytest.raises(NotHermitianError):
            project_psd(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(BadTraceError):
            project_psd(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_rejects_nan_entry(self, where):
        # NaN must fail the guards rather than reach the eigensolver
        m = np.eye(2, dtype=complex) / 2
        m[where] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            project_psd(m)


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

    @pytest.mark.parametrize("n_qubits", [2, 3])
    def test_rank_deficient_state_is_not_projected(self, n_qubits):
        # zero eigenvalues come out as round-off of either sign; the parent projected most of these
        rng = np.random.default_rng(0)
        d = 1 << n_qubits
        for rank in range(1, d):
            for _ in range(20):
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                m = g @ g.conj().T
                m = m / np.trace(m).real
                state, renorm, projected = closest_physical_state(m)
                assert not renorm and not projected
                assert max_abs_diff(state.matrix, m) <= 1e-15

    def test_non_finite_entry_is_numerical_failure(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            closest_physical_state(m)

    def test_projection_runs_one_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solver=solver: calls.append(name) or solver(a))
        _, _, projected = closest_physical_state(load_dataset().rho_exp_after)
        # one decomposition decides and projects; the strict validation of the result checks its spectrum
        assert projected and calls == ["eigh", "eigvalsh"]

    def test_rejects_non_square_input(self):
        for m in (np.ones((2, 3)) / 2, np.ones(4) / 4):
            with pytest.raises(NotSquareError):
                closest_physical_state(m)


class TestNoisyPipeline:
    def test_high_shot_fidelity(self):
        rng = np.random.default_rng(131)
        for seed in range(5):
            rho = random_density(rng, 4)
            noisy = simulate_shot_noise(rho, ShotNoiseConfig(10**5, seed))
            state = project_psd(reconstruct_linear(noisy))
            assert fidelity(state, rho) >= 0.99


class TestProperties:
    @settings(deadline=None)
    @given(densities())
    def test_reconstruction_inverts_expectations(self, rho):
        recon = reconstruct_linear(pauli_expectations(rho))
        assert max_abs_diff(recon, rho.matrix) <= 1e-12

    @settings(deadline=None)
    @given(densities())
    def test_expectations_are_real_and_bounded(self, rho):
        values = pauli_expectations(rho).values
        assert values.dtype == np.float64 and values.shape == (4**rho.n_qubits,)
        assert np.all(np.abs(values) <= 1.0 + 1e-12)

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8))
    def test_simplex_projection_is_idempotent(self, v):
        once = simplex_project(v)
        assert once.min() >= 0.0 and abs(once.sum() - 1.0) <= 1e-12
        assert max_abs_diff(simplex_project(once), once) <= 1e-12
