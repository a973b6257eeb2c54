import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import max_abs_diff, random_density
from nmrsim.core import (
    STRICT,
    DensityMatrix,
    basis_state,
    bell_state,
    density_from_pure,
    fidelity,
    validate_density,
)
from nmrsim.errors import BadTraceError, NotHermitianError, NumericalFailureError
from nmrsim.tomography import (
    PauliExpectationSet,
    ShotNoiseConfig,
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


@st.composite
def densities(draw):
    """Random 1- to 3-qubit states ``G G^dag / tr`` of rank 1 to d, plus 1e-6 I so the trace is never 0."""
    n = draw(st.integers(1, 3))
    d = 1 << n
    rank = draw(st.integers(1, d))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    g = np.array(draw(st.lists(parts, min_size=2 * d * rank, max_size=2 * d * rank)))
    g = (g[: d * rank] + 1j * g[d * rank :]).reshape(d, rank)
    m = g @ g.conj().T + 1e-6 * np.eye(d)
    return validate_density(m / np.trace(m).real, STRICT)


class TestPauliBasis:
    def test_labels_canonical_order(self):
        assert pauli_labels(1) == ["I", "X", "Y", "Z"]
        assert pauli_labels(2)[:5] == ["II", "IX", "IY", "IZ", "XI"]
        assert len(pauli_labels(3)) == 64

    def test_leftmost_label_is_first_factor(self):
        assert max_abs_diff(pauli_matrix("ZI"), np.diag([1, 1, -1, -1])) == 0.0
        assert max_abs_diff(pauli_matrix("IZ"), np.diag([1, -1, 1, -1])) == 0.0

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            pauli_matrix("XQ")


class TestExpectations:
    def test_maximally_mixed(self):
        e = pauli_expectations(validate_density(np.eye(4) / 4, STRICT))
        for label, v in e.values.items():
            assert v == (1.0 if label == "II" else pytest.approx(0.0, abs=1e-12))

    def test_basis_state(self):
        e = pauli_expectations(density_from_pure(basis_state(2, 0)))
        for label in ("ZI", "IZ", "ZZ"):
            assert e.values[label] == pytest.approx(1.0, abs=1e-12)
        others = set(e.values) - {"II", "ZI", "IZ", "ZZ"}
        for label in others:
            assert e.values[label] == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        e = pauli_expectations(density_from_pure(bell_state("phi+")))
        assert e.values["XX"] == pytest.approx(1.0, abs=1e-12)
        assert e.values["YY"] == pytest.approx(-1.0, abs=1e-12)
        assert e.values["ZZ"] == pytest.approx(1.0, abs=1e-12)
        others = set(e.values) - {"II", "XX", "YY", "ZZ"}
        for label in others:
            assert e.values[label] == pytest.approx(0.0, abs=1e-12)

    def test_too_many_qubits(self):
        with pytest.raises(ValueError):
            pauli_expectations(validate_density(np.eye(16) / 16, STRICT))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_matches_per_label_trace_oracle(self, n_qubits):
        rng = np.random.default_rng(70 + n_qubits)
        for _ in range(10):
            rho = random_density(rng, 1 << n_qubits)
            got = pauli_expectations(rho).values
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
        with pytest.raises(ValueError):
            PauliExpectationSet(1, {"I": 1.0, "X": 0.0, "Y": 0.0})  # missing Z
        with pytest.raises(ValueError):
            PauliExpectationSet(1, {"I": 0.999, "X": 0.0, "Y": 0.0, "Z": 0.0})
        with pytest.raises(ValueError):
            PauliExpectationSet(1, {"I": 1.0, "X": 1.5, "Y": 0.0, "Z": 0.0})
        with pytest.raises(ValueError):
            PauliExpectationSet(1, {"I": 1.0, "X": float("nan"), "Y": 0.0, "Z": 0.0})
        with pytest.raises(ValueError):
            PauliExpectationSet(1, {"I": 1.0, "X": 0.0, "Y": 0.0, "Z": 0.0, "Q": 0.0})


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
        values = {label: 0.0 for label in pauli_labels(2)}
        values["II"] = 1.0
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
        assert a.values == b.values

    def test_single_shot_values(self):
        rng = np.random.default_rng(97)
        rho = random_density(rng, 4)
        e = simulate_shot_noise(rho, ShotNoiseConfig(1, 7))
        for label, v in e.values.items():
            if label != "II":
                assert v in (-1.0, 1.0)

    def test_many_shots_concentrate(self):
        # 10^6 shots: per-observable std <= 1e-3, so 0.01 is a 10-sigma bound
        rng = np.random.default_rng(101)
        rho = random_density(rng, 4)
        exact = pauli_expectations(rho)
        noisy = simulate_shot_noise(rho, ShotNoiseConfig(10**6, 31))
        dev = max(abs(noisy.values[k] - exact.values[k]) for k in exact.values)
        assert dev < 0.01

    def test_identity_untouched(self):
        rng = np.random.default_rng(103)
        rho = random_density(rng, 4)
        e = simulate_shot_noise(rho, ShotNoiseConfig(3, 5))
        assert e.values["II"] == 1.0

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("shots", [1, 1000, 10**5])
    def test_matches_scalar_draw_oracle(self, n_qubits, shots):
        rng = np.random.default_rng(60 + n_qubits)
        for seed in (0, 1, 7, 12345, 2**31 - 1):
            rho = random_density(rng, 1 << n_qubits)
            got = simulate_shot_noise(rho, ShotNoiseConfig(shots, seed)).values
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
        with pytest.raises(NotHermitianError):
            project_psd(m)


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
        assert all(type(v) is float and abs(v) <= 1.0 + 1e-12 for v in values.values())

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8))
    def test_simplex_projection_is_idempotent(self, v):
        once = simplex_project(v)
        assert once.min() >= 0.0 and abs(once.sum() - 1.0) <= 1e-12
        assert max_abs_diff(simplex_project(once), once) <= 1e-12
