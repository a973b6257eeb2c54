import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import densities, max_abs_diff, random_density, unchecked_density
from nmrsim.core import (
    EXPERIMENTAL,
    STRICT,
    _eigh,
    _trace_and_defect,
    basis_state,
    bell_state,
    density_from_pure,
    fidelity,
    validate_density,
)
from nmrsim.errors import (
    BadArgumentError,
    BadTraceError,
    DimNotPowerOfTwoError,
    NmrsimError,
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    NumericalFailureError,
    ValidationError,
    WrongDimError,
)
from nmrsim.repro import load_dataset, reproduce_theory
from nmrsim.tomography import (
    PauliExpectationSet,
    ShotNoiseConfig,
    _pauli_labels,
    _stack,
    closest_physical_state,
    pauli_expectations,
    pauli_matrix,
    project_psd,
    reconstruct_linear,
    simplex_project,
    simulate_shot_noise,
)


def sorted_cumsum_simplex(v):
    """The vectorized sort-and-cumsum simplex projection ``simplex_project`` replaced; ``None`` where it
    finds no threshold (its ``IndexError``)."""
    u = np.sort(v)[::-1]
    ks = np.arange(1, v.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow the running sums
        css = np.cumsum(u)
        passing = ks[u - (css - 1.0) / ks > 0]
        if not passing.size:
            return None
        k = passing[-1]
        tau = (css[k - 1] - 1.0) / k
        return np.maximum(v - tau, 0.0)


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
    return dict(zip(_pauli_labels(e.n_qubits), e.values.tolist()))


# the 2x2 Pauli definitions, written out independently of the package's table
_SIGMA = {"I": ((1, 0), (0, 1)), "X": ((0, 1), (1, 0)), "Y": ((0, -1j), (1j, 0)), "Z": ((1, 0), (0, -1))}


class TestPauliBasis:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_the_definitions_by_index_arithmetic(self, n):
        # entry (r, c) of a product is the product over qubits k of sigma_{label_k}[bit_k(r), bit_k(c)], qubit 1
        # the most significant bit; the reference reads neither pauli_matrix nor the stack
        d = 1 << n
        bits = [[(i >> (n - 1 - k)) & 1 for k in range(n)] for i in range(d)]
        want = [
            [[math.prod(_SIGMA[ch][bits[r][k]][bits[c][k]] for k, ch in enumerate(label)) for c in range(d)]
             for r in range(d)]
            for label in itertools.product("IXYZ", repeat=n)
        ]
        assert _stack(n).dtype == complex and np.array_equal(_stack(n), np.array(want, dtype=complex))

    @pytest.mark.parametrize("label", ["IIII", "XYZXY"])
    def test_label_beyond_the_qubit_limit_is_refused(self, label):
        # such a product was formed and kept in the unbounded cache
        with pytest.raises(WrongDimError, match="at most 3 qubits are supported"):
            pauli_matrix(label)

    def test_labels_canonical_order(self):
        assert _pauli_labels(1) == ("I", "X", "Y", "Z")
        assert _pauli_labels(2)[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert len(_pauli_labels(3)) == 64
        assert _pauli_labels(3) is _pauli_labels(3)

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
        with pytest.raises(WrongDimError):
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
        with pytest.raises(NumericalFailureError, match="expectation Y has imaginary part 5.000e-01"):
            pauli_expectations(unchecked_density(m))

    @pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
    def test_nan_entry_is_numerical_failure(self, where):
        # built directly to skip validation; a NaN expectation must not come back
        m = np.eye(4, dtype=complex) / 4
        m[where] = np.nan
        with pytest.raises(NumericalFailureError, match="imaginary part nan"):
            pauli_expectations(unchecked_density(m))

    def test_set_invariants(self):
        # a malformed set is a bad argument; a magnitude beyond 1, which an experimental-profile state can give,
        # is a validation failure
        cases = [
            ([1.0, 0.0, 0.0], BadArgumentError, "expected 4 expectations"),
            ([0.999, 0.0, 0.0, 0.0], BadArgumentError, "identity expectation must be exactly 1"),
            ([1.0, 1.5, 0.0, 0.0], ValidationError, "expectation X = 1.5 exceeds magnitude 1"),
            ([1.0, 0.0, float("nan"), 0.0], ValidationError, "expectation Y = nan exceeds magnitude 1"),
            ([1.0, 0.0, 0.0, 0.0, 0.0], BadArgumentError, "expected 4 expectations"),
            # a bare float cast would drop 0.5j with only a ComplexWarning
            ([1.0, 0.5j, 0.0, 0.0], BadArgumentError, "must be real numbers"),
        ]
        for values, error, message in cases:
            with pytest.raises(error, match=message):
                PauliExpectationSet(1, values)

    @pytest.mark.parametrize("n_qubits", [0, 4])
    def test_set_qubit_count_out_of_range(self, n_qubits):
        values = np.zeros(4**n_qubits)
        values[0] = 1.0
        with pytest.raises(ValueError, match="support 1..3 qubits"):
            PauliExpectationSet(n_qubits, values)

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
        values = np.zeros(len(_pauli_labels(2)))
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
        for seed in (0, 1, 7, 12345, 2**31 - 1, np.int64(99), 2**64 + 1):
            rho = random_density(rng, 1 << n_qubits)
            got = by_label(simulate_shot_noise(rho, ShotNoiseConfig(shots, seed)))
            want = oracle_shot_noise(rho, shots, seed)
            assert list(got.items()) == list(want.items())

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            ShotNoiseConfig(0, 1)

    @pytest.mark.parametrize("shots", [1.5, 1000.0, True, 2**63, "10"], ids=repr)
    def test_shots_must_be_an_int64_count(self, shots):
        # numpy would truncate a float, count True as one shot and overflow past 2**63 - 1
        with pytest.raises(ValueError, match="shots must be an integer"):
            ShotNoiseConfig(shots, 1)

    @pytest.mark.parametrize("seed", [None, True, 1.5, -1, "3"], ids=repr)
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy would draw a fresh stream for None, count True as seed 1, and raise its own errors for 1.5 and -1
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ShotNoiseConfig(1000, seed)

    def test_largest_shot_count_is_drawn(self):
        rho = validate_density(np.eye(2) / 2)
        for shots in (2**63 - 1, np.int64(5)):
            assert simulate_shot_noise(rho, ShotNoiseConfig(shots, 1)).values.shape == (4,)


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

    @pytest.mark.parametrize(
        "v", [[], [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0], [[0.5, 0.5]]], ids=["empty", "nan", "inf", "-inf", "2-d"]
    )
    def test_simplex_rejects_empty_or_non_finite_input(self, v):
        # without the check, most of these raise a raw IndexError and [-inf, 1] comes back as [0, 1]
        with pytest.raises(ValueError, match="non-empty finite vector"):
            simplex_project(v)

    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308])
            | st.floats(-1e300, 1e300).filter(lambda x: x == 0.0 or abs(x) >= 1e-300),
            min_size=1,
            max_size=8,
        ).flatmap(lambda v: st.lists(st.sampled_from(v), min_size=len(v), max_size=8))  # ties
    )
    def test_simplex_matches_sorted_cumsum_bit_for_bit(self, v):
        v = np.array(v)
        want = sorted_cumsum_simplex(v)
        if want is None:
            with pytest.raises(NumericalFailureError, match="no threshold"):
                simplex_project(v)
        else:
            assert simplex_project(v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("f", [project_psd, closest_physical_state])
    @pytest.mark.parametrize(
        "diagonal, error",
        [([1e308, -1e308, 1.0, 0.0], NumericalFailureError), ([1e308, 1e308, -1e308, -1e308], BadTraceError)],
        ids=["cancelling", "overflowing-trace"],
    )
    def test_overflowing_input_is_a_typed_error(self, f, diagonal, error):
        # the first raised a raw IndexError in the simplex projection, the second warned on the trace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                f(np.diag(diagonal))

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
    def test_non_hermitian_array_is_rejected(self):
        # hermiticity defect 1.0; taking the Hermitian part [[0.5, 0.5], [0.5, 0.5]] would set neither flag
        m = np.eye(2) / 2 + 0.5j * np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError, match="1.000e\\+00"):
            closest_physical_state(m)
        # the defect a validated experimental-profile state may carry is still accepted
        closest_physical_state(np.eye(2) / 2 + np.array([[0.0, EXPERIMENTAL.hermiticity_tol], [0.0, 0.0]]))

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

    def test_projection_runs_one_eigendecomposition(self, solver_calls):
        _, _, projected = closest_physical_state(load_dataset().rho_exp_after)
        # one decomposition decides and projects; the state keeps the projected eigenpairs for its
        # strict validation and for fidelity
        assert projected and solver_calls == {"eigh": 1}

    def test_rejects_non_square_input(self):
        for m in (np.ones((2, 3)) / 2, np.ones(4) / 4):
            with pytest.raises(NotSquareError):
                closest_physical_state(m)

    def test_unprojected_state_is_decomposed_once(self, solver_calls):
        m = 2.0 * random_density(np.random.default_rng(17), 8).matrix  # renormalized, not projected
        solver_calls.clear()
        state, renorm, projected = closest_physical_state(m)
        # the decomposition that decides is the strict validation's, and stays with the state for fidelity
        assert renorm and not projected and solver_calls == {"eigh": 1}
        w, v = state.spectrum
        assert max_abs_diff((v * w) @ v.conj().T, m / 2.0) <= 1e-15

    @pytest.mark.parametrize("m", [np.zeros((2, 2)), -np.eye(2) / 2], ids=["zero", "negative"])
    def test_non_positive_trace_is_bad_trace(self, m):
        # dividing by such a trace reported 0 as a non-finite entry and turned -I/2 into I/2
        with pytest.raises(BadTraceError):
            closest_physical_state(m)

    @pytest.mark.parametrize(
        "m", [[[5e-301, 1e300], [1e300, 5e-301]], np.full((2, 2), 5e-324)], ids=["huge-eigenvalues", "subnormal"]
    )
    def test_trace_too_small_to_divide_by_is_bad_trace(self, m):
        # dividing by it overflowed with a RuntimeWarning, then the simplex step refused the infinite eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadTraceError) as exc:
                closest_physical_state(m)
        assert exc.value.deviation == 1.0

    def test_unprojected_branch_keeps_the_dimension_check(self):
        with pytest.raises(DimNotPowerOfTwoError):
            closest_physical_state(np.eye(3) / 3)


class TestSpectrumReuse:
    def test_pipeline_decomposes_each_state_once(self, solver_calls):
        rho = random_density(np.random.default_rng(7), 8)
        recon = reconstruct_linear(simulate_shot_noise(rho, ShotNoiseConfig(1000, 3)))
        solver_calls.clear()
        fidelity(project_psd(recon), rho)
        # project_psd decomposes once and keeps the projected eigenpairs; fidelity reads both stored spectra
        assert solver_calls == {"eigh": 1, "svd": 1}

    def test_reproduce_theory_solver_counts(self, cold_repro, solver_calls):
        load_dataset()  # cached after the first call
        reproduce_theory()
        # eigh: four experimental validations, whose eigenpairs the closest-physical decisions, projections
        # and diagnostics reuse; eigvalsh: trace distance; svd: two fidelities
        assert solver_calls == {"eigh": 4, "eigvalsh": 1, "svd": 2}
        solver_calls.clear()
        reproduce_theory()  # computed once per process
        assert solver_calls == {}

    def test_matmul_reconstruction_matches_tensordot(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for seed in range(20):
                e = simulate_shot_noise(random_density(rng, 1 << n), ShotNoiseConfig(1000, seed))
                stack = np.stack([pauli_matrix(label) for label in _pauli_labels(n)])
                assert np.array_equal(reconstruct_linear(e), np.tensordot(e.values, stack, 1) / (1 << n))

    @settings(deadline=None)
    @given(densities(), st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 3e-12]), st.integers(0, 2**32 - 1))
    def test_matmul_expectations_match_einsum(self, rho, scale, seed):
        # states Hermitian only to within 2 * sqrt(2) * scale < 1e-11, built directly to skip validation
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, rho.dim, rho.dim))
        m = rho.matrix + scale * (noise[0] + 1j * noise[1])
        stack = np.stack([pauli_matrix(label) for label in _pauli_labels(rho.n_qubits)])
        want = np.einsum("kij,ji->k", stack, m)[1:]
        assume(np.all(np.abs(np.abs(want.imag) - 1e-12) > 1e-15))  # a residue on the threshold may go either way
        bad = np.flatnonzero(~(np.abs(want.imag) <= 1e-12))
        state = unchecked_density(m)
        if bad.size:
            label = _pauli_labels(rho.n_qubits)[int(bad[0]) + 1]
            with pytest.raises(NumericalFailureError, match=f"expectation {label} has imaginary part"):
                pauli_expectations(state)
        else:
            got = pauli_expectations(state).values
            assert got[0] == 1.0 and max_abs_diff(got[1:], want.real) <= 5e-16


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

    @settings(deadline=None)
    @given(densities(), st.sampled_from([0.0, 1e-3, 0.1, 1.0]), st.integers(0, 2**32 - 1))
    def test_projected_state_keeps_the_spectrum_it_was_built_from(self, rho, scale, seed):
        g = np.random.default_rng(seed).normal(size=(2, rho.dim, rho.dim))
        noise = scale * (g[0] + 1j * g[1] + g[0].T - 1j * g[1].T) / 2.0
        h = rho.matrix + noise - np.trace(noise).real / rho.dim * np.eye(rho.dim)  # Hermitian, trace 1
        closest, _, projected = closest_physical_state(h)
        for state, floor in ((project_psd(h), 0.0), (closest, 0.0 if projected else -STRICT.psd_tol)):
            w, v = state.spectrum
            assert not w.flags.writeable and not v.flags.writeable
            assert np.all(np.diff(w) >= 0.0) and w[0] >= floor
            assert max_abs_diff((v * w) @ v.conj().T, state.matrix) <= 1e-12
            assert np.linalg.eigvalsh(state.matrix).min() >= min(floor, -1e-12)

    @settings(deadline=None)
    @given(densities(), st.sampled_from([1.0, 1.0005]), st.sampled_from([0.0, 1e-12, 1e-2]))
    def test_state_and_its_matrix_give_the_same_closest_state(self, rho, scale, shift):
        # a trace defect and a traceless shift that can push an eigenvalue below zero
        m = scale * (rho.matrix + shift * np.diag([1.0] + [0.0] * (rho.dim - 2) + [-1.0]))
        for profile in (STRICT, EXPERIMENTAL):
            try:
                state = validate_density(m, profile)
            except ValidationError:
                continue
            got, want = closest_physical_state(state), closest_physical_state(state.matrix)
            assert got[1:] == want[1:]
            for a, b in zip((got[0].matrix, *got[0].spectrum), (want[0].matrix, *want[0].spectrum)):
                assert a.tobytes() == b.tobytes()

    @given(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8))
    def test_simplex_projection_is_idempotent(self, v):
        once = simplex_project(v)
        assert once.min() >= 0.0 and abs(once.sum() - 1.0) <= 1e-12
        assert max_abs_diff(simplex_project(once), once) <= 1e-12


_ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def adversarial_squares(draw):
    """Unit-trace states of rank 1 to d, each by a draw made non-Hermitian, trace-shifted by up to 1e-3 and given
    entries near +-1e308."""
    d = draw(st.sampled_from([2, 4, 8]))
    g = draw(arrays(complex, (d, draw(st.integers(1, d))), elements=_ENTRIES))
    m = g @ g.conj().T
    m = m / np.trace(m).real if np.trace(m).real > 1e-6 else np.eye(d, dtype=complex) / d
    m += draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-4, 1e-3, 1.0])) * draw(arrays(complex, (d, d), elements=_ENTRIES))
    m += draw(st.floats(-1e-3, 1e-3)) / d * np.eye(d)
    for i, j, z in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                           st.sampled_from([1e308, -1e308, 1e308j, -8.9e307 - 8.9e307j])), max_size=2)):
        m[i, j] = z
    return m


# the trace deviation each check site reports, from the trace that _trace_and_defect measures
_CHECK_SITES = {
    "validate_density strict": (lambda a: validate_density(a, STRICT), lambda t: abs(t - 1.0)),
    "validate_density experimental": (lambda a: validate_density(a, EXPERIMENTAL), lambda t: abs(t - 1.0)),
    "project_psd": (project_psd, lambda t: abs(t - 1.0)),
    "closest_physical_state": (closest_physical_state, lambda t: abs(t.real - 1.0)),
}


@pytest.mark.parametrize("site", sorted(_CHECK_SITES))
@settings(deadline=None)
@given(a=adversarial_squares())
def test_check_sites_report_the_measured_invariants(site, a):
    # one measurement serves validation and both projections, so a rejection reports _trace_and_defect's numbers
    check, trace_deviation = _CHECK_SITES[site]
    trace, defect = _trace_and_defect(a)
    try:
        check(a)
    except NotHermitianError as exc:
        assert exc.deviation == defect
    except BadTraceError as exc:
        assert np.array_equal(exc.deviation, trace_deviation(trace), equal_nan=True)
    except NotPsdError as exc:
        assert site.startswith("validate_density") and exc.min_eigenvalue == _eigh(a)[0][0]
    except NmrsimError:
        pass
