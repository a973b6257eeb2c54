import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import densities, max_abs_diff, pure_densities, random_density, random_pure, random_unitary, unitaries
from nmrsim.core import (
    EXPERIMENTAL,
    PAULI_1Q,
    STRICT,
    DensityMatrix,
    ValidationProfile,
    _hermitian_part,
    basis_state,
    bell_state,
    check_unitary,
    density_from_pure,
    density_invariants,
    evolve,
    fidelity,
    pure_state,
    purity,
    tensor,
    trace_distance,
    validate_density,
    validate_unitary,
)
from nmrsim.errors import (
    BadArgumentError,
    BadTraceError,
    DimMismatchError,
    DimNotPowerOfTwoError,
    NmrsimError,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    NotSquareError,
    NotUnitaryError,
    NumericalFailureError,
    WrongDimError,
)
from nmrsim.repro import load_dataset
from nmrsim.tomography import ShotNoiseConfig, project_psd, reconstruct_linear, simulate_shot_noise


class TestValidateDensity:
    def test_maximally_mixed_is_strict_valid(self):
        rho = validate_density(np.eye(4) / 4, STRICT)
        assert rho.dim == 4
        assert rho.n_qubits == 2

    def test_printed_experimental_matrix_validates(self):
        # 4-decimal instrument data: passes only under the experimental profile
        ds = load_dataset()
        rho = validate_density(ds.rho_initial, EXPERIMENTAL)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        with pytest.raises(NotPsdError):
            validate_density(ds.rho_initial, STRICT)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPsdError) as exc:
            validate_density(np.diag([0.6, 0.6, -0.1, -0.1]), STRICT)
        assert exc.value.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            validate_density(np.ones((2, 3)), STRICT)

    @pytest.mark.parametrize("check", [validate_density, check_unitary, project_psd, density_invariants])
    @pytest.mark.parametrize(
        "m, error",
        [
            (np.ones((2, 3)), NotSquareError),
            (np.ones(4) / 4, NotSquareError),
            ([[1, 0], [0, "x"]], BadArgumentError),
            ([[0.5, 0], [0.5]], BadArgumentError),
        ],
        ids=["2x3", "1-d", "non-numeric", "ragged"],
    )
    def test_every_matrix_entry_point_types_malformed_input(self, check, m, error):
        # numpy's own conversion and broadcasting errors are not NmrsimErrors
        with pytest.raises(error):
            check(m)

    def test_dim_not_power_of_two(self):
        with pytest.raises(DimNotPowerOfTwoError):
            validate_density(np.eye(3) / 3, STRICT)

    def test_not_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.5
        with pytest.raises(NotHermitianError) as exc:
            validate_density(m, STRICT)
        assert exc.value.deviation == pytest.approx(0.5)

    def test_bad_trace(self):
        with pytest.raises(BadTraceError) as exc:
            validate_density(np.eye(2), STRICT)
        assert exc.value.deviation == pytest.approx(1.0)

    def test_error_order_hermiticity_then_trace_then_psd(self):
        m = np.diag([1.0, 0.5, -0.1, -0.1]).astype(complex)
        inv = density_invariants(m)
        assert inv.trace == pytest.approx(1.3)
        assert inv.hermiticity_defect == 0.0
        assert inv.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
        with pytest.raises(BadTraceError):
            validate_density(m, STRICT)
        m[0, 1] = 0.25
        assert density_invariants(m).hermiticity_defect == pytest.approx(0.25)
        with pytest.raises(NotHermitianError):
            validate_density(m, STRICT)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry_rejected(self, where):
        # the eigensolver has no defined result here; it used to pass or raise LinAlgError
        m = np.eye(2, dtype=complex) / 2
        m[where] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            density_invariants(m)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            validate_density(m, STRICT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("field", range(3), ids=["hermiticity", "trace", "psd"])
    def test_profile_rejects_unusable_tolerance(self, field, bad):
        # NaN fails every `>` check, so a NaN trace tolerance would accept diag(2, 0, 0, 0)
        tols = [1e-10, 1e-10, 1e-10]
        tols[field] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ValidationProfile("x", *tols)

    def test_profile_accepts_zero_tolerance(self):
        rho = validate_density(np.eye(2) / 2, ValidationProfile("exact", 0.0, 0.0, 0.0))
        assert rho.dim == 2

    def test_matrix_is_read_only(self):
        rho = validate_density(np.eye(2) / 2, STRICT)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestEvolve:
    def test_identity_state_commutes(self):
        ds = load_dataset()
        rho = validate_density(np.eye(4) / 4, STRICT)
        out = evolve(rho, ds.c_corrected)
        assert max_abs_diff(out.matrix, np.eye(4) / 4) < 1e-15

    def test_bit_flip_on_first_qubit(self):
        rho = density_from_pure(basis_state(2, 0))
        u = validate_unitary(tensor(PAULI_1Q["X"], PAULI_1Q["I"]))
        out = evolve(rho, u)
        expected = density_from_pure(basis_state(2, 2))
        assert max_abs_diff(out.matrix, expected.matrix) == 0.0

    def test_dim_mismatch(self):
        rho = validate_density(np.eye(2) / 2, STRICT)
        u = validate_unitary(np.eye(4))
        with pytest.raises(DimMismatchError):
            evolve(rho, u)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_random_evolution_properties(self, dim):
        rng = np.random.default_rng(101 + dim)
        for _ in range(20):
            rho = random_density(rng, dim)
            u = random_unitary(rng, dim)
            out = evolve(rho, u)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            ev_in = np.sort(np.linalg.eigvalsh(rho.matrix))
            ev_out = np.sort(np.linalg.eigvalsh(out.matrix))
            assert max_abs_diff(ev_in, ev_out) < 1e-9
            undone = evolve(out, validate_unitary(u.matrix.conj().T))
            assert max_abs_diff(undone.matrix, rho.matrix) < 1e-10
            # strict validation accepts everything evolve produces
            validate_density(out.matrix, STRICT)


class TestFidelityAndTraceDistance:
    def test_self_fidelity(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = density_from_pure(basis_state(2, 0))
        b = density_from_pure(basis_state(2, 3))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_vs_pure_closed_form(self):
        # for pure sigma, fidelity reduces to tr(rho sigma) = 1/4
        mixed = validate_density(np.eye(4) / 4, STRICT)
        pure = density_from_pure(basis_state(2, 0))
        assert fidelity(mixed, pure) == pytest.approx(0.25, abs=1e-12)

    def test_trace_distance_half_mixed(self):
        # eigenvalues of I/2 - |0><0| are (-1/2, 1/2)
        mixed = validate_density(np.eye(2) / 2, STRICT)
        zero = density_from_pure(basis_state(1, 0))
        assert trace_distance(mixed, zero) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_and_bounds(self):
        # fidelity here is the squared convention, so the distance bounds
        # read 1 - sqrt(F) <= T <= sqrt(1 - F)
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            f_ab = fidelity(rho, sigma)
            f_ba = fidelity(sigma, rho)
            assert abs(f_ab - f_ba) < 1e-9
            t = trace_distance(rho, sigma)
            assert 1 - np.sqrt(f_ab) <= t + 1e-9
            assert t <= np.sqrt(1 - f_ab) + 1e-9

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 4)
        sigma = random_density(rng, 4)
        assert fidelity(rho, sigma) < 1.0 - 1e-6
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 2)])
    def test_non_finite_entry_is_numerical_failure(self, where):
        # built directly to skip validation; eigvalsh reads one triangle only,
        # so a NaN above the diagonal made trace_distance(r, r) return 0.0
        m = np.eye(4, dtype=complex) / 4
        m[where] = np.nan
        r = DensityMatrix(m, 4, 2)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            trace_distance(r, r)
        with pytest.raises(NumericalFailureError, match="non-finite"):
            fidelity(r, r)

    def test_dim_mismatch(self):
        a = validate_density(np.eye(2) / 2, STRICT)
        b = validate_density(np.eye(4) / 4, STRICT)
        with pytest.raises(DimMismatchError):
            fidelity(a, b)
        with pytest.raises(DimMismatchError):
            trace_distance(a, b)


class TestTensor:
    def test_identity(self):
        assert max_abs_diff(tensor(PAULI_1Q["I"], PAULI_1Q["I"]), np.eye(4)) == 0.0

    def test_z_times_identity(self):
        assert max_abs_diff(tensor(PAULI_1Q["Z"], PAULI_1Q["I"]), np.diag([1, 1, -1, -1])) == 0.0

    def test_xx_flips_basis_state(self):
        xx = tensor(PAULI_1Q["X"], PAULI_1Q["X"])
        out = xx @ basis_state(2, 0).amplitudes
        assert max_abs_diff(out, basis_state(2, 3).amplitudes) == 0.0

    def test_associative_on_exact_inputs(self):
        a, b, c = PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"]
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left, right)


class TestCheckUnitary:
    def test_identity(self):
        ok, defect = check_unitary(np.eye(4), 1e-12)
        assert ok and defect == 0.0

    def test_corrected_step_matrix(self):
        # entries are exact binary fractions, so the defect is exactly zero
        ds = load_dataset()
        ok, defect = check_unitary(ds.c_corrected.matrix, 1e-12)
        assert ok
        assert defect <= 1e-15

    def test_raw_step_matrix_fails(self):
        ds = load_dataset()
        ok, defect = check_unitary(ds.c_raw, 1e-6)
        assert not ok
        assert defect > 0.1

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            check_unitary(np.ones((2, 3)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_unusable_tolerance(self, tol):
        # no defect, not even the identity's 0.0, passes `<=` a NaN or negative tolerance
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_unitary(np.eye(2), tol)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            validate_unitary(np.eye(2), tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        for check in (check_unitary, validate_unitary):
            with pytest.raises(NumericalFailureError, match="non-finite"):
                check(m)

    def test_validate_unitary_rejects(self):
        with pytest.raises(NotUnitaryError) as exc:
            validate_unitary(np.eye(2) * 2)
        assert exc.value.defect == pytest.approx(3.0)

    def test_validate_unitary_applies_the_qubit_rule(self):
        # a permutation is unitary at any size; only the dimension is wrong here
        with pytest.raises(DimNotPowerOfTwoError, match="dimension 3 is not a power of two"):
            validate_unitary(np.eye(3))
        with pytest.raises(WrongDimError, match="at most 3 qubits are supported, got 4"):
            validate_unitary(np.eye(16))


class TestPureStates:
    def test_norm_enforced(self):
        with pytest.raises(NotNormalizedError):
            pure_state([1.0, 1.0])

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]], ids=["nan", "nan2", "inf"])
    def test_non_finite_amplitudes_rejected(self, amplitudes):
        # a NaN norm fails every comparison, so "dev > tol" would let it through
        with pytest.raises(NotNormalizedError):
            pure_state(amplitudes)

    @pytest.mark.parametrize("amplitudes", [[], [1.0]], ids=["empty", "scalar"])
    def test_fewer_than_two_amplitudes_rejected(self, amplitudes):
        with pytest.raises(NotNormalizedError, match="empty or scalar"):
            pure_state(amplitudes)

    def test_basis_index_out_of_range(self):
        with pytest.raises(BadArgumentError, match="basis index 4 out of range for dimension 4"):
            basis_state(2, 4)

    @pytest.mark.parametrize(
        "n_qubits, index", [(2.0, 0), (2, 1.5), (True, 1)], ids=["float-count", "float-index", "bool-count"]
    )
    def test_basis_state_non_integer_argument(self, n_qubits, index):
        # otherwise a float count fails in the shift, a float index in numpy's indexing, and True counts as 1 qubit
        with pytest.raises(BadArgumentError, match="must be integers"):
            basis_state(n_qubits, index)

    def test_basis_state_accepts_numpy_integers(self):
        psi = basis_state(np.int64(2), np.int32(3))
        assert psi.dim == 4 and psi.amplitudes[3] == 1.0

    @pytest.mark.parametrize("n_qubits", [-1, 0, 4, 10**6])
    def test_basis_state_qubit_count_out_of_range(self, n_qubits):
        # a negative count used to escape as the shift's raw ValueError, 0 and 4 to give dims 1 and 16
        with pytest.raises(WrongDimError, match=f"basis states have 1 to 3 qubits, got {n_qubits}$"):
            basis_state(n_qubits, 0)

    def test_bell_states_normalized_and_orthogonal(self):
        kinds = ["phi+", "phi-", "psi+", "psi-"]
        states = [bell_state(k) for k in kinds]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                ip = abs(np.vdot(a.amplitudes, b.amplitudes))
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_unknown_bell_kind(self):
        with pytest.raises(ValueError):
            bell_state("sigma+")

    def test_purity_of_pure_and_mixed(self):
        assert purity(density_from_pure(bell_state("phi+"))) == pytest.approx(1.0, abs=1e-12)
        assert purity(validate_density(np.eye(4) / 4, STRICT)) == pytest.approx(0.25, abs=1e-12)

    def test_strict_accepts_pure_projectors(self):
        rng = np.random.default_rng(17)
        for dim in (2, 4, 8):
            psi = random_pure(rng, dim)
            validate_density(density_from_pure(psi).matrix, STRICT)


def test_eigendecomposition_accuracy_up_to_dim_8():
    # the dense solver must reassemble Hermitian matrices to 1e-10 relative
    rng = np.random.default_rng(19)
    for dim in (2, 4, 8):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (g + g.conj().T) / 2
        w, v = np.linalg.eigh(h)
        back = (v * w) @ v.conj().T
        scale = float(np.max(np.abs(h)))
        assert max_abs_diff(back, h) / scale < 1e-10


class TestProperties:
    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(densities(n), unitaries(n))))
    def test_evolve_preserves_trace_and_spectrum(self, case):
        rho, u = case
        out = evolve(rho, u)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
        assert max_abs_diff(np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix)) <= 1e-9

    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(densities(n), densities(n))))
    def test_fidelity_is_symmetric_and_bounded(self, pair):
        rho, sigma = pair
        f = fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0
        assert abs(f - fidelity(sigma, rho)) <= 1e-9

    @settings(deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(pure_densities(n), densities(n))),
        st.sampled_from([3, 1000]),
        st.integers(0, 2**32 - 1),
    )
    def test_fidelity_with_a_pure_state_is_its_expectation(self, pair, shots, seed):
        # a pure state's round-off eigenvalues (about 1e-16) have roots of about 1e-8; they must not count
        sigma, rho = pair
        noisy = project_psd(reconstruct_linear(simulate_shot_noise(sigma, ShotNoiseConfig(shots, seed))))
        for state in (rho, noisy):
            want = np.vdot(sigma.matrix, state.matrix).real  # tr(sigma state) = <psi|state|psi>
            assert abs(fidelity(sigma, state) - want) <= 1e-12
            assert abs(fidelity(state, sigma) - want) <= 1e-12

    @settings(deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(densities(n), densities(n))))
    def test_stored_spectrum_is_read_only_and_reused_exactly(self, pair):
        rho, sigma = pair
        w, v = rho.spectrum
        assert not w.flags.writeable and not v.flags.writeable
        assert np.all(np.diff(w) >= 0)
        assert max_abs_diff((v * w) @ v.conj().T, (rho.matrix + rho.matrix.conj().T) / 2) <= 1e-12
        bare_rho, bare_sigma = (DensityMatrix(x.matrix, x.dim, x.n_qubits) for x in pair)
        assert bare_rho.spectrum is None
        f = fidelity(rho, sigma)
        assert f == fidelity(bare_rho, bare_sigma) == fidelity(rho, bare_sigma) == fidelity(bare_rho, sigma)
        assert density_invariants(rho) == density_invariants(bare_rho) == density_invariants(rho.matrix)


class TestOverflow:
    """Finite inputs whose arithmetic overflows are rejected by the invariant they break, without a warning."""

    def test_hermitian_part_does_not_overflow(self):
        with pytest.raises(NotPsdError) as exc:
            validate_density(np.diag([1e308, -1e308, 1.0, 0.0]))
        assert exc.value.min_eigenvalue == -1e308

    def test_overflowing_defect_is_infinite(self):
        assert density_invariants(np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)).hermiticity_defect == np.inf
        with pytest.raises(NotHermitianError):
            validate_density([[0.5, 1e308], [-1e308, 0.5]], EXPERIMENTAL)

    def test_overflowing_trace_is_a_trace_error(self):
        # the float64 sum of this diagonal is NaN, which must not pass the trace check
        with pytest.raises(BadTraceError):
            validate_density(np.diag([1e308, 1e308, -1e308, -1e308]), EXPERIMENTAL)

    def test_overflowing_unitarity_defect_is_not_ok(self):
        assert check_unitary(1e200 * np.eye(2)) == (False, np.inf)

    def test_overflowing_norm_is_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            pure_state([1e200, 0.0])

    @settings(max_examples=50)
    @given(
        st.sampled_from([2, 4, 8]).flatmap(
            lambda d: arrays(
                complex,
                (d, d),
                elements=st.builds(
                    complex,
                    st.floats(-8.9e307, 8.9e307).filter(lambda x: x == 0 or abs(x) >= 2.0**-1021),
                    st.floats(-8.9e307, 8.9e307).filter(lambda x: x == 0 or abs(x) >= 2.0**-1021),
                ),
            )
        )
    )
    def test_halving_first_is_exact_where_halves_are_exact(self, a):
        # both forms round (a + a^dag) / 2 once, unless halving an entry below 2**-1021 rounds; a zero's sign may differ
        assert np.array_equal(_hermitian_part(a), (a + a.conj().T) / 2.0)


def test_bad_argument_is_a_typed_value_error():
    with pytest.raises(BadArgumentError) as exc:
        bell_state("phi0")
    assert isinstance(exc.value, NmrsimError) and isinstance(exc.value, ValueError)


@pytest.mark.parametrize("dim, error", [(12, DimNotPowerOfTwoError), (16, WrongDimError)])
def test_qubit_limit_is_checked_after_the_power_of_two(dim, error):
    with pytest.raises(error):
        validate_density(np.eye(dim) / dim)
