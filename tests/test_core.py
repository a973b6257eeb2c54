import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    densities,
    max_abs_diff,
    pure_densities,
    pure_states,
    random_density,
    random_pure,
    random_unitary,
    ranked_densities,
    unchecked_density,
    unitaries,
)
from nmrsim.core import (
    EXPERIMENTAL,
    STRICT,
    DensityMatrix,
    PureState,
    UnitaryOperator,
    ValidationProfile,
    _eigh,
    _expect,
    _hermitian_part,
    _trace_and_defect,
    basis_state,
    bell_state,
    check_unitary,
    density_from_pure,
    evolve,
    fidelity,
    pure_state,
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
    NotPureError,
    NotSquareError,
    NotUnitaryError,
    NumericalFailureError,
    WrongDimError,
)
from nmrsim.ensemble import EnsembleHistory, concurrence, density_of
from nmrsim.pseudopure import PopulationVector, compose_pseudopure, extract_epsilon
from nmrsim.repro import load_dataset
from nmrsim.separability import is_separable_2q, partial_transpose
from nmrsim.tomography import (
    PauliExpectationSet,
    ShotNoiseConfig,
    closest_physical_state,
    pauli_matrix,
    project_psd,
    reconstruct_linear,
    simplex_project,
    simulate_shot_noise,
)


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

    @pytest.mark.parametrize("check", [validate_density, check_unitary, project_psd, closest_physical_state])
    @pytest.mark.parametrize(
        "m, error",
        [
            (np.ones((2, 3)), NotSquareError),
            (np.ones(4) / 4, NotSquareError),
            ([[1, 0], [0, "x"]], BadArgumentError),
            ([[0.5, 0], [0.5]], BadArgumentError),
            (np.zeros((0, 0)), DimNotPowerOfTwoError),
        ],
        ids=["2x3", "1-d", "non-numeric", "ragged", "0x0"],
    )
    def test_every_matrix_entry_point_types_malformed_input(self, check, m, error):
        # numpy's own conversion, broadcasting and empty-reduction errors are not NmrsimErrors
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
        assert _trace_and_defect(m) == (pytest.approx(1.3), 0.0)
        assert _eigh(m)[0][0] == pytest.approx(-0.1, abs=1e-12)
        with pytest.raises(BadTraceError):
            validate_density(m, STRICT)
        m[0, 1] = 0.25
        assert _trace_and_defect(m)[1] == pytest.approx(0.25)
        with pytest.raises(NotHermitianError):
            validate_density(m, STRICT)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry_rejected(self, where):
        # the eigensolver has no defined result here; it used to pass or raise LinAlgError
        m = np.eye(2, dtype=complex) / 2
        m[where] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite"):
            _eigh(m)
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
        u = validate_unitary(pauli_matrix("XI"))
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
        # so a NaN above the diagonal made trace_distance(r, r) return 0.0, and fidelity reads the NaN eigenpairs
        m = np.eye(4, dtype=complex) / 4
        m[where] = np.nan
        r = unchecked_density(m)
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
    """Tensor products of Paulis, as ``pauli_matrix`` forms them, on the computational basis."""

    def test_identity(self):
        assert max_abs_diff(pauli_matrix("II"), np.eye(4)) == 0.0

    def test_z_times_identity(self):
        assert max_abs_diff(pauli_matrix("ZI"), np.diag([1, 1, -1, -1])) == 0.0

    def test_xx_flips_basis_state(self):
        out = pauli_matrix("XX") @ basis_state(2, 0).amplitudes
        assert max_abs_diff(out, basis_state(2, 3).amplitudes) == 0.0

    def test_associative_on_exact_inputs(self):
        left = np.kron(pauli_matrix("XY"), pauli_matrix("Z"))
        right = np.kron(pauli_matrix("X"), pauli_matrix("YZ"))
        assert np.array_equal(left, right) and np.array_equal(left, pauli_matrix("XYZ"))


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

    @pytest.mark.parametrize(
        "size, error, message",
        [(3, DimNotPowerOfTwoError, "dimension 3 is not a power of two"), (16, WrongDimError, "at most 3 qubits")],
    )
    @pytest.mark.parametrize("norm", [1.0, 2.0], ids=["normalized", "unnormalized"])
    def test_dimension_is_checked_before_the_norm(self, size, error, message, norm):
        # the errors validate_density raises for the state's projector, before any d x d array is built
        with pytest.raises(error, match=message):
            pure_state(np.full(size, norm / np.sqrt(size)))

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
        # the pseudo-pure target check reads the purity tr(rho^2); extract_epsilon(r, r) is (d tr(r^2) - 1) / (d - 1)
        bell = density_from_pure(bell_state("phi+"))
        assert extract_epsilon(bell, bell).epsilon == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(NotPureError) as exc:
            compose_pseudopure(0.5, validate_density(np.eye(4) / 4, STRICT))
        assert exc.value.purity == pytest.approx(0.25, abs=1e-12)

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
    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(ranked_densities(n), pure_states(n), unitaries(n))),
        st.floats(0.0, 1.0),
        st.floats(0.01, 0.99),
        st.floats(0.5, 2.0),
    )
    def test_every_state_the_package_builds_carries_its_eigenpairs(self, case, eps, weight, scale):
        rho, psi, u = case
        n, d = rho.n_qubits, rho.dim
        h = rho.matrix + 0.5 * eps * np.diag(np.linspace(-1.0, 1.0, d))  # traceless shift: often not PSD
        history = EnsembleHistory("h", [(1.0 - weight, psi), (weight, basis_state(n, 0))])
        built = {
            "validate_density": (rho, 0.0),
            "density_from_pure": (density_from_pure(psi), 0.0),
            "evolve": (evolve(rho, u), check_unitary(u.matrix)[1]),
            "project_psd": (project_psd(h), 0.0),
            "closest_physical_state(array)": (closest_physical_state(scale * h)[0], 0.0),
            "closest_physical_state(state)": (closest_physical_state(rho)[0], 0.0),
            "density_of": (density_of(history), 0.0),
            "compose_pseudopure": (compose_pseudopure(eps, density_from_pure(psi)), 0.0),
        }
        for name, (state, defect) in built.items():
            w, v = state.spectrum
            assert np.all(np.diff(w) >= 0), name
            assert max_abs_diff((v * w) @ v.conj().T, _hermitian_part(state.matrix)) <= 1e-12 + defect, name
            assert max_abs_diff(v.conj().T @ v, np.eye(d)) <= 1e-12 + defect, name

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
        assert _eigh(rho) is rho.spectrum  # reused, not solved again
        fresh = _eigh(rho.matrix)
        assert np.array_equal(fresh[0], w) and np.array_equal(fresh[1], v)


class TestOverflow:
    """Finite inputs whose arithmetic overflows are rejected by the invariant they break, without a warning."""

    def test_hermitian_part_does_not_overflow(self):
        with pytest.raises(NotPsdError) as exc:
            validate_density(np.diag([1e308, -1e308, 1.0, 0.0]))
        assert exc.value.min_eigenvalue == -1e308

    def test_overflowing_defect_is_infinite(self):
        assert _trace_and_defect(np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex))[1] == np.inf
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


@pytest.mark.parametrize("check", [project_psd, closest_physical_state, check_unitary])
def test_qubit_limit_is_checked_before_any_eigen_solve(check, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an eigen-solve ran on a matrix beyond the qubit limit")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(WrongDimError):
        check(np.eye(16) / 16)


_I2 = np.eye(2)
_BELL = density_from_pure(bell_state("phi+"))
_MIXED = validate_density(np.eye(4) / 4)

# Each call passes a state type that its builder did not make; a wrong number or a raw error came out of each.
_FORGED = (np.array([0, 0, 0, 1.0]), np.eye(4))  # the eigenpairs of |11><11|, not of I/4
NOT_BUILT = {
    "forged spectrum": ("validate_density", lambda: fidelity(DensityMatrix(np.eye(4) / 4, 4, 2, _FORGED), _MIXED)),
    "hand-built step": ("validate_unitary", lambda: evolve(_MIXED, UnitaryOperator(2 * np.eye(4), 4))),
    "hand-built pure state": ("pure_state", lambda: concurrence(PureState(np.array([2, 0, 0, 2]), 4))),
    "replaced state": ("validate_density", lambda: fidelity(replace(_MIXED, matrix=np.eye(4) / 2), _MIXED)),
    "replaced state, projected": ("validate_density", lambda: closest_physical_state(replace(_MIXED, matrix=_I2))),
    "hand-built history member": ("pure_state", lambda: EnsembleHistory("l", [(1.0, PureState(np.eye(4)[0], 4))])),
}


@pytest.mark.parametrize("builder, call", NOT_BUILT.values(), ids=NOT_BUILT.keys())
def test_a_state_type_not_from_its_builder_is_refused_naming_the_builder(builder, call):
    with pytest.raises(BadArgumentError, match=f"from {builder},"):
        call()


@pytest.mark.parametrize("built", [_MIXED, bell_state("psi-"), validate_unitary(_I2)], ids=["state", "pure", "step"])
@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["copy", "deepcopy", "pickle"]
)
def test_a_copied_or_pickled_state_type_keeps_its_builders_mark(built, duplicate):
    twin = duplicate(built)
    assert _expect(twin, type(built), "copy") is twin
    data = next(iter(vars(built)))  # the matrix or the amplitudes
    assert np.array_equal(getattr(twin, data), getattr(built, data))


# Each call passes data that is not numbers of the kind its argument takes; each was once accepted or raised a raw
# numpy or Python error.
NOT_NUMBERS = {
    "string matrix": lambda: validate_density([["0.5", 0], [0, "0.5"]]),
    "bool-mixed matrix": lambda: validate_density([[0.5, False], [0, 0.5]]),
    "bool matrix": lambda: validate_density([[True, False], [False, False]]),
    "bool unitary": lambda: check_unitary([[True, False], [False, True]]),
    "non-numeric amplitude": lambda: pure_state([1, "x"]),
    "numeric-string amplitudes": lambda: pure_state(["1", "0"]),
    "ragged amplitudes": lambda: pure_state([[1, 0], [0]]),
    "numeric-string populations": lambda: PopulationVector(["3", "1"]),
    "non-numeric population": lambda: PopulationVector(["x", 1]),
    "complex population": lambda: PopulationVector([3 + 1j, 1]),
    "complex simplex input": lambda: simplex_project(np.array([0.5 + 1j, 0.5])),
    "string simplex input": lambda: simplex_project(["0.7", "0.3"]),
    "bool PPT tolerance": lambda: is_separable_2q(_BELL, True),
    "string PPT tolerance": lambda: is_separable_2q(_MIXED, "x"),
    "missing unitarity tolerance": lambda: validate_unitary(_I2, None),
    "string profile tolerance": lambda: ValidationProfile("p", "x", 1e-3, 1e-3),
    "bool epsilon": lambda: compose_pseudopure(True, _BELL),
    "string epsilon": lambda: compose_pseudopure("0.5", _BELL),
    "float qubit": lambda: partial_transpose(_MIXED, 1.0),
    "bool qubit": lambda: partial_transpose(_MIXED, True),
    "string weight": lambda: EnsembleHistory("l", [("1", bell_state("phi+"))]),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
def test_argument_that_is_not_numbers_is_a_bad_argument(call):
    with pytest.raises(BadArgumentError):
        call()


COMPLEX_TARGETS = (
    validate_density,
    validate_unitary,
    check_unitary,
    project_psd,
    closest_physical_state,
    pure_state,
)
REAL_TARGETS = (lambda x: PauliExpectationSet(1, x), PopulationVector, simplex_project)
_SHAPES = st.sampled_from([(2,), (4,), (2, 2), (4, 4)])
NOT_NUMBER_ARRAYS = st.one_of(
    arrays(bool, _SHAPES),
    arrays(st.sampled_from(["U1", "U4", "S3"]), _SHAPES),
    arrays(object, _SHAPES, elements=st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=2))),
    st.lists(st.lists(st.floats(-2, 2), max_size=4), min_size=2, max_size=4).filter(
        lambda rows: len({len(r) for r in rows}) > 1
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_array_that_is_not_numbers_raises_only_typed_errors(data):
    real = data.draw(st.booleans())
    target = data.draw(st.sampled_from(REAL_TARGETS if real else COMPLEX_TARGETS))
    x = data.draw(st.one_of(NOT_NUMBER_ARRAYS, arrays(complex, _SHAPES)) if real else NOT_NUMBER_ARRAYS)
    with pytest.raises(NmrsimError):
        target(x)
