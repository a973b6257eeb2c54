import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import critical_epsilon_bisection, densities, max_abs_diff, random_density, random_pure, unchecked_density
from nmrsim.core import (
    STRICT,
    basis_state,
    bell_state,
    density_from_pure,
    pure_state,
    validate_density,
)
from nmrsim.errors import NotPureError, NumericalFailureError, WrongDimError
from nmrsim.pseudopure import compose_pseudopure
from nmrsim.separability import (
    critical_epsilon,
    is_separable_2q,
    partial_transpose,
    ppt_first_vs_rest,
)


class TestPartialTranspose:
    def test_identity_fixed(self):
        rho = validate_density(np.eye(4) / 4, STRICT)
        assert max_abs_diff(partial_transpose(rho, 1), np.eye(4) / 4) == 0.0

    def test_diagonal_product_state_fixed(self):
        rho = density_from_pure(basis_state(2, 0))
        assert max_abs_diff(partial_transpose(rho, 1), rho.matrix) == 0.0

    def test_bell_spectrum(self):
        rho = density_from_pure(bell_state("phi+"))
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(rho, 1)))
        assert max_abs_diff(eigs, [-0.5, 0.5, 0.5, 0.5]) < 1e-12

    @pytest.mark.parametrize(
        "n_qubits, qubit", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)], ids=["2-0", "2-1", "3-0", "3-1", "3-2"]
    )
    def test_involution_trace_hermiticity(self, n_qubits, qubit):
        rng = np.random.default_rng(61)
        dim = 1 << n_qubits
        for _ in range(20):
            rho = random_density(rng, dim)
            pt = partial_transpose(rho, qubit)
            assert np.trace(pt) == np.trace(rho.matrix)
            assert np.array_equal(pt, pt.conj().T)
            # partial transposes of entangled states are not PSD, so rewrap without validation
            twice = partial_transpose(unchecked_density(pt), qubit)
            assert np.array_equal(twice, rho.matrix)

    @settings(deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(densities(n), st.integers(0, n - 1))))
    def test_involution_property(self, case):
        # 1-qubit states have no bipartition, so only 2 and 3 qubits are drawn
        rho, qubit = case
        pt = partial_transpose(rho, qubit)
        twice = partial_transpose(unchecked_density(pt), qubit)
        assert np.array_equal(twice, rho.matrix)

    def test_bell_pair_on_last_two_qubits(self):
        # |0> (x) |phi+>: qubit 0 is a product factor, qubits 1 and 2 share the Bell pair
        psi = pure_state(np.kron(basis_state(1, 0).amplitudes, bell_state("phi+").amplitudes))
        rho = density_from_pure(psi)
        for qubit, expected in ((0, 0.0), (1, -0.5), (2, -0.5)):
            assert np.linalg.eigvalsh(partial_transpose(rho, qubit)).min() == pytest.approx(expected, abs=1e-12)

    def test_wrong_dim(self):
        for dim in (2, 16):
            with pytest.raises(WrongDimError):
                partial_transpose(validate_density(np.eye(dim) / dim, STRICT), 0)

    def test_bad_subsystem(self):
        rho = validate_density(np.eye(4) / 4, STRICT)
        for qubit in (-1, 2):
            with pytest.raises(ValueError, match="qubit"):
                partial_transpose(rho, qubit)


class TestPptReport:
    def test_maximally_mixed_is_ppt(self):
        rep = is_separable_2q(validate_density(np.eye(4) / 4, STRICT))
        assert rep.is_ppt

    def test_bell_is_not_ppt(self):
        rep = is_separable_2q(density_from_pure(bell_state("phi+")))
        assert not rep.is_ppt
        assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_weakly_mixed_bell_is_ppt(self):
        rho = compose_pseudopure(0.2, density_from_pure(bell_state("phi+")))
        assert is_separable_2q(rho).is_ppt

    def test_report_consistency(self):
        rep = is_separable_2q(validate_density(np.eye(4) / 4, STRICT), tol=1e-10)
        assert rep.is_ppt == (rep.min_eigenvalue >= -rep.tolerance)

    def test_wrong_dim(self):
        with pytest.raises(WrongDimError):
            is_separable_2q(validate_density(np.eye(8) / 8, STRICT))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_tolerance(self, tol):
        mixed = validate_density(np.eye(4) / 4, STRICT)
        with pytest.raises(ValueError, match="tolerance"):
            is_separable_2q(mixed, tol)
        with pytest.raises(ValueError, match="tolerance"):
            ppt_first_vs_rest(mixed, tol)


    def test_non_finite_entry_is_numerical_failure(self):
        # built directly to skip validation: a pure Bell projector with a NaN
        m = density_from_pure(bell_state("phi+")).matrix.copy()
        m[0, 1] = np.nan
        rho = unchecked_density(m)
        for check in (is_separable_2q, ppt_first_vs_rest, critical_epsilon):
            with pytest.raises(NumericalFailureError, match="non-finite"):
                check(rho)


class TestPptFirstVsRest:
    def test_ghz_fails(self):
        ghz = np.zeros(8, dtype=complex)
        ghz[0] = ghz[7] = np.sqrt(0.5)
        rho = density_from_pure(pure_state(ghz))
        assert not ppt_first_vs_rest(rho).is_ppt

    def test_product_across_cut_passes(self):
        psi = pure_state(np.kron(basis_state(1, 0).amplitudes, bell_state("phi+").amplitudes))
        rho = density_from_pure(psi)
        assert ppt_first_vs_rest(rho).is_ppt

    def test_matches_2q_result(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            rho = random_density(rng, 4)
            a = is_separable_2q(rho)
            b = ppt_first_vs_rest(rho)
            assert abs(a.min_eigenvalue - b.min_eigenvalue) < 1e-12


class TestCriticalEpsilon:
    def test_bell_threshold(self):
        rho1 = density_from_pure(bell_state("phi+"))
        assert critical_epsilon(rho1) == pytest.approx(1 / 3, abs=1e-9)
        assert critical_epsilon_bisection(rho1) == pytest.approx(1 / 3, abs=1e-9)

    def test_bisection_terminates_at_zero_tolerance(self):
        rho1 = density_from_pure(bell_state("phi+"))
        assert critical_epsilon_bisection(rho1, tol=0.0) == pytest.approx(critical_epsilon(rho1), abs=1e-9)

    def test_product_target_always_separable(self):
        rho1 = density_from_pure(basis_state(2, 0))
        assert critical_epsilon(rho1) == 1.0
        assert critical_epsilon_bisection(rho1) == 1.0

    def test_partially_entangled_target(self):
        # Schmidt form sqrt(0.9)|00> + sqrt(0.1)|11>: the partial transpose
        # of the projector has min eigenvalue -sqrt(0.9 * 0.1) = -0.3
        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(0.9), np.sqrt(0.1)
        rho1 = density_from_pure(pure_state(amps))
        expected = 1.0 / (1.0 + 4.0 * np.sqrt(0.09))
        assert critical_epsilon(rho1) == pytest.approx(expected, abs=1e-9)
        assert critical_epsilon_bisection(rho1) == pytest.approx(expected, abs=1e-9)

    def test_monotone_ppt_across_threshold(self):
        rho1 = density_from_pure(bell_state("phi+"))
        eps_star = critical_epsilon(rho1)
        for eps in np.linspace(0.0, 1.0, 100):
            verdict = is_separable_2q(compose_pseudopure(float(eps), rho1)).is_ppt
            if eps <= eps_star:
                assert verdict
            elif eps > eps_star + 1e-9:
                assert not verdict

    def test_closed_form_matches_bisection_on_random_targets(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            rho1 = density_from_pure(random_pure(rng, 4))
            assert abs(critical_epsilon(rho1) - critical_epsilon_bisection(rho1)) < 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            rho1 = density_from_pure(random_pure(rng, 4))
            ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            u = np.kron(ua, ub)
            rotated = validate_density(u @ rho1.matrix @ u.conj().T, STRICT)
            assert abs(critical_epsilon(rho1) - critical_epsilon(rotated)) < 1e-9

    def test_requires_pure_target(self):
        with pytest.raises(NotPureError):
            critical_epsilon(validate_density(np.eye(4) / 4, STRICT))

    def test_requires_two_qubits(self):
        with pytest.raises(WrongDimError):
            critical_epsilon(density_from_pure(basis_state(1, 0)))
        # the dimension is checked before purity: a 3-qubit mixed target is the wrong size, not impure
        with pytest.raises(WrongDimError):
            critical_epsilon(validate_density(np.eye(8) / 8, STRICT))
