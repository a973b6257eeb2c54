import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    critical_epsilon_bisection,
    max_abs_diff,
    pure_densities,
    random_pure,
    random_unitary,
    unchecked_density,
)
from nmrsim.core import STRICT, basis_state, bell_state, density_from_pure, evolve, validate_density
from nmrsim.errors import (
    DimMismatchError,
    NotPureError,
    NumericalFailureError,
)
from nmrsim.pseudopure import (
    PopulationVector,
    compose_pseudopure,
    extract_epsilon,
    net_signal,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda r: extract_epsilon(r, r),
        lambda r: compose_pseudopure(0.5, r),
        critical_epsilon_bisection,
    ],
    ids=["extract_epsilon", "compose_pseudopure", "critical_epsilon_bisection"],
)
def test_non_finite_target_is_numerical_failure(call):
    # a NaN purity passes an abs(p - 1) > tol comparison, so it must be caught first
    m = density_from_pure(bell_state("phi+")).matrix.copy()
    m[0, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="non-finite"):
        call(unchecked_density(m))


def test_non_finite_state_is_numerical_failure():
    # a NaN overlap used to come back as EpsilonEstimate(nan, True)
    m = density_from_pure(bell_state("phi+")).matrix.copy()
    m[0, 1] = np.nan
    with pytest.raises(NumericalFailureError, match="non-finite"):
        extract_epsilon(unchecked_density(m), density_from_pure(bell_state("phi+")))


class TestCompose:
    def test_full_weight_returns_target(self):
        rho1 = density_from_pure(basis_state(2, 0))
        out = compose_pseudopure(1.0, rho1)
        assert max_abs_diff(out.matrix, rho1.matrix) == 0.0

    def test_zero_weight_returns_mixed(self):
        rho1 = density_from_pure(bell_state("phi+"))
        out = compose_pseudopure(0.0, rho1)
        assert max_abs_diff(out.matrix, np.eye(4) / 4) == 0.0

    def test_werner_boundary_mixture(self):
        # at coefficient 1/3 the partial transpose of the mixture is singular
        out = compose_pseudopure(1 / 3, density_from_pure(bell_state("phi+")))
        pt = out.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert abs(np.linalg.eigvalsh(pt).min()) < 1e-12

    def test_epsilon_out_of_range(self):
        rho1 = density_from_pure(basis_state(2, 0))
        for eps in (-0.1, 1.1):
            with pytest.raises(ValueError):
                compose_pseudopure(eps, rho1)

    def test_rho1_must_be_pure(self):
        mixed = validate_density(np.eye(4) / 4, STRICT)
        with pytest.raises(NotPureError):
            compose_pseudopure(0.5, mixed)


class TestExtract:
    def test_maximally_mixed_gives_zero(self):
        rho1 = density_from_pure(basis_state(2, 0))
        mixed = validate_density(np.eye(4) / 4, STRICT)
        est = extract_epsilon(mixed, rho1)
        assert est.epsilon == pytest.approx(0.0, abs=1e-12)
        assert not est.out_of_model

    def test_pure_target_gives_one(self):
        rho1 = density_from_pure(bell_state("phi+"))
        est = extract_epsilon(rho1, rho1)
        assert est.epsilon == pytest.approx(1.0, abs=1e-9)

    def test_single_qubit_population_example(self):
        # solve (1 - e)/2 + e = 5/8
        rho = validate_density(np.diag([5 / 8, 3 / 8]).astype(complex), STRICT)
        rho1 = density_from_pure(basis_state(1, 0))
        assert extract_epsilon(rho, rho1).epsilon == pytest.approx(0.25, abs=1e-12)

    def test_out_of_model_flag(self):
        rho = density_from_pure(basis_state(1, 1))
        rho1 = density_from_pure(basis_state(1, 0))
        est = extract_epsilon(rho, rho1)
        assert est.epsilon == pytest.approx(-1.0, abs=1e-12)
        assert est.out_of_model

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            extract_epsilon(
                validate_density(np.eye(2) / 2, STRICT),
                density_from_pure(basis_state(2, 0)),
            )

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_round_trip(self, dim):
        rng = np.random.default_rng(41 + dim)
        for _ in range(100):
            eps = float(rng.uniform(0.0, 1.0))
            rho1 = density_from_pure(random_pure(rng, dim))
            est = extract_epsilon(compose_pseudopure(eps, rho1), rho1)
            assert abs(est.epsilon - eps) < 1e-12
            assert not est.out_of_model

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 3).flatmap(pure_densities))
    def test_extract_inverts_compose(self, eps, rho1):
        est = extract_epsilon(compose_pseudopure(eps, rho1), rho1)
        assert abs(est.epsilon - eps) <= 1e-12
        assert not est.out_of_model

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_unitary_covariance(self, dim):
        # the coefficient is inert under evolution: evolving the mixture
        # equals mixing the evolved target
        rng = np.random.default_rng(43 + dim)
        for _ in range(20):
            eps = float(rng.uniform(0.0, 1.0))
            rho1 = density_from_pure(random_pure(rng, dim))
            u = random_unitary(rng, dim)
            lhs = evolve(compose_pseudopure(eps, rho1), u)
            rhs = compose_pseudopure(eps, evolve(rho1, u))
            assert max_abs_diff(lhs.matrix, rhs.matrix) < 1e-12


class TestNetSignal:
    def test_five_up_three_down(self):
        # 3 upward transitions cancel 3 downward ones; 2 remain
        sig = net_signal(PopulationVector(np.array([5.0, 3.0])))
        assert sig.net_upward == 2.0
        assert sig.equivalent_pure_count == 2.0

    def test_full_cancellation(self):
        assert net_signal(PopulationVector(np.array([4.0, 4.0]))).net_upward == 0.0

    def test_pure_ensemble(self):
        assert net_signal(PopulationVector(np.array([8.0, 0.0]))).net_upward == 8.0

    def test_antisymmetric_under_swap(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n0, n1 = rng.uniform(0.0, 10.0, size=2)
            fwd = net_signal(PopulationVector(np.array([n0, n1])))
            rev = net_signal(PopulationVector(np.array([n1, n0])))
            assert fwd.net_upward == -rev.net_upward

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            net_signal(PopulationVector(np.array([1.0, 2.0, 3.0])))


class TestPopulationVector:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            PopulationVector(np.array([1.0, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            PopulationVector([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_rejected(self, bad):
        # a NaN or infinite count would reach net_signal as a NaN or infinite signal
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PopulationVector(np.array([bad, 3.0]))
