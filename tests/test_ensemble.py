import json
import math
from importlib import resources

import numpy as np
import pytest

from helpers import max_abs_diff, random_product_pure
from nmrsim.core import basis_state, bell_state, pure_state
from nmrsim.ensemble import (
    EnsembleHistory,
    concurrence,
    density_of,
    entanglement_report,
    history_from_dict,
)
from nmrsim.errors import (
    BadArgumentError,
    DimMismatchError,
    DimNotPowerOfTwoError,
    NotNormalizedError,
    ParseError,
    WrongDimError,
)
from nmrsim.serialize import load_json


def bundled_history(name: str) -> EnsembleHistory:
    with resources.as_file(resources.files("nmrsim").joinpath(f"data/{name}")) as p:
        return history_from_dict(load_json(p))


def basis_history() -> EnsembleHistory:
    """Equal parts of every 2-qubit computational basis state."""
    return bundled_history("basis_mixture.json")


def bell_history() -> EnsembleHistory:
    """Equal parts of the four Bell states."""
    return bundled_history("bell_mixture.json")


def test_computational_mixture_averages_to_identity():
    rho = density_of(basis_history())
    assert max_abs_diff(rho.matrix, np.eye(4) / 4) <= 1e-15


def test_bell_mixture_averages_to_identity():
    rho = density_of(bell_history())
    assert max_abs_diff(rho.matrix, np.eye(4) / 4) <= 1e-15


def test_single_member_history():
    h = EnsembleHistory("just |00>", ((1.0, basis_state(2, 0)),))
    rho = density_of(h)
    assert max_abs_diff(rho.matrix, basis_state(2, 0).projector()) == 0.0


def test_same_density_for_different_preparations():
    basis, bell = density_of(basis_history()), density_of(bell_history())
    assert max_abs_diff(basis.matrix, bell.matrix) <= 1e-12


def test_different_preparations_detected():
    single = EnsembleHistory("just |00>", ((1.0, basis_state(2, 0)),))
    assert max_abs_diff(density_of(basis_history()).matrix, density_of(single).matrix) > 1e-12


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        # 2|ad - bc| with a = d = 1/sqrt(2)
        assert concurrence(bell_state("phi+")) == pytest.approx(1.0, abs=1e-12)

    def test_basis_state_is_product(self):
        assert concurrence(basis_state(2, 0)) == 0.0

    def test_superposition_on_one_qubit_is_product(self):
        psi = pure_state(np.array([1, 1, 0, 0]) / np.sqrt(2))
        assert concurrence(psi) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimError):
            concurrence(basis_state(1, 0))

    def test_random_product_states(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            assert concurrence(random_product_pure(rng)) <= 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = pure_state(v / np.linalg.norm(v))
            ua, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            ub, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            rotated = pure_state(np.kron(ua, ub) @ psi.amplitudes)
            assert abs(concurrence(rotated) - concurrence(psi)) < 1e-10


class TestEntanglementReport:
    def test_computational_members_all_product(self):
        report = entanglement_report(basis_history())
        assert all(m.is_product for m in report.members)
        assert all(m.concurrence == 0.0 for m in report.members)

    def test_bell_members_all_maximal(self):
        report = entanglement_report(bell_history())
        assert all(not m.is_product for m in report.members)
        assert all(m.concurrence == pytest.approx(1.0, abs=1e-12) for m in report.members)

    def test_mixed_history(self):
        h = EnsembleHistory("half and half", ((0.5, basis_state(2, 0)), (0.5, bell_state("phi+"))))
        report = entanglement_report(h)
        (w1, c1, p1), (w2, c2, p2) = report.members
        assert (w1, c1, p1) == (0.5, 0.0, True)
        assert w2 == 0.5 and c2 == pytest.approx(1.0, abs=1e-12) and not p2

    def test_wrong_dim(self):
        with pytest.raises(WrongDimError):
            entanglement_report(EnsembleHistory("1q", ((0.5, basis_state(1, 0)), (0.5, basis_state(1, 1)))))

    def test_same_density_different_reports(self):
        # the module's central claim: identical averages, different members
        h_basis, h_bell = basis_history(), bell_history()
        assert max_abs_diff(density_of(h_basis).matrix, density_of(h_bell).matrix) <= 1e-15
        r_basis = entanglement_report(h_basis)
        r_bell = entanglement_report(h_bell)
        for a, b in zip(r_basis.members, r_bell.members):
            assert a.concurrence != b.concurrence
            assert a.is_product != b.is_product


def test_density_of_is_linear_in_weights():
    rng = np.random.default_rng(31)
    h1 = basis_history()
    h2 = bell_history()
    for lam in rng.uniform(0.05, 0.95, size=10):
        members = [(lam * w, psi) for w, psi in h1.members] + [((1 - lam) * w, psi) for w, psi in h2.members]
        merged = EnsembleHistory("mixture", tuple(members))
        expected = lam * density_of(h1).matrix + (1 - lam) * density_of(h2).matrix
        assert max_abs_diff(density_of(merged).matrix, expected) <= 1e-12


class TestHistoryValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(NotNormalizedError):
            EnsembleHistory("bad", ((0.5, basis_state(2, 0)), (0.4, basis_state(2, 1))))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            EnsembleHistory("bad", ((1.5, basis_state(2, 0)), (-0.5, basis_state(2, 1))))

    @pytest.mark.parametrize(
        "weights", [(float("nan"),), (float("nan"), 1.0), (1.0, float("nan"))], ids=["alone", "first", "second"]
    )
    def test_nan_weight_rejected(self, weights):
        # both comparisons are false for NaN, so a NaN weight once reached entanglement_report
        members = tuple((w, basis_state(2, i)) for i, w in enumerate(weights))
        with pytest.raises(ValueError, match="must be positive"):
            EnsembleHistory("bad", members)

    def test_member_must_be_a_pure_state(self):
        with pytest.raises(BadArgumentError, match="must be a PureState"):
            EnsembleHistory("bad", ((1.0, "psi"),))

    def test_infinite_weight_is_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            EnsembleHistory("bad", ((float("inf"), basis_state(2, 0)), (1.0, basis_state(2, 1))))

    def test_weight_beyond_the_double_range_is_infinite(self):
        with pytest.raises(NotNormalizedError):
            EnsembleHistory("bad", ((10**400, basis_state(2, 0)), (1.0, basis_state(2, 1))))
        with pytest.raises(BadArgumentError, match="must be positive"):
            EnsembleHistory("bad", ((-(10**400), basis_state(2, 0)), (1.0, basis_state(2, 1))))

    @pytest.mark.parametrize("members", [None, [1.0], [(1.0,)], [(1.0, basis_state(1, 0), 0)], "ab"])
    def test_member_that_is_not_a_weight_state_pair(self, members):
        with pytest.raises(BadArgumentError, match=r"\(weight, PureState\) pairs"):
            EnsembleHistory("bad", members)

    def test_members_same_dim(self):
        with pytest.raises(DimMismatchError):
            EnsembleHistory("bad", ((0.5, basis_state(1, 0)), (0.5, basis_state(2, 0))))

    def test_empty_history(self):
        with pytest.raises(ValueError):
            EnsembleHistory("bad", ())


def test_history_json_round_trip():
    h = bell_history()
    doc = {
        "label": h.label,
        "members": [
            {"weight": w, "re": psi.amplitudes.real.tolist(), "im": psi.amplitudes.imag.tolist()}
            for w, psi in h.members
        ],
    }
    again = history_from_dict(json.loads(json.dumps(doc)))
    assert again.label == h.label
    assert max_abs_diff(density_of(again).matrix, density_of(h).matrix) == 0.0


def test_history_amplitudes_keep_the_sign_of_a_zero():
    # as in matrix_from_dict: adding 1j * im would turn the -0.0 imaginary part into +0.0
    h = history_from_dict({"label": "x", "members": [{"weight": 1, "re": [1, 0, 0, 0], "im": [0, -0.0, 0, 0]}]})
    amps = h.members[0][1].amplitudes
    assert np.signbit(amps.imag).tolist() == [False, True, False, False]
    assert not np.signbit(amps.real).any()


@pytest.mark.parametrize("size, error", [(3, DimNotPowerOfTwoError), (16, WrongDimError)])
def test_member_of_unsupported_dimension_is_refused_as_it_is_read(size, error):
    # density_of built the d x d sum of member projectors before validation refused it
    member = {"weight": 1, "re": [1.0] + [0.0] * (size - 1), "im": [0.0] * size}
    with pytest.raises(error):
        history_from_dict({"label": "big", "members": [member]})


@pytest.mark.parametrize(
    "member",
    [
        '{"weight": NaN, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}',
        '{"weight": 1.0, "re": [Infinity, 0, 0, 0], "im": [0, 0, 0, 0]}',
    ],
    ids=["nan-weight", "infinite-amplitude"],
)
def test_history_rejects_non_finite_numbers(member):
    doc = json.loads(f'{{"label": "bad", "members": [{member}]}}')
    with pytest.raises(ParseError, match="non-finite"):
        history_from_dict(doc)


@pytest.mark.parametrize("missing", ["weight", "re", "im"])
def test_history_member_missing_a_key_is_named(missing):
    members = [{"weight": 0.5, "re": [1, 0], "im": [0, 0]} for _ in range(2)]
    del members[1][missing]
    with pytest.raises(ParseError, match=rf"^member 1 missing keys: \['{missing}'\]$"):
        history_from_dict({"label": "bad", "members": members})


@pytest.mark.parametrize(
    "part, value, message",
    [
        ("re", "0", 'member 1 "re": expected a number, got str'),
        ("im", True, 'member 1 "im": expected a number, got bool'),
        ("re", [0.0], 'member 1 "re": expected a number, got list'),
        ("im", math.nan, 'member 1 "im": non-finite value nan'),
        ("re", -math.inf, 'member 1 "re": non-finite value -inf'),
        ("im", 10**400, f'member 1 "im": non-finite value {10**400!r}'),
    ],
)
def test_history_amplitude_messages(part, value, message):
    # the first bad amplitude is named by member, part and value; weight and keys are checked before
    members = [{"weight": 0.5, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]} for _ in range(2)]
    members[1][part] = [0.0, 0.0, value, 0.0]
    with pytest.raises(ParseError) as exc:
        history_from_dict({"label": "bad", "members": members})
    assert str(exc.value) == message
