"""Seeded random state/operator generators and hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from nmrsim.core import (
    STRICT,
    DensityMatrix,
    PureState,
    UnitaryOperator,
    density_from_pure,
    pure_state,
    validate_density,
    validate_unitary,
)


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pure_state(v / np.linalg.norm(v))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, STRICT)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryOperator(q, dim)


def random_product_pure(rng: np.random.Generator) -> PureState:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return pure_state(v / np.linalg.norm(v))


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


_PARTS = st.floats(-1.0, 1.0, allow_subnormal=False)


def _complex_block(draw, rows: int, cols: int) -> np.ndarray:
    g = np.array(draw(st.lists(_PARTS, min_size=2 * rows * cols, max_size=2 * rows * cols)))
    return (g[: rows * cols] + 1j * g[rows * cols :]).reshape(rows, cols)


@st.composite
def densities(draw, n_qubits=None):
    """Random 1- to 3-qubit states ``G G^dag / tr`` of rank 1 to d, plus 1e-6 I so the trace is never 0."""
    n = draw(st.integers(1, 3)) if n_qubits is None else n_qubits
    d = 1 << n
    g = _complex_block(draw, d, draw(st.integers(1, d)))
    m = g @ g.conj().T + 1e-6 * np.eye(d)
    return validate_density(m / np.trace(m).real, STRICT)


@st.composite
def pure_densities(draw, n_qubits: int):
    """Random pure-state projectors; one amplitude is shifted by 2 so the norm is at least 1."""
    d = 1 << n_qubits
    v = _complex_block(draw, d, 1)[:, 0]
    v[draw(st.integers(0, d - 1))] += 2.0
    return density_from_pure(pure_state(v / np.linalg.norm(v)))


@st.composite
def unitaries(draw, n_qubits: int):
    """The unitary QR factor of a random complex matrix (Householder QR gives one even for a singular input)."""
    d = 1 << n_qubits
    q, _ = np.linalg.qr(_complex_block(draw, d, d))
    return validate_unitary(q)
