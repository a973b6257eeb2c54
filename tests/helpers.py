"""Seeded random state/operator generators and hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from nmrsim.core import (
    STRICT,
    DensityMatrix,
    PureState,
    UnitaryOperator,
    _eigh,
    _seal,
    density_from_pure,
    pure_state,
    validate_density,
    validate_unitary,
)
from nmrsim.pseudopure import compose_pseudopure
from nmrsim.separability import is_separable_2q


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random unit vector of any dimension, beyond the qubit limit too, which ``pure_state`` refuses."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure(rng: np.random.Generator, dim: int) -> PureState:
    return pure_state(random_amplitudes(rng, dim))


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, STRICT)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    """A random unitary of any dimension, beyond the qubit limit too, marked as if ``validate_unitary`` built it."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return _seal(UnitaryOperator(q, dim))


def random_product_pure(rng: np.random.Generator) -> PureState:
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    b = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return pure_state(v / np.linalg.norm(v))


def unchecked_density(m: np.ndarray) -> DensityMatrix:
    """``m`` wrapped without validation but marked as built, to reach a guard behind it; every state carries eigenpairs.

    They are those of ``m``'s Hermitian part, or all NaN if ``m`` has a non-finite entry and so has none.
    """
    d = len(m)
    spectrum = _eigh(m) if np.isfinite(m).all() else (np.full(d, np.nan), np.full((d, d), np.nan + 0j))
    return _seal(DensityMatrix(m, d, d.bit_length() - 1, spectrum))


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
def ranked_densities(draw, n_qubits: int):
    """Random states ``G G^dag / tr`` of any rank 1 to d, no identity added; ``G[0, 0]`` is shifted by 2 so tr > 0."""
    d = 1 << n_qubits
    g = _complex_block(draw, d, draw(st.integers(1, d)))
    g[0, 0] += 2.0
    m = g @ g.conj().T
    return validate_density(m / np.trace(m).real, STRICT)


@st.composite
def pure_states(draw, n_qubits: int):
    """Random state vectors; one amplitude is shifted by 2 so the norm is at least 1."""
    d = 1 << n_qubits
    v = _complex_block(draw, d, 1)[:, 0]
    v[draw(st.integers(0, d - 1))] += 2.0
    return pure_state(v / np.linalg.norm(v))


def pure_densities(n_qubits: int):
    """Random pure-state projectors."""
    return pure_states(n_qubits).map(density_from_pure)


@st.composite
def unitaries(draw, n_qubits: int):
    """The unitary QR factor of a random complex matrix (Householder QR gives one even for a singular input)."""
    d = 1 << n_qubits
    q, _ = np.linalg.qr(_complex_block(draw, d, d))
    return validate_unitary(q)


def critical_epsilon_bisection(rho1: DensityMatrix, tol: float = 1e-10, ppt_tol: float = 1e-12) -> float:
    """Oracle for ``critical_epsilon``: bisection over the PPT verdict, never the closed form.

    ``compose_pseudopure`` requires a pure target and ``is_separable_2q`` a 2-qubit one.
    """

    def ppt(eps: float) -> bool:
        return is_separable_2q(compose_pseudopure(eps, rho1), ppt_tol).is_ppt

    if ppt(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol and lo < (mid := (lo + hi) / 2.0) < hi:  # stop once lo and hi are adjacent floats
        lo, hi = (mid, hi) if ppt(mid) else (lo, mid)
    return lo
