"""Simulated quantum state tomography in the Pauli product basis.

The pipeline is: measure (or simulate with shot noise) all ``4^n``
expectation values ``<P> = tr(rho P)``, reconstruct by linear inversion
``rho = (1/d) sum_P <P> P``, then project the possibly unphysical result to
the closest unit-trace PSD matrix (Frobenius norm), which reduces to
projecting the eigenvalue vector onto the probability simplex.

:func:`closest_physical_state` ends in the same projection, after making a
printed or derived matrix Hermitian with unit trace, and only if an
eigenvalue is below ``-STRICT.psd_tol``.

The ``4^n`` Pauli products of each qubit count are built once, on first use,
into a read-only ``(4^n, d, d)`` stack in canonical label order, and an
expectation set holds its values as one ``(4^n,)`` array in the same order.
Every per-label sum is then a single array operation: one ``einsum`` gives all
expectations, one vectorized binomial draw gives all shot-noise counts, and
one ``tensordot`` gives the linear reconstruction.

Randomness contract: shot noise uses ``numpy.random.default_rng(seed)``
(the PCG64 generator, stable across platforms).  Each non-identity label, in
the canonical order produced by :func:`pauli_labels`, consumes exactly one
binomial draw of ``shots`` trials, so a fixed seed reproduces results
bit-for-bit.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from nmrsim.core import (
    PAULI_1Q,
    STRICT,
    DensityMatrix,
    _as_complex_matrix,
    _eigh_or_fail,
    _require_square,
    hermiticity_defect,
    tensor,
    validate_density,
)
from nmrsim.errors import BadTraceError, NotHermitianError, NumericalFailureError

__all__ = [
    "MAX_QUBITS",
    "PauliExpectationSet",
    "ShotNoiseConfig",
    "pauli_labels",
    "pauli_matrix",
    "pauli_expectations",
    "simulate_shot_noise",
    "reconstruct_linear",
    "simplex_project",
    "project_psd",
    "closest_physical_state",
]

MAX_QUBITS = 3
_PAULI_CHARS = "IXYZ"


@lru_cache(maxsize=None)
def pauli_labels(n_qubits: int) -> tuple[str, ...]:
    """All ``4^n`` Pauli product labels in canonical order ("II", "IX", ...).

    The leftmost character acts on qubit 1 (the first tensor factor).
    """
    return tuple("".join(t) for t in itertools.product(_PAULI_CHARS, repeat=n_qubits))


@lru_cache(maxsize=None)
def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by ``label``."""
    if not label or any(ch not in _PAULI_CHARS for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}")
    m = PAULI_1Q[label[0]]
    for ch in label[1:]:
        m = tensor(m, PAULI_1Q[ch])
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def _stack(n_qubits: int) -> np.ndarray:
    """Read-only ``(4^n, d, d)`` array of :func:`pauli_matrix` in label order."""
    s = np.stack([pauli_matrix(label) for label in pauli_labels(n_qubits)])
    s.setflags(write=False)
    return s


@dataclass(frozen=True, eq=False)
class PauliExpectationSet:
    """Complete set of Pauli product expectations for ``n_qubits`` qubits.

    ``values`` is a read-only float64 array of length ``4^n``: ``values[k]``
    belongs to ``pauli_labels(n_qubits)[k]``.  Invariants: the identity entry
    ``values[0]`` is exactly 1, and every magnitude is at most ``1 + 1e-12``.
    """

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"expectation sets support 1..{MAX_QUBITS} qubits, got {self.n_qubits}")
        v = np.asarray(self.values)
        if v.dtype.kind not in "iuf":  # a float cast would drop an imaginary part with only a warning
            raise ValueError(f"expectations must be real numbers, got dtype {v.dtype}")
        v = np.array(v, dtype=float)
        if v.shape != (4**self.n_qubits,):
            raise ValueError(f"expected {4**self.n_qubits} expectations, got shape {v.shape}")
        if v[0] != 1.0:
            raise ValueError(f"identity expectation must be exactly 1, got {v[0]}")
        bad = np.flatnonzero(~(np.abs(v) <= 1.0 + 1e-12))  # NaN fails too
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"expectation {pauli_labels(self.n_qubits)[k]} = {v[k]} exceeds magnitude 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ShotNoiseConfig:
    shots_per_observable: int
    seed: int

    def __post_init__(self):
        if self.shots_per_observable < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots_per_observable}")


def pauli_expectations(rho: DensityMatrix) -> PauliExpectationSet:
    """Noiseless expectations ``tr(rho P)`` for every Pauli product ``P``.

    The identity entry is pinned to 1 (it is the trace by definition); any
    imaginary residue beyond 1e-12 (or a NaN) on the others is a numerical
    failure.
    """
    if rho.n_qubits > MAX_QUBITS:
        raise ValueError(f"tomography supports at most {MAX_QUBITS} qubits, got {rho.n_qubits}")
    labels = pauli_labels(rho.n_qubits)
    t = np.einsum("kij,ji->k", _stack(rho.n_qubits), rho.matrix)
    bad = np.flatnonzero(~(np.abs(t.imag[1:]) <= 1e-12))  # NaN fails too
    if bad.size:
        k = int(bad[0]) + 1
        raise NumericalFailureError(f"expectation {labels[k]} has imaginary part {t.imag[k]:.3e}")
    values = t.real
    values[0] = 1.0
    return PauliExpectationSet(rho.n_qubits, values)


def simulate_shot_noise(rho: DensityMatrix, cfg: ShotNoiseConfig) -> PauliExpectationSet:
    """Replace each non-identity expectation by an empirical +-1 average.

    Each observable with true expectation ``t`` is sampled as ``shots``
    independent +-1 outcomes with ``P(+1) = (1 + t) / 2``; one binomial draw
    per observable in canonical label order.  Deterministic for a fixed seed.
    """
    exact = pauli_expectations(rho)
    rng = np.random.default_rng(cfg.seed)
    shots = cfg.shots_per_observable
    ups = rng.binomial(shots, np.clip((1.0 + exact.values[1:]) / 2.0, 0.0, 1.0))
    return PauliExpectationSet(rho.n_qubits, np.concatenate(([1.0], 2.0 * ups / shots - 1.0)))


def reconstruct_linear(e: PauliExpectationSet) -> np.ndarray:
    """Linear-inversion estimate ``(1/d) sum_P <P> P``.

    Hermitian by construction with trace 1 to round-off (the identity
    coefficient is pinned to 1); eigenvalues may be negative under noise, so
    follow with :func:`project_psd` when a physical state is required.
    """
    return np.tensordot(e.values, _stack(e.n_qubits), 1) / (1 << e.n_qubits)


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    k = ks[u - (css - 1.0) / ks > 0][-1]
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(v - tau, 0.0)


def _project(w: np.ndarray, v: np.ndarray) -> DensityMatrix:
    """Reassemble eigenpairs ``(w, v)`` with ``w`` projected onto the simplex."""
    return validate_density((v * simplex_project(w)) @ v.conj().T, STRICT)


def project_psd(h) -> DensityMatrix:
    """Closest (Frobenius) unit-trace PSD matrix to a Hermitian ``h``.

    Eigendecomposes, projects the eigenvalue vector onto the probability
    simplex, and reassembles.  Idempotent; requires hermiticity and trace 1
    within 1e-9.
    """
    a = _as_complex_matrix(h)
    _require_square(a)
    herm = hermiticity_defect(a)
    if herm > 1e-9:
        raise NotHermitianError(herm)
    trace_dev = abs(complex(np.trace(a)) - 1.0)
    if trace_dev > 1e-9:
        raise BadTraceError(trace_dev)
    return _project(*_eigh_or_fail((a + a.conj().T) / 2.0))


def closest_physical_state(m: np.ndarray) -> tuple[DensityMatrix, bool, bool]:
    """Make a printed/derived matrix metric-ready: renormalize trace, project.

    Returns the strict-valid state plus flags recording what was done: the
    trace was renormalized, and the eigenvalues were projected because one
    was below ``-STRICT.psd_tol``, so round-off on a zero eigenvalue is left as is.
    """
    a = _as_complex_matrix(m)
    _require_square(a)
    t = complex(np.trace(a)).real
    renormalized = abs(t - 1.0) > 1e-12
    a = a / t
    a = (a + a.conj().T) / 2.0
    w, v = _eigh_or_fail(a)
    projected = bool(w.min() < -STRICT.psd_tol)
    return (_project(w, v) if projected else validate_density(a, STRICT)), renormalized, projected
