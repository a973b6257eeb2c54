"""Simulated quantum state tomography in the Pauli product basis.

The pipeline is: measure (or simulate with shot noise) all ``4^n``
expectation values ``<P> = tr(rho P)``, reconstruct by linear inversion
``rho = (1/d) sum_P <P> P``, then project the possibly unphysical result to
the closest unit-trace PSD matrix (Frobenius norm), which reduces to
projecting the eigenvalue vector onto the probability simplex.  Like every
``DensityMatrix``, the projected state carries eigenpairs: those it was built
from, so neither its validation nor a later ``fidelity`` decomposes it again.
Every eigen-solve here goes through ``core._eigh``.

:func:`closest_physical_state` ends in the same projection, after scaling the
eigenpairs of a matrix's Hermitian part, or of a validated state, to unit
trace, and only if an eigenvalue is below ``-STRICT.psd_tol``.

The ``4^n`` Pauli products of each qubit count are built once, on first use,
into a read-only ``(4^n, d, d)`` stack in canonical label order, and an
expectation set holds its values as one ``(4^n,)`` array in the same order.
Every per-label sum is then a single array operation over the stack flattened
to ``(4^n, d*d)``: one matmul gives all expectations, one vectorized binomial
draw gives all shot-noise counts, and one matmul gives the reconstruction.

Randomness contract: shot noise draws from ``Generator(PCG64(seed))``, the
stream of ``numpy.random.default_rng(seed)``, stable across platforms.  Each
non-identity label, in the canonical order produced by :func:`_pauli_labels`,
consumes exactly one binomial draw of ``shots`` trials, so a fixed seed
reproduces results bit-for-bit.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from nmrsim.core import (
    EXPERIMENTAL,
    MAX_QUBITS,
    STRICT,
    DensityMatrix,
    _as_complex_matrix,
    _checked_density,
    _eigh,
    _expect,
    _freeze,
    _hermitian_part,
    _is_integer,
    _n_qubits_for,
    _numbers,
    _trace_and_defect,
)
from nmrsim.errors import BadArgumentError, BadTraceError, NotHermitianError, NumericalFailureError, ValidationError

__all__ = [
    "PauliExpectationSet",
    "ShotNoiseConfig",
    "pauli_matrix",
    "pauli_expectations",
    "simulate_shot_noise",
    "reconstruct_linear",
    "simplex_project",
    "project_psd",
    "closest_physical_state",
]

_PAULI = {
    "I": _freeze(np.eye(2, dtype=complex)),
    "X": _freeze(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _freeze(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _freeze(np.array([[1, 0], [0, -1]], dtype=complex)),
}
_PAULI_CHARS = "IXYZ"


@lru_cache(maxsize=None)
def _pauli_labels(n_qubits: int) -> tuple[str, ...]:
    """All ``4^n`` Pauli product labels in canonical order ("II", "IX", ...).

    The leftmost character acts on qubit 1 (the first tensor factor).
    """
    return tuple("".join(t) for t in itertools.product(_PAULI_CHARS, repeat=n_qubits))


# public and cached because the benchmark harness reads its cache_info(); _stack builds from it
@lru_cache(maxsize=None)
def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of the single-qubit Paulis named by ``label``, 1 to ``MAX_QUBITS`` characters."""
    if not isinstance(label, str) or not label or any(ch not in _PAULI_CHARS for ch in label):
        raise BadArgumentError(f"invalid Pauli label {label!r}")
    _n_qubits_for(1 << len(label))  # the qubit limit, before any product is formed or cached
    return _freeze(reduce(np.kron, [_PAULI[ch] for ch in label]))


@lru_cache(maxsize=None)
def _stack(n_qubits: int) -> np.ndarray:
    """Read-only ``(4^n, d, d)`` array of :func:`pauli_matrix` in label order."""
    return _freeze(np.stack([pauli_matrix(label) for label in _pauli_labels(n_qubits)]))


@dataclass(frozen=True, eq=False)
class PauliExpectationSet:
    """Complete set of Pauli product expectations for ``n_qubits`` qubits.

    ``values`` is a read-only float64 array of length ``4^n``: ``values[k]``
    belongs to ``_pauli_labels(n_qubits)[k]``.  Invariants: the identity entry
    ``values[0]`` is exactly 1, and every magnitude is at most ``1 + 1e-12``
    (else a ``ValidationError``: an experimental-profile state can exceed it).
    """

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        if not (_is_integer(self.n_qubits) and 1 <= self.n_qubits <= MAX_QUBITS):
            raise BadArgumentError(f"expectation sets support 1..{MAX_QUBITS} qubits, got {self.n_qubits!r}")
        v = _numbers(self.values, float, "expectations")
        if v.shape != (4**self.n_qubits,):
            raise BadArgumentError(f"expected {4**self.n_qubits} expectations, got shape {v.shape}")
        if v[0] != 1.0:
            raise BadArgumentError(f"identity expectation must be exactly 1, got {v[0]}")
        _require_in_range(self.n_qubits, v)
        object.__setattr__(self, "values", _freeze(v))


def _require_in_range(n_qubits: int, v: np.ndarray) -> None:
    """``ValidationError`` naming the first expectation of magnitude above ``1 + 1e-12``, or a NaN."""
    ok = np.abs(v) <= 1.0 + 1e-12  # NaN fails too
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0])
        raise ValidationError(f"expectation {_pauli_labels(n_qubits)[k]} = {v[k]} exceeds magnitude 1")


@dataclass(frozen=True)
class ShotNoiseConfig:
    shots_per_observable: int
    seed: int

    def __post_init__(self):
        s = self.shots_per_observable
        if not _is_integer(s) or not 1 <= s <= 2**63 - 1:
            raise BadArgumentError(f"shots must be an integer in [1, 2**63 - 1], got {s!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise BadArgumentError(f"seed must be an integer >= 0, got {self.seed!r}")


def pauli_expectations(rho: DensityMatrix) -> PauliExpectationSet:
    """Noiseless expectations ``tr(rho P)`` for every Pauli product ``P``.

    The identity entry is pinned to 1 (the trace, by definition); an imaginary
    residue beyond 1e-12 (or a NaN) on the others is a numerical failure.
    """
    return PauliExpectationSet(*_exact_values(rho))


def _exact_values(rho: DensityMatrix) -> tuple[int, np.ndarray]:
    """The qubit count and :func:`pauli_expectations`' values, in label order, unchecked for magnitude."""
    n = _expect(rho, DensityMatrix, "state").n_qubits
    # each P is exactly Hermitian, so row k of the flattened stack dotted with conj(rho) is conj(tr(rho P_k))
    t = _stack(n).reshape(4**n, -1) @ rho.matrix.conj().reshape(-1)
    ok = np.abs(t.imag[1:]) <= 1e-12  # NaN fails too
    if not ok.all():
        k = int(np.flatnonzero(~ok)[0]) + 1
        raise NumericalFailureError(f"expectation {_pauli_labels(n)[k]} has imaginary part {-t.imag[k]:.3e}")
    values = t.real
    values[0] = 1.0
    return n, values


def simulate_shot_noise(rho: DensityMatrix, cfg: ShotNoiseConfig) -> PauliExpectationSet:
    """Replace each non-identity expectation by an empirical +-1 average.

    Each observable with true expectation ``t`` is sampled as ``shots``
    independent +-1 outcomes with ``P(+1) = (1 + t) / 2``; one binomial draw
    per observable in canonical label order.  Deterministic for a fixed seed.
    """
    n, values = _exact_values(rho)
    _require_in_range(n, values)
    shots = _expect(cfg, ShotNoiseConfig, "shot-noise configuration").shots_per_observable
    rng = np.random.Generator(np.random.PCG64(cfg.seed))  # the generator default_rng(seed) builds
    ups = rng.binomial(shots, np.minimum(np.maximum((1.0 + values[1:]) / 2.0, 0.0), 1.0))
    values[1:] = 2.0 * ups / shots - 1.0  # values[0] is the pinned identity entry, 1
    return PauliExpectationSet(n, values)


def reconstruct_linear(e: PauliExpectationSet) -> np.ndarray:
    """Linear-inversion estimate ``(1/d) sum_P <P> P``.

    Hermitian by construction with trace 1 to round-off (the identity
    coefficient is pinned to 1); eigenvalues may be negative under noise, so
    follow with :func:`project_psd` when a physical state is required.
    """
    d = 1 << _expect(e, PauliExpectationSet, "expectation set").n_qubits
    return (e.values @ _stack(e.n_qubits).reshape(d * d, d * d)).reshape(d, d) / d


def simplex_project(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    The shift ``tau`` is ``(s_k - 1) / k`` for the last ``k`` at which the ``k``-th largest entry exceeds it,
    ``s_k`` the running sum of the ``k`` largest.  If cancellation among huge entries leaves no such ``k``,
    that is a ``NumericalFailureError``.
    """
    return _simplex(_numbers(v, float, "simplex projection input"))


def _simplex(v: np.ndarray) -> np.ndarray:
    """:func:`simplex_project` of a float array, such as eigenvalues, that needs no conversion."""
    if v.ndim != 1 or not v.size or not np.isfinite(v).all():  # eigenvalues over a tiny trace can overflow
        raise BadArgumentError(f"simplex projection needs a non-empty finite vector, got {v!r}")
    tau, s = None, 0.0
    for k, x in enumerate(sorted(v.tolist(), reverse=True), 1):
        s += x
        t = (s - 1.0) / k
        if x - t > 0:
            tau = t
    if tau is None:
        raise NumericalFailureError(f"simplex projection found no threshold for {v!r}")
    return np.maximum(v - tau, 0.0)


def _project(w: np.ndarray, v: np.ndarray) -> DensityMatrix:
    """Reassemble eigenpairs ``(w, v)``, ``w`` projected onto the simplex (monotone, so still ascending)."""
    p = _freeze(_simplex(w))
    return _checked_density((v * p) @ v.conj().T, STRICT, (p, v))


def project_psd(h) -> DensityMatrix:
    """Closest (Frobenius) unit-trace PSD matrix to a Hermitian ``h``.

    Eigendecomposes, projects the eigenvalue vector onto the probability
    simplex, and reassembles.  Idempotent; requires hermiticity and trace 1
    within 1e-9.
    """
    a = _as_complex_matrix(h)
    trace, defect = _trace_and_defect(a)
    if defect > 1e-9:
        raise NotHermitianError(defect)
    trace_dev = abs(trace - 1.0)
    if not trace_dev <= 1e-9:  # NaN fails too
        raise BadTraceError(trace_dev)
    return _project(*_eigh(a))


def closest_physical_state(m) -> tuple[DensityMatrix, bool, bool]:
    """Make a printed/derived matrix or a state metric-ready: renormalize trace, project.

    Divides the eigenvalues of the Hermitian part of ``m``, or a state's stored
    ones, by the trace, so a validated state and its matrix agree bit for bit.
    A trace that is not positive, or so small that a quotient would overflow,
    is a ``BadTraceError``.  An array whose hermiticity defect exceeds that of any
    validated state, ``EXPERIMENTAL.hermiticity_tol``, is a ``NotHermitianError``.
    Flags: the trace was renormalized; an eigenvalue was below ``-STRICT.psd_tol``,
    so the eigenvalues were projected.
    """
    is_state = isinstance(m, DensityMatrix)
    a = _expect(m, DensityMatrix, "state").matrix if is_state else _as_complex_matrix(m)
    trace, defect = _trace_and_defect(a)
    if not is_state and defect > EXPERIMENTAL.hermiticity_tol:
        raise NotHermitianError(defect)
    t = trace.real
    w, v = _eigh(m if is_state else a)
    if not (0.0 < t < np.inf and max(-float(w[0]), float(w[-1]), 1.0) / t < np.inf):  # w / t and 1 / t stay finite
        raise BadTraceError(abs(t - 1.0))
    w = _freeze(w / t)
    projected = bool(w[0] < -STRICT.psd_tol)
    state = _project(w, v) if projected else _checked_density(_hermitian_part(a) / t, STRICT, (w, v))
    return state, abs(t - 1.0) > 1e-12, projected
