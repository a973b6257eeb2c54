"""Dense complex linear algebra and validated quantum-state/operator types.

States and operators are plain complex ``numpy`` arrays wrapped in thin frozen
dataclasses whose defining invariants are checked at construction time.  All
operations are pure functions: inputs are never mutated, wrapped arrays are
marked read-only, and values can be shared freely between threads.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nmrsim.errors import (
    BadTraceError,
    DimMismatchError,
    DimNotPowerOfTwoError,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    NotSquareError,
    NotUnitaryError,
    NumericalFailureError,
)

__all__ = [
    "PAULI_1Q",
    "ValidationProfile",
    "STRICT",
    "EXPERIMENTAL",
    "DensityMatrix",
    "UnitaryOperator",
    "PureState",
    "UnitarityCheck",
    "DensityInvariants",
    "density_invariants",
    "validate_density",
    "validate_unitary",
    "pure_state",
    "basis_state",
    "bell_state",
    "density_from_pure",
    "purity",
    "evolve",
    "fidelity",
    "trace_distance",
    "tensor",
    "check_unitary",
    "hermiticity_defect",
]

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in PAULI_1Q.values():
    _m.setflags(write=False)


@dataclass(frozen=True)
class ValidationProfile:
    """Tolerance bundle applied when validating density matrices.

    ``strict`` is the default for synthetic data.  ``experimental``
    accommodates matrices transcribed from 4-decimal instrument readouts,
    which can carry small trace defects and slightly negative eigenvalues.
    """

    name: str
    hermiticity_tol: float
    trace_tol: float
    psd_tol: float

    def __post_init__(self):
        for field in ("hermiticity_tol", "trace_tol", "psd_tol"):
            _require_tolerance(getattr(self, field), f"{self.name} profile {field}")


def _require_tolerance(tol: float, what: str) -> None:
    """Reject a NaN, infinite or negative tolerance, which no comparison can honour."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{what} must be finite and nonnegative, got {tol}")


STRICT = ValidationProfile("strict", 1e-10, 1e-10, 1e-10)
EXPERIMENTAL = ValidationProfile("experimental", 1e-3, 1e-3, 5e-2)


@dataclass(frozen=True)
class DensityMatrix:
    """Ensemble-average quantum state: Hermitian, unit trace, PSD.

    Construct through :func:`validate_density` (or one of the helpers that
    guarantee the invariants structurally); ``matrix`` is read-only.
    """

    matrix: np.ndarray
    dim: int
    n_qubits: int


@dataclass(frozen=True)
class UnitaryOperator:
    """One quantum-computation step; ``U^dag U = I`` within 1e-10."""

    matrix: np.ndarray
    dim: int


@dataclass(frozen=True)
class PureState:
    """State vector with unit 2-norm (within 1e-12)."""

    amplitudes: np.ndarray
    dim: int

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


class UnitarityCheck(NamedTuple):
    is_unitary: bool
    defect: float


class DensityInvariants(NamedTuple):
    """Measured density-matrix invariants; see :func:`density_invariants`."""

    trace: complex
    hermiticity_defect: float
    min_eigenvalue: float


def _as_complex_matrix(m) -> np.ndarray:
    """Copy ``m`` into a finite 2-d complex array; every public matrix check starts here."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise NotSquareError(f"expected a 2-d matrix, got {a.ndim}-d data")
    _require_finite(a)
    return a


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")


def _n_qubits_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise DimNotPowerOfTwoError(f"dimension {dim} is not a power of two >= 2")
    return n


def _freeze(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.setflags(write=False)
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_jk - conj(m_kj)| over all entries."""
    return float(np.max(np.abs(m - m.conj().T)))


def _require_finite(m: np.ndarray) -> None:
    # eigh/eigvalsh read one triangle only, so a NaN in the other one would
    # otherwise pass silently, and a NaN they do read raises LinAlgError.
    if not np.isfinite(m).all():
        raise NumericalFailureError("matrix has a non-finite entry; its eigenvalues are undefined")


def _eigh_or_fail(m: np.ndarray):
    _require_finite(m)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def _eigvalsh_or_fail(m: np.ndarray) -> np.ndarray:
    _require_finite(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue computation failed: {exc}") from exc


def density_invariants(m) -> DensityInvariants:
    """Trace, hermiticity defect and minimum eigenvalue of the Hermitian part.

    The eigenvalue is taken of ``(m + m^dag) / 2`` so that a tiny asymmetry
    cannot skew the PSD judgement.
    """
    a = np.asarray(m, dtype=complex)
    lam_min = float(_eigvalsh_or_fail((a + a.conj().T) / 2.0).min())
    return DensityInvariants(complex(np.trace(a)), hermiticity_defect(a), lam_min)


def validate_density(m, profile: ValidationProfile = STRICT) -> DensityMatrix:
    """Check the density-matrix invariants and wrap the array.

    Parameters
    ----------
    m : array_like
        Square complex matrix with power-of-two dimension.
    profile : ValidationProfile
        Tolerances to apply (``STRICT`` by default).

    Returns
    -------
    DensityMatrix

    Raises
    ------
    NotSquareError, DimNotPowerOfTwoError, NotHermitianError, BadTraceError,
    NotPsdError
        Naming the violated invariant and its measured magnitude, checked in
        that order.
    NumericalFailureError
        If ``m`` has a NaN or infinite entry.
    """
    a = _as_complex_matrix(m)
    _require_square(a)
    n = _n_qubits_for(a.shape[0])
    inv = density_invariants(a)
    if inv.hermiticity_defect > profile.hermiticity_tol:
        raise NotHermitianError(inv.hermiticity_defect)
    trace_dev = abs(inv.trace - 1.0)
    if trace_dev > profile.trace_tol:
        raise BadTraceError(trace_dev)
    if inv.min_eigenvalue < -profile.psd_tol:
        raise NotPsdError(inv.min_eigenvalue)
    return DensityMatrix(_freeze(a), a.shape[0], n)


def check_unitary(m, tol: float = 1e-10) -> UnitarityCheck:
    """Measure the unitarity defect ``max |m^dag m - I|`` against ``tol``."""
    _require_tolerance(tol, "unitarity tolerance")
    a = _as_complex_matrix(m)
    _require_square(a)
    defect = float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))
    return UnitarityCheck(defect <= tol, defect)


def validate_unitary(m, tol: float = 1e-10) -> UnitaryOperator:
    """Wrap ``m`` as a :class:`UnitaryOperator`, or raise ``NotUnitaryError``."""
    a = _as_complex_matrix(m)
    _require_square(a)
    ok, defect = check_unitary(a, tol)
    if not ok:
        raise NotUnitaryError(defect)
    return UnitaryOperator(_freeze(a), a.shape[0])


def pure_state(amplitudes) -> PureState:
    """Wrap an amplitude vector, requiring unit norm within 1e-12."""
    v = np.array(amplitudes, dtype=complex).reshape(-1)
    if v.size < 2:
        raise NotNormalizedError(1.0, what="empty or scalar state vector")
    dev = abs(float(np.linalg.norm(v)) - 1.0)
    if dev > 1e-12:
        raise NotNormalizedError(dev, what="state vector")
    return PureState(_freeze(v), v.size)


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state |index> of ``n_qubits`` qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(_freeze(v), dim)


_BELL_AMPLITUDES = {
    "phi+": (0, 3, 1.0),
    "phi-": (0, 3, -1.0),
    "psi+": (1, 2, 1.0),
    "psi-": (1, 2, -1.0),
}


def bell_state(kind: str) -> PureState:
    """One of the four maximally entangled 2-qubit states.

    ``kind`` is ``"phi+"`` for (|00>+|11>)/sqrt(2), ``"phi-"`` for the minus
    sign, and ``"psi+"``/``"psi-"`` for (|01> +- |10>)/sqrt(2).
    """
    if kind not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_AMPLITUDES)}")
    i, j, sign = _BELL_AMPLITUDES[kind]
    v = np.zeros(4, dtype=complex)
    v[i] = np.sqrt(0.5)
    v[j] = sign * np.sqrt(0.5)
    return PureState(_freeze(v), 4)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """|psi><psi| as a density matrix (valid by construction)."""
    n = _n_qubits_for(psi.dim)
    return DensityMatrix(_freeze(psi.projector()), psi.dim, n)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def evolve(rho: DensityMatrix, u: UnitaryOperator) -> DensityMatrix:
    """Conjugate a state by one computation step: ``U rho U^dag``.

    Preserves the trace to 1e-12 and the eigenvalue multiset to 1e-9.
    """
    if rho.dim != u.dim:
        raise DimMismatchError(f"state dim {rho.dim} != operator dim {u.dim}")
    m = u.matrix @ rho.matrix @ u.matrix.conj().T
    return DensityMatrix(_freeze(m), rho.dim, rho.n_qubits)


def _sqrt_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Eigenvalues below 0 (roundoff on near-PSD data) are clipped to 0 before the root.
    w, v = _eigh_or_fail((m + m.conj().T) / 2.0)
    return np.sqrt(np.clip(w, 0.0, None)), v


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2`` in [0, 1].

    Symmetric in its arguments to 1e-9 and equal to 1 iff the states
    coincide.  For a pure ``sigma`` it reduces to ``tr(rho sigma)``.  The trace
    is the sum of the singular values of ``sqrt(rho) sqrt(sigma)``; the square
    roots of the round-off eigenvalues of a rank-deficient inner matrix would
    be off by about 1e-8, and differently for each argument order.
    """
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"state dims differ: {rho.dim} != {sigma.dim}")
    sr, vr = _sqrt_eig(rho.matrix)
    ss, vs = _sqrt_eig(sigma.matrix)
    try:
        s = np.linalg.svd(sr[:, None] * (vr.conj().T @ vs) * ss, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value decomposition failed: {exc}") from exc
    return min(float(np.sum(s) ** 2), 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of ``rho - sigma``; in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimMismatchError(f"state dims differ: {rho.dim} != {sigma.dim}")
    w = _eigvalsh_or_fail(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(w)))


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two complex matrices; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
