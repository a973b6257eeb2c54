"""Dense complex linear algebra and validated quantum-state/operator types.

States and operators are plain complex ``numpy`` arrays wrapped in thin frozen
dataclasses.  A state, pure state or operator comes from its builder, which
checks its invariants and marks it; one built by hand or by ``dataclasses.replace``
is a ``BadArgumentError``.  All operations are pure functions: inputs are never
mutated, wrapped arrays are marked read-only, and values can be shared freely
between threads.  Every ``DensityMatrix`` carries the eigenpairs of its matrix's
Hermitian part, which ``_eigh`` returns; every eigen-solve in the package goes
through ``_eigh`` or ``_eigvalsh``.
The trace and the hermiticity defect are measured only by ``_trace_and_defect``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from nmrsim.errors import (
    BadArgumentError,
    BadTraceError,
    DimMismatchError,
    DimNotPowerOfTwoError,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    NotSquareError,
    NotUnitaryError,
    NumericalFailureError,
    WrongDimError,
)

__all__ = [
    "MAX_QUBITS",
    "ValidationProfile",
    "STRICT",
    "EXPERIMENTAL",
    "DensityMatrix",
    "UnitaryOperator",
    "PureState",
    "validate_density",
    "validate_unitary",
    "pure_state",
    "basis_state",
    "bell_state",
    "density_from_pure",
    "evolve",
    "fidelity",
    "trace_distance",
    "check_unitary",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only in place and return it; the package's only ``setflags`` call."""
    a.setflags(write=False)
    return a


MAX_QUBITS = 3


@dataclass(frozen=True)
class ValidationProfile:
    """Tolerance bundle applied when validating density matrices; ``STRICT`` and ``EXPERIMENTAL`` are the only two.

    ``STRICT`` is the default for synthetic data.  ``EXPERIMENTAL`` accommodates matrices transcribed from
    4-decimal instrument readouts, which can carry small trace defects and slightly negative eigenvalues.
    Any other profile, built by hand or by ``dataclasses.replace``, is a ``BadArgumentError``.
    """

    _builder = "STRICT or EXPERIMENTAL"
    hermiticity_tol: float
    trace_tol: float
    psd_tol: float


def _real(x, other: float | None = math.nan) -> float | None:
    """``x`` as a float if it is a Python or numpy int or float, else ``other``; a bool is not one.

    The one rule for a real scalar, argument or JSON number; an int beyond the double range reads as infinite.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return other
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _expect(x, cls, what: str):
    """The one package-type guard: ``x`` if it is a ``cls``, from its ``_builder`` if any, else ``BadArgumentError``."""
    if not isinstance(x, cls):
        raise BadArgumentError(f"{what} must be a {cls.__name__}, got {type(x).__name__}")
    if (builder := getattr(cls, "_builder", None)) and "_sealed" not in x.__dict__:
        raise BadArgumentError(f"{what} must be a {cls.__name__} from {builder}, not one built by hand or replaced")
    return x


def _seal(x):
    """Mark ``x`` as made by its type's builder, the only instances ``_expect`` accepts, and return it."""
    object.__setattr__(x, "_sealed", True)
    return x


def _require_tolerance(tol: float, what: str) -> None:
    """Reject a tolerance that is not a real number, or is NaN, infinite or negative: no comparison can honour it."""
    if not 0.0 <= _real(tol) < math.inf:
        raise BadArgumentError(f"{what} must be finite and nonnegative, got {tol!r}")


STRICT = _seal(ValidationProfile(1e-10, 1e-10, 1e-10))
EXPERIMENTAL = _seal(ValidationProfile(1e-3, 1e-3, 5e-2))


class _StateType:
    """Base of the state types, expectation sets and population vectors: a copy keeps its read-only arrays."""

    def __setstate__(self, state: dict) -> None:
        # deepcopy and pickle give fresh writable arrays; a hand-built one of a type with a builder may hold a caller's
        if "_sealed" in state or not getattr(self, "_builder", None):
            for a in [*state.values(), *state.get("spectrum", ())]:
                if isinstance(a, np.ndarray):
                    _freeze(a)
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class DensityMatrix(_StateType):
    """Ensemble-average quantum state: Hermitian, unit trace, PSD.

    A state is its read-only ``matrix`` plus ``spectrum``, the read-only
    eigenpairs ``(w, v)`` of the Hermitian part of ``matrix``, ``w`` ascending,
    which every later eigen-solve on the state reuses.  Only ``_checked_density`` (behind
    :func:`validate_density` and every validating builder) and :func:`evolve` build one; every
    function refuses one built by hand or by ``dataclasses.replace`` with a ``BadArgumentError``.
    """

    _builder = "validate_density"
    matrix: np.ndarray
    dim: int
    n_qubits: int
    spectrum: tuple[np.ndarray, np.ndarray] = field(repr=False)


@dataclass(frozen=True, eq=False)
class UnitaryOperator(_StateType):
    """One quantum-computation step; ``U^dag U = I`` within 1e-10."""

    _builder = "validate_unitary"
    matrix: np.ndarray
    dim: int


@dataclass(frozen=True, eq=False)
class PureState(_StateType):
    """State vector with unit 2-norm (within 1e-12)."""

    _builder = "pure_state"
    amplitudes: np.ndarray
    dim: int

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a plain array."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _numbers(x, dtype, what: str) -> np.ndarray:
    """A C-ordered ``dtype`` copy of caller data ``x``: integer or real numbers, or complex for a complex ``dtype``."""
    try:
        a = np.array(x, order="C")
    except (ValueError, TypeError) as exc:  # ragged nesting
        raise BadArgumentError(f"{what} must be numbers in a rectangular array: {exc}") from exc
    if a.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise BadArgumentError(f"{what} must be {'' if dtype is complex else 'real '}numbers, got dtype {a.dtype}")
    # an ndarray is judged by its dtype; other data entry by entry too, as numpy reads a bool among numbers as 0 or 1
    if not isinstance(x, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in np.array(x, object).flat):
        raise BadArgumentError(f"{what} must be numbers, not bools")
    return a.astype(dtype, copy=False)


def _as_complex_matrix(m) -> np.ndarray:
    """A finite square complex copy of ``m`` of 1 to ``MAX_QUBITS`` qubits; every public matrix check starts here."""
    a = _numbers(m, complex, "matrix entries")
    if a.ndim != 2:
        raise NotSquareError(f"expected a 2-d matrix, got {a.ndim}-d data")
    _require_finite(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquareError(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    _n_qubits_for(len(a))  # before any O(d^3) work, and any reduction numpy refuses for an empty array
    return a


def _n_qubits_for(dim: int) -> int:
    """The qubit count of a dimension; the one place the limit of ``MAX_QUBITS`` is checked."""
    n = int(dim).bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise DimNotPowerOfTwoError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise WrongDimError(f"at most {MAX_QUBITS} qubits are supported, got {n} (dimension {dim})")
    return n


def _trace_and_defect(a: np.ndarray) -> tuple[complex, float]:
    """The trace and hermiticity defect ``max |a_jk - conj(a_kj)|`` of a square array; the only code measuring either."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf or NaN, which fails every tolerance
        return complex(a.trace()), float(np.abs(a - a.conj().T).max())


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise NumericalFailureError("matrix has a non-finite entry; its eigenvalues are undefined")


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(a + a^dag) / 2``, the matrix every eigen-solve reads, halved first so that no finite entry overflows."""
    return a / 2.0 + a.conj().T / 2.0


def _lapack(solver, a: np.ndarray, **kw):
    """``solver(a, **kw)`` on a finite ``a``; a non-finite one or a LAPACK failure is a ``NumericalFailureError``."""
    _require_finite(a)
    try:
        return solver(a, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"{solver.__name__} failed: {exc}") from exc


def _eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs ``(w, v)``, ``w`` ascending, of an array's Hermitian part, or a state's ``spectrum``."""
    if isinstance(m, DensityMatrix):
        return _expect(m, DensityMatrix, "state").spectrum
    w, v = _lapack(np.linalg.eigh, _hermitian_part(m))
    return _freeze(w), _freeze(v)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an array's Hermitian part."""
    return _lapack(np.linalg.eigvalsh, _hermitian_part(a))


def validate_density(m, profile: ValidationProfile = STRICT) -> DensityMatrix:
    """Check the density-matrix invariants and wrap the array.

    Parameters
    ----------
    m : array_like
        Square complex matrix with power-of-two dimension.
    profile : ValidationProfile
        ``STRICT`` (the default) or ``EXPERIMENTAL``; any other profile is a ``BadArgumentError``.

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
    return _checked_density(_as_complex_matrix(m), _expect(profile, ValidationProfile, "validation profile"))


def _checked_density(a: np.ndarray, profile: ValidationProfile, spectrum=None) -> DensityMatrix:
    """:func:`validate_density` of a private finite square array; a given ``spectrum`` must be its Hermitian part's."""
    n = _n_qubits_for(len(a))
    w, v = spectrum or _eigh(a)
    trace, defect = _trace_and_defect(a)
    if defect > profile.hermiticity_tol:
        raise NotHermitianError(defect)
    trace_dev = abs(trace - 1.0)
    if not trace_dev <= profile.trace_tol:  # NaN fails too
        raise BadTraceError(trace_dev)
    if w[0] < -profile.psd_tol:
        raise NotPsdError(w[0])
    return _seal(DensityMatrix(_freeze(a), len(a), n, (w, v)))


def _unitarity(a: np.ndarray, tol: float) -> tuple[bool, float]:
    _require_tolerance(tol, "unitarity tolerance")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the defect inf or NaN, so not ok
        defect = float(np.max(np.abs(a.conj().T @ a - np.eye(len(a)))))
    return defect <= tol, defect


def check_unitary(m, tol: float = 1e-10) -> tuple[bool, float]:
    """``(ok, defect)``: the unitarity defect ``max |m^dag m - I|`` and whether it is within ``tol``."""
    return _unitarity(_as_complex_matrix(m), tol)


def validate_unitary(m) -> UnitaryOperator:
    """Wrap ``m`` as a :class:`UnitaryOperator` of 1 to ``MAX_QUBITS`` qubits, or ``NotUnitaryError`` above 1e-10."""
    ok, defect = _unitarity(a := _as_complex_matrix(m), 1e-10)
    if not ok:
        raise NotUnitaryError(defect)
    return _seal(UnitaryOperator(_freeze(a), len(a)))


def pure_state(amplitudes) -> PureState:
    """Wrap an amplitude vector of 1 to ``MAX_QUBITS`` qubits, requiring unit norm within 1e-12."""
    v = _numbers(amplitudes, complex, "state amplitudes").reshape(-1)
    _n_qubits_for(v.size)  # before any O(d^2) work on the state, such as its projector
    with np.errstate(over="ignore"):  # an overflowing norm is inf, which fails the check
        dev = abs(float(np.linalg.norm(v)) - 1.0)
    if not dev <= 1e-12:  # NaN fails too
        raise NotNormalizedError(dev, what="state vector")
    return _seal(PureState(_freeze(v), v.size))


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state |index> of ``n_qubits`` qubits, 1 to ``MAX_QUBITS``."""
    if not (_is_integer(n_qubits) and _is_integer(index)):
        raise BadArgumentError(f"basis state qubit count and index must be integers, got {n_qubits!r} and {index!r}")
    if not 1 <= n_qubits <= MAX_QUBITS:  # before the shift, which a negative or huge count breaks
        raise WrongDimError(f"basis states have 1 to {MAX_QUBITS} qubits, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise BadArgumentError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return pure_state(v)


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
    if not (isinstance(kind, str) and kind in _BELL_AMPLITUDES):
        raise BadArgumentError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_AMPLITUDES)}")
    i, j, sign = _BELL_AMPLITUDES[kind]
    v = np.zeros(4, dtype=complex)
    v[i] = np.sqrt(0.5)
    v[j] = sign * np.sqrt(0.5)
    return pure_state(v)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """|psi><psi| validated under ``STRICT``, with the eigenpairs of its own eigen-solve."""
    return _checked_density(_expect(psi, PureState, "state").projector(), STRICT)


def evolve(rho: DensityMatrix, u: UnitaryOperator) -> DensityMatrix:
    """Conjugate a state by one computation step: ``U rho U^dag``.

    Preserves the trace to U's unitarity defect, at most 1e-10 for a validated operator, plus round-off,
    and the eigenvalue multiset to 1e-9.  The result's ``spectrum`` is ``(w, U v)`` from ``rho``'s,
    with no eigen-solve: eigenpairs of its Hermitian part to that defect plus round-off.
    """
    if _expect(rho, DensityMatrix, "state").dim != _expect(u, UnitaryOperator, "step operator").dim:
        raise DimMismatchError(f"state dim {rho.dim} != operator dim {u.dim}")
    m = u.matrix @ rho.matrix @ u.matrix.conj().T
    spectrum = (rho.spectrum[0], _freeze(u.matrix @ rho.spectrum[1]))
    return _seal(DensityMatrix(_freeze(m), rho.dim, rho.n_qubits, spectrum))


_EPS = float(np.finfo(float).eps)


def _pair(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    """Require two states of one dimension."""
    if _expect(rho, DensityMatrix, "state").dim != _expect(sigma, DensityMatrix, "state").dim:
        raise DimMismatchError(f"state dims differ: {rho.dim} != {sigma.dim}")


def _sqrt_eig(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    # Eigenvalues at or below the round-off floor d * eps * w_max are zeroed before the root.
    w, v = _eigh(rho)
    return np.sqrt(np.where(w > len(w) * _EPS * w[-1], w, 0.0)), v


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2`` in [0, 1].

    Symmetric in its arguments to 1e-9 and equal to 1 iff the states
    coincide.  For a pure ``sigma`` it reduces to ``tr(rho sigma)`` to 1e-12.
    The trace is the sum of the singular values of ``sqrt(rho) sqrt(sigma)``;
    the square roots of the round-off eigenvalues of a rank-deficient inner
    matrix would be off by about 1e-8, and differently for each argument order.
    For the same reason each state's eigenvalues at or below the round-off
    floor ``d * eps * w_max`` count as 0 (eps the float64 machine epsilon).
    """
    _pair(rho, sigma)
    sr, vr = _sqrt_eig(rho)
    ss, vs = _sqrt_eig(sigma)
    s = _lapack(np.linalg.svd, sr[:, None] * (vr.conj().T @ vs) * ss, compute_uv=False)
    return min(float(s.sum() ** 2), 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of ``rho - sigma``; in [0, 1]."""
    _pair(rho, sigma)
    w = _eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.sum(np.abs(w)))
