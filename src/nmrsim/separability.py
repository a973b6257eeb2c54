"""Partial transpose, PPT testing, and the critical pseudo-pure coefficient.

One kernel, :func:`partial_transpose`, transposes any chosen qubit of a 2- or
3-qubit state; every PPT test here reads the minimum eigenvalue of its
Hermitian part.  For two qubits positivity of the partial transpose is
necessary and sufficient for separability (Horodecki); for three qubits it is
only necessary, and this module says so explicitly rather than overclaiming.
"""

from dataclasses import dataclass

import numpy as np

from nmrsim.core import DensityMatrix, _eigvalsh, _expect, _is_integer, _require_tolerance
from nmrsim.errors import BadArgumentError, WrongDimError
from nmrsim.pseudopure import _require_pure

__all__ = [
    "DEFAULT_PPT_TOL",
    "PPTReport",
    "partial_transpose",
    "is_separable_2q",
    "ppt_first_vs_rest",
    "critical_epsilon",
]

DEFAULT_PPT_TOL = 1e-10


@dataclass(frozen=True)
class PPTReport:
    """Outcome of a positive-partial-transpose test."""

    min_eigenvalue: float
    is_ppt: bool
    tolerance: float


def partial_transpose(rho: DensityMatrix, qubit: int) -> np.ndarray:
    """Transpose the tensor factor of qubit ``qubit`` (0-based) of a 2- or 3-qubit state.

    Hermiticity and trace are preserved exactly; applying the same transpose
    twice returns the input.
    """
    n = _expect(rho, DensityMatrix, "state").n_qubits
    if n < 2:
        raise WrongDimError(f"PPT test supports 2 or 3 qubits, got dim {rho.dim}")
    if not (_is_integer(qubit) and 0 <= qubit < n):
        raise BadArgumentError(f"qubit must be in 0..{n - 1}, got {qubit!r}")
    # axes 0..n-1 index the rows, n..2n-1 the columns, one axis per qubit
    t = rho.matrix.reshape((2,) * (2 * n)).swapaxes(qubit, n + qubit)
    return t.reshape(rho.dim, rho.dim)


def _ppt_report(transposed: np.ndarray, tol: float) -> PPTReport:
    _require_tolerance(tol, "PPT tolerance")
    lam_min = float(_eigvalsh(transposed).min())
    return PPTReport(lam_min, lam_min >= -tol, tol)


def is_separable_2q(rho: DensityMatrix, tol: float = DEFAULT_PPT_TOL) -> PPTReport:
    """PPT test for a 2-qubit state, where PPT is equivalent to separability."""
    if _expect(rho, DensityMatrix, "state").dim != 4:
        raise WrongDimError(f"separability verdicts are restricted to 2 qubits, got dim {rho.dim}")
    return _ppt_report(partial_transpose(rho, 1), tol)


def ppt_first_vs_rest(rho: DensityMatrix, tol: float = DEFAULT_PPT_TOL) -> PPTReport:
    """PPT test across the first qubit vs the rest.

    For 3 qubits this is a necessary condition for separability only; a
    positive result proves nothing.
    """
    return _ppt_report(partial_transpose(rho, 0), tol)


def critical_epsilon(rho1: DensityMatrix) -> float:
    """Largest mixing coefficient keeping ``(1-e) I/4 + e rho1`` separable.

    The partial transpose of the mixture has eigenvalues
    ``(1-e)/4 + e mu_i`` with ``mu_i`` the partial-transpose eigenvalues of
    ``rho1``, so the threshold is ``min(1, 1 / (1 - 4 mu_min))``.  ``mu_min``
    is read from :func:`is_separable_2q`, which also rejects any state but a
    2-qubit one; a mixed ``rho1`` is then rejected as not pure.
    """
    lam_min = is_separable_2q(rho1).min_eigenvalue
    _require_pure(rho1)
    return min(1.0, 1.0 / (1.0 - rho1.dim * lam_min))
