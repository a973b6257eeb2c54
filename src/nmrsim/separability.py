"""Partial transpose, PPT testing, and the critical pseudo-pure coefficient.

For two qubits positivity of the partial transpose is necessary and
sufficient for separability (Horodecki); for three qubits it is only
necessary, and this module says so explicitly rather than overclaiming.
"""

from dataclasses import dataclass

import numpy as np

from nmrsim.core import DensityMatrix, _eigvalsh_or_fail, _require_tolerance
from nmrsim.errors import WrongDimError
from nmrsim.pseudopure import _require_pure, compose_pseudopure

__all__ = [
    "DEFAULT_PPT_TOL",
    "PPTReport",
    "partial_transpose",
    "is_separable_2q",
    "ppt_first_vs_rest",
    "critical_epsilon",
    "critical_epsilon_bisection",
]

DEFAULT_PPT_TOL = 1e-10


@dataclass(frozen=True)
class PPTReport:
    """Outcome of a positive-partial-transpose test."""

    min_eigenvalue: float
    is_ppt: bool
    tolerance: float


def partial_transpose(rho: DensityMatrix, subsystem: str = "B") -> np.ndarray:
    """Transpose one tensor factor of a 2-qubit state.

    Hermiticity and trace are preserved exactly; applying the same transpose
    twice returns the input.
    """
    if rho.dim != 4:
        raise WrongDimError(f"partial transpose is defined here for 2 qubits, got dim {rho.dim}")
    r = rho.matrix.reshape(2, 2, 2, 2)
    if subsystem == "B":
        out = r.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f'subsystem must be "A" or "B", got {subsystem!r}')
    return out.reshape(4, 4).copy()


def _ppt_report(transposed: np.ndarray, tol: float) -> PPTReport:
    _require_tolerance(tol, "PPT tolerance")
    lam_min = float(_eigvalsh_or_fail((transposed + transposed.conj().T) / 2.0).min())
    return PPTReport(lam_min, lam_min >= -tol, tol)


def is_separable_2q(rho: DensityMatrix, tol: float = DEFAULT_PPT_TOL) -> PPTReport:
    """PPT test for a 2-qubit state, where PPT is equivalent to separability."""
    if rho.dim != 4:
        raise WrongDimError(f"separability verdicts are restricted to 2 qubits, got dim {rho.dim}")
    return _ppt_report(partial_transpose(rho, "B"), tol)


def ppt_first_vs_rest(rho: DensityMatrix, tol: float = DEFAULT_PPT_TOL) -> PPTReport:
    """PPT test across the first qubit vs the rest.

    For 3 qubits this is a necessary condition for separability only; a
    positive result proves nothing.
    """
    if rho.n_qubits not in (2, 3):
        raise WrongDimError(f"PPT test supports 2 or 3 qubits, got dim {rho.dim}")
    db = rho.dim // 2
    r = rho.matrix.reshape(2, db, 2, db)
    transposed = r.transpose(2, 1, 0, 3).reshape(rho.dim, rho.dim)
    return _ppt_report(transposed, tol)


def critical_epsilon(rho1: DensityMatrix) -> float:
    """Largest mixing coefficient keeping ``(1-e) I/4 + e rho1`` separable.

    The partial transpose of the mixture has eigenvalues
    ``(1-e)/4 + e mu_i`` with ``mu_i`` the partial-transpose eigenvalues of
    ``rho1``, so the threshold is ``min(1, 1 / (1 - 4 mu_min))``.
    """
    if rho1.dim != 4:
        raise WrongDimError(f"critical coefficient is defined for 2 qubits, got dim {rho1.dim}")
    _require_pure(rho1)
    lam_min = float(_eigvalsh_or_fail(partial_transpose(rho1, "B")).min())
    return min(1.0, 1.0 / (1.0 - rho1.dim * lam_min))


def critical_epsilon_bisection(rho1: DensityMatrix, tol: float = 1e-10, ppt_tol: float = 1e-12) -> float:
    """Independent threshold estimate: bisection over the PPT verdict.

    Deliberately avoids the closed form above so the two routes cross-check
    each other.
    """
    if rho1.dim != 4:
        raise WrongDimError(f"critical coefficient is defined for 2 qubits, got dim {rho1.dim}")
    _require_pure(rho1)

    def ppt(eps: float) -> bool:
        return is_separable_2q(compose_pseudopure(eps, rho1), ppt_tol).is_ppt

    if ppt(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if ppt(mid):
            lo = mid
        else:
            hi = mid
    return lo
