"""Pseudo-pure state algebra and the NMR signal picture of its coefficient.

A pseudo-pure (effective pure) state is ``(1 - eps) I/d + eps rho1`` with
``rho1`` pure.  The coefficient ``eps`` measures how many ensemble members
contribute net signal: it scales readout intensity and is inert under unitary
evolution, which is why it carries no information about entanglement.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nmrsim.core import DensityMatrix, _expect, _freeze, _numbers, _pair, _real, _require_finite, validate_density
from nmrsim.errors import BadArgumentError, NotPureError

__all__ = [
    "PopulationVector",
    "EpsilonEstimate",
    "NetSignal",
    "compose_pseudopure",
    "extract_epsilon",
    "net_signal",
]

_PURITY_TOL = 1e-9
# Slack when deciding whether an extracted coefficient is out of model range.
_RANGE_SLACK = 1e-9


def _require_pure(rho1: DensityMatrix) -> None:
    _require_finite(_expect(rho1, DensityMatrix, "target state").matrix)  # a NaN purity would pass the comparison
    p = float(np.trace(rho1.matrix @ rho1.matrix).real)  # tr(rho1^2)
    if abs(p - 1.0) > _PURITY_TOL:
        raise NotPureError(p)


@dataclass(frozen=True, eq=False)
class PopulationVector:
    """Per-basis-state occupation counts, nonnegative."""

    counts: np.ndarray

    def __post_init__(self):
        c = _numbers(self.counts, float, "populations").reshape(-1)
        if c.size == 0:
            raise BadArgumentError("population vector must not be empty")
        if not ((0.0 <= c) & (c < np.inf)).all():  # NaN fails too
            raise BadArgumentError(f"populations must be finite and nonnegative, got {c}")
        object.__setattr__(self, "counts", _freeze(c))


class EpsilonEstimate(NamedTuple):
    """Extracted coefficient; ``out_of_model`` marks values outside [0, 1]."""

    epsilon: float
    out_of_model: bool


class NetSignal(NamedTuple):
    net_upward: float
    equivalent_pure_count: float


def compose_pseudopure(eps: float, rho1: DensityMatrix) -> DensityMatrix:
    """``(1 - eps) I/d + eps rho1`` for pure ``rho1`` and ``eps`` in [0, 1]."""
    if not 0.0 <= _real(eps) <= 1.0:
        raise BadArgumentError(f"epsilon must lie in [0, 1], got {eps!r}")
    _require_pure(rho1)
    d = rho1.dim
    m = (1.0 - eps) * np.eye(d) / d + eps * rho1.matrix
    return validate_density(m)


def extract_epsilon(rho: DensityMatrix, rho1: DensityMatrix) -> EpsilonEstimate:
    """Invert the mixture: ``eps = (d tr(rho rho1) - 1) / (d - 1)``.

    Exact left-inverse of :func:`compose_pseudopure` for states of that form.
    For other states the value is still returned, unclamped, with
    ``out_of_model`` set when it falls outside [0, 1].
    """
    _pair(rho, rho1)
    _require_finite(rho.matrix)  # a NaN overlap would be returned as an out-of-model estimate
    _require_pure(rho1)
    d = rho.dim
    overlap = float(np.trace(rho.matrix @ rho1.matrix).real)
    eps = (d * overlap - 1.0) / (d - 1.0)
    return EpsilonEstimate(eps, not -_RANGE_SLACK <= eps <= 1.0 + _RANGE_SLACK)


def net_signal(p: PopulationVector) -> NetSignal:
    """Net coil signal of a single-qubit ensemble with raw counts (n0, n1).

    Upward and downward transitions cancel pairwise; the remaining
    ``n0 - n1`` transitions are what a pure ensemble of that many particles
    would produce.
    """
    if _expect(p, PopulationVector, "populations").counts.size != 2:
        raise BadArgumentError(f"expected a single-qubit population pair, got length {p.counts.size}")
    n0, n1 = (float(x) for x in p.counts)
    return NetSignal(n0 - n1, abs(n0 - n1))
