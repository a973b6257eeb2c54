"""Ensembles as preparation records: weighted lists of pure states.

Distinct physical preparations can share one density matrix while their
members carry completely different entanglement, so entanglement here is
always reported per member, never inferred from the averaged state.
"""

from dataclasses import dataclass
from typing import NamedTuple

from nmrsim.core import DensityMatrix, PureState, _expect, _real, pure_state, validate_density
from nmrsim.errors import BadArgumentError, DimMismatchError, NotNormalizedError, ParseError, WrongDimError
from nmrsim.serialize import _complex_array, _require_number, _require_numbers

__all__ = [
    "EnsembleHistory",
    "MemberEntanglement",
    "MemberEntanglementReport",
    "density_of",
    "concurrence",
    "entanglement_report",
    "history_from_dict",
]

# 2-qubit members with concurrence at or below this are reported as product.
_PRODUCT_CONCURRENCE_TOL = 1e-10


@dataclass(frozen=True)
class EnsembleHistory:
    """Preparation record: positive weights summing to 1, same-dim members."""

    label: str
    members: tuple

    def __post_init__(self):
        try:
            pairs = [(w, psi) for w, psi in self.members]
        except (TypeError, ValueError) as exc:  # not iterable, or a member that is not a pair
            raise BadArgumentError(f"history members must be (weight, PureState) pairs: {exc}") from exc
        if not pairs:
            raise BadArgumentError("a history needs at least one member")
        for w, psi in pairs:
            _expect(psi, PureState, "history member")
            if not _real(w) > 0.0:  # NaN, which a weight that is not a number reads as, fails too
                raise BadArgumentError(f"member weight {w!r} must be positive")
        members = tuple((_real(w), psi) for w, psi in pairs)
        total = sum(w for w, _ in members)
        if not abs(total - 1.0) <= 1e-12:  # NaN fails too
            raise NotNormalizedError(abs(total - 1.0), what="history weights")
        dims = {psi.dim for _, psi in members}
        if len(dims) != 1:
            raise DimMismatchError(f"members have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0][1].dim


class MemberEntanglement(NamedTuple):
    weight: float
    concurrence: float
    is_product: bool


@dataclass(frozen=True)
class MemberEntanglementReport:
    members: tuple


def density_of(h: EnsembleHistory) -> DensityMatrix:
    """Weighted sum of member projectors; strict-valid by construction."""
    acc = sum(w * psi.projector() for w, psi in _expect(h, EnsembleHistory, "history").members)
    return validate_density(acc)


def concurrence(psi: PureState) -> float:
    """Entanglement of a 2-qubit pure state: 2|a d - b c| for amplitudes (a,b,c,d).

    0 for product states, 1 for maximally entangled ones; invariant under
    local basis changes.
    """
    if _expect(psi, PureState, "state").dim != 4:
        raise WrongDimError(f"concurrence is defined for 2-qubit states, got dim {psi.dim}")
    a, b, c, d = psi.amplitudes
    return min(1.0, float(2.0 * abs(a * d - b * c)))


def entanglement_report(h: EnsembleHistory) -> MemberEntanglementReport:
    """Per-member concurrence table for a history of 2-qubit states."""
    if _expect(h, EnsembleHistory, "history").dim != 4:
        raise WrongDimError(f"entanglement reports need 2-qubit members, got dim {h.dim}")
    rows = tuple(
        MemberEntanglement(w, c, c <= _PRODUCT_CONCURRENCE_TOL)
        for w, psi in h.members
        for c in (concurrence(psi),)
    )
    return MemberEntanglementReport(rows)


def history_from_dict(obj) -> EnsembleHistory:
    """Parse ``{"label": str, "members": [{"weight", "re", "im"}, ...]}``."""
    if not isinstance(obj, dict):
        raise ParseError("history document must be a JSON object")
    label = obj.get("label")
    if not isinstance(label, str):
        raise ParseError('history needs a string "label"')
    raw_members = obj.get("members")
    if not isinstance(raw_members, list) or not raw_members:
        raise ParseError('history needs a non-empty "members" list')
    members = []
    for i, entry in enumerate(raw_members):
        if not isinstance(entry, dict):
            raise ParseError(f"member {i} must be an object")
        missing = {"weight", "re", "im"} - entry.keys()
        if missing:
            raise ParseError(f"member {i} missing keys: {sorted(missing)}")
        w = _require_number(entry["weight"], f"member {i} weight")
        re, im = entry["re"], entry["im"]
        if not isinstance(re, list) or not isinstance(im, list) or len(re) != len(im):
            raise ParseError(f'member {i}: "re" and "im" must be equal-length lists')
        _require_numbers(re, f'member {i} "re"')
        _require_numbers(im, f'member {i} "im"')
        members.append((w, pure_state(_complex_array(re, im))))
    return EnsembleHistory(label, tuple(members))
