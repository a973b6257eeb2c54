"""Bundled two-qubit NMR experiment dataset and its reproduction.

The dataset is a transcription of published tomography records from a
two-qubit liquid-state NMR run of one quantum-search step: the step operator,
the tomographically measured state before and after the step, and the stated
theoretical prediction for the evolved state.  All values are 4-decimal as
printed in the source, so the matrices are only experimental-profile valid
(tiny trace defects and slightly negative eigenvalues).

The dataset is the six JSON files in ``data/``: five matrices in the
repo-wide schema and ``metadata.json``, whose notes record the ambiguous
(4,4) entry of the step operator.  ``load_dataset`` reads them once per
process; ``export_dataset`` copies them byte for byte.

``reproduce_theory`` recomputes the evolved state, compares it entrywise with
the stated prediction and measures experiment-vs-theory distances on states
made physical by ``tomography.closest_physical_state``; the diagnostics record
what was done to each.  Its inputs are the read-only bundled data, so it
computes once per process: every call returns read-only arrays and its own
copy of the diagnostics, in a report that only it makes.  ``load_baselines``
and ``export_dataset`` touch files that may change between calls, so they are
never cached.  The resulting numbers are regression-tested against frozen
baselines computed once by ``scripts/freeze_baselines.py`` with exact rational
and 60-digit arithmetic; they are never hand-entered.
"""

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nmrsim.core import (
    EXPERIMENTAL,
    UnitaryOperator,
    _eigh,
    _expect,
    _freeze,
    _seal,
    _trace_and_defect,
    evolve,
    fidelity,
    trace_distance,
    validate_density,
    validate_unitary,
)
from nmrsim.errors import ParseError
from nmrsim.serialize import _require_number, _writing, load_json, load_matrix
from nmrsim.tomography import closest_physical_state

__all__ = [
    "ExperimentDataset",
    "ReproReport",
    "BaselineCheck",
    "load_dataset",
    "load_baselines",
    "reproduce_theory",
    "check_against_baselines",
    "export_dataset",
]


@dataclass(frozen=True, eq=False)
class ExperimentDataset:
    c_raw: np.ndarray
    c_corrected: UnitaryOperator
    rho_initial: np.ndarray
    rho_exp_after: np.ndarray
    rho_th_printed: np.ndarray
    notes: str


@dataclass(frozen=True, eq=False)
class ReproReport:
    _builder = "reproduce_theory"
    computed_rho_th: np.ndarray
    max_dev_vs_printed_th: float
    fidelity_exp_vs_computed_th: float
    trace_distance_exp_vs_computed_th: float
    # informational only: printed values are 4-decimal rounded, so the gated
    # comparison is the entrywise deviation, not this fidelity
    fidelity_computed_vs_printed_th: float
    diagnostics: dict


class BaselineCheck(NamedTuple):
    name: str
    computed: float
    frozen: float
    tolerance: float
    ok: bool


_DATA = Path(__file__).with_name("data")


def _read_frozen(name: str) -> np.ndarray:
    return _freeze(load_matrix(_DATA / f"{name}.json"))


@functools.cache
def load_dataset() -> ExperimentDataset:
    """The bundled matrices, bit-exact to their printed 4-decimal values.

    Read from ``data/`` once per process; the result is shared by every
    later call, so all its arrays are read-only.
    """
    return ExperimentDataset(
        c_raw=_read_frozen("step_matrix_raw"),
        c_corrected=validate_unitary(_read_frozen("step_matrix")),
        rho_initial=_read_frozen("rho_initial"),
        rho_exp_after=_read_frozen("rho_exp_after"),
        rho_th_printed=_read_frozen("rho_th_printed"),
        notes=load_json(_DATA / "metadata.json")["notes"],
    )


_BASELINES = _DATA / "baselines.json"
# The report fields checked against a frozen value at a frozen tolerance.
_CHECKED = ("max_dev_vs_printed_th", "fidelity_exp_vs_computed_th", "trace_distance_exp_vs_computed_th")


def _baseline_numbers(obj, where) -> tuple[dict, dict, float | None]:
    """The checked values, tolerances and optional ceiling of a baselines document.

    Every checked value and tolerance, and ``documented_ceiling_max_dev`` when present, must be a
    finite number, the tolerances and ceiling nonnegative; anything else is a ``ParseError``.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: baselines document must be a JSON object")
    tables = []
    for key in ("values", "tolerances"):
        table = obj.get(key)
        if not isinstance(table, dict):
            raise ParseError(f'{where}: baselines document is missing the "{key}" table')
        for name in _CHECKED:
            if name not in table:
                raise ParseError(f'{where}: "{key}" has no entry for {name}')
        tables.append({name: _require_number(table[name], f"{key}.{name}") for name in _CHECKED})
    ceiling = obj.get("documented_ceiling_max_dev")
    if ceiling is not None:
        ceiling = _require_number(ceiling, "documented_ceiling_max_dev")
    if min(*tables[1].values(), ceiling or 0.0) < 0.0:
        raise ParseError(f"{where}: tolerances and documented_ceiling_max_dev must be nonnegative")
    return tables[0], tables[1], ceiling


def load_baselines(path=None) -> dict:
    """Frozen regression baselines (see ``scripts/freeze_baselines.py``); malformed ones are a ``ParseError``."""
    path = _BASELINES if path is None else path
    obj = load_json(path)
    _baseline_numbers(obj, path)
    return obj


def _diagnose(rho, renormalized: bool = False, projected: bool = False) -> dict:
    """Experimental-profile validation readout for one state."""
    trace, defect = _trace_and_defect(rho.matrix)
    return {
        "trace_real": float(trace.real),
        "trace_deviation": float(abs(trace - 1.0)),
        "hermiticity_defect": defect,
        "min_eigenvalue": float(_eigh(rho)[0][0]),
        "trace_renormalized": renormalized,
        "psd_projected": projected,
    }


def reproduce_theory() -> ReproReport:
    """Recompute the evolved state and compare with the printed records.

    ``computed_rho_th = c rho c^dag`` uses the printed initial state as-is.
    The entrywise comparison against the printed prediction needs no PSD
    handling; the fidelity/trace-distance comparison against the measured
    after-state does, so both matrices are trace-renormalized and
    PSD-projected as needed, with the steps recorded in the diagnostics.

    Computed on the first call; every call returns the same read-only
    ``computed_rho_th`` and its own copy of ``diagnostics``.
    """
    report = _theory()
    return _seal(replace(report, diagnostics={name: dict(d) for name, d in report.diagnostics.items()}))


@functools.cache
def _theory() -> ReproReport:
    """The report :func:`reproduce_theory` copies, computed once per process from the bundled data."""
    ds = load_dataset()
    # any validation failure is a data-entry bug; each state's eigenpairs serve all that follows
    rho_initial = validate_density(ds.rho_initial, EXPERIMENTAL)
    exp_after = validate_density(ds.rho_exp_after, EXPERIMENTAL)
    printed = validate_density(ds.rho_th_printed, EXPERIMENTAL)
    computed = validate_density(evolve(rho_initial, ds.c_corrected).matrix, EXPERIMENTAL)
    max_dev = float(np.max(np.abs(computed.matrix - ds.rho_th_printed)))

    exp_state, exp_renorm, exp_proj = closest_physical_state(exp_after)
    th_state, th_renorm, th_proj = closest_physical_state(computed)
    printed_state, printed_renorm, printed_proj = closest_physical_state(printed)

    diagnostics = {
        "rho_initial": _diagnose(rho_initial),
        "rho_exp_after": _diagnose(exp_after, exp_renorm, exp_proj),
        "rho_th_printed": _diagnose(printed, printed_renorm, printed_proj),
        "computed_rho_th": _diagnose(computed, th_renorm, th_proj),
    }
    return _seal(ReproReport(
        computed_rho_th=computed.matrix,
        max_dev_vs_printed_th=max_dev,
        fidelity_exp_vs_computed_th=fidelity(exp_state, th_state),
        trace_distance_exp_vs_computed_th=trace_distance(exp_state, th_state),
        fidelity_computed_vs_printed_th=fidelity(th_state, printed_state),
        diagnostics=diagnostics,
    ))


def check_against_baselines(report: ReproReport, baselines: dict) -> list[BaselineCheck]:
    """Compare a fresh report with the frozen values at their tolerances.

    ``baselines`` is checked as :func:`load_baselines` checks a file.
    """
    _expect(report, ReproReport, "report")
    values, tolerances, ceiling = _baseline_numbers(baselines, "baselines")
    checks = []
    for name in _CHECKED:
        value, frozen, tol = getattr(report, name), values[name], tolerances[name]
        checks.append(BaselineCheck(name, value, frozen, tol, abs(value - frozen) <= tol))
    if ceiling is not None:
        dev = report.max_dev_vs_printed_th
        checks.append(BaselineCheck("max_dev_documented_ceiling", dev, ceiling, ceiling, dev <= ceiling))
    return checks


def export_dataset(directory) -> list[Path]:
    """Copy the six bundled dataset files into ``directory``, byte for byte, and return their paths.

    The OS refusing a write is a ``BadArgumentError``, raised after deleting the files this call created; a file
    that existed before the call keeps whatever the call wrote to it.
    """
    names = load_json(_DATA / "metadata.json")["files"] + ["metadata.json"]
    with _writing(directory) as root:
        root.mkdir(parents=True, exist_ok=True)
        written = [root / name for name in names]
        created = [path for path in written if not path.exists()]
        try:
            for path in written:
                path.write_bytes((_DATA / path.name).read_bytes())
        except BaseException:
            for path in created:
                path.unlink(missing_ok=True)
            raise
    return written
