"""Every public callable of the library returns or raises an ``NmrsimError``, whatever one argument holds.

The targets come from the ``__all__`` of each library module and the
arguments from ``inspect.signature``, so a new public name is covered with no
edit here.  For each callable the sweep first finds, from one fixed pool of
values, an argument list that succeeds (a callable that never succeeds would
hide every later parameter behind an early rejection).  Then every positional
parameter, defaulted or not, takes every pool value while the others keep
their working values.  The pool mixes numbers (empty matrices and matrices
whose trace is tiny or subnormal among them), data that is not numbers, the
wrong package type, one valid instance of each package type and, in
``FORGERIES``, instances of the state types, of ``ValidationProfile`` and of
``ReproReport`` that no builder made: built by the constructor or by
``dataclasses.replace``.  ``STRICT`` is the pool's genuine profile.

Three rules hold for every call, and any warning fails the sweep:

- only a result or an ``NmrsimError`` comes out;
- where a parameter works with numbers and refuses ``None``, it refuses every
  value in ``NOT_NUMBERS`` with a ``BadArgumentError``; where it works with an
  int, it refuses every float the same way;
- where a parameter accepts a genuine instance of a type in ``FORGERIES``, it
  refuses each forgery of that type with a ``BadArgumentError``.

One exemption: ``tomography.pauli_matrix`` is an ``lru_cache``, which raises
``TypeError`` for an unhashable argument before the function body runs.
"""

import importlib
import inspect
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from nmrsim.core import (
    STRICT,
    DensityMatrix,
    PureState,
    UnitaryOperator,
    ValidationProfile,
    bell_state,
    density_from_pure,
    validate_density,
    validate_unitary,
)
from nmrsim.ensemble import EnsembleHistory
from nmrsim.errors import BadArgumentError, NmrsimError
from nmrsim.pseudopure import PopulationVector
from nmrsim.repro import ReproReport, load_baselines, reproduce_theory
from nmrsim.serialize import matrix_to_dict, save_matrix
from nmrsim.tomography import PauliExpectationSet, ShotNoiseConfig, pauli_matrix

MODULES = ("core", "ensemble", "pseudopure", "repro", "separability", "tomography", "serialize")
PATH = "state.json"  # a matrix document each sweep writes into its own working directory
_BELL = bell_state("phi+")
NUMBERS = [
    1.5, 1.0, 0.5, -1, 1, 2, 10**400, math.nan, [], [(1.0,)], [1.0, 0.0, 0.0, 0.0],
    np.eye(4) / 4, (np.eye(8) / 8).tolist(), np.eye(4), np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
    np.array([[5e-301, 1e300], [1e300, 5e-301]]), np.full((2, 2), 5e-324),
]
NOT_NUMBERS = [
    None, True, "x", "0.5", {}, [[1, 0], [0]], [[0.5, False], [0, 0.5]], [[True, False], [False, True]],
    [["0.5", 0], [0, "0.5"]], ["1", "0"], [1, "x"],
]

_MIXED, _IDENTITY = validate_density(np.eye(4) / 4), validate_unitary(np.eye(4))
FORGERIES = {
    DensityMatrix: [
        DensityMatrix(np.eye(4) / 4, 4, 2, (np.array([0, 0, 0, 1.0]), np.eye(4))),  # a forged spectrum
        DensityMatrix("x", 4, 2, None),
        replace(_MIXED, matrix=np.eye(4) / 2),
    ],
    PureState: [PureState(np.array([2, 0, 0, 2]), 4), replace(_BELL, amplitudes=2 * _BELL.amplitudes)],
    UnitaryOperator: [UnitaryOperator(2 * np.eye(4), 4), replace(_IDENTITY, matrix=2 * np.eye(4))],
    ValidationProfile: [ValidationProfile(1.0, 1.0, 1e300), replace(STRICT, psd_tol=1.0)],
    ReproReport: [ReproReport("x", "y", "z", "w", "v", {}), replace(reproduce_theory(), max_dev_vs_printed_th=0.0)],
}


def _pool() -> list:
    return NUMBERS + NOT_NUMBERS + [v for forged in FORGERIES.values() for v in forged] + [
        "phi+", "XZ", PATH, _MIXED, _BELL, density_from_pure(_BELL), [(1.0, _BELL)],
        matrix_to_dict(np.eye(2) / 2), {"label": "l", "members": [{"weight": 1, "re": [1, 0], "im": [0, 0]}]},
        _IDENTITY, PauliExpectationSet(1, [1.0, 0.0, 0.0, 0.5]), ShotNoiseConfig(10, 1),
        EnsembleHistory("l", [(0.5, _BELL), (0.5, bell_state("psi-"))]), PopulationVector([3, 1]),
        STRICT, reproduce_theory(), load_baselines(),
    ]


def _unhashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return True
    return False


def _call(fn, args, failures):
    """``None`` if ``fn(*args)`` returned, else the ``NmrsimError``; any other raise goes into ``failures``."""
    try:
        fn(*args)
        return None
    except NmrsimError as exc:
        return exc
    except Exception as exc:
        if not (fn is pauli_matrix and isinstance(exc, TypeError) and any(map(_unhashable, args))):
            failures.append(f"{_name(fn)}{tuple(map(_short, args))}: {type(exc).__name__}: {exc}")
        return exc


def _name(fn) -> str:
    return f"{fn.__module__}.{fn.__name__}"


def _short(value) -> str:
    text = repr(value).replace("\n", " ")
    return text if len(text) <= 40 else f"{text[:37]}..."


def _callables(module: str):
    mod = importlib.import_module(f"nmrsim.{module}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if callable(obj):
            kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            yield obj, [p for p in inspect.signature(obj).parameters.values() if p.kind in kinds]


def _working_args(fn, params, pool, failures):
    """The first argument list from ``pool`` that ``fn`` accepts; defaulted parameters keep their defaults."""
    required = [i for i, p in enumerate(params) if p.default is p.empty]
    for values in itertools.product(pool, repeat=len(required)):
        args = [p.default for p in params]
        for i, v in zip(required, values):
            args[i] = v
        if _call(fn, args, failures) is None:
            return args
    return None


def _refusals_owed(working) -> list:
    """The pool values a parameter that works with ``working`` and refuses ``None`` must refuse as bad arguments."""
    numbers = type(working) in (int, float) or any(working is v for v in NUMBERS)
    floats = [v for v in NUMBERS if isinstance(v, float)] if type(working) is int else []
    return NOT_NUMBERS + floats if numbers else []


def _forgeries_owed(outcomes) -> list:
    """Every forgery of each type of which ``outcomes`` show the parameter accepting a genuine instance."""
    forged = {id(v) for vs in FORGERIES.values() for v in vs}
    accepted = [v for v, exc in outcomes if exc is None and id(v) not in forged]
    return [f for cls, vs in FORGERIES.items() if any(isinstance(v, cls) for v in accepted) for f in vs]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("module", MODULES)
def test_every_argument_gives_a_result_or_a_typed_error(module, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_matrix(np.eye(4) / 4, PATH)
    pool = _pool()
    failures, never = [], []
    for fn, params in _callables(module):
        working = _working_args(fn, params, pool, failures)
        if working is None:
            never.append(_name(fn))
            continue
        for i in range(len(params)):
            outcomes = [(v, _call(fn, working[:i] + [v] + working[i + 1:], failures)) for v in pool]
            if next(exc for v, exc in outcomes if v is None) is None:  # the parameter is not checked at all
                continue
            owed = _refusals_owed(working[i]) + _forgeries_owed(outcomes)
            failures += [
                f"{_name(fn)} parameter {params[i].name!r} took {_short(v)}: {type(exc).__name__}"
                for v, exc in outcomes
                if any(v is o for o in owed) and not isinstance(exc, BadArgumentError)
            ]
    assert failures == []
    assert never == []
