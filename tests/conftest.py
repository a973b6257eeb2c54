import collections

import numpy as np
import pytest

_ACCEPTANCE: dict[str, list[str]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
    _ACCEPTANCE.setdefault(doc, []).append(report.outcome)


def _criterion_number(doc: str) -> int:
    try:
        return int(doc.split(":")[0].split()[-1])
    except (ValueError, IndexError):
        return 0


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for doc in sorted(_ACCEPTANCE, key=_criterion_number):
        outcomes = _ACCEPTANCE[doc]
        status = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(f"[{status}] {doc}")


@pytest.fixture
def solver_calls(monkeypatch):
    """A ``Counter`` of the ``np.linalg`` ``eigh``, ``eigvalsh`` and ``svd`` calls the test makes from here on."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        solver = getattr(np.linalg, name)
        counted = lambda *a, name=name, solver=solver, **kw: calls.update([name]) or solver(*a, **kw)  # noqa: E731
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def cold_repro():
    """Drop the report ``reproduce_theory`` keeps for the process, so the test's first call computes it."""
    from nmrsim import repro

    repro._theory.cache_clear()
