"""The benchmark's four workloads: seeded inputs, operations and checks.

Importing this module imports numpy and the nmrsim library, so the caller
imports it inside its set-up timer.  Each ``setup_*`` function writes the
generated inputs under ``work``, computes reference results with the library
and returns a :class:`Workload` whose ``ops`` are one cycle of operations.
An operation's ``run`` is timed; its ``check`` is not, and returns ``None``
when the output is right, or the reason it is wrong.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nmrsim import core, ensemble, errors, pseudopure, repro, separability, serialize, tomography

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "nmrsim" / "data"
PROFILES = {"strict": core.STRICT, "experimental": core.EXPERIMENTAL}
PPT_TOL = separability.DEFAULT_PPT_TOL
NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
COMPLEX = re.compile(r"([-+]\d+\.\d+)([-+]\d+\.\d+)i")
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer or None) -> result
    check: Callable  # check(result) -> None or the reason the result is wrong
    prepare: Callable | None = None  # untimed, before run


@dataclass
class Workload:
    name: str
    ops: list
    import_stmt: str  # what a fresh process imports to serve this workload
    in_process: bool = True


# ---------------------------------------------------------------- inputs


def _hermitian(m):
    return (m + m.conj().T) / 2.0


def random_state(rng, dim: int, rank: int):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return _hermitian(m / np.trace(m).real)


def haar_unitary(rng, dim: int):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def write_matrix(path: Path, m) -> str:
    m = np.asarray(m, dtype=complex)
    doc = {"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}
    path.write_text(json.dumps(doc))
    return str(path)


def random_history(rng, n_members: int) -> dict:
    weights = rng.random(n_members) + 0.1
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    members = []
    for w in weights:
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        members.append({"weight": float(w), "re": v.real.tolist(), "im": v.imag.tolist()})
    return {"label": "generated history", "members": members}


# ---------------------------------------------------------------- CLI checks


@dataclass
class Expect:
    """What one CLI command must produce, from the library's own results."""

    code: int = 0
    json: dict | None = None  # expected subset of the JSON payload
    values: tuple = ()  # (line prefix, value, tolerance) in text output
    lines: tuple = ()  # line prefixes that must appear in text output
    block: tuple | None = None  # (header line, matrix printed at 4 decimals)
    files: tuple = ()  # (path, expected JSON content)


def _diff(got, exp, where="$"):
    if isinstance(exp, np.ndarray):
        if not isinstance(got, dict) or not {"re", "im"} <= got.keys():
            return f"{where}: not a matrix document"
        m = np.array(got["re"], dtype=float) + 1j * np.array(got["im"], dtype=float)
        if m.shape != exp.shape or np.max(np.abs(m - exp)) > 1e-12:
            return f"{where}: matrix differs from the library result"
        return None
    if isinstance(exp, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - exp) <= 1e-12 * max(1.0, abs(exp))
        return None if ok else f"{where}: {got!r} != {exp!r}"
    if isinstance(exp, dict):
        if not isinstance(got, dict):
            return f"{where}: not an object"
        for k, v in exp.items():
            if k not in got:
                return f"{where}.{k}: missing"
            bad = _diff(got[k], v, f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(exp, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(exp):
            return f"{where}: wrong length"
        for i, (g, e) in enumerate(zip(got, exp)):
            bad = _diff(g, e, f"{where}[{i}]")
            if bad:
                return bad
        return None
    return None if got == exp and type(got) is type(exp) else f"{where}: {got!r} != {exp!r}"


def check_cli(e: Expect, code, out: str, err: str):
    if code != e.code:
        return f"exit code {code}, expected {e.code}: {err.strip()[-200:]}"
    if e.code != 0:
        if out:
            return "printed a result on failure"
        if not err.startswith(("nmrsim", "usage:")):
            return f"unexpected error message {err[:200]!r}"
        return None
    if e.json is not None:
        try:
            doc = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        bad = _diff(doc, e.json)
        if bad:
            return bad
    lines = [line.strip() for line in out.splitlines()]
    for prefix, value, tol in e.values:
        found = [line[len(prefix):] for line in lines if line.startswith(prefix)]
        m = NUMBER.search(found[0]) if found else None
        if m is None or abs(float(m.group()) - value) > tol:
            return f"{prefix!r}: expected {value!r}"
    for prefix in e.lines:
        if not any(line.startswith(prefix) for line in lines):
            return f"missing line {prefix!r}"
    if e.block is not None:
        header, m = e.block
        if header not in lines:
            return f"missing {header!r}"
        start = lines.index(header) + 1
        rows = np.array([[complex(float(a), float(b)) for a, b in COMPLEX.findall(line)] for line in lines[start:start + len(m)]])
        if rows.shape != m.shape or max(np.max(np.abs((rows - m).real)), np.max(np.abs((rows - m).imag))) > 5e-5 + 1e-12:
            return f"{header!r}: printed matrix differs from the library result"
    for path, content in e.files:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            return f"{path}: {exc}"
        bad = _diff(doc, content, str(path))
        if bad:
            return bad
    return None


def _fmt(fmt: str, e_json: dict, e_text: Expect) -> Expect:
    return Expect(code=0, json=e_json, files=e_text.files) if fmt == "json" else e_text


def _repro_case(fmt, export=None):
    report = repro.reproduce_theory()
    checks = repro.check_against_baselines(report, repro.load_baselines())
    files = ()
    if export is not None:
        ds = repro.load_dataset()
        files = tuple(
            (export / name, m)
            for name, m in (
                ("step_matrix.json", ds.c_corrected.matrix),
                ("step_matrix_raw.json", ds.c_raw),
                ("rho_initial.json", ds.rho_initial),
                ("rho_exp_after.json", ds.rho_exp_after),
                ("rho_th_printed.json", ds.rho_th_printed),
            )
        ) + ((export / "metadata.json", {"notes": ds.notes}),)
    argv = ["repro", "--format", fmt] + (["--export", str(export)] if export is not None else [])
    payload = {
        "command": "repro",
        "computed_rho_th": report.computed_rho_th,
        "max_dev_vs_printed_th": report.max_dev_vs_printed_th,
        "fidelity_exp_vs_computed_th": report.fidelity_exp_vs_computed_th,
        "trace_distance_exp_vs_computed_th": report.trace_distance_exp_vs_computed_th,
        "fidelity_computed_vs_printed_th": report.fidelity_computed_vs_printed_th,
        "baseline_checks": [{"name": c.name, "ok": True} for c in checks],
        "all_baselines_ok": True,
    }
    text = Expect(
        values=(
            ("max entry deviation vs printed:", report.max_dev_vs_printed_th, 1e-6 * report.max_dev_vs_printed_th),
            ("fidelity (measured vs computed):", report.fidelity_exp_vs_computed_th, 1e-9),
            ("trace distance (measured vs computed):", report.trace_distance_exp_vs_computed_th, 1e-9),
        ),
        lines=tuple(f"[PASS] {c.name}:" for c in checks),
        files=files,
    )
    return argv, _fmt(fmt, payload, text)


def _evolve_case(fmt, state, unitary, profile="strict", out=None):
    rho = core.validate_density(serialize.load_matrix(state), PROFILES[profile])
    m = core.evolve(rho, core.validate_unitary(serialize.load_matrix(unitary))).matrix
    argv = ["evolve", str(state), str(unitary), "--format", fmt, "--profile", profile]
    payload = {"command": "evolve", "profile": profile, "state": m}
    lines = ()
    if out is not None:
        argv += ["--out", str(out)]
        payload["written_to"] = str(out)
        lines = (f"evolved state written to {out}",)
    files = ((out, m),) if out is not None else ()
    return argv, _fmt(fmt, payload, Expect(lines=lines, block=("evolved state:", m), files=files))


def _separability_case(fmt, state=None, rho1=None, epsilon=None, critical=False):
    argv = ["separability", "--format", fmt]
    payload = {"command": "separability", "tolerance": PPT_TOL}
    if critical:
        argv += ["--critical", "--rho1", str(rho1)]
        eps = separability.critical_epsilon(core.validate_density(serialize.load_matrix(rho1)))
        payload.update({"mode": "critical", "critical_epsilon": eps})
        return argv, _fmt(fmt, payload, Expect(values=(("critical coefficient:", eps, 1e-9),)))
    if state is not None:
        argv.append(str(state))
        rho = core.validate_density(serialize.load_matrix(state))
    else:
        argv += ["--epsilon", repr(epsilon), "--rho1", str(rho1)]
        rho = pseudopure.compose_pseudopure(epsilon, core.validate_density(serialize.load_matrix(rho1)))
        payload["epsilon"] = epsilon
    two = rho.n_qubits == 2
    rep = separability.is_separable_2q(rho) if two else separability.ppt_first_vs_rest(rho)
    payload.update(
        {
            "mode": "ppt",
            "n_qubits": rho.n_qubits,
            "min_eigenvalue": rep.min_eigenvalue,
            "is_ppt": rep.is_ppt,
            "separability_conclusive": two,
        }
    )
    verdict = ("2-qubit verdict: separable" if rep.is_ppt else "2-qubit verdict: entangled") if two else "NOTE: PPT"
    text = Expect(
        values=(("partial transpose min eigenvalue:", rep.min_eigenvalue, 1e-9),),
        lines=("PPT: yes" if rep.is_ppt else "PPT: no", verdict),
    )
    return argv, _fmt(fmt, payload, text)


def _tomography_case(fmt, state, shots, seed=None, profile="strict"):
    rho = core.validate_density(serialize.load_matrix(state), PROFILES[profile])
    if shots == 0:
        expectations = tomography.pauli_expectations(rho)
    else:
        expectations = tomography.simulate_shot_noise(rho, tomography.ShotNoiseConfig(shots, seed))
    recon = tomography.reconstruct_linear(expectations)
    projected = tomography.project_psd(recon)
    fid = core.fidelity(projected, repro.closest_physical_state(rho.matrix)[0])
    max_dev = float(np.max(np.abs(recon - rho.matrix)))
    argv = ["tomography", str(state), "--shots", str(shots), "--format", fmt, "--profile", profile]
    if seed is not None:
        argv += ["--seed", str(seed)]
    payload = {
        "command": "tomography",
        "n_qubits": rho.n_qubits,
        "shots": shots,
        "seed": seed,
        "fidelity_to_input": fid,
        "recon_max_dev": max_dev,
        "state": projected.matrix,
    }
    text = Expect(
        values=(
            ("reconstruction fidelity to input:", fid, 1e-9),
            ("max entry deviation (linear reconstruction):", max_dev, 1e-3 * max_dev + 1e-15),
        ),
        block=("projected reconstruction:", projected.matrix),
    )
    return argv, _fmt(fmt, payload, text)


def _ensemble_case(fmt, path):
    history = ensemble.history_from_dict(serialize.load_json(path))
    rho = ensemble.density_of(history).matrix
    members = ensemble.entanglement_report(history).members
    payload = {
        "command": "ensemble",
        "label": history.label,
        "n_members": len(history.members),
        "density": rho,
        "members": [{"weight": m.weight, "concurrence": m.concurrence, "is_product": m.is_product} for m in members],
    }
    rows = tuple(f"{m.weight:<8.4f}  {m.concurrence:<11.6f}  {'yes' if m.is_product else 'no'}" for m in members)
    text = Expect(lines=(f"history: {history.label}",) + rows, block=("density matrix:", rho))
    return ["ensemble", str(path), "--format", fmt], _fmt(fmt, payload, text)


def cli_cases(rng, work: Path, generated: bool) -> list:
    """The README's runnable commands in both formats, malformed inputs, and
    (for ``generated``) commands on seeded 2- and 3-qubit state files."""
    d = DATA
    step = d / "step_matrix.json"
    cases = []
    for fmt in ("text", "json"):
        cases += [
            _repro_case(fmt),
            _repro_case(fmt, export=work / f"export-{fmt}"),
            _evolve_case(fmt, d / "maximally_mixed_2q.json", step),
            _evolve_case(fmt, d / "rho_initial.json", step, "experimental", out=work / f"evolved-{fmt}.json"),
            _separability_case(fmt, state=d / "maximally_mixed_2q.json"),
            _separability_case(fmt, rho1=d / "bell_state.json", epsilon=0.2),
            _separability_case(fmt, rho1=d / "bell_state.json", critical=True),
            _separability_case(fmt, state=d / "ghz3.json"),
            _tomography_case(fmt, d / "maximally_mixed_2q.json", 0),
            _tomography_case(fmt, d / "rho_initial.json", 100000, int(rng.integers(2**31)), "experimental"),
            _ensemble_case(fmt, d / "basis_mixture.json"),
            _ensemble_case(fmt, d / "bell_mixture.json"),
        ]

    ragged = work / "ragged.json"
    ragged.write_text(json.dumps({"rows": 2, "cols": 2, "re": [rng.random(2).tolist(), [0.5]], "im": [[0, 0], [0, 0]]}))
    u = haar_unitary(rng, 4)
    not_psd = write_matrix(work / "not_psd.json", _hermitian(u @ np.diag([0.6, 0.5, 0.1, -0.2]) @ u.conj().T))
    malformed = [
        (["evolve", str(ragged), str(step)], 1),  # ragged rows: parse error
        (["tomography", not_psd], 3),  # negative eigenvalue: validation failure
        (["evolve", str(d / "ghz3.json"), str(step)], 2),  # dimension mismatch
        (["evolve", str(d / "maximally_mixed_2q.json"), str(d / "step_matrix_raw.json")], 3),  # not unitary
        (["separability", str(d / "rho_exp_after.json")], 3),  # trace defect under the strict profile
        (["separability", "--critical", "--rho1", str(d / "ghz3.json")], 2),  # 3-qubit target
        (["separability", "--critical"], 1),  # missing --rho1
        (["tomography", "--shots", "many"], 1),  # usage error
    ]
    cases += [(argv, Expect(code=code)) for argv, code in malformed]

    if generated:
        u_file = write_matrix(work / "unitary_2q.json", haar_unitary(rng, 4))
        hist = work / "history.json"
        hist.write_text(json.dumps(random_history(rng, 3)))
        for i, (dim, rank) in enumerate(((4, 1), (4, 3), (8, 1), (8, 5))):
            state = write_matrix(work / f"state_{i}.json", random_state(rng, dim, rank))
            for fmt in ("text", "json"):
                cases += [
                    _separability_case(fmt, state=state),
                    _tomography_case(fmt, state, 1000, int(rng.integers(2**31))),
                ]
            if dim == 4:
                cases.append(_evolve_case("json", state, u_file))
        cases += [_ensemble_case(fmt, hist) for fmt in ("text", "json")]
    return [cases[i] for i in rng.permutation(len(cases))]


def _cli_op(argv, expect: Expect, run) -> Op:
    def prepare():
        for path, _ in expect.files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    return Op(" ".join(argv[:1] + [a for a in argv[1:] if a.startswith("--")]), run, lambda r: check_cli(expect, *r[:3]), prepare)


# ---------------------------------------------------------------- cli-warm


def setup_cli_warm(seed: int, work: Path) -> Workload:
    import nmrsim.cli

    rng = np.random.default_rng(seed)

    def in_process(argv):
        def run(_tracer):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = nmrsim.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return run

    ops = [_cli_op(argv, e, in_process(argv)) for argv, e in cli_cases(rng, work, generated=True)]
    return Workload("cli-warm", ops, import_stmt="import nmrsim.cli")


# ---------------------------------------------------------------- cli-cold


def run_child(argv: list, work: Path, env: dict | None = None):
    """Run one child to completion; returns (code, stdout, stderr, rusage)."""
    env = env or child_env()
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        child = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)  # a hung child fails its op
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read().decode(), err.read().decode(), usage


def child_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def setup_cli_cold(seed: int, work: Path) -> Workload:
    from spans import parse_importtime

    rng = np.random.default_rng(seed)
    env = child_env()
    traced_child = str(Path(__file__).resolve().parent / "traced_child.py")
    spans_file = work / "child.spans"

    def subprocess_op(argv):
        def run(tracer):
            if tracer is None:
                return run_child([sys.executable, "-m", "nmrsim.cli", *argv], work, env)
            spans_file.unlink(missing_ok=True)
            code, out, err, usage = run_child(
                [sys.executable, "-X", "importtime", traced_child, str(spans_file), *argv], work, env
            )
            imports, err = parse_importtime(err)
            return code, out, err, usage, imports, tracer.add_child(spans_file)

        return run

    ops = [_cli_op(argv, e, subprocess_op(argv)) for argv, e in cli_cases(rng, work, generated=False)]
    return Workload("cli-cold", ops, import_stmt="import nmrsim.cli", in_process=False)


# ---------------------------------------------------------------- tomo-3q

SHOT_THRESHOLDS = {1000: 0.8, 100000: 0.97}  # minimum fidelity after projection


def _strict_valid(m) -> bool:
    return (
        np.max(np.abs(m - m.conj().T)) <= 1e-10
        and abs(np.trace(m) - 1.0) <= 1e-10
        and np.linalg.eigvalsh(_hermitian(m)).min() >= -1e-10
    )


def setup_tomo_3q(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    kinds = [(rank, shots) for rank in range(1, 9) for shots in (0, 1000, 100000)]
    cases = [(rank, shots) for rank, shots in kinds for _ in range(4)]
    cases = [cases[i] for i in rng.permutation(len(cases))]
    ops = []
    for rank, shots in cases:
        m = random_state(rng, 8, rank)
        rho = core.validate_density(m)
        cfg = tomography.ShotNoiseConfig(shots, int(rng.integers(2**31))) if shots else None

        def run(_tracer, rho=rho, cfg=cfg):
            tomo = tomography
            e = tomo.pauli_expectations(rho) if cfg is None else tomo.simulate_shot_noise(rho, cfg)
            recon = tomo.reconstruct_linear(e)
            state = tomo.project_psd(recon)
            return recon, state, core.fidelity(state, rho)

        reference = run(None)[2]

        def check(result, m=m, shots=shots, reference=reference):
            recon, state, fid = result
            if shots == 0:
                if np.max(np.abs(recon - m)) > 1e-12 or fid < 1.0 - 1e-9:
                    return "exact expectations did not round-trip"
                return None
            if not _strict_valid(state.matrix):
                return "projected state is not a strict-valid density matrix"
            if fid < SHOT_THRESHOLDS[shots] or abs(fid - reference) > 1e-12:
                return f"fidelity {fid} (reference {reference}) at {shots} shots"
            return None

        ops.append(Op(f"rank {rank}, {shots} shots", run, check))
    return Workload("tomo-3q", ops, import_stmt="import nmrsim")


# ---------------------------------------------------------------- sep-2q


def _concurrence(v) -> float:
    return float(2.0 * abs(v[0] * v[3] - v[1] * v[2]))


def setup_sep_2q(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(64):
        theta = rng.uniform(0.0, np.pi / 4)  # product state at 0, Bell state at pi/4
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.cos(theta), np.sin(theta)
        # Even cases evolve by a local unitary, which keeps the entanglement.
        u = haar_unitary(rng, 4) if i % 2 else np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
        eps = float(rng.uniform(0.0, 1.0))
        rho1 = core.density_from_pure(core.pure_state(psi))
        unitary = core.validate_unitary(u)
        history = random_history(rng, 1 + i % 4)
        psi_t = u @ psi
        eps_star = 1.0 / (1.0 + 2.0 * _concurrence(psi_t))
        members = [(m["weight"], np.array(m["re"]) + 1j * np.array(m["im"])) for m in history["members"]]
        mix = sum(w * np.outer(v, v.conj()) for w, v in members)
        concurrences = [_concurrence(v) for _, v in members]

        def run(_tracer, eps=eps, rho1=rho1, unitary=unitary, history=history):
            pp, sep, ens = pseudopure, separability, ensemble
            rho = core.evolve(pp.compose_pseudopure(eps, rho1), unitary)
            target = core.evolve(rho1, unitary)
            estimate = pp.extract_epsilon(rho, target)
            critical = sep.critical_epsilon(target)
            report = sep.is_separable_2q(rho)
            h = ens.history_from_dict(history)
            return estimate, critical, report, ens.density_of(h), ens.entanglement_report(h)

        def check(result, eps=eps, eps_star=eps_star, mix=mix, concurrences=concurrences):
            estimate, critical, report, density, entanglement = result
            if estimate.out_of_model or abs(estimate.epsilon - eps) > 1e-9:
                return f"epsilon round trip gave {estimate.epsilon}, expected {eps}"
            if abs(critical - eps_star) > 1e-9:
                return f"critical epsilon {critical}, closed form {eps_star}"
            if abs(eps - eps_star) > 1e-6 and report.is_ppt != (eps < eps_star):
                return f"PPT verdict {report.is_ppt} at epsilon {eps}, threshold {eps_star}"
            if np.max(np.abs(density.matrix - mix)) > 1e-12:
                return "history density differs from the weighted projector sum"
            if any(abs(m.concurrence - c) > 1e-12 for m, c in zip(entanglement.members, concurrences)):
                return "member concurrence differs from 2|ad - bc|"
            return None

        ops.append(Op(f"case {i}", run, check))
    return Workload("sep-2q", ops, import_stmt="import nmrsim")


SETUPS = {
    "cli-cold": setup_cli_cold,
    "cli-warm": setup_cli_warm,
    "tomo-3q": setup_tomo_3q,
    "sep-2q": setup_sep_2q,
}
ERROR_TYPE = errors.NmrsimError
