#!/usr/bin/env python3
"""Run one set of CLI commands against two source trees and report every difference.

Usage: python scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories (for example of a ``git
archive`` of the parent commit and of the working tree).  Each command runs
``nmrsim.cli.main`` in a fresh interpreter with that tree first on
``PYTHONPATH``, from one scratch directory holding the generated inputs, so
the two runs see the same paths; the arguments travel as one JSON string,
because an operating system cannot pass a NUL byte in an argument.  The commands are the ``nmrsim`` lines of README's "Command line"
block (the ones ``tests/test_cli.py`` runs) in both formats, with their
``src/nmrsim/data/`` paths read from NEW_SRC; seeded 2- and 3-qubit states
through ``tomography --shots 1000`` in both formats; an experimental-profile
state whose Pauli expectation exceeds 1; malformed matrix and history files;
unitaries of the wrong size; the combinations of ``separability`` inputs;
and writes the OS refuses: ``evolve --out`` with a NUL byte in the path, onto
an existing directory and into a missing directory, and ``repro --export``
onto an existing regular file.
For each command whose exit code, stdout or stderr differs, the script
prints both sides; it exits 1 if any differs.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


SEEDS = (1, 2)


def _matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1], "re": m.real.tolist(), "im": m.imag.tolist()}


def _inputs(work: Path) -> dict:
    """Write the generated input files; returns {name: path}."""
    ok = {"rows": 2, "cols": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    bad_matrices = {
        "ragged": {**ok, "re": [[0.5, 0.0], [0.5]]},
        "str-entry": {**ok, "re": [[0.5, "0"], [0.0, 0.5]]},
        "bool-entry": {**ok, "im": [[0.0, True], [0.0, 0.0]]},
        "null-entry": {**ok, "im": [[0.0, 0.0], [None, 0.0]]},
        "list-entry": {**ok, "re": [[0.5, [0.0]], [0.0, 0.5]]},
        "missing-key": {k: v for k, v in ok.items() if k != "im"},
        "not-an-object": [1, 2],
        "rows-bool": {**ok, "rows": True},
    }
    member = {"weight": 1.0, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}
    bad_histories = {
        "h-str-amp": {**member, "re": [1, "0", 0, 0]},
        "h-bool-amp": {**member, "im": [0, 0, True, 0]},
        "h-unequal": {**member, "im": [0, 0, 0]},
        "h-missing-key": {k: v for k, v in member.items() if k != "weight"},
        "h-unnormalized": {**member, "re": [1, 1, 0, 0]},
    }
    docs = {**bad_matrices, **{k: {"label": k, "members": [m]} for k, m in bad_histories.items()}}
    docs["unitary-3"] = _matrix(np.eye(3))
    docs["unitary-16"] = _matrix(np.eye(16))
    docs["mixed-3q"] = _matrix(np.eye(8) / 8)
    # experimental-valid (min eigenvalue -0.04), yet <IZ> = 1.08
    docs["over-range"] = _matrix(np.diag([1.04, -0.04, 0.0, 0.0]))
    rng = np.random.default_rng(0)
    for n in (2, 3):
        for seed in SEEDS:
            g = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            m = g @ g.conj().T
            docs[f"gen-{n}q-{seed}"] = _matrix(m / np.trace(m).real)
    paths = {}
    for name, doc in docs.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    # JSON that json.dumps would not write: non-finite and over-long numbers, bad syntax
    raw = {
        "nan-entry": '{"rows": 1, "cols": 2, "re": [[NaN, 0]], "im": [[0, 0]]}',
        "inf-entry": '{"rows": 1, "cols": 2, "re": [[0, 0]], "im": [[-Infinity, 0]]}',
        "huge-entry": '{"rows": 1, "cols": 1, "re": [[1%s]], "im": [[0]]}' % ("0" * 400),
        "h-nan-amp": '{"label": "x", "members": [{"weight": 1, "re": [1, 0, NaN, 0], "im": [0, 0, 0, 0]}]}',
        "h-nan-weight": '{"label": "x", "members": [{"weight": NaN, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}]}',
        "bad-json": "{not json",
    }
    for name, text in raw.items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(text)
    paths["absent"] = work / "absent.json"
    # write targets the OS refuses; none is changed or created by a run
    paths["w-nul"] = work / "a\0b.json"
    paths["w-dir"] = work / "out-dir"
    paths["w-dir"].mkdir()
    paths["w-missing-parent"] = work / "missing" / "out.json"
    paths["w-file"] = work / "taken"
    paths["w-file"].write_text("kept\n")
    return {k: str(v) for k, v in paths.items()}


def _readme_commands(data: Path) -> list:
    """The arguments of every ``nmrsim`` line in README's "Command line" block, bundled paths read from ``data``."""
    section = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    prefix = "src/nmrsim/data/"
    return [[str(data / a[len(prefix):]) if a.startswith(prefix) else a for a in words[1:]]
            for words in lines if words[:1] == ["nmrsim"]]


def _commands(data: Path, f: dict) -> list:
    d = {p.stem: str(p) for p in data.glob("*.json")}
    formatted = _readme_commands(data)
    formatted += [["tomography", f[f"gen-{n}q-{seed}"], "--shots", "1000", "--seed", str(seed)]
                  for n in (2, 3) for seed in SEEDS]
    commands = [argv + ["--format", fmt] for argv in formatted for fmt in ("text", "json")]
    commands += [["tomography", f["over-range"], "--profile", "experimental"] + shots
                 for shots in (["--shots", "0"], ["--shots", "100", "--seed", "1"])]
    matrices = [k for k in f if not k.startswith(("h-", "unitary-", "mixed-", "over-", "gen-", "w-"))]
    commands += [["evolve", f[k], d["step_matrix"]] for k in matrices]
    commands += [["ensemble", f[k]] for k in f if k.startswith("h-")]
    commands += [["evolve", d["maximally_mixed_2q"], f[k]] for k in ("unitary-3", "unitary-16")]
    state, rho1, eps, crit, tol = ([d["maximally_mixed_2q"]], ["--rho1", d["bell_state"]], ["--epsilon", "0.2"],
                                   ["--critical"], ["--tol", "1e-3"])
    combos = [[], state, state + tol, eps + rho1, eps + rho1 + tol, ["--epsilon", "0"] + rho1, crit + rho1,
              crit + rho1 + tol, state + rho1, state + eps, state + eps + rho1, crit + state, crit + eps + rho1,
              crit, rho1, tol, eps, state + crit + eps + rho1 + tol, crit + ["--rho1", f["mixed-3q"]],
              crit + ["--rho1", d["ghz3"]]]
    commands += [["separability"] + argv for argv in combos]
    commands += [["evolve", d["maximally_mixed_2q"], d["step_matrix"], "--out", f[k]]
                 for k in ("w-nul", "w-dir", "w-missing-parent")]
    commands += [["repro", "--export", f["w-file"]]]
    return commands


_MAIN = "import json, sys; from nmrsim.cli import main; sys.exit(main(json.loads(sys.argv[1])))"


def _run(src: str, argv: list, work: Path) -> tuple:
    env = dict(os.environ, PYTHONPATH=src, NMRSIM_NO_COLOR="1")
    p = subprocess.run([sys.executable, "-c", _MAIN, json.dumps(argv)], capture_output=True, text=True, env=env,
                       cwd=work)
    return p.returncode, p.stdout, p.stderr


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    old, new = (str(Path(a).resolve()) for a in sys.argv[1:])
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _commands(Path(new) / "nmrsim" / "data", _inputs(work))
        for argv in commands:
            a, b = _run(old, argv, work), _run(new, argv, work)
            if a != b:
                differ += 1
                parts = [name for name, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
                shown = " ".join(argv).replace("\0", "\\0")
                print(f"DIFF ({', '.join(parts)}): {shown}")
                for label, (code, out, err) in (("old", a), ("new", b)):
                    print(f"  {label}: exit {code}, {len(out)} bytes of stdout, stderr {err.strip()!r}")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
