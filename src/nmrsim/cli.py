"""Command-line front end.

Subcommands: repro, evolve, separability, tomography, ensemble.  Every
subcommand takes ``--format {text,json}``; commands that validate density
matrices take ``--profile {strict,experimental}``.  Each subcommand builds
one result, a dict, and ``--format`` only chooses how ``_render`` prints it.
JSON output is ``json.dumps(payload, indent=2)`` byte for byte, with each
matrix in the wire format of :mod:`nmrsim.serialize`.  A subcommand's
arguments are parsed by that subcommand's parser only.

Exit codes (stable contract):
  0  success
  1  usage error, bad argument, unreadable or undecodable input, or
     unwritable output
  2  assertion/regression failure (baseline mismatch, dimension mismatch,
     a state or unitary of more than 3 qubits)
  3  validation failure (matrix violates a state/operator invariant)

Only argparse and the package's typed errors map to an exit code: an
unreadable input is a ``ParseError`` and an unwritable ``--out``/``--export``
path a ``BadArgumentError``.  Any other exception is a bug and propagates.

Set ``NMRSIM_NO_COLOR`` to disable ANSI styling of text output.
"""

import argparse
import functools
import os
import sys

import numpy as np

from nmrsim import repro
from nmrsim.core import EXPERIMENTAL, STRICT, evolve, fidelity, validate_density, validate_unitary
from nmrsim.ensemble import density_of, entanglement_report, history_from_dict
from nmrsim.errors import BadArgumentError, NmrsimError
from nmrsim.pseudopure import compose_pseudopure
from nmrsim.separability import (
    DEFAULT_PPT_TOL,
    critical_epsilon,
    is_separable_2q,
    ppt_first_vs_rest,
)
from nmrsim.serialize import _to_json, load_json, load_matrix, save_matrix
from nmrsim.tomography import (
    ShotNoiseConfig,
    closest_physical_state,
    pauli_expectations,
    project_psd,
    reconstruct_linear,
    simulate_shot_noise,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

_PROFILES = {p.name: p for p in (STRICT, EXPERIMENTAL)}


def _style(text: str, code: str) -> str:
    if sys.stdout.isatty() and not os.environ.get("NMRSIM_NO_COLOR"):
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _matrix_lines(m: np.ndarray, indent: str = "  ") -> list[str]:
    """One line per row, each entry ``re+imi`` to 4 decimals with explicit signs."""
    a = np.ascontiguousarray(m, dtype=complex)
    template = indent + "  ".join(["%+.4f%+.4fi"] * a.shape[1])
    # each row as (re, im, re, im, ...): the float pairs of its complex entries
    return [template % tuple(row) for row in a.view(float).tolist()]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; the contract says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser, profile: bool = True) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format (default: text)")
    if profile:
        p.add_argument(
            "--profile",
            choices=sorted(_PROFILES),
            default="strict",
            help="density-matrix validation profile (default: strict)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Callers must not mutate it; each ``parse_args`` returns a fresh namespace.
    """
    parser = _Parser(prog="nmrsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "repro",
        help="recompute the embedded experiment and check frozen baselines",
        description="Recompute the evolved state of the embedded two-qubit NMR dataset, "
        "compare it with the printed prediction and measurement, and check the frozen "
        "regression baselines.  Exit 2 if any baseline check fails.",
    )
    _add_common(p, profile=False)
    p.add_argument("--baselines", metavar="PATH", default=None, help="override the bundled baselines file")
    p.add_argument("--export", metavar="DIR", default=None, help="also export the dataset as JSON into DIR")
    p.set_defaults(func=cmd_repro, text=_text_repro)

    p = sub.add_parser(
        "evolve",
        help="apply a unitary step to a density matrix from JSON files",
        description="Evolve STATE by UNITARY (U rho U^dag).  Exit 1 on unparseable input, "
        "2 on dimension mismatch, 3 on validation failure.",
    )
    _add_common(p)
    p.add_argument("state", metavar="STATE_FILE")
    p.add_argument("unitary", metavar="UNITARY_FILE")
    p.add_argument("--out", metavar="PATH", default=None, help="write the evolved matrix JSON here instead of stdout")
    p.set_defaults(func=cmd_evolve, text=_text_evolve)

    p = sub.add_parser(
        "separability",
        help="PPT test of a state, or the critical pseudo-pure coefficient",
        description="Run the positive-partial-transpose test on a 2-qubit state (conclusive) "
        "or a 3-qubit state (necessary condition only).  With --critical and a pure --rho1, "
        "print the largest coefficient keeping the pseudo-pure mixture separable.",
    )
    _add_common(p)
    p.add_argument("state", metavar="STATE_FILE", nargs="?", default=None)
    p.add_argument("--rho1", metavar="PATH", default=None, help="pure target state for --epsilon/--critical")
    p.add_argument("--epsilon", type=float, default=None, help="compose (1-e) I/d + e rho1 before testing")
    # None, not False, when absent: cmd_separability tells the given inputs by ``is not None``
    p.add_argument("--critical", action="store_true", default=None, help="report the critical coefficient of --rho1")
    p.add_argument("--tol", type=float, default=None, help=f"PPT tolerance (default {DEFAULT_PPT_TOL})")
    p.set_defaults(func=cmd_separability, text=_text_separability)

    p = sub.add_parser(
        "tomography",
        help="simulate tomography of a state and reconstruct it",
        description="Simulate Pauli-basis tomography (--shots 0 means exact expectations), "
        "reconstruct by linear inversion, project to the closest physical state, and report "
        "the reconstruction fidelity.",
    )
    _add_common(p)
    p.add_argument("state", metavar="STATE_FILE")
    p.add_argument("--shots", type=int, default=0, help="shots per observable; 0 = exact (default)")
    p.add_argument("--seed", type=int, default=None, help="generator seed (required when shots > 0, refused at 0)")
    p.set_defaults(func=cmd_tomography, text=_text_tomography)

    p = sub.add_parser(
        "ensemble",
        help="density matrix and per-member entanglement of a history",
        description="Average a preparation history (weighted pure states) into its density "
        "matrix and report each member's concurrence.",
    )
    _add_common(p, profile=False)
    p.add_argument("history", metavar="HISTORY_FILE")
    p.set_defaults(func=cmd_ensemble, text=_text_ensemble)

    parser.commands = sub.choices  # each subcommand's parser by name, for main
    return parser


def cmd_repro(args) -> tuple[int, dict]:
    report = repro.reproduce_theory()
    checks = repro.check_against_baselines(report, repro.load_baselines(args.baselines))
    all_ok = all(c.ok for c in checks)
    if args.export:
        repro.export_dataset(args.export)
    return EXIT_OK if all_ok else EXIT_MISMATCH, {
        "command": "repro",
        **vars(report),
        "baseline_checks": [c._asdict() for c in checks],
        "all_baselines_ok": all_ok,
    }


def cmd_evolve(args) -> tuple[int, dict]:
    rho = validate_density(load_matrix(args.state), _PROFILES[args.profile])
    evolved = evolve(rho, validate_unitary(load_matrix(args.unitary))).matrix
    payload = {"command": "evolve", "profile": args.profile, "state": evolved}
    if args.out:
        save_matrix(evolved, args.out)
        payload["written_to"] = args.out
    return EXIT_OK, payload


def cmd_separability(args) -> tuple[int, dict]:
    profile = _PROFILES[args.profile]
    tol = DEFAULT_PPT_TOL if args.tol is None else args.tol
    payload: dict = {"command": "separability", "tolerance": tol}
    # Each mode reads its own inputs, --tol aside; a flag another mode reads is an error, not ignored.
    given = {k for k in ("state", "epsilon", "rho1", "critical") if getattr(args, k) is not None}
    if given not in ({"state"}, {"epsilon", "rho1"}, {"critical", "rho1"}) or (args.critical and args.tol is not None):
        raise BadArgumentError(
            "give STATE_FILE [--tol T], or --epsilon E --rho1 FILE [--tol T], or --critical --rho1 FILE"
        )

    if args.critical:
        rho1 = validate_density(load_matrix(args.rho1), profile)
        payload.update({"mode": "critical", "critical_epsilon": critical_epsilon(rho1)})
        return EXIT_OK, payload

    if args.state is not None:
        rho = validate_density(load_matrix(args.state), profile)
    else:
        rho = compose_pseudopure(args.epsilon, validate_density(load_matrix(args.rho1), profile))
        payload["epsilon"] = args.epsilon
    conclusive = rho.n_qubits == 2
    rep = is_separable_2q(rho, tol) if conclusive else ppt_first_vs_rest(rho, tol)
    payload.update(
        {
            "mode": "ppt",
            "n_qubits": rho.n_qubits,
            "min_eigenvalue": rep.min_eigenvalue,
            "is_ppt": rep.is_ppt,
            "separability_conclusive": conclusive,
        }
    )
    return EXIT_OK, payload


def cmd_tomography(args) -> tuple[int, dict]:
    rho = validate_density(load_matrix(args.state), _PROFILES[args.profile])
    if args.shots < 0 or (args.seed or 0) < 0:
        raise BadArgumentError(f"--shots and --seed must be >= 0, got {args.shots} and {args.seed}")
    if (args.seed is None) != (args.shots == 0):
        raise BadArgumentError("--seed is required when --shots > 0 and not read when --shots is 0")
    if args.shots == 0:
        expectations = pauli_expectations(rho)
    else:
        expectations = simulate_shot_noise(rho, ShotNoiseConfig(args.shots, args.seed))
    recon = reconstruct_linear(expectations)
    state = project_psd(recon)
    # Experimental-profile inputs may be slightly unphysical; measure
    # fidelity against their closest physical state.
    target, _, _ = closest_physical_state(rho)
    return EXIT_OK, {
        "command": "tomography",
        "n_qubits": rho.n_qubits,
        "shots": args.shots,
        "seed": args.seed,
        "fidelity_to_input": fidelity(state, target),
        "recon_max_dev": float(np.max(np.abs(recon - rho.matrix))),
        "state": state.matrix,
    }


def cmd_ensemble(args) -> tuple[int, dict]:
    history = history_from_dict(load_json(args.history))
    payload = {
        "command": "ensemble",
        "label": history.label,
        "n_members": len(history.members),
        "density": density_of(history).matrix,
    }
    if history.dim == 4:
        payload["members"] = [m._asdict() for m in entanglement_report(history).members]
    return EXIT_OK, payload


def _text_repro(p: dict) -> list[str]:
    computed = _matrix_lines(p["computed_rho_th"], indent="")
    # The printed prediction is bundled input, not a result, so the JSON payload leaves it out.
    printed = _matrix_lines(repro.load_dataset().rho_th_printed, indent="")
    width = max(len(s) for s in computed)
    lines = ["computed evolved state (c rho c^dag):", f"  {'computed':<{width}}  |  printed prediction"]
    lines += [f"  {a:<{width}}  |  {b}" for a, b in zip(computed, printed)]
    lines += [
        f"max entry deviation vs printed: {p['max_dev_vs_printed_th']:.6e}",
        f"fidelity (measured vs computed): {p['fidelity_exp_vs_computed_th']:.10f}",
        f"trace distance (measured vs computed): {p['trace_distance_exp_vs_computed_th']:.10f}",
        f"fidelity (computed vs printed prediction, informational): {p['fidelity_computed_vs_printed_th']:.10f}",
        "diagnostics:",
    ]
    for name, d in p["diagnostics"].items():
        flags = [f for f, on in (("trace renormalized", d["trace_renormalized"]),
                                 ("PSD projected", d["psd_projected"])) if on]
        note = f" ({', '.join(flags)})" if flags else ""
        lines.append(
            f"  {name}: trace={d['trace_real']:.4f} herm_defect={d['hermiticity_defect']:.1e} "
            f"min_eig={d['min_eigenvalue']:+.4f}{note}"
        )
    lines.append("baseline checks:")
    for c in p["baseline_checks"]:
        mark = _style("PASS", "32") if c["ok"] else _style("FAIL", "31")
        lines.append(
            f"  [{mark}] {c['name']}: computed={c['computed']:.12g} frozen={c['frozen']:.12g} tol={c['tolerance']:g}"
        )
    return lines


def _text_evolve(p: dict) -> list[str]:
    head = [f"evolved state written to {p['written_to']}"] if "written_to" in p else []
    return head + ["evolved state:"] + _matrix_lines(p["state"])


def _text_separability(p: dict) -> list[str]:
    if p["mode"] == "critical":
        return [
            f"critical coefficient: {p['critical_epsilon']:.9f}",
            "pseudo-pure mixtures with the target state stay separable up to this coefficient",
        ]
    lines = [
        f"partial transpose min eigenvalue: {p['min_eigenvalue']:+.10f}",
        f"PPT: {'yes' if p['is_ppt'] else 'no'} (tolerance {p['tolerance']:g})",
    ]
    if p["separability_conclusive"]:
        lines.append(f"2-qubit verdict: {'separable' if p['is_ppt'] else 'entangled'}")
    else:
        lines.append(_style("NOTE: PPT is a necessary condition only at 3 qubits; "
                            "a positive result is not a separability verdict", "33"))
    return lines


def _text_tomography(p: dict) -> list[str]:
    mode = "exact expectations" if p["shots"] == 0 else f"{p['shots']} shots per observable, seed {p['seed']}"
    return [
        f"tomography of a {p['n_qubits']}-qubit state ({mode})",
        f"reconstruction fidelity to input: {p['fidelity_to_input']:.10f}",
        f"max entry deviation (linear reconstruction): {p['recon_max_dev']:.3e}",
        "projected reconstruction:",
    ] + _matrix_lines(p["state"])


def _text_ensemble(p: dict) -> list[str]:
    lines = [f"history: {p['label']}", "density matrix:"] + _matrix_lines(p["density"])
    if "members" not in p:
        return lines + ["(per-member concurrence is reported for 2-qubit members only)"]
    lines += ["member entanglement:", "  weight    concurrence  product?"]
    for m in p["members"]:
        lines.append(f"  {m['weight']:<8.4f}  {m['concurrence']:<11.6f}  {'yes' if m['is_product'] else 'no'}")
    return lines


def _render(args, payload: dict) -> None:
    """Print one payload: JSON with matrices in the wire format, or the subcommand's text lines."""
    if args.format == "json":
        out = _to_json(payload)
    else:
        out = "\n".join(args.text(payload))
    sys.stdout.write(out + "\n")  # one write, even when stdout is unbuffered


def main(argv=None) -> int:
    """Run one command; a typed error exits with the ``exit_code`` its family declares in :mod:`nmrsim.errors`."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    # a subcommand's arguments are walked by its parser alone; the top-level parser reports any it leaves
    args, extra = (sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub
                   else (parser.parse_args(argv), []))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code, payload = args.func(args)
    except NmrsimError as exc:
        print(f"nmrsim: {exc.lead}{exc}", file=sys.stderr)
        return exc.exit_code
    _render(args, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
