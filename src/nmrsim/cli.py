"""Command-line front end.

Subcommands: repro, evolve, separability, tomography, ensemble.  Every
subcommand takes ``--format {text,json}``; commands that validate density
matrices take ``--profile {strict,experimental}``.

Exit codes (stable contract):
  0  success
  1  usage error or unparseable input
  2  assertion/regression failure (baseline mismatch, dimension mismatch)
  3  validation failure (matrix violates a state/operator invariant)

Set ``NMRSIM_NO_COLOR`` to disable ANSI styling of text output.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from nmrsim import repro
from nmrsim.core import EXPERIMENTAL, STRICT, evolve, fidelity, validate_density, validate_unitary
from nmrsim.ensemble import density_of, entanglement_report, history_from_dict
from nmrsim.errors import (
    DimMismatchError,
    NmrsimError,
    NumericalFailureError,
    ParseError,
    ValidationError,
    WrongDimError,
)
from nmrsim.pseudopure import compose_pseudopure
from nmrsim.separability import (
    DEFAULT_PPT_TOL,
    critical_epsilon,
    is_separable_2q,
    ppt_first_vs_rest,
)
from nmrsim.serialize import load_json, load_matrix, matrix_to_dict, save_matrix
from nmrsim.tomography import (
    ShotNoiseConfig,
    pauli_expectations,
    project_psd,
    reconstruct_linear,
    simulate_shot_noise,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_VALIDATION = 3

_PROFILES = {"strict": STRICT, "experimental": EXPERIMENTAL}


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NMRSIM_NO_COLOR")


def _style(text: str, code: str) -> str:
    if _use_color():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _ok(text: str) -> str:
    return _style(text, "32")


def _bad(text: str) -> str:
    return _style(text, "31")


def _fmt_complex(z: complex, digits: int = 4) -> str:
    return f"{z.real:+.{digits}f}{z.imag:+.{digits}f}i"


def _matrix_lines(m: np.ndarray, digits: int = 4) -> list[str]:
    return ["  ".join(_fmt_complex(z, digits) for z in row) for row in np.asarray(m, dtype=complex)]


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


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
    p.set_defaults(func=cmd_repro)

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
    p.set_defaults(func=cmd_evolve)

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
    p.add_argument("--critical", action="store_true", help="report the critical coefficient of --rho1")
    p.add_argument("--tol", type=float, default=DEFAULT_PPT_TOL, help=f"PPT tolerance (default {DEFAULT_PPT_TOL})")
    p.set_defaults(func=cmd_separability)

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
    p.add_argument("--seed", type=int, default=None, help="generator seed (required when shots > 0)")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser(
        "ensemble",
        help="density matrix and per-member entanglement of a history",
        description="Average a preparation history (weighted pure states) into its density "
        "matrix and report each member's concurrence.",
    )
    _add_common(p, profile=False)
    p.add_argument("history", metavar="HISTORY_FILE")
    p.set_defaults(func=cmd_ensemble)

    return parser


def _diag_dict(d) -> dict:
    return {
        "trace_real": d.trace_real,
        "trace_deviation": d.trace_deviation,
        "hermiticity_defect": d.hermiticity_defect,
        "min_eigenvalue": d.min_eigenvalue,
        "trace_renormalized": d.trace_renormalized,
        "psd_projected": d.psd_projected,
    }


def cmd_repro(args) -> int:
    ds = repro.load_dataset()
    report = repro.reproduce_theory(ds)
    baselines = repro.load_baselines(args.baselines)
    checks = repro.check_against_baselines(report, baselines)
    all_ok = all(c.ok for c in checks)

    if args.export:
        repro.export_dataset(args.export, ds)

    if args.format == "json":
        _emit_json(
            {
                "command": "repro",
                "computed_rho_th": matrix_to_dict(report.computed_rho_th),
                "max_dev_vs_printed_th": report.max_dev_vs_printed_th,
                "fidelity_exp_vs_computed_th": report.fidelity_exp_vs_computed_th,
                "trace_distance_exp_vs_computed_th": report.trace_distance_exp_vs_computed_th,
                "fidelity_computed_vs_printed_th": report.fidelity_computed_vs_printed_th,
                "diagnostics": {k: _diag_dict(v) for k, v in report.diagnostics.items()},
                "baseline_checks": [c._asdict() for c in checks],
                "all_baselines_ok": all_ok,
            }
        )
    else:
        print("computed evolved state (c rho c^dag):")
        computed_lines = _matrix_lines(report.computed_rho_th)
        printed_lines = _matrix_lines(ds.rho_th_printed)
        width = max(len(s) for s in computed_lines)
        print(f"  {'computed':<{width}}  |  printed prediction")
        for a, b in zip(computed_lines, printed_lines):
            print(f"  {a:<{width}}  |  {b}")
        print(f"max entry deviation vs printed: {report.max_dev_vs_printed_th:.6e}")
        print(f"fidelity (measured vs computed): {report.fidelity_exp_vs_computed_th:.10f}")
        print(f"trace distance (measured vs computed): {report.trace_distance_exp_vs_computed_th:.10f}")
        print(f"fidelity (computed vs printed prediction, informational): "
              f"{report.fidelity_computed_vs_printed_th:.10f}")
        print("diagnostics:")
        for name, d in report.diagnostics.items():
            flags = []
            if d.trace_renormalized:
                flags.append("trace renormalized")
            if d.psd_projected:
                flags.append("PSD projected")
            note = f" ({', '.join(flags)})" if flags else ""
            print(
                f"  {name}: trace={d.trace_real:.4f} herm_defect={d.hermiticity_defect:.1e} "
                f"min_eig={d.min_eigenvalue:+.4f}{note}"
            )
        print("baseline checks:")
        for c in checks:
            mark = _ok("PASS") if c.ok else _bad("FAIL")
            print(f"  [{mark}] {c.name}: computed={c.computed:.12g} frozen={c.frozen:.12g} tol={c.tolerance:g}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_evolve(args) -> int:
    profile = _PROFILES[args.profile]
    rho = validate_density(load_matrix(args.state), profile)
    u = validate_unitary(load_matrix(args.unitary))
    evolved = evolve(rho, u).matrix

    if args.out:
        save_matrix(evolved, args.out)
    if args.format == "json":
        payload = {"command": "evolve", "profile": args.profile, "state": matrix_to_dict(evolved)}
        if args.out:
            payload["written_to"] = args.out
        _emit_json(payload)
    else:
        if args.out:
            print(f"evolved state written to {args.out}")
        print("evolved state:")
        for line in _matrix_lines(evolved):
            print(f"  {line}")
    return EXIT_OK


def cmd_separability(args) -> int:
    profile = _PROFILES[args.profile]
    payload: dict = {"command": "separability", "tolerance": args.tol}
    lines: list[str] = []

    if args.critical:
        if args.rho1 is None:
            raise ValueError("--critical requires --rho1 FILE")
        rho1 = validate_density(load_matrix(args.rho1), profile)
        eps_star = critical_epsilon(rho1)
        payload.update({"mode": "critical", "critical_epsilon": eps_star})
        lines.append(f"critical coefficient: {eps_star:.9f}")
        lines.append("pseudo-pure mixtures with the target state stay separable up to this coefficient")
    else:
        if args.state is not None:
            rho = validate_density(load_matrix(args.state), profile)
        elif args.rho1 is not None and args.epsilon is not None:
            rho1 = validate_density(load_matrix(args.rho1), profile)
            rho = compose_pseudopure(args.epsilon, rho1)
            payload["epsilon"] = args.epsilon
        else:
            raise ValueError("provide STATE_FILE, or --epsilon with --rho1")

        if rho.n_qubits == 2:
            rep = is_separable_2q(rho, args.tol)
            conclusive = True
        else:
            rep = ppt_first_vs_rest(rho, args.tol)
            conclusive = False
        payload.update(
            {
                "mode": "ppt",
                "n_qubits": rho.n_qubits,
                "min_eigenvalue": rep.min_eigenvalue,
                "is_ppt": rep.is_ppt,
                "separability_conclusive": conclusive,
            }
        )
        lines.append(f"partial transpose min eigenvalue: {rep.min_eigenvalue:+.10f}")
        lines.append(f"PPT: {'yes' if rep.is_ppt else 'no'} (tolerance {rep.tolerance:g})")
        if conclusive:
            verdict = "separable" if rep.is_ppt else "entangled"
            lines.append(f"2-qubit verdict: {verdict}")
        else:
            lines.append(_style("NOTE: PPT is a necessary condition only at 3 qubits; "
                                "a positive result is not a separability verdict", "33"))

    if args.format == "json":
        _emit_json(payload)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def cmd_tomography(args) -> int:
    profile = _PROFILES[args.profile]
    rho = validate_density(load_matrix(args.state), profile)
    if args.shots < 0:
        raise ValueError(f"--shots must be >= 0, got {args.shots}")
    if args.shots == 0:
        expectations = pauli_expectations(rho)
    else:
        if args.seed is None:
            raise ValueError("--seed is required when --shots > 0")
        expectations = simulate_shot_noise(rho, ShotNoiseConfig(args.shots, args.seed))
    recon = reconstruct_linear(expectations)
    state = project_psd(recon)
    # Experimental-profile inputs may be slightly unphysical; measure
    # fidelity against their closest physical state.
    target, _, _ = repro.closest_physical_state(rho.matrix)
    fid = fidelity(state, target)
    max_dev = float(np.max(np.abs(recon - rho.matrix)))

    if args.format == "json":
        _emit_json(
            {
                "command": "tomography",
                "n_qubits": rho.n_qubits,
                "shots": args.shots,
                "seed": args.seed,
                "fidelity_to_input": fid,
                "recon_max_dev": max_dev,
                "state": matrix_to_dict(state.matrix),
            }
        )
    else:
        mode = "exact expectations" if args.shots == 0 else f"{args.shots} shots per observable, seed {args.seed}"
        print(f"tomography of a {rho.n_qubits}-qubit state ({mode})")
        print(f"reconstruction fidelity to input: {fid:.10f}")
        print(f"max entry deviation (linear reconstruction): {max_dev:.3e}")
        print("projected reconstruction:")
        for line in _matrix_lines(state.matrix):
            print(f"  {line}")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    history = history_from_dict(load_json(args.history))
    rho = density_of(history)
    members = None
    if history.dim == 4:
        members = entanglement_report(history).members

    if args.format == "json":
        payload = {
            "command": "ensemble",
            "label": history.label,
            "n_members": len(history.members),
            "density": matrix_to_dict(rho.matrix),
        }
        if members is not None:
            payload["members"] = [
                {"weight": m.weight, "concurrence": m.concurrence, "is_product": m.is_product} for m in members
            ]
        _emit_json(payload)
    else:
        print(f"history: {history.label}")
        print("density matrix:")
        for line in _matrix_lines(rho.matrix):
            print(f"  {line}")
        if members is not None:
            print("member entanglement:")
            print("  weight    concurrence  product?")
            for m in members:
                print(f"  {m.weight:<8.4f}  {m.concurrence:<11.6f}  {'yes' if m.is_product else 'no'}")
        else:
            print("(per-member concurrence is reported for 2-qubit members only)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"nmrsim: validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DimMismatchError, WrongDimError, NumericalFailureError) as exc:
        print(f"nmrsim: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ParseError as exc:
        print(f"nmrsim: cannot parse input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NmrsimError as exc:
        print(f"nmrsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"nmrsim: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
