"""Result sets of the nmrsim benchmark: record them, check spread, compare.

    python3 perfbench/results.py sweep DIR [--runs 10] [--seed0 1] [--trace-runs 2]
                                           [--base CHECKOUT BASE_DIR]
    python3 perfbench/results.py summary DIR
    python3 perfbench/results.py compare BASE_DIR NEW_DIR

A result set is a directory with one ``<workload>.jsonl`` per workload; each
line is one run appended by ``run.py --record``.  ``sweep`` makes ``--runs``
untraced runs of every workload, seeds ``seed0 .. seed0+runs-1``, seeds in
the outer loop so that slow drift of the machine lands on every workload,
then ``--trace-runs`` traced runs of each.  With ``--base``, every run is
also made in a second checkout (the parent commit), alternating which side
runs first, as ``compare`` expects.  ``summary`` prints, per metric,
the median, the quartiles and their distance as a share of the median,
against the metric's bound; per-layer counts must repeat exactly, on every
seed.

``compare`` pairs the runs of two result sets by seed and prints one row per
metric and workload:

* improved: of at least 10 pairs, the new side wins at least 9 in 10 (ties
  count for neither) and the medians differ by more than the base's
  quartile distance;
* regressed: the new median is worse than the base median by more than the
  metric's bound (per-layer metrics have none: the base wins 9 in 10 of at
  least 10 pairs and the medians differ by more than the base's quartile
  distance);
* unresolved: the base's own quartile distance is wider than the bound,
  unless every new run is better than every base run; for a per-layer
  metric, also fewer than 10 pairs;
* no worse: otherwise.

Counts (``calls_per_op``, ``errors``, ``cache_hit_ratio``) repeat exactly, so
when both sides are constant one pair decides them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_SUFFIXES = (".calls_per_op", ".errors", ".cache_hit_ratio")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_table() -> dict:
    """name -> (unit, better, bound or None), end-to-end then per-layer."""
    s = spec()
    table = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in s["end_to_end"]}
    table.update({m["name"]: (m["unit"], m["better"], None) for m in s["per_layer"]})
    return table


def load(directory: Path) -> dict:
    """workload -> list of recorded runs, in file order."""
    runs = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        runs[path.stem] = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sweep(sides: list, runs: int, seed0: int, trace_runs: int) -> None:
    """Record runs into each ``(checkout root, result directory)`` side.

    With two sides, every run is made on both, alternating which goes first,
    so that each pair sees nearly the same machine.
    """
    s = spec()
    for _, directory in sides:
        directory.mkdir(parents=True, exist_ok=True)
    workloads = [w["name"] for w in s["workloads"]]
    plan = [(w, seed0 + k, 0) for k in range(runs) for w in workloads]
    plan += [(w, seed0 + k, 1) for w in workloads for k in range(trace_runs)]
    for n, (workload, seed, trace) in enumerate(plan, 1):
        for root, directory in sides if n % 2 else sides[::-1]:
            argv = [*s["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(s["run_seconds"])]
            argv += ["--trace", str(trace), "--record", str(directory.resolve() / f"{workload}.jsonl")]
            proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            print(f"[{n}/{len(plan)}] {root}: {workload} seed {seed} trace {trace}: {status}", flush=True)


def summary(directory: Path) -> int:
    table = metric_table()
    worst = 0
    for workload, runs in load(directory).items():
        for trace in (0, 1):
            results = [r["result"] for r in runs if r["trace"] == trace]
            if not results:
                continue
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{workload} trace={trace}: {len(results)} runs, error_rate {failed}/{attempted}")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                unit, _, bound = table[name]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                if bound is not None:
                    verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                    if verdict == "TOO WIDE" and name != "setup_s":
                        worst = 1
                    extra = f"bound {bound:g}  {verdict}"
                elif name.endswith(EXACT_SUFFIXES):
                    # Whole cycles of a fixed op mix: equal on every seed.
                    exact = len(set(values)) == 1
                    extra = "repeats exactly" if exact else "DIFFERS between runs"
                    worst = worst or int(not exact)
                else:
                    extra = ""
                print(f"  {name:44s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:8s} spread {spread:7.2%}  {extra}")
    return worst


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(name: str, base: list, new: list, better: str, bound) -> str:
    """Classify one metric on one workload from paired runs (base[i], new[i])."""
    if name.endswith(EXACT_SUFFIXES) and len(set(base)) == 1 and len(set(new)) == 1:
        # Counts repeat exactly, so one pair decides.
        return "no worse" if new[0] == base[0] else "improved" if _better(new[0], base[0], better) else "regressed"
    q1, mb, q3 = quartiles(base)
    mn = statistics.median(new)
    iqr = q3 - q1
    pairs = list(zip(base, new))
    enough = len(pairs) >= 10
    wins = sum(_better(n, b, better) for b, n in pairs)
    losses = sum(_better(b, n, better) for b, n in pairs)
    if enough and wins >= 0.9 * len(pairs) and abs(mn - mb) > iqr and _better(mn, mb, better):
        return "improved"
    worse_by = ((mn - mb) if better == "lower" else (mb - mn)) / mb if mb else 0.0
    if bound is not None:
        if worse_by > bound:
            return "regressed"
        if mb and iqr / mb > bound and not all(_better(n, b, better) for n in new for b in base):
            return "unresolved"
        return "no worse"
    if enough and losses >= 0.9 * len(pairs) and abs(mn - mb) > iqr:
        return "regressed"
    return "no worse" if enough and worse_by <= (iqr / mb if mb else 0.0) else "unresolved"


def compare(base_dir: Path, new_dir: Path) -> None:
    table = metric_table()
    base_runs, new_runs = load(base_dir), load(new_dir)
    print(f"{'workload':10s} {'metric':44s} {'base':>12s} {'new':>12s} {'change':>8s} pairs  verdict")
    for workload in base_runs:
        for trace in (0, 1):
            def by_seed(runs):
                out = {}
                for r in runs:
                    if r["trace"] == trace:
                        out.setdefault(r["seed"], []).append(r["result"]["metrics"])
                return out

            base, new = by_seed(base_runs[workload]), by_seed(new_runs.get(workload, []))
            pairs = [(b, n) for seed in sorted(base.keys() & new.keys()) for b, n in zip(base[seed], new[seed])]
            if not pairs:
                continue
            for name in pairs[0][0]:
                unit, better, bound = table[name]
                b_vals = [b[name]["value"] for b, _ in pairs]
                n_vals = [n[name]["value"] for _, n in pairs]
                mb, mn = statistics.median(b_vals), statistics.median(n_vals)
                change = f"{(mn - mb) / mb:+.1%}" if mb else "n/a"
                print(
                    f"{workload:10s} {name:44s} {mb:12.6g} {mn:12.6g} {change:>8s} {len(pairs):5d}  "
                    f"{verdict(name, b_vals, n_vals, better, bound)}"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep", help="record runs of every workload into a result set")
    p.add_argument("directory", type=Path)
    p.add_argument(
        "--base",
        nargs=2,
        type=Path,
        metavar=("CHECKOUT", "DIRECTORY"),
        help="also run a base checkout into DIRECTORY, alternating with this one",
    )
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--trace-runs", type=int, default=2)
    p = sub.add_parser("summary", help="median, quartiles and spread of each metric")
    p.add_argument("directory", type=Path)
    p = sub.add_parser("compare", help="classify every metric of a new result set against a base")
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sides = [(ROOT, args.directory)] + ([tuple(args.base)] if args.base else [])
        sweep(sides, args.runs, args.seed0, args.trace_runs)
        return summary(args.directory)
    if args.command == "summary":
        return summary(args.directory)
    compare(args.base, args.new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
