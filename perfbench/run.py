"""nmrsim benchmark: one workload, its end-to-end metrics, or a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tomo-3q --seed 1 --seconds 60 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it give the environment and a readable table.  ``--record FILE``
also appends the result, the environment and the seed to FILE as one JSON
line, which ``perfbench/results.py`` reads.

Every workload is a closed loop of one client in this process.  An
operation fails when its exit code, its output or its numeric check is
wrong; ``error_rate`` is failed over attempted.
"""

import argparse
import array
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics, parse_importtime, per_layer_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "cli-warm", "tomo-3q", "sep-2q")
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median
IMPORT_PROBES = 3
FLOOR_PROBES = 5
TRACE_MAX_OPS = 6000
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_layout() -> None:
    """Refuse to run without the sources, or with a stale BENCHMARK.json."""
    if not (SRC / "nmrsim" / "__init__.py").is_file():
        fail(f"no nmrsim sources under {SRC}; run from the root of a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END]:
            fail("BENCHMARK.json end_to_end metrics differ from the ones this benchmark reports")
        if [m["name"] for m in spec["per_layer"]] != [n for n, _, _ in per_layer_names()]:
            fail("BENCHMARK.json per_layer metrics differ from the ones this benchmark reports")


def setup(workload: str, seed: int, work: Path):
    """Import, generate the seeded inputs and references, warm up; timed."""
    start = time.perf_counter()
    import workloads

    wl = workloads.SETUPS[workload](seed, work)
    # One untimed pass fills caches; a cold CLI run warms the bytecode cache.
    for op in wl.ops if wl.in_process else wl.ops[:1]:
        if op.prepare:
            op.prepare()
        op.run(None)
    elapsed = time.perf_counter() - start
    nmrsim_file = Path(sys.modules["nmrsim"].__file__).resolve()
    if SRC.resolve() not in nmrsim_file.parents:
        fail(f"imported nmrsim from {nmrsim_file}, not from {SRC}")
    return wl, elapsed


class Loop:
    """Latencies, failures and, for CLI children, results of operations."""

    def __init__(self, keep_results: bool):
        self.latencies = array.array("d")  # compact, so that peak_rss_mb does not grow with the op count
        self.failures: list = []
        self.results: list | None = [] if keep_results else None

    def run(self, op, op_id: int, tracer=None) -> None:
        if op.prepare:
            op.prepare()
        start = time.perf_counter()
        try:
            result = tracer.op(op_id, lambda: op.run(tracer)) if tracer else op.run(None)
            reason = None
        except Exception:
            result, reason = None, traceback.format_exc()
        self.latencies.append(time.perf_counter() - start)
        if reason is None:
            reason = op.check(result)
        if reason:
            if len(self.failures) < 3:
                print(f"perfbench: op {op_id} ({op.label}) failed: {reason}", file=sys.stderr)
            self.failures.append(op.label)
        if self.results is not None:
            self.results.append(result)


def setup_probe(workload: str, seed: int) -> float:
    """Set up once more in a fresh interpreter; returns its set-up seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(wl, loop: Loop, setups: list) -> dict:
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(r[3].ru_maxrss for r in loop.results if r is not None)
    lat = sorted(x * 1e3 for x in loop.latencies)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "op_ms.p50": statistics.median(lat),
        "op_ms.p90": nearest_rank(lat, 0.9),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(wl, workload: str, seed: int, seconds: float, work: Path):
    """Each op runs untraced, then traced, so that the pair sees the same
    machine; whole cycles of the op mix, as many as fit in ``seconds`` up
    to ``TRACE_MAX_OPS``, which bounds the spans kept in memory."""
    import workloads

    untraced, traced = Loop(not wl.in_process), Loop(not wl.in_process)
    tracer = Tracer(workloads.ERROR_TYPE)
    pauli_matrix = workloads.tomography.pauli_matrix
    before = pauli_matrix.cache_info()
    start, cycles, i = time.perf_counter(), 0, 0
    while True:
        for op in wl.ops:
            untraced.run(op, i)
            if wl.in_process:
                tracer.install()
            try:
                traced.run(op, i, tracer)
            finally:
                tracer.uninstall()
            i += 1
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds or i >= TRACE_MAX_OPS:
            break
    metrics = layer_metrics(tracer.spans, i, tracer.errors)

    if wl.in_process:
        after = pauli_matrix.cache_info()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        probes = [workloads.run_child([sys.executable, "-X", "importtime", "-c", wl.import_stmt], work) for _ in range(IMPORT_PROBES)]
        imports = [parse_importtime(p[2])[0] for p in probes]
        cpu = [_cpu_ms(p[3]) for p in probes]
    else:
        counted = [r[5]["pauli_matrix"] for r in traced.results if r is not None]
        hits, misses = sum(c[0] for c in counted), sum(c[1] for c in counted)
        imports = [r[4] for r in traced.results if r is not None]
        cpu = [_cpu_ms(r[3]) for r in untraced.results if r is not None]
    metrics["tomography.pauli_matrix.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in ("total", "numpy", "nmrsim", "stdlib"):
        metrics[f"import.{key}_ms"] = statistics.median(m[key] for m in imports)
    metrics["process.child_cpu_ms"] = statistics.median(cpu)
    floor = []
    for _ in range(FLOOR_PROBES):
        begin = time.perf_counter()
        workloads.run_child([sys.executable, "-c", "pass"], work)
        floor.append((time.perf_counter() - begin) * 1e3)
    metrics["process.interp_floor_ms"] = statistics.median(floor)
    metrics["trace.overhead_pct"] = (sum(traced.latencies) / sum(untraced.latencies) - 1.0) * 100.0

    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{workload}-seed{seed}.jsonl")
    print(f"{workload}: {i} ops ({cycles} cycles of {len(wl.ops)}) untraced and traced; spans in {trace_dir}")
    attempted = len(untraced.latencies) + len(traced.latencies)
    return metrics, attempted, len(untraced.failures) + len(traced.failures)


def _cpu_ms(usage) -> float:
    return (usage.ru_utime + usage.ru_stime) * 1e3


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "nmrsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="append the result as one JSON line to FILE")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    check_layout()
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s = setup(args.workload, args.seed, work)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args.seed)
        print("env: " + json.dumps(env))
        if args.trace:
            metrics, attempted, failed = per_layer(wl, args.workload, args.seed, args.seconds, work)
            units = {n: u for n, u, _ in per_layer_names()}
        else:
            setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            loop = Loop(not wl.in_process)
            deadline, i = time.perf_counter() + args.seconds, 0
            while time.perf_counter() < deadline:
                loop.run(wl.ops[i % len(wl.ops)], i)
                i += 1
            attempted, failed = i, len(loop.failures)
            metrics = end_to_end(wl, loop, setups)
            units = dict(END_TO_END)
            beyond = attempted - math.ceil(0.9 * attempted)
            print(f"{args.workload}: {attempted} ops in {args.seconds:g} s, one closed-loop client")
            print(f"  op_ms.p90 has {beyond} samples beyond it" + ("" if beyond >= 10 else " (fewer than 10)"))
            print(f"  error_rate = {failed}/{attempted} = {failed / attempted:.6g} ratio")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        if args.record:
            line = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
            with open(args.record, "a") as f:
                f.write(json.dumps({**line, "env": env, "result": result}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
