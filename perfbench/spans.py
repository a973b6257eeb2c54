"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps public functions of ``nmrsim`` from the outside: each
wrapped name is replaced in every ``nmrsim`` module that binds it, so calls
are seen where callers look them up (``nmrsim.cli.load_matrix`` as well as
``nmrsim.serialize.load_matrix``).  Spans are kept in memory as
``(name, start_ns, end_ns, parent_index, op_id)`` and written out at the end.

This module imports only the standard library, so that it can be loaded
into a CLI child process after ``nmrsim.cli`` without disturbing the import
measurements.
"""

import functools
import json
import sys
import time

# The layers are the modules of src/nmrsim/; these are the wrapped functions.
LAYERS = {
    "cli": ("build_parser", "main"),
    "serialize": ("load_json", "load_matrix", "save_matrix", "matrix_to_dict"),
    "core": ("validate_density", "validate_unitary", "evolve", "fidelity", "trace_distance"),
    "pseudopure": ("compose_pseudopure", "extract_epsilon"),
    "separability": ("is_separable_2q", "ppt_first_vs_rest", "critical_epsilon"),
    "ensemble": ("history_from_dict", "density_of", "entanglement_report"),
    "tomography": ("pauli_expectations", "simulate_shot_noise", "reconstruct_linear", "project_psd"),
    "repro": ("load_dataset", "reproduce_theory", "load_baselines", "closest_physical_state", "export_dataset"),
}
PROCESS_METRICS = (
    ("import.total_ms", "ms"),
    ("import.numpy_ms", "ms"),
    ("import.nmrsim_ms", "ms"),
    ("import.stdlib_ms", "ms"),
    ("process.child_cpu_ms", "ms"),
    ("process.interp_floor_ms", "ms"),
)
OP = "op"


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []
    for module, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{module}.{fn}.calls_per_op", "count", "lower"))
            out.append((f"{module}.{fn}.self_us_per_op", "us", "lower"))
        out.append((f"{module}.self_share", "ratio", "lower"))
        out.append((f"{module}.errors", "count/op", "lower"))
    out.append(("tomography.pauli_matrix.cache_hit_ratio", "ratio", "higher"))
    out.extend((name, unit, "lower") for name, unit in PROCESS_METRICS)
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, error_type: type):
        self.error_type = error_type
        self.spans: list = []
        self.errors = {module: 0 for module in LAYERS}
        self.op_id = -1
        self._stack: list[int] = []
        self._last_error = None
        self._patches: list = []  # (module, name, original, wrapper)
        self.counters: dict = {}  # written with the spans, e.g. cache statistics

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except self.error_type as exc:
                # Count each error once, in the innermost wrapped function.
                if exc is not self._last_error and module in self.errors:
                    self._last_error = exc
                    self.errors[module] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def install(self) -> None:
        """Replace every wrapped function in every loaded ``nmrsim`` module."""
        if not self._patches:
            modules = [m for k, m in sys.modules.items() if k == "nmrsim" or k.startswith("nmrsim.")]
            for module, fns in LAYERS.items():
                home = sys.modules.get(f"nmrsim.{module}")
                if home is None:
                    continue  # not imported by this workload
                for fn in fns:
                    original = getattr(home, fn)
                    wrapper = self._wrap(f"{module}.{fn}", original)
                    for m in modules:
                        for attr in [a for a, v in vars(m).items() if v is original]:
                            self._patches.append((m, attr, original, wrapper))
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def op(self, op_id: int, run):
        """Run ``run()`` as operation ``op_id`` under a root span."""
        self.op_id = op_id
        return self._wrap(OP, run)()

    def add_child(self, path) -> dict:
        """Merge what a child process wrote with :meth:`dump` under the open
        span; returns the child's counters."""
        counters, spans = load_spans(path)
        parent, base = self._stack[-1], len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append((name, start, end, parent if p < 0 else base + p, self.op_id))
        for module, n in counters.pop("errors").items():
            self.errors[module] += n
        return counters

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({**self.counters, "errors": self.errors}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def load_spans(path) -> tuple[dict, list]:
    """The counters and spans written by :meth:`Tracer.dump`."""
    with open(path) as f:
        counters = json.loads(f.readline())
        return counters, [tuple(json.loads(line)) for line in f]


def layer_metrics(spans: list, n_ops: int, errors: dict) -> dict:
    """calls_per_op, self_us_per_op, self_share and errors for every layer."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict = {}
    self_ns: dict = {}
    op_ns = 0
    for (name, start, end, _, _), child_ns in zip(spans, covered):
        if name == OP:
            op_ns += end - start
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start - child_ns)
    out = {}
    for module, fns in LAYERS.items():
        module_ns = 0
        for fn in fns:
            name = f"{module}.{fn}"
            out[f"{name}.calls_per_op"] = calls.get(name, 0) / n_ops
            out[f"{name}.self_us_per_op"] = self_ns.get(name, 0) / 1e3 / n_ops
            module_ns += self_ns.get(name, 0)
        out[f"{module}.self_share"] = module_ns / op_ns
        out[f"{module}.errors"] = errors[module] / n_ops
    return out


def parse_importtime(stderr: str, skip=("spans",)) -> tuple[dict, str]:
    """Split ``-X importtime`` lines off ``stderr`` and sum self times.

    Returns ``({"total", "numpy", "nmrsim", "stdlib"} in ms, remaining
    stderr)``.  ``stdlib`` is everything neither numpy nor nmrsim.
    """
    totals = {"total": 0.0, "numpy": 0.0, "nmrsim": 0.0}
    rest = []
    for line in stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            rest.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2].strip()
        if name in skip:
            continue
        self_ms = int(fields[0]) / 1e3
        totals["total"] += self_ms
        top = name.split(".", 1)[0]
        if top in ("numpy", "nmrsim"):
            totals[top] += self_ms
    totals["stdlib"] = totals["total"] - totals["numpy"] - totals["nmrsim"]
    return totals, "".join(rest)
