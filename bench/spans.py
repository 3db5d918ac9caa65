"""Spans around gaborfio's public functions, for the traced runs.

The tracer rebinds each traced function in every gaborfio module that
holds it (for example `fio_matrix` is bound in `fio`, `multiplier` and
`cli`), so nested calls are caught too, and restores the bindings on
exit.  Nothing under src/ changes.  A span's self time is its duration
minus the durations of its direct child spans, so the self times of one
execution add up to the duration of its root span.
"""

import importlib
import inspect
import re
import time
import tracemalloc
from collections import defaultdict

MODULES = ("cli", "core", "windows", "frames", "phases", "fio",
           "multiplier", "diagnostics", "dilation")

# module, attribute: the public functions whose spans the traced run reports.
TRACED = (
    ("frames", "enumerate_lattice"),
    ("frames", "build_atoms"),
    ("frames", "frame_operator"),
    ("frames", "frame_bounds"),
    ("frames", "canonical_tight_window"),
    ("frames", "dual_window"),
    ("frames", "analysis"),
    ("phases", "chi_prime_table"),
    ("phases", "CanonicalMap.forward"),
    ("fio", "fio_matrix"),
    ("fio", "gabor_matrix"),
    ("fio", "pair_distances"),
    ("fio", "decay_envelope_fit"),
    ("fio", "transport_argmax_check"),
    ("multiplier", "extract_symbols"),
    ("multiplier", "assemble_truncated"),
    ("multiplier", "truncation_error_curve"),
    ("diagnostics", "operator_norm"),
    ("diagnostics", "write_report"),
    ("dilation", "dilation_symbol_closed_form"),
)

# Spans whose tracemalloc peak is reported.  Allocation tracing slows
# Python code, so it runs only in a separate memory pass, never while
# self times are taken.
PEAK_SPANS = ("fio.pair_distances", "fio.transport_argmax_check",
              "multiplier.extract_symbols")

ROOT = "cli"


def _frame_operator_flops(bound):
    """8 n N n real flops of G G^H, or 0 when the spec already holds S."""
    spec = bound.arguments["spec"]
    if getattr(spec, "_S", None) is not None:
        return 0.0
    n, N = spec.window.grid.size, spec.lattice.npoints
    return 8.0 * n * N * n


def _gabor_matrix_flops(bound):
    """T @ atoms (8 n n N) and atoms^H @ that (8 N n N) real flops."""
    n = bound.arguments["T"].grid.size
    N = bound.arguments["spec"].lattice.npoints
    return 8.0 * n * N * (n + N)


FLOPS = {"frames.frame_operator": _frame_operator_flops,
         "fio.gabor_matrix": _gabor_matrix_flops}


def _power_iterations(bound, result):
    note = result.confidence_note
    match = re.search(r"converged in (\d+) steps", note)
    if match:
        return int(match.group(1))
    if "max_iter" in note:
        return int(bound.arguments["max_iter"])
    return 0


class Tracer:
    """Collects per-span totals for one execution of the CLI."""

    def __init__(self, memory=False):
        self.memory = memory
        self.totals = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._undo = []
        self._signatures = {}   # spans that read their arguments

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        totals = self.totals[name]
        bound = None
        if name in self._signatures:
            bound = self._signatures[name].bind(*args, **kwargs)
            bound.apply_defaults()
        if name in FLOPS:
            totals["flops"] += FLOPS[name](bound)
        peak = self.memory and name in PEAK_SPANS
        if peak:
            tracemalloc.start()
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            totals["self_s"] += duration - frame[0]
            totals["calls"] += 1
            if peak:
                totals["peak_mb"] = max(totals["peak_mb"],
                                        tracemalloc.get_traced_memory()[1] / 1e6)
                tracemalloc.stop()
        if name == ROOT:
            totals["wall_s"] += duration
        elif name == "frames.build_atoms":
            totals["atoms_mb"] = max(totals["atoms_mb"], result.nbytes / 1e6)
        elif name == "diagnostics.operator_norm":
            totals["iterations"] += _power_iterations(bound, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def __enter__(self):
        modules = [importlib.import_module("gaborfio")] + [
            importlib.import_module(f"gaborfio.{m}") for m in MODULES]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = importlib.import_module(f"gaborfio.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._undo.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            if name in FLOPS or name == "diagnostics.operator_norm":
                self._signatures[name] = inspect.signature(original)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False


def layer_metrics(tracer):
    """Per-layer values of one traced execution, keyed by metric name."""
    out = {}
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        t = tracer.totals.get(name, {})
        out[f"{name}.self_s"] = t.get("self_s", 0.0)
    t = tracer.totals
    out["cli.self_s"] = t[ROOT]["self_s"]
    out["cli.traced_wall_s"] = t[ROOT]["wall_s"]
    out["phases.CanonicalMap.forward.calls"] = \
        t["phases.CanonicalMap.forward"]["calls"]
    out["multiplier.assemble_truncated.calls"] = \
        t["multiplier.assemble_truncated"]["calls"]
    out["diagnostics.operator_norm.iterations"] = \
        t["diagnostics.operator_norm"]["iterations"]
    out["frames.atoms_mb"] = t["frames.build_atoms"]["atoms_mb"]
    for name in FLOPS:
        self_s = t[name]["self_s"]
        out[f"{name}.gflops"] = t[name]["flops"] / self_s / 1e9 if self_s else 0.0
    for name in PEAK_SPANS:
        out[f"{name}.peak_mb"] = t[name]["peak_mb"]
    return out
