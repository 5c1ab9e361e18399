"""Layer tracing for the benchmark, from outside the package.

`Tracer` replaces the public functions of every `cascade_stab` module with
timing wrappers, in every namespace that holds them (a name bound through
`from .spectral import project` lives on in `simulator` and `synthesis`
too), and restores the originals on exit.  Each wrapped call records a span
(name, start, end, parent span, iteration) and adds to per-iteration call
counts, self time and inclusive time.  Spans stay in memory and are written
out once, by `dump`.

No layer queues work, so there is no wait time to record: every span is
busy time of the one benchmark thread.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "model": ("load_plant", "validate_plant"),
    "spectral": ("build_basis", "project", "adaptive_simpson",
                 "input_projection_row", "expand"),
    "transform": ("solve_transform_family", "mode_transform", "coupling_row",
                  "sylvester_residuals", "cancellation_residual"),
    "synthesis": ("select_mode_count", "stabilize_coupling", "modal_gains",
                  "input_matrix", "build_controller", "certificate"),
    "simulator": ("assemble_closed_loop", "project_initial", "integrate",
                  "estimate_decay", "target_residual", "reconstruct_field",
                  "run_closed_loop", "export_modal_csv", "export_field_csv",
                  "export_norms_csv"),
    "cli": ("cmd_synthesize", "cmd_simulate", "cmd_verify", "load_initial"),
}

# Spans whose inclusive time is reported besides their self time.
PARENT_SPANS = ("synthesis.build_controller", "synthesis.certificate",
                "simulator.run_closed_loop", "spectral.project",
                "cli.cmd_synthesize", "cli.cmd_simulate", "cli.cmd_verify")

COUNTER_UNITS = {"spectral.integrand_points": "count",
                 "spectral.eigenpairs_built": "count",
                 "simulator.csv_bytes": "bytes"}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Name -> unit of every per-iteration metric `Tracer.layer_metrics` gives."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PARENT_SPANS:
        units[f"{name}.s"] = "s"
    units.update(COUNTER_UNITS)
    for mod in LAYERS:
        units[f"{mod}.errors"] = "count"
    return units


class Tracer:
    """Context manager that wraps the package's public functions.

    Call `begin_iteration` before each traced pipeline iteration; enter and
    exit the tracer around the iteration so untraced iterations in between
    run the original code.
    """

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, iteration]
        self.iterations = []   # per iteration: (name -> [calls, self, incl], counters)
        self._stack = []       # indices of open spans
        self._child = []       # time covered by children of each open span
        self._iteration = -1
        self._stats = None
        self._counts = None
        self._patched = []
        self._hooks = None     # name -> (before, after), built on first entry

    # -- iteration bookkeeping ---------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self._iteration = iteration
        self._stats = defaultdict(lambda: [0, 0.0, 0.0])
        self._counts = defaultdict(int)
        self.iterations.append((self._stats, self._counts))

    # -- patching ------------------------------------------------------------

    def __enter__(self):
        if self._hooks is None:
            self._hooks = self._build_hooks()
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "cascade_stab"
                                           or name.startswith("cascade_stab."))]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"cascade_stab.{layer}"]
            for fn in funcs:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", layer, original)
                for mod in modules:
                    if mod.__dict__.get(fn) is original:
                        self._patched.append((mod, fn, original))
                        setattr(mod, fn, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn, original in reversed(self._patched):
            setattr(mod, fn, original)
        self._patched.clear()
        return False

    def _wrap(self, name: str, layer: str, fn):
        before, after = self._hooks.get(name, (None, None))
        spans = self.spans
        stack = self._stack
        child = self._child
        errors_key = f"{layer}.errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._iteration]
            spans.append(record)
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._counts[errors_key] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                duration = end - start
                record[1] = start
                record[2] = end
                stat = self._stats[name]
                stat[0] += 1
                stat[1] += duration - covered
                stat[2] += duration
                if child:
                    child[-1] += duration
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _build_hooks(self):
        from cascade_stab.model import ShapeFunction

        def count_integrand_points(args, kwargs):
            f = args[0]
            if isinstance(f, ShapeFunction) or not callable(f):
                return args, kwargs
            counts = self._counts

            def counted(x):
                counts["spectral.integrand_points"] += 1 if isinstance(x, float) else len(x)
                return f(x)

            return (counted, *args[1:]), kwargs

        def count_eigenpairs(args, kwargs):
            count = args[3] if len(args) > 3 else kwargs["count"]
            self._counts["spectral.eigenpairs_built"] += int(count)
            return args, kwargs

        def count_bytes(args, kwargs):
            path = kwargs["path"] if "path" in kwargs else args[-1]
            self._counts["simulator.csv_bytes"] += os.path.getsize(path)

        hooks = {"spectral.project": (count_integrand_points, None),
                 "spectral.build_basis": (count_eigenpairs, None)}
        for kind in ("modal", "field", "norms"):
            hooks[f"simulator.export_{kind}_csv"] = (None, count_bytes)
        return hooks

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced iterations of every per-iteration metric."""
        if not self.iterations:
            raise ValueError("no traced iteration")
        values = defaultdict(list)
        for stats, counts in self.iterations:
            for name in span_names():
                calls, self_s, incl = stats.get(name, (0, 0.0, 0.0))
                values[f"{name}.calls"].append(calls)
                values[f"{name}.self_s"].append(self_s)
                if name in PARENT_SPANS:
                    values[f"{name}.s"].append(incl)
            for key in COUNTER_UNITS:
                values[key].append(counts.get(key, 0))
            for mod in LAYERS:
                values[f"{mod}.errors"].append(counts.get(f"{mod}.errors", 0))
        return {name: float(statistics.median(v)) for name, v in values.items()}

    def dump(self, path: str, extra: dict) -> None:
        """Write every span plus `extra` (metrics, environment) as JSON."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "iteration"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
