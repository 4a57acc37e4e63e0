"""Span tracing from outside the package.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper under every module name a caller looks it up by (for
example ``forward_coeffs`` is reached as ``protocol.forward_coeffs``,
``inverse.forward_coeffs`` and ``multimode.forward_coeffs``).  Each call
appends one span (name, start, end, parent, op id, error) to an in-memory
list; ``write`` dumps the list as JSON lines at the end of the run, and
``layer_metrics`` derives self times (a span's duration minus its direct
children's) and the per-layer counters, per pass over the op pool.
Span times are read from the process's CPU clock, like the op latencies
in ``run.py``, so time the shared host's CPUs were taken away is left out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

MODULES = ("cli", "chain", "protocol", "inverse", "fock", "multimode")

# Per-layer metrics and their units.  The traced run reports each one, per
# pass over the workload's op pool.
LAYER_METRICS = {
    "cli.main.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "chain.equilibrium_positions.self_ms": "ms",
    "chain.equilibrium_positions.calls": "count",
    "chain.normal_modes.self_ms": "ms",
    "chain.normal_modes.calls": "count",
    "protocol.success_probability_exact.self_ms": "ms",
    "protocol.success_probability_exact.calls": "count",
    "protocol.slots": "count",
    "protocol.forward_coeffs.self_ms": "ms",
    "protocol.forward_coeffs.calls": "count",
    "protocol.to_fock.self_ms": "ms",
    "inverse.solve_weights.self_ms": "ms",
    "inverse.solve_weights.calls": "count",
    "inverse.solve_weights.errors": "count",
    "inverse.solve_weights.solutions": "per_call",
    "inverse.fit_target.self_ms": "ms",
    "inverse.fit_target.calls": "count",
    "inverse.fit_target.grid_size": "count",
    "fock.coherent_fock.calls": "count",
    "fock.coherent_fock.self_ms": "ms",
    "fock.coherent_overlap.calls": "count",
    "multimode.run_conditional_exact.self_ms": "ms",
    "multimode.run_conditional_exact.terms": "count",
    "multimode.run_conditional_factorized.self_ms": "ms",
    "multimode.run_conditional_factorized.terms": "count",
    "multimode.leakage_report.self_ms": "ms",
    "multimode.fact_to_exact_terms": "ratio",
    "multimode.gram_bytes": "bytes_computed",
    "multimode.memory_errors": "count",
    "multimode.trotter_validate.self_ms": "ms",
    "multimode.trotter_validate.calls": "count",
    "multimode.trotter.steps": "count",
    "multimode.trotter.dim": "states",
    "multimode.trotter.step_us": "us",
    "trace_overhead": "ratio",
}


def _count_slots(counters, args, result):
    counters["protocol.slots"] += args[0].all_weights.size


def _count_solutions(counters, args, result):
    counters["inverse.solve_weights.solutions"] += len(result)


def _count_grid(counters, args, result):
    counters["inverse.fit_target.grid_size"] += int(args[1]) + 1


def _count_exact(counters, args, result):
    counters["multimode.run_conditional_exact.terms"] += result[0].n_terms


def _count_factorized(counters, args, result):
    counters["multimode.run_conditional_factorized.terms"] += result.n_terms


def _count_gram(counters, args, result):
    # Computed, not measured: the dense complex Grams leakage_report forms
    # over the exact (T_e) and factorized (T_f) terms.
    t_e, t_f = args[0].n_terms, args[2].n_terms
    counters["multimode.gram_bytes"] += 16 * (t_e * t_e + t_f * t_f + t_f * t_e)


def _count_trotter(counters, args, result):
    params, cfg = args[0], args[3]
    counters["multimode.trotter.steps"] += cfg.steps * (11 if cfg.include_fast_terms else 7)
    counters["trotter.dim_sum"] += 2**params.n_ions * (cfg.cutoff + 1) ** params.n_ions


# Counter hooks: (hook, needs_result).  A hook runs on the call's positional
# arguments and result after every call, except that one needing the result
# is skipped when the call raised.
_HOOKS = {
    "protocol.success_probability_exact": (_count_slots, False),
    "inverse.solve_weights": (_count_solutions, True),
    "inverse.fit_target": (_count_grid, False),
    "multimode.run_conditional_exact": (_count_exact, True),
    "multimode.run_conditional_factorized": (_count_factorized, True),
    "multimode.leakage_report": (_count_gram, False),
    "multimode.trotter_validate": (_count_trotter, False),
}


def _public_functions(module) -> dict:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        name: obj
        for name in names
        if inspect.isfunction(obj := getattr(module, name)) and obj.__module__ == module.__name__
    }


class Tracer:
    """Holds spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.op_id = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook, needs_result = _HOOKS.get(name, (None, False))
        clock = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, error)
                if hook is not None and (error is None or not needs_result):
                    hook(counters, args, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever they are bound."""
        package = importlib.import_module("ile")
        modules = [importlib.import_module(f"ile.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"ile.{short}")
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, op, error = span
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")

    def layer_metrics(self, passes: int, output_bytes: int, overhead: float) -> dict:
        """Per-pass layer metrics derived from the spans and counters;
        ``output_bytes`` is the CLI output of one pass."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        memory_errors = 0
        for idx, (name, start, end, parent, _, error) in enumerate(self.spans):
            self_ms[name] += (end - start - child_ns[idx]) / 1e6
            calls[name] += 1
            if error is not None:
                errors[name] += 1
                parent_name = self.spans[parent][0] if parent >= 0 else ""
                if (error == "MemoryError" and name.startswith("multimode.")
                        and not parent_name.startswith("multimode.")):
                    memory_errors += 1

        c = self.counters
        trotter_calls = calls["multimode.trotter_validate"]
        steps = c["multimode.trotter.steps"]
        exact_terms = c["multimode.run_conditional_exact.terms"]
        solves = calls["inverse.solve_weights"]
        values = {
            "protocol.slots": c["protocol.slots"],
            "inverse.solve_weights.errors": errors["inverse.solve_weights"],
            "inverse.fit_target.grid_size": c["inverse.fit_target.grid_size"],
            "multimode.run_conditional_exact.terms": exact_terms,
            "multimode.run_conditional_factorized.terms":
                c["multimode.run_conditional_factorized.terms"],
            "multimode.gram_bytes": c["multimode.gram_bytes"],
            "multimode.memory_errors": memory_errors,
            "multimode.trotter.steps": steps,
        }
        for metric in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "self_ms":
                values[metric] = self_ms[layer]
            elif stat == "calls":
                values[metric] = calls[layer]
        # The command functions are cli's own layer too: parsing, reading
        # inputs and serializing outputs all count as cli.main self time.
        values["cli.main.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("cli."))
        values = {k: v / passes for k, v in values.items()}
        # Per-pass already, or ratios: not scaled by the pass count.
        values["cli.output_bytes"] = output_bytes
        values["inverse.solve_weights.solutions"] = (
            c["inverse.solve_weights.solutions"] / solves if solves else 0.0)
        values["multimode.fact_to_exact_terms"] = (
            c["multimode.run_conditional_factorized.terms"] / exact_terms if exact_terms else 0.0)
        values["multimode.trotter.dim"] = (
            c["trotter.dim_sum"] / trotter_calls if trotter_calls else 0.0)
        values["multimode.trotter.step_us"] = (
            self_ms["multimode.trotter_validate"] * 1e3 / steps if steps else 0.0)
        values["trace_overhead"] = overhead
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in LAYER_METRICS.items()}
