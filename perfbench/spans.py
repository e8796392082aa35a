"""In-memory span recorder and the wrappers that feed it.

The benchmark wraps lexroad's public functions from outside: every module
of the ``lexroad`` package that binds one of the functions below (for
example ``cli`` imports ``compile_rule`` by name) gets the wrapper in its
namespace, so calls between modules are recorded too.  A span holds the
function name, start, end, parent span and operation id; a layer's self
time is its spans' time minus the time of their child spans.  Size
counters are read from each call's arguments or return value.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# layer → public functions wrapped in that module
LAYERS = {
    "rule_dsl": ("load_rule_file", "parse_rule", "assign_variables"),
    "boolean_core": ("compile_rule", "equations_equivalent", "check_properties", "evaluate"),
    "lawmap": ("build_lawmap", "export_dot", "export_json", "trace_path"),
    "bayes_net": ("build_bn", "validate_bn", "infer"),
    "rulepack": ("load_rulepack", "load_profile", "pack_digest", "rate"),
    "compliance": ("build_report", "render_text", "report_to_json", "load_scenario"),
    "cli": ("build_parser", "main"),
}

# the end-to-end metrics (and workloads) each layer's numbers should move
MOVES = {
    "rule_dsl": "compile_ms, op_p50_ms on pack-cli",
    "boolean_core": "check_ms, props_ms, pass_s on synth-build; eval_ms on synth-query",
    "lawmap": "lawmap_ms, pass_s, peak_rss_mb on synth-build; trace_ms, setup_s on synth-query",
    "bayes_net": "bn_validate_ms, pass_s on synth-build; infer_ms, op_p90_ms, setup_s on synth-query",
    "rulepack": "check_ms on pack-cli and synth-build",
    "compliance": "check_ms on pack-cli",
    "cli": "every *_ms and op_p50_ms on pack-cli",
}

AUTO_SWITCH_ROOTS = 16  # infer(method="auto") leaves enumeration above this


def _clauses(ast) -> int:
    def count(clauses) -> int:
        return sum(1 + count(c.children) for c in clauses)

    return count(ast.if_clauses + ast.except_clauses + ast.then_outcomes + ast.else_outcomes)


def _over_auto_switch(args, kwargs, _result) -> int:
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    if method != "auto":
        return 0
    roots = sum(1 for node in args[0].nodes if not node.parents)
    return int(roots > AUTO_SWITCH_ROOTS)


# "layer.function" → [(counter name, value from (args, kwargs, result))]
COUNTERS = {
    "rule_dsl.parse_rule": [("rule_dsl.clauses", lambda a, k, r: _clauses(r))],
    "boolean_core.compile_rule": [("boolean_core.inputs", lambda a, k, r: len(r.input_ids()))],
    "lawmap.build_lawmap": [
        ("lawmap.nodes", lambda a, k, r: len(r.nodes)),
        ("lawmap.edges", lambda a, k, r: len(r.edges)),
    ],
    "bayes_net.build_bn": [("bayes_net.cpt_rows", lambda a, k, r: sum(len(n.cpt) for n in r.nodes))],
    "bayes_net.validate_bn": [("bayes_net.assignments_checked", lambda a, k, r: r.assignments_checked)],
    "bayes_net.infer": [("bayes_net.infer.over16_roots", _over_auto_switch)],
}


def self_time_metric(name: str) -> str:
    return "cli.main.self_ms" if name == "cli.main" else f"{name}.ms"


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, in table order, with its unit."""
    units = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            name = f"{layer}.{fn}"
            units[self_time_metric(name)] = "ms"
            units[f"{name}.calls"] = "count"
            units.update((counter, "count") for counter, _ in COUNTERS.get(name, ()))
        units[f"{layer}.errors"] = "count"
    return {**units, "trace.spans": "count", "trace.overhead_s": "s"}


class Recorder:
    """Spans of the running pass, kept in memory and folded into totals."""

    def __init__(self):
        self.op_id = 0
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id)
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += end - start
                self.spans[index] = (name, start, end, parent, self.op_id)
                self.self_time[name] += end - start - children
                self.calls[name] += 1
            for counter, read in counters:
                self.counters[counter] += read(args, kwargs, result)
            return result

        return wrapper

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[self_time_metric(name)] = self.self_time[name] * 1000.0
                out[f"{name}.calls"] = self.calls[name]
                for counter, _ in COUNTERS.get(name, ()):
                    out[counter] = self.counters[counter]
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.spans"] = len(self.spans)
        return out


class Instrumentation:
    """Installs and removes the wrappers in every lexroad namespace."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lexroad" or name.startswith("lexroad."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"lexroad.{layer}"]
            for fn in functions:
                original = getattr(home, fn)
                wrapper = self.recorder.wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
