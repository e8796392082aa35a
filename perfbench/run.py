#!/usr/bin/env python3
"""lexroad benchmark: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload pack-cli|synth-build|synth-query \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The script puts ``src`` on ``sys.path``
itself and drives lexroad through its public functions: the CLI in
process through ``lexroad.cli.main(argv)`` and the library through calls
such as ``infer``, ``evaluate`` and ``trace_path``.

A run sets up several times (fresh import of lexroad, inputs generated
and written, any build) and makes one warm-up pass.  The loop then repeats
the workload's fixed pass of operations until ``--seconds`` have passed
and at least ``MIN_PASSES`` passes ran.  Times are CPU times scaled to a
reference speed (``speed.py``): the shared host's speed moves by a factor
of two over minutes, and the scaling cancels it.  Each operation's latency
is its median over the untraced passes; ``pass_s`` sums those medians.
Every output is checked against an oracle that does not use lexroad once
the pass is over.  Unscaled wall-clock figures are printed for reference.

Human-readable lines come first.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics untraced (``--trace 0``), or the per-layer metrics from
a traced run (``--trace 1``).  The exit code is 1 when any output was
wrong and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / str(os.getpid())
MIN_PASSES = 5  # each operation's latency is its median over the passes
SETUP_REPEATS = {"pack-cli": 15, "synth-build": 15, "synth-query": 3}
HARD_STOP_S = 150.0  # start no pass that could end after this

END_TO_END = {  # name → unit, as BENCHMARK.json lists them
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
COMMAND_METRICS = ("check_ms", "bn_validate_ms", "lawmap_ms", "compile_ms", "props_ms",
                   "infer_ms", "eval_ms", "trace_ms", "cli_infer_ms", "cli_eval_ms",
                   "bn_export_ms")


def import_lexroad() -> SimpleNamespace:
    """Import lexroad from this checkout's ``src``, afresh each time."""
    for name in [n for n in sys.modules if n == "lexroad" or n.startswith("lexroad.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("lexroad")
    if not Path(package.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"lexroad imported from {package.__file__}, not from {src}")
    names = ("cli", "rule_dsl", "boolean_core", "lawmap", "bayes_net", "rulepack", "compliance")
    return SimpleNamespace(**{n: importlib.import_module(f"lexroad.{n}") for n in names})


def set_up(name: str, seed: int, reference: speed.Reference):
    """Set the workload up several times, time each, and keep the last one.

    A set-up imports lexroad afresh, writes the inputs and builds what the
    workload builds.  Its CPU time is scaled by reference chunks read on
    both sides and between its steps.  The kept set-up then makes one
    untimed warm-up pass, so that first-call costs stay out of the loop;
    failures there show again in the loop.
    """
    times = []
    for _ in range(SETUP_REPEATS[name]):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        gc.collect()  # the same heap for every set-up, whatever the last one left
        pacer = speed.Pacer(reference, speed.SETUP_CHUNKS)
        start = time.process_time()
        lx = import_lexroad()
        workload = workloads.SETUPS[name](lx, seed, WORK, ROOT, pacer.tick)
        pacer.read(speed.SETUP_CHUNKS)
        elapsed = time.process_time() - start - sum(pacer.chunks[speed.SETUP_CHUNKS:])
        times.append(elapsed * pacer.scale())
    for op in workload.ops:
        with contextlib.suppress(Exception):
            op.call()
    return lx, workload, times


class Tally:
    """Per-operation latencies and failures over a run."""

    def __init__(self, ops: list[workloads.Op], reference: speed.Reference):
        self.ops = ops
        self.reference = reference
        # per operation, one per untraced pass: scaled CPU time, and wall time
        self.samples: list[list[float]] = [[] for _ in ops]
        self.wall_samples: list[list[float]] = [[] for _ in ops]
        self.chunks: list[float] = []  # reference chunks of the untraced passes
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, recorder: spans.Recorder | None) -> float:
        """One pass of the operations; returns its wall time, reference chunks
        included.  Latencies are kept from untraced passes only."""
        results = []
        pacer = speed.Pacer(self.reference)
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op_id = i
            pacer.tick()
            before = pacer.last()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                output, error = op.call(), None
            except Exception as exc:  # a crash is a failed operation, not a dead run
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append((time.process_time() - c0, time.perf_counter() - t0, before,
                            output, error))
        pacer.read()
        wall = time.perf_counter() - start
        if recorder is None:
            self.chunks += pacer.chunks
        for i, (op, (cpu, elapsed, before, output, error)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if recorder is None:
                self.samples[i].append(cpu * pacer.scale_between(before))
                self.wall_samples[i].append(elapsed)
            if error is None:
                try:
                    error = op.check(output)
                except Exception as exc:
                    error = f"oracle could not read the output: {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(error)
        return wall

    def latencies(self, metric: str | None = None, table: list[list[float]] | None = None
                  ) -> list[float]:
        """Each operation's median latency over the untraced passes, in ms."""
        return [statistics.median(s) * 1000.0
                for op, s in zip(self.ops, self.samples if table is None else table)
                if metric is None or op.metric == metric]


def measure(workload: workloads.Workload, reference: speed.Reference, seconds: float,
            trace: bool, t_start: float):
    """Repeat passes for ``seconds``; traced runs alternate plain and traced passes."""
    tally = Tally(workload.ops, reference)
    plain_walls: list[float] = []
    traced: list[tuple[float, dict]] = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        passes = len(plain_walls) + len(traced)
        enough = (time.perf_counter() - begin >= seconds
                  and passes >= MIN_PASSES and (not trace or traced))
        if enough or (passes and time.perf_counter() - t_start + longest > HARD_STOP_S):
            break
        if trace and passes % 2 == 1:
            recorder = spans.Recorder()
            wrappers = spans.Instrumentation(recorder)
            wrappers.install()
            try:
                wall = tally.run_pass(recorder)
            finally:
                wrappers.remove()
            traced.append((wall, recorder.totals()))
        else:
            wall = tally.run_pass(None)
            plain_walls.append(wall)
        longest = max(longest, wall)
    return tally, plain_walls, traced


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, workload: workloads.Workload, pack_digest: str, setup_times,
                passes: int) -> dict:
    per_metric: dict[str, int] = {}
    for op in workload.ops:
        per_metric[op.metric] = per_metric.get(op.metric, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "pack_digest": pack_digest,
        "setup_repeats": len(setup_times),
        "passes": passes,
        "operations_per_pass": per_metric,
        **workload.info,
    }


def print_row(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<40} {value:>14.6f} {unit:<6} {note}".rstrip())


def end_to_end(tally: Tally, setup_times: list[float], plain_walls: list[float]) -> dict:
    latencies = tally.latencies()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(latencies) / 1000.0,
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": quantile90(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for t in latencies if t > metrics["op_p90_ms"])
    passes = len(plain_walls)
    each = f"each the median of {passes} passes"
    notes = {
        "setup_s": f"(median of {len(setup_times)} set-ups)",
        "pass_s": f"(sum of {len(latencies)} operations, {each})",
        "op_p50_ms": f"({len(latencies)} operations, {each})",
        "op_p90_ms": f"({len(latencies)} operations, {beyond} beyond)",
    }
    print("# times: CPU time scaled to the reference speed (perfbench/speed.py)")
    for name, unit in END_TO_END.items():
        print_row(name, metrics[name], unit, notes.get(name, ""))
    for name in COMMAND_METRICS:
        values = tally.latencies(name)
        if values:
            print_row(name, statistics.median(values), "ms",
                      f"(median of {len(values)} operations, {each})")
    wall = tally.latencies(table=tally.wall_samples)
    print("# unscaled: the reference chunk's CPU time and wall-clock latencies")
    print_row("reference_chunk_ms", statistics.median(tally.chunks) * 1000.0, "ms",
              f"(median of {len(tally.chunks)} chunks; nominal {speed.REFERENCE_S * 1000.0})")
    print_row("wall_s", sum(wall) / 1000.0, "s", f"(sum of {len(wall)} operations, {each})")
    print_row("wall_op_p50_ms", statistics.median(wall), "ms")
    print_row("wall_op_p90_ms", quantile90(wall), "ms")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(plain_walls: list[float], traced: list[tuple[float, dict]]) -> dict:
    """Per-layer table from the traced passes: best time, counts per pass."""
    best_traced = min(w for w, _ in traced)
    units = spans.metric_units()
    values: dict[str, float] = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            values[name] = best_traced - min(plain_walls)
        else:
            pick = min if unit == "ms" else statistics.median
            values[name] = pick(totals[name] for _, totals in traced)
    print(f"# per layer, per pass: times are the best of {len(traced)} traced passes, "
          f"counts the median; {len(plain_walls)} plain passes")
    for layer in spans.LAYERS:
        print(f"# {layer}: should move {spans.MOVES[layer]}")
        for name, unit in units.items():
            if name.startswith(layer + "."):
                print_row(name, values[name], unit)
    print_row("trace.spans", values["trace.spans"], "count")
    print_row("trace.overhead_s", values["trace.overhead_s"], "s",
              f"(best traced pass {best_traced:.4f} s - best untraced {min(plain_walls):.4f} s)")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        try:
            reference = speed.Reference()
            lx, workload, setup_times = set_up(args.workload, args.seed, reference)
        except (ImportError, OSError) as exc:
            print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
            return 2
        tally, plain_walls, traced = measure(workload, reference, args.seconds, bool(args.trace),
                                              t_start)
        pack_digest = lx.rulepack.pack_digest(ROOT / "src" / "lexroad" / "data")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    passes = len(plain_walls) + len(traced)
    env = environment(args, workload, pack_digest, setup_times, passes)
    print(f"# perfbench {args.workload}: closed loop, one client, {passes} passes")
    print("# env " + json.dumps(env, sort_keys=True))
    for failure in tally.failures[:20]:
        print(f"# FAILED: {failure}")
    print_row("fail_ratio", len(tally.failures) / tally.attempted, "1",
              f"({len(tally.failures)} of {tally.attempted} operations)")
    if args.trace:
        metrics = per_layer(plain_walls, traced)
    else:
        metrics = end_to_end(tally, setup_times, plain_walls)
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
