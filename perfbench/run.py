"""Compile benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root:

    python3 perfbench/run.py --workload service-mix --seed 1 --seconds 30 --trace 0

The program under test is ``bluefish`` imported from ``src/`` of the
checkout this file sits in, driven only through its public functions,
from one process and one thread. The client sends the next document only
after the previous one is answered.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays each
document stage by stage (see stages.py) and reports per-layer metrics.
Every output is checked (see verify.py). The last line of stdout is one
JSON object: correct, attempted, failed, metrics. The exit status is 1
when any check failed and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import stages
import verify
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPS = 5
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "compile_p50_ms": "ms",
    "compile_tail_ms": "ms",
    "docs_per_s": "1/s",
    "nodes_per_s": "1/s",
    "reject_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "svg_bytes_per_node": "bytes",
}

PER_LAYER_UNITS = {
    "docformat.parse_ms": "ms",
    "docformat.validate_ms": "ms",
    "docformat.resolve_names_ms": "ms",
    "docformat.elements": "count",
    "docformat.max_depth": "count",
    "engine.registry_ms": "ms",
    "engine.expand_ms": "ms",
    "engine.build_ms": "ms",
    "relations.layout_pass_ms": "ms",
    "relations.layout_calls": "count",
    "scenegraph.finalize_ms": "ms",
    "scenegraph.resolve_ms": "ms",
    "scenegraph.nodes": "count",
    "scenegraph.refs": "count",
    "scenegraph.bbox_writes": "count",
    "scenegraph.transform_writes": "count",
    "scenegraph.default_writes": "count",
    "scenegraph.writes_per_node": "ratio",
    "renderer.paint_ms": "ms",
    "renderer.dump_ms": "ms",
    "renderer.svg_bytes": "bytes",
    "renderer.dump_bytes": "bytes",
    "errors.diagnostics": "count",
    **{f"errors.reject_stage.{s}": "count" for s in stages.REJECT_STAGES},
    "workload.unchanged_share": "share",
    "trace.remainder_ms": "ms",
    "trace.overhead_ms": "ms",
}


def load_bluefish():
    """Import a fresh copy of bluefish from this checkout's src/."""
    for name in [m for m in sys.modules if m == "bluefish" or m.startswith("bluefish.")]:
        del sys.modules[name]
    bf = importlib.import_module("bluefish")
    if Path(bf.__file__).resolve().parent != SRC / "bluefish":
        raise ImportError(f"bluefish imported from {bf.__file__}, not from {SRC}")
    return bf


def answer(bf, data: bytes, dumps: bool):
    """One request: compile, then paint and (if the workload dumps) dump."""
    scene, diagnostics = bf.compile_source(data)
    svg = dump = None
    if scene is not None:
        svg = bf.paint(scene)
        if dumps:
            dump = bf.dump_scene(scene)
    return scene, diagnostics, svg, dump


def setup(workload, seed: int):
    """Import plus one warm-up request, SETUP_REPS times; returns the module and the median."""
    warm = workload.warmup(seed)
    times = []
    bf = None
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        bf = load_bluefish()
        answer(bf, warm.data, workload.dumps)
        times.append(time.perf_counter() - started)
    return bf, statistics.median(times)


def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    """A time divided by the run's slowdown, a rate multiplied; other values as they are."""
    if unit in ("s", "ms"):
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """Closed-loop client state: samples, failures, and what was sent."""

    def __init__(self, bf, oracles, workload):
        self.bf = bf
        self.oracles = oracles
        self.workload = workload
        self.accepted_ms: list[float] = []
        self.rejected_ms: list[float] = []
        self.nodes = 0
        self.svg_bytes = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.sizes: list[int] = []
        self.depths: list[int] = []
        self.unchanged: list[float] = []
        self.calibration: list[float] = []

    def request(self, doc):
        """Send one document, time it, check it; returns what the check saw."""
        self.attempted += 1
        self.sizes.append(doc.nodes)
        self.depths.append(doc.depth)
        if doc.unchanged is not None:
            self.unchanged.append(doc.unchanged)
        bf = self.bf
        # the client's own garbage (generator, checks) is not the program's
        gc.collect()
        self.calibration.append(calibrate.sample())
        try:
            started = time.perf_counter()
            scene, diagnostics, svg, dump = answer(bf, doc.data, self.workload.dumps)
            elapsed = (time.perf_counter() - started) * 1000.0
            if doc.planted is not None:
                problem = verify.check_rejection(doc, scene, diagnostics)
                if problem is None:
                    self.rejected_ms.append(elapsed)
            elif scene is None:
                codes = [d.code for d in diagnostics if d.severity == "error"]
                problem = f"document was rejected with {codes}"
            else:
                if dump is None:
                    dump = bf.dump_scene(scene)
                problem = verify.check_scene(self.oracles, doc, len(scene.nodes), svg, dump)
                if problem is None:
                    self.accepted_ms.append(elapsed)
                    self.nodes += len(scene.nodes)
                    self.svg_bytes += len(svg)
        except Exception:
            problem = traceback.format_exc(limit=3)
            scene = diagnostics = dump = None
        if problem is not None:
            self.failures.append(f"document {self.attempted - 1}: {problem}")
        return scene, diagnostics, dump

    def distribution(self) -> str:
        def q(values):
            if not values:
                return "-"
            cut = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            return f"min {min(values):g} q1 {cut[0]:g} median {cut[1]:g} q3 {cut[2]:g} max {max(values):g}"
        return (f"  nodes: {q(self.sizes)}\n  depth: {q(self.depths)}\n"
                f"  unchanged_share: {q([round(u, 4) for u in self.unchanged])}")


def measure(bf, oracles, workload, seed: int, seconds: float, setup_s: float):
    run = Run(bf, oracles, workload)
    stream = workload.stream(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run.request(next(stream))
    busy_s = (sum(run.accepted_ms) + sum(run.rejected_ms)) / 1000.0
    tail_ms, tail_pct = tail(run.accepted_ms) if run.accepted_ms else (float("nan"), 0.0)
    raw = {
        "setup_s": setup_s,
        "compile_p50_ms": statistics.median(run.accepted_ms) if run.accepted_ms else float("nan"),
        "compile_tail_ms": tail_ms,
        "docs_per_s": (len(run.accepted_ms) + len(run.rejected_ms)) / busy_s if busy_s else 0.0,
        "nodes_per_s": run.nodes / (sum(run.accepted_ms) / 1000.0) if run.accepted_ms else 0.0,
        "reject_p50_ms": statistics.median(run.rejected_ms) if run.rejected_ms else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "svg_bytes_per_node": run.svg_bytes / run.nodes if run.nodes else 0.0,
    }
    slowdown = calibrate.slowdown(run.calibration)
    metrics = {name: at_reference_speed(value, END_TO_END_UNITS[name], slowdown)
               for name, value in raw.items()}
    print(f"{workload.name} seed {seed}: {run.attempted} documents in {seconds:g} s, "
          f"{len(run.accepted_ms)} compiled, {len(run.rejected_ms)} rejected as planted, "
          f"{len(run.failures)} failed")
    print(run.distribution())
    print(f"  machine slowdown {slowdown:.4f} (median of {len(run.calibration)} calibration "
          f"passes); times and rates are at reference speed, raw values in brackets")
    notes = {
        "setup_s": f"median of {SETUP_REPS} imports + warm-up requests",
        "compile_p50_ms": f"median of {len(run.accepted_ms)} documents",
        "compile_tail_ms": f"p{tail_pct:.1f} of {len(run.accepted_ms)} documents",
        "reject_p50_ms": f"median of {len(run.rejected_ms)} planted-error documents",
    }
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        shown = f" [{raw[name]:.4f}]" if value != raw[name] else ""
        print(f"  {name:<20} {value:>14.4f} {END_TO_END_UNITS[name]}{shown}{note}")
    failed_share = len(run.failures) / run.attempted
    print(f"  {'failed_share':<20} {failed_share:>14.4f} share  ({len(run.failures)} of {run.attempted})")
    return run, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_traced(bf, oracles, workload, seed: int, seconds: float):
    """Untraced and traced answer of each document, side by side."""
    run = Run(bf, oracles, workload)
    tracer = stages.Tracer()
    stream = workload.stream(seed)
    per_doc: dict[str, list[float]] = {}
    reject_stage = dict.fromkeys(stages.REJECT_STAGES, 0)
    deadline = time.perf_counter() + seconds

    def add(name: str, value: float) -> None:
        per_doc.setdefault(name, []).append(value)

    while time.perf_counter() < deadline:
        doc = next(stream)
        index = run.attempted
        failures_before = len(run.failures)
        scene, diagnostics, dump = run.request(doc)
        if len(run.failures) > failures_before:
            continue
        untraced_ms = (run.rejected_ms if doc.planted else run.accepted_ms)[-1]
        first_span = len(tracer.spans)
        try:
            replay = tracer.replay(bf, doc.data, index, workload.dumps)
        except Exception:
            run.failures.append(f"document {index}: replay raised\n{traceback.format_exc(limit=3)}")
            continue
        doc_span = tracer.spans[replay.span]
        add("trace.overhead_ms", (doc_span.end - doc_span.start) * 1000.0 - untraced_ms)
        for span in tracer.spans[first_span + 1:]:
            add(stages.STAGE_METRICS[span.name], (span.end - span.start) * 1000.0)
        if replay.tree is not None:
            elements, depth = stages.tree_shape(replay.tree)
            add("docformat.elements", elements)
            add("docformat.max_depth", depth)
        if doc.planted is not None:
            if replay.scene is not None or replay.rejected_at is None:
                run.failures.append(f"document {index}: replay compiled a planted {doc.planted}")
                continue
            reject_stage[replay.rejected_at] += 1
            add("errors.diagnostics", sum(d.severity == "error" for d in diagnostics))
            continue
        replay_dump = replay.dump if replay.dump is not None else bf.dump_scene(replay.scene)
        if replay_dump != dump:
            run.failures.append(f"document {index}: replayed dump differs from compile_source's")
            continue
        if not workload.dumps:
            add("renderer.dump_ms", 0.0)
        add("relations.layout_calls", replay.layout_calls)
        for name, value in stages.write_counts(replay.graph).items():
            add(name, value)
        add("renderer.svg_bytes", len(replay.svg))
        add("renderer.dump_bytes", len(replay.dump) if replay.dump is not None else 0)

    self_ms = tracer.self_times()
    per_doc["trace.remainder_ms"] = [self_ms[i] for i, s in enumerate(tracer.spans) if s.parent is None]
    per_doc["workload.unchanged_share"] = run.unchanged
    metrics = {name: statistics.median(per_doc[name]) if per_doc.get(name) else 0.0
               for name in PER_LAYER_UNITS}
    metrics.update({f"errors.reject_stage.{s}": n for s, n in reject_stage.items()})
    slowdown = calibrate.slowdown(run.calibration)
    metrics = {name: at_reference_speed(value, PER_LAYER_UNITS[name], slowdown)
               for name, value in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report_traced(workload, seed, run, metrics, len(tracer.spans), spans_path)
    return run, {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()}


def report_traced(workload, seed, run, metrics, span_count, spans_path) -> None:
    print(f"{workload.name} seed {seed} (traced): {run.attempted} documents, "
          f"{len(run.failures)} failed, {span_count} spans written to "
          f"{spans_path.relative_to(REPO)}")
    print(run.distribution())
    print(f"  machine slowdown {calibrate.slowdown(run.calibration):.4f}; times are at reference speed")
    print("  per-document medians; stage times are self times (stages have no child spans)")
    module = None
    for name in PER_LAYER_UNITS:
        head = name.split(".")[0]
        if head != module:
            module = head
            print(f"  [{module}]")
        print(f"    {name:<36} {metrics[name]:>14.4f} {PER_LAYER_UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "bluefish" / "__init__.py").is_file():
        print(f"bluefish sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        oracles = verify.load_oracles(REPO)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bf, setup_s = setup(workload, args.seed)
    if args.trace:
        run, metrics = measure_traced(bf, oracles, workload, args.seed, args.seconds)
    else:
        run, metrics = measure(bf, oracles, workload, args.seed, args.seconds, setup_s)
    for failure in run.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
