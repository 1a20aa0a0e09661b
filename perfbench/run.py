"""Repository benchmark runner.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tables --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures once untraced, then wraps the public functions
of every layer (see ``tracer.py``) and runs the same operations again
on a fresh set-up, and reports the per-layer metrics, the share of wall
time no layer covers, and the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The run works in ``.perfbench_tmp/`` under the checkout (table cache,
images, serve ledger) and removes it on exit. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the path above)
from tracer import SpanStats, Tracer, diff  # noqa: E402

#: Set-ups per untraced run, before and after the measurement;
#: ``setup_s`` reports their median. Splitting them keeps one slow
#: stretch of a shared host from deciding the median.
SETUP_BEFORE = 3
SETUP_AFTER = 2

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("workloads.generate.s", "s"),
    ("workloads.generate.calls", "count"),
    ("evaluation.row.p50_s", "s"),
    ("core.optimizer.s", "s"),
    ("core.optimizer.regions", "count"),
    ("pipeline.block_cycles.s", "s"),
    ("pipeline.block_cycles.calls", "count"),
    ("pipeline.timed_run.s", "s"),
    ("pipeline.timed_run.instructions", "count"),
    ("pipeline.issue.s", "s"),
    ("isa.run.self_s", "s"),
    ("pipeline.table_hit_ratio", "ratio"),
    ("pipeline.table_fallbacks", "count"),
    ("core.dependence.s", "s"),
    ("core.list.s", "s"),
    ("core.schedule.s", "s"),
    ("core.schedule.blocks", "count"),
    ("verify.static.s", "s"),
    ("verify.symbolic.s", "s"),
    ("verify.dynamic.s", "s"),
    ("verify.proven_ratio", "ratio"),
    ("robust.guard.self_s", "s"),
    ("robust.guard.fallbacks", "count"),
    ("core.superblock.s", "s"),
    ("core.superblock.formed", "count"),
    ("qpt.instrument.self_s", "s"),
    ("eel.cfg.s", "s"),
    ("eel.layout.self_s", "s"),
    ("isa.encode.s", "s"),
    ("isa.decode.s", "s"),
    ("parallel.cache.hit_ratio", "ratio"),
    ("parallel.cache.lookups", "count"),
    ("parallel.prepare.s", "s"),
    ("parallel.pool.spawns", "count"),
    ("parallel.pool.reuses", "count"),
    ("serve.handle.s", "s"),
    ("serve.wait_ms", "ms"),
    ("serve.rejected", "count"),
    ("spawn.load_machine.s", "s"),
    ("pipeline.attach_tables.s", "s"),
    ("unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.window_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest reaped
    child (serve-mixed's pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workloads.import_fresh(workload.entry_modules)
    workload.setup()
    return time.perf_counter() - start


def run_untraced(workload, seconds: float):
    setups = []
    for _ in range(SETUP_BEFORE - 1):
        setups.append(timed_setup(workload))
        workload.teardown()
    setups.append(timed_setup(workload))
    try:
        m = workload.measure(seconds)
    finally:
        workload.teardown()
    for _ in range(SETUP_AFTER):
        setups.append(timed_setup(workload))
        workload.teardown()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **workloads.op_metrics(m),
    }
    return [m], metrics, workload.report(m)


def run_traced(workload, seconds: float):
    workloads.import_fresh(workload.entry_modules)
    workload.setup()
    try:
        plain = workload.measure(seconds / 2)
    finally:
        workload.teardown()
    tracer = Tracer()
    tracer.install()
    try:
        before = tracer.snapshot()
        workload.setup()
        try:
            window_start = tracer.snapshot()
            traced = workload.measure(seconds, limit=len(plain.ops), traced=True)
            window = diff(tracer.snapshot(), window_start)
            whole = diff(tracer.snapshot(), before)
            counters = workload.counters()
            pool = workload.pool_delta()
        finally:
            workload.teardown()
    finally:
        tracer.uninstall()
    metrics = layer_metrics(window, whole, counters, pool, plain, traced, tracer)
    spans = [
        (f"span {name} {field}", value, unit)
        for name, span in sorted(window.items())
        for field, value, unit in (
            ("calls", span.calls, "count"),
            ("total", span.total, "s"),
            ("self", span.self_time, "s"),
        )
    ]
    return [plain, traced], metrics, workload.report(traced) + spans


def layer_metrics(window, whole, counters, pool, plain, traced, tracer) -> dict:
    def span(name: str) -> SpanStats:
        return window.get(name, SpanStats())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    table_hits = counters.get("table_hits", 0)
    table_fallbacks = counters.get("table_fallbacks", 0)
    checked = counters.get("analyze_static_pass", 0) + counters.get(
        "analyze_static_escalated", 0
    )
    proven = counters.get("analyze_static_pass", 0) + counters.get(
        "analyze_symbolic_pass", 0
    )
    rows = span("evaluation.row").durations
    waits = [
        op.latency_s * 1e3 - op.server_ms for op in traced.ops if op.server_ms is not None
    ]
    lookups = span("parallel.cache")
    same = len(traced.ops)
    plain_s = sum(op.latency_s for op in plain.ops[:same])
    traced_s = sum(op.latency_s for op in traced.ops)
    covered = tracer.covered_seconds(traced.start, traced.end)
    metrics = {
        "workloads.generate.s": span("workloads.generate").total,
        "workloads.generate.calls": span("workloads.generate").calls,
        "evaluation.row.p50_s": statistics.median(rows) if rows else 0.0,
        "core.optimizer.s": span("core.optimizer").total,
        "core.optimizer.regions": span("core.optimizer").calls,
        "pipeline.block_cycles.s": span("pipeline.block_cycles").total,
        "pipeline.block_cycles.calls": span("pipeline.block_cycles").calls,
        "pipeline.timed_run.s": span("pipeline.timed_run").total,
        "pipeline.timed_run.instructions": span("pipeline.timed_run").measured,
        "pipeline.issue.s": span("pipeline.issue").total,
        "isa.run.self_s": span("isa.run").self_time,
        "pipeline.table_hit_ratio": ratio(table_hits, table_hits + table_fallbacks),
        "pipeline.table_fallbacks": table_fallbacks,
        "core.dependence.s": span("core.dependence").total,
        "core.list.s": span("core.list").total,
        "core.schedule.s": span("core.schedule").total,
        "core.schedule.blocks": span("core.schedule").calls,
        "verify.static.s": span("verify.static").total,
        "verify.symbolic.s": span("verify.symbolic").total,
        "verify.dynamic.s": span("verify.dynamic").total,
        "verify.proven_ratio": ratio(proven, checked),
        "robust.guard.self_s": span("robust.guard").self_time,
        "robust.guard.fallbacks": counters.get("guard_fallbacks", 0),
        "core.superblock.s": span("core.superblock").total,
        "core.superblock.formed": counters.get("superblocks_formed", 0),
        "qpt.instrument.self_s": span("qpt.instrument").self_time,
        "eel.cfg.s": span("eel.cfg").total,
        "eel.layout.self_s": span("eel.layout").self_time,
        "isa.encode.s": span("isa.encode").total,
        "isa.decode.s": span("isa.decode").total,
        "parallel.cache.hit_ratio": ratio(lookups.measured, lookups.calls),
        "parallel.cache.lookups": lookups.calls,
        "parallel.prepare.s": span("parallel.prepare").total,
        "parallel.pool.spawns": pool["spawns"],
        "parallel.pool.reuses": pool["reuses"],
        "serve.handle.s": span("serve.handle").total,
        "serve.wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.rejected": counters.get("serve_rejected", 0),
        # Set-up layers: traced set-up plus the measured window.
        "spawn.load_machine.s": whole.get("spawn.load_machine", SpanStats()).total,
        "pipeline.attach_tables.s": whole.get("pipeline.attach_tables", SpanStats()).total,
        "unattributed_share": 1.0 - ratio(covered, traced.window_s),
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_share": ratio(traced_s - plain_s, plain_s),
        "trace.window_s": traced.window_s,
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(HERE / "refs.json", encoding="utf-8") as handle:
        refs = json.load(handle)
    scratch = ROOT / ".perfbench_tmp"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Everything the program writes stays inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir), refs)
    try:
        if args.trace:
            runs, metrics, report = run_traced(workload, args.seconds)
            units = dict(PER_LAYER)
        else:
            runs, metrics, report = run_untraced(workload, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    ops = [op for m in runs for op in m.ops]
    failed = sum(op.failed for op in ops)
    mismatches = sum(op.mismatch for op in ops)
    for name, value, unit in report + [("output_mismatches", mismatches, "count")]:
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
