"""Outside-in tracing: wrap the public functions of each layer.

Nothing inside ``src/`` is instrumented. :meth:`Tracer.install` replaces each
probed function (or method) with a timing wrapper, both on its defining
module or class and in every loaded ``repro`` module that imported it
by name, and :meth:`Tracer.uninstall` puts the originals back.

Per probe name the tracer keeps the call count, the total time and the
self time. Self time is total time minus the time spent in nested
wrapped calls on the same thread. Each thread keeps its own aggregates,
without a lock; a snapshot merges them. The intervals of outermost spans are
kept as well, so that the share of wall time no probe covers can be
computed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Probe:
    """One wrapped function.

    ``target`` is ``"module:qualname"``. ``scope`` names the one module
    whose reference to the function is replaced, so that only calls
    from there are timed and other callers reach the original, at no
    cost; by default every reference is replaced. ``samples`` keeps every
    duration, for percentiles. ``measure`` maps a result to a number
    that is summed in :attr:`SpanStats.measured`.
    """

    target: str
    name: str
    scope: str | None = None
    samples: bool = False
    measure: object = None


def _instructions(result) -> int:
    return result.instructions


def _hit(result) -> int:
    return int(result is not None)


#: The probed public functions, one or more per layer.
PROBES = (
    Probe("repro.workloads.generator:generate", "workloads.generate"),
    Probe(
        "repro.evaluation.experiment:run_profiling_experiment",
        "evaluation.row",
        samples=True,
    ),
    Probe("repro.core.optimizer:ImprovedScheduler.optimize_region", "core.optimizer"),
    Probe("repro.core.dependence:build_dependence_graph", "core.dependence"),
    Probe("repro.core.list_scheduler:ListScheduler.schedule_region", "core.list"),
    Probe("repro.core.block_scheduler:BlockScheduler.schedule_body", "core.schedule"),
    Probe("repro.core.superblock:SuperblockScheduler.prepare", "core.superblock"),
    Probe("repro.pipeline.simulator:BlockSimulator.time_block", "pipeline.block_cycles"),
    Probe(
        "repro.pipeline.timing:timed_run",
        "pipeline.timed_run",
        measure=_instructions,
    ),
    # The stall model is timed only inside trace-driven timing: the
    # schedulers and the optimizer call it per candidate, where a span
    # per call would cost more than the call.
    Probe("repro.pipeline.stalls:issue", "pipeline.issue", scope="repro.pipeline.timing"),
    Probe("repro.pipeline.tables:attach_tables", "pipeline.attach_tables"),
    Probe("repro.isa.simulator:Simulator.run", "isa.run"),
    Probe("repro.isa.encode:encode_words", "isa.encode"),
    Probe("repro.isa.decode:decode_bytes", "isa.decode"),
    Probe("repro.eel.cfg:build_cfg", "eel.cfg"),
    Probe("repro.eel.editor:Editor.build", "eel.layout"),
    Probe("repro.qpt.profiling:SlowProfiler.instrument", "qpt.instrument"),
    Probe("repro.robust.guard:GuardedBlockScheduler.__call__", "robust.guard"),
    Probe("repro.analyze.static_verify:static_verify_schedule", "verify.static"),
    Probe("repro.analyze.sym_verify:symbolic_verify_schedule", "verify.symbolic"),
    Probe("repro.core.verify:verify_schedule", "verify.dynamic"),
    Probe(
        "repro.parallel.cache:ScheduleCache.lookup",
        "parallel.cache",
        measure=_hit,
    ),
    Probe("repro.parallel.executor:ParallelScheduler.prepare", "parallel.prepare"),
    Probe("repro.serve.service:SchedulingService.handle_batch", "serve.handle"),
    Probe("repro.spawn.library:load_machine", "spawn.load_machine"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    measured: float = 0.0
    durations: list[float] = field(default_factory=list)


class _ThreadState(threading.local):
    """One thread's spans. Each thread aggregates into its own dicts, so
    a probed call takes no lock; :meth:`Tracer.snapshot` merges them."""

    def __init__(self, register) -> None:
        #: one ``[nested time, nested overhead]`` frame per open span.
        self.stack: list[list[float]] = []
        self.stats: dict[str, SpanStats] = {}
        #: (start, end) of every outermost span of this thread.
        self.roots: list[tuple[float, float]] = []
        # The registry keeps this thread's aggregates, not the
        # thread-local object, through which a reader sees its own.
        register(self.stats, self.roots)


class Tracer:
    """Aggregates spans of the installed probes; see the module doc.

    The wrapper's own bookkeeping is charged to no span: a nested call's
    overhead (the time between entering the wrapper and calling the
    function, and between its return and leaving the wrapper) is
    subtracted from every enclosing span's total and self time, so that
    a hot probe inside a span does not inflate it. What remains of the
    overhead is reported end to end (``trace.overhead_share``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (stats, roots) of every thread that made a probed call.
        self._threads: list[tuple[dict, list]] = []
        self._local = _ThreadState(self._register)
        self._restore: list[tuple[object, str, object]] = []

    def _register(self, stats: dict, roots: list) -> None:
        with self._lock:
            self._threads.append((stats, roots))

    def wrap(self, fn, probe: Probe):
        local = self._local
        clock = time.perf_counter
        name = probe.name
        samples = probe.samples
        measure = probe.measure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            stack = local.stack
            frame = [0.0, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                span = local.stats.get(name)
                if span is None:
                    span = local.stats[name] = SpanStats()
                span.calls += 1
                span.total += elapsed - frame[1]
                span.self_time += elapsed - frame[0]
                if samples:
                    span.durations.append(elapsed - frame[1])
                if measure is not None and result is not None:
                    span.measured += measure(result)
                if stack:
                    left = clock()
                    parent = stack[-1]
                    parent[0] += left - entered
                    parent[1] += (left - entered) - (elapsed - frame[1])
                else:
                    local.roots.append((start, end))

        return wrapper

    def install(self, probes=PROBES) -> None:
        for probe in probes:
            module_name, qualname = probe.target.split(":")
            module = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            owner = module
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(module, attr)
            wrapper = self.wrap(original, probe)
            if probe.scope is not None:
                scope = importlib.import_module(probe.scope)
                assert getattr(scope, attr) is original, probe
                self._replace(scope, attr, original, wrapper)
                continue
            self._replace(owner, attr, original, wrapper)
            if not path:
                # Modules that did ``from x import f`` hold their own
                # reference to the function.
                for other in list(sys.modules.values()):
                    if other is module or not getattr(other, "__name__", "").startswith(
                        "repro"
                    ):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._replace(other, key, original, wrapper)

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict[str, SpanStats]:
        """The per-name aggregates so far, merged over all threads."""
        with self._lock:
            threads = list(self._threads)
        merged: dict[str, SpanStats] = {}
        for stats, _ in threads:
            for name, s in list(stats.items()):
                m = merged.setdefault(name, SpanStats())
                m.calls += s.calls
                m.total += s.total
                m.self_time += s.self_time
                m.measured += s.measured
                m.durations.extend(s.durations)
        return merged

    def covered_seconds(self, start: float, end: float) -> float:
        """Wall time within ``[start, end]`` covered by at least one
        outermost span (spans of concurrent threads are merged)."""
        with self._lock:
            threads = list(self._threads)
        intervals = sorted(
            (max(a, start), min(b, end))
            for _, roots in threads
            for a, b in list(roots)
            if b > start and a < end
        )
        covered = 0.0
        cursor = start
        for a, b in intervals:
            if b <= cursor:
                continue
            covered += b - max(a, cursor)
            cursor = b
        return covered


def diff(after: dict[str, SpanStats], before: dict[str, SpanStats]) -> dict[str, SpanStats]:
    """Per-name aggregates accumulated between two snapshots.

    Durations are cut by position, which is exact for probes called from
    one thread (``evaluation.row``, the only probe that keeps them)."""
    out = {}
    for name, s in after.items():
        b = before.get(name, SpanStats())
        out[name] = SpanStats(
            s.calls - b.calls,
            s.total - b.total,
            s.self_time - b.self_time,
            s.measured - b.measured,
            s.durations[len(b.durations):],
        )
    return out

