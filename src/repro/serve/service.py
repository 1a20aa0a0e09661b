"""The scheduling service: hot models, shared caches, admission control.

:class:`SchedulingService` is the in-process engine behind ``qpt
serve`` — the daemon (:mod:`repro.serve.daemon`) is a thin HTTP shell
around it, and tests drive it directly. It owns exactly the state the
one-shot CLI rebuilds from scratch on every invocation:

* **machine models**, built once per machine name and kept hot with
  their compiled pipeline tables (the ~100 ms that dominates a cold
  ``qpt instrument`` run);
* the **persistent worker pool** (:mod:`repro.parallel.pool`), spawned
  on first use and reused by every request;
* a **cross-request schedule cache** per (machine, policy) context —
  the verified tier: entries proven by a ``safe``/``verify`` job are
  upgraded in place and replayed by later requests without re-proving.

Admission control is two-layered. The cheap layer bounds the queue:
batches above :attr:`ServiceConfig.max_batch_jobs` jobs or arriving
while :attr:`ServiceConfig.max_pending` batches are already waiting
are refused outright (``serve.rejected``) — a refused request costs
microseconds, an admitted one costs a build. The deep layer is the
existing :class:`~repro.robust.guard.GuardBudget`: guarded jobs carry
the service's budget, so oversized blocks and deadline overruns
degrade to the original code instead of wedging the daemon.

Each request runs under the service recorder (span ``serve.request``)
and lands in a bounded latency ring; :meth:`SchedulingService.stats`
summarizes throughput and p50/p95/p99 latency, and
:meth:`SchedulingService.flush_ledger` appends one ``kind="serve"``
record the benchmarks gate (``qpt benchmarks gate``) tracks alongside
every other measured run.
"""

from __future__ import annotations

import base64
import hashlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..core.dependence import SchedulingPolicy
from ..eel.executable import Executable
from ..errors import ReproError
from ..obs.ledger import DEFAULT_LEDGER_NAME, append_record, make_record
from ..obs.recorder import MetricsRecorder, Recorder
from ..obs.report import (
    SERVE_BATCHES,
    SERVE_ERRORS,
    SERVE_REJECTED,
    SERVE_REQUESTS,
)
from ..parallel.cache import ScheduleCache
from ..parallel.executor import ParallelOptions, make_transform
from ..parallel.pool import pool_stats
from ..qpt.profiling import SlowProfiler
from ..robust.guard import GuardBudget
from ..spawn.library import load_machine
from ..workloads.generator import WorkloadSpec, generate
from .protocol import PROTOCOL_VERSION, ProtocolError, ServeJob, decode_batch


class AdmissionRefused(ReproError):
    """The service declined a batch before doing any work (HTTP 429)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one service instance; the CLI maps flags onto this."""

    #: default worker fan-out for jobs that don't pick their own.
    jobs: int = 4
    #: default machine for jobs that don't name one.
    machine: str = "ultrasparc"
    #: largest admissible batch, in jobs.
    max_batch_jobs: int = 64
    #: batches allowed to *wait* for the build lock before new arrivals
    #: are refused — bounds worst-case queueing delay.
    max_pending: int = 8
    #: resource bounds handed to guarded (``safe``/``verify``) jobs.
    guard_budget: GuardBudget | None = None
    #: entries per shared schedule cache context.
    cache_entries: int = 65536
    #: where :meth:`SchedulingService.flush_ledger` appends.
    ledger_path: str = DEFAULT_LEDGER_NAME

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.max_batch_jobs < 1:
            raise ValueError("max_batch_jobs must be at least 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")


#: Latencies kept for percentile estimates; old requests age out so a
#: long-lived daemon reports current behavior, not its own history.
LATENCY_RING = 4096


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


class SchedulingService:
    """See the module docstring. Thread-safe: the HTTP daemon calls
    :meth:`handle_batch` from many handler threads at once."""

    def __init__(
        self, config: ServiceConfig | None = None, recorder: Recorder | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self._models: dict[str, object] = {}
        self._caches: dict[tuple[str, bool], ScheduleCache] = {}
        #: one build at a time: builds share the worker pool and the
        #: schedule caches, and a single in-flight build keeps latency
        #: attribution exact. Admission bounds the queue behind it.
        self._build_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending = 0
        self._latencies_ms: deque[float] = deque(maxlen=LATENCY_RING)
        self._started = time.monotonic()
        self.requests = 0
        self.batches = 0
        self.rejected = 0
        self.errors = 0

    # -- resources ---------------------------------------------------------------

    def model_for(self, machine: str):
        """The hot model for ``machine``, tables compiled (built once)."""
        with self._state_lock:
            model = self._models.get(machine)
        if model is not None:
            return model
        # Build outside the state lock (it takes ~100 ms); a racing
        # duplicate build is harmless and last-writer-wins. Reading the
        # tables compiles them here rather than in the first request.
        model = load_machine(machine)
        model.tables
        with self._state_lock:
            return self._models.setdefault(machine, model)

    def cache_for(self, machine: str, fill_delay_slots: bool) -> ScheduleCache:
        """The shared cross-request cache for one (machine, policy)."""
        key = (machine, fill_delay_slots)
        with self._state_lock:
            cache = self._caches.get(key)
            if cache is None:
                cache = ScheduleCache(
                    max_entries=self.config.cache_entries, recorder=self.recorder
                )
                self._caches[key] = cache
            return cache

    # -- the batch entry point ---------------------------------------------------

    def handle_batch(self, payload) -> dict:
        """Decode, admit, and run one request envelope; never raises for
        a per-job failure (those come back as ``ok: false`` results).

        :class:`ProtocolError` (malformed request) and
        :class:`AdmissionRefused` (overload) do raise — the daemon maps
        them to 400 and 429 respectively.
        """
        batch = decode_batch(payload)
        self._admit(batch)
        try:
            with self._build_lock:
                results = [self._run_job(job) for job in batch.jobs]
        finally:
            with self._state_lock:
                self._pending -= 1
        with self._state_lock:
            self.batches += 1
        self.recorder.count(SERVE_BATCHES)
        return {
            "version": PROTOCOL_VERSION,
            "results": results,
            "service": self.stats(),
        }

    def _admit(self, batch) -> None:
        config = self.config
        with self._state_lock:
            if len(batch.jobs) > config.max_batch_jobs:
                self.rejected += len(batch.jobs)
                self.recorder.count(SERVE_REJECTED, len(batch.jobs))
                raise AdmissionRefused(
                    f"batch of {len(batch.jobs)} jobs exceeds max_batch_jobs="
                    f"{config.max_batch_jobs}"
                )
            if self._pending >= config.max_pending:
                self.rejected += len(batch.jobs)
                self.recorder.count(SERVE_REJECTED, len(batch.jobs))
                raise AdmissionRefused(
                    f"{self._pending} batches already queued "
                    f"(max_pending={config.max_pending}); retry later"
                )
            self._pending += 1

    # -- one job -----------------------------------------------------------------

    def _run_job(self, job: ServeJob) -> dict:
        start = time.perf_counter()
        machine = job.machine or self.config.machine
        base = {"id": job.id, "kind": job.kind, "machine": machine}
        try:
            with self.recorder.span("serve.request", kind=job.kind):
                result = self._execute(job, machine)
        except ReproError as exc:
            with self._state_lock:
                self.errors += 1
            self.recorder.count(SERVE_ERRORS)
            return {**base, "ok": False, "error": str(exc)}
        wall_ms = (time.perf_counter() - start) * 1e3
        with self._state_lock:
            self.requests += 1
            self._latencies_ms.append(wall_ms)
        self.recorder.count(SERVE_REQUESTS)
        return {**base, "ok": True, "wall_ms": round(wall_ms, 3), **result}

    def _executable_for(self, job: ServeJob) -> Executable:
        if job.executable is not None:
            return Executable.from_bytes(job.executable)
        try:
            spec = WorkloadSpec(**job.workload)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad workload spec: {exc}")
        return generate(spec).executable

    def _execute(self, job: ServeJob, machine: str) -> dict:
        executable = self._executable_for(job)
        model = self.model_for(machine)
        guarded = job.safe or job.kind == "verify"
        policy = SchedulingPolicy(fill_delay_slots=job.fill_delay_slots)
        cache = self.cache_for(machine, job.fill_delay_slots)
        hits0, misses0 = cache.hits, cache.misses
        transform = make_transform(
            model,
            policy,
            self.recorder,
            options=ParallelOptions(jobs=job.jobs or self.config.jobs),
            cache=cache,
            guarded=guarded,
            guard_budget=self.config.guard_budget,
            superblock=job.superblock,
        )
        if job.kind == "schedule":
            # Schedule without adding instrumentation: the bare editor
            # pipeline, so layout/retargeting behave identically to an
            # instrumented build minus the counters.
            from ..eel.editor import Editor

            edited = Editor(executable, recorder=self.recorder).build(transform)
            text = bytes(edited.text_section().data)
            out_exec = edited
        else:
            profiled = SlowProfiler(executable, recorder=self.recorder).instrument(
                transform
            )
            text = bytes(profiled.executable.text_section().data)
            out_exec = profiled.executable
        stats = transform.stats
        result: dict = {
            "text_digest": "sha256:" + hashlib.sha256(text).hexdigest(),
            "stats": {
                "blocks": stats.blocks,
                "original_cycles": stats.original_cycles,
                "scheduled_cycles": stats.scheduled_cycles,
                "cycles_saved": stats.cycles_saved,
                "cache_hits": cache.hits - hits0,
                "cache_misses": cache.misses - misses0,
            },
        }
        if guarded:
            quarantine = transform.quarantine
            result["stats"]["quarantined"] = len(quarantine)
            result["stats"]["fallbacks"] = transform.fallbacks
            if job.kind == "verify":
                result["verified"] = not quarantine
                result["quarantine"] = [str(report) for report in quarantine]
        if job.return_executable:
            result["executable"] = base64.b64encode(out_exec.to_bytes()).decode(
                "ascii"
            )
        return result

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-ready operational summary (the ``/stats`` endpoint)."""
        with self._state_lock:
            latencies = sorted(self._latencies_ms)
            requests = self.requests
            uptime = max(time.monotonic() - self._started, 1e-9)
            summary = {
                "uptime_s": round(uptime, 3),
                "requests": requests,
                "batches": self.batches,
                "rejected": self.rejected,
                "errors": self.errors,
                "pending": self._pending,
                "throughput_rps": round(requests / uptime, 3),
            }
        if latencies:
            summary["latency_ms"] = {
                "p50": round(_percentile(latencies, 0.50), 3),
                "p95": round(_percentile(latencies, 0.95), 3),
                "p99": round(_percentile(latencies, 0.99), 3),
                "max": round(latencies[-1], 3),
            }
        summary["caches"] = {
            f"{machine}/{'delay' if fill else 'nodelay'}": {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
            }
            for (machine, fill), cache in sorted(self._caches.items())
        }
        summary["pool"] = pool_stats()
        return summary

    def flush_ledger(self, path: str | None = None) -> dict:
        """Append one ``kind="serve"`` ledger record summarizing this
        service's lifetime so far; returns the record."""
        stats = self.stats()
        record = make_record(
            "serve",
            run={
                # "benchmark" names the gate series: every serve run of
                # one machine is comparable with every other.
                "benchmark": "serve-daemon",
                "machine": self.config.machine,
                "jobs": self.config.jobs,
            },
            wall_s=stats["uptime_s"],
            metrics=getattr(self.recorder, "metrics", None),
            results={
                "requests": stats["requests"],
                "batches": stats["batches"],
                "rejected": stats["rejected"],
                "errors": stats["errors"],
                "throughput_rps": stats["throughput_rps"],
                **{
                    f"latency_{name}_ms": value
                    for name, value in stats.get("latency_ms", {}).items()
                },
            },
        )
        append_record(path or self.config.ledger_path, record)
        return record
