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
* a **result memo** of whole answers, keyed by the whole request
  (kind, machine, payload digest, policy digest, model digest and the
  ``safe``/``superblock``/``return_executable`` options): the schedule
  is a pure function of those, so an exact repeat is answered from the
  memo, outside the build lock, without decoding its image;
* a **cross-request schedule cache** per (machine, policy) context —
  the verified tier: entries proven by a ``safe``/``verify`` job are
  upgraded in place and replayed by later requests without re-proving.

Admission control is two-layered. The cheap layer bounds the queue:
batches above :attr:`ServiceConfig.max_batch_jobs` jobs or arriving
while :attr:`ServiceConfig.max_pending` batches are already waiting
are refused outright (``serve.rejected``) — a refused request costs
microseconds, an admitted one costs a build. A batch whose every job
the memo answers takes no pending slot. The deep layer is the
existing :class:`~repro.robust.guard.GuardBudget`: guarded jobs carry
the service's budget, so oversized blocks and deadline overruns
degrade to the original code instead of wedging the daemon.

Each build runs under the service recorder (span ``serve.request``);
every answered request, memo hit or build, lands in a bounded latency
ring; :meth:`SchedulingService.stats`
summarizes throughput and p50/p95/p99 latency, and
:meth:`SchedulingService.flush_ledger` appends one ``kind="serve"``
record the benchmarks gate (``qpt benchmarks gate``) tracks alongside
every other measured run.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field

from ..core.dependence import SchedulingPolicy
from ..eel.executable import Executable
from ..errors import ReproError
from ..obs.ledger import DEFAULT_LEDGER_NAME, append_record, make_record
from ..obs.recorder import MetricsRecorder, Recorder
from ..obs.report import (
    SERVE_BATCHES,
    SERVE_ERRORS,
    SERVE_MEMO_HITS,
    SERVE_REJECTED,
    SERVE_REQUESTS,
)
from ..parallel.cache import ScheduleCache
from ..parallel.executor import ParallelOptions, make_transform
from ..parallel.fingerprint import model_digest, policy_digest
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

#: Answers kept by the result memo; the least recently used goes first.
#: An entry is one answer without its ``id`` and ``wall_ms``: a digest
#: and a few counters, plus the base64 image (4/3 of its bytes) when the
#: request set ``return_executable``. The worst case is therefore this
#: many of the largest images served, times 4/3.
RESULT_MEMO_ENTRIES = 1024

#: Entries kept by each (machine, filling) pair's shared schedule
#: cache; the least recently used goes first.
SCHEDULE_CACHE_ENTRIES = 65536


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _policy(job: ServeJob) -> SchedulingPolicy:
    return SchedulingPolicy(fill_delay_slots=job.fill_delay_slots)


def _unshared(result: dict) -> dict:
    """A copy of ``result`` that shares no mutable part with it, as a
    memo answer reports it: no region looked up."""
    copy = {**result, "stats": {**result["stats"], "cache_hits": 0, "cache_misses": 0}}
    if "quarantine" in result:
        copy["quarantine"] = list(result["quarantine"])
    return copy


def _payload_digest(job: ServeJob) -> str:
    """sha256 of the job's image, or of its workload spec's canonical
    JSON under a prefix of its own; nothing is generated."""
    if job.executable is not None:
        return "rxe:" + hashlib.sha256(job.executable).hexdigest()
    spec = json.dumps(job.workload, sort_keys=True).encode()
    return "spec:" + hashlib.sha256(spec).hexdigest()


class SchedulingService:
    """See the module docstring. Thread-safe: the HTTP daemon calls
    :meth:`handle_batch` from many handler threads at once."""

    def __init__(
        self, config: ServiceConfig | None = None, recorder: Recorder | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.recorder = recorder if recorder is not None else MetricsRecorder()
        self._models: dict[str, object] = {}
        #: machine -> ``model_digest`` of its hot model, taken once.
        self._model_digests: dict[str, str] = {}
        self._caches: dict[tuple[str, bool], ScheduleCache] = {}
        #: request key -> stored answer, least recently used first.
        self._memo: OrderedDict[tuple, dict] = OrderedDict()
        #: one build at a time: builds share the worker pool and the
        #: schedule caches, and a single in-flight build keeps latency
        #: attribution exact. Admission bounds the queue behind it.
        #: Memo hits never take it.
        self._build_lock = threading.Lock()
        #: guards every total below, the memo, the latency ring and
        #: every ``serve.*`` count.
        self._state_lock = threading.Lock()
        self._pending = 0
        self._latencies_ms: deque[float] = deque(maxlen=LATENCY_RING)
        #: the ring's values, kept sorted in step with it.
        self._latencies_sorted: list[float] = []
        self._started = time.monotonic()
        self.requests = 0
        self.batches = 0
        self.rejected = 0
        self.errors = 0
        self.memo_hits = 0
        self.builds = 0

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
        digest = model_digest(model)
        with self._state_lock:
            if machine not in self._models:
                self._models[machine] = model
                self._model_digests[machine] = digest
            return self._models[machine]

    def cache_for(self, machine: str, fill_delay_slots: bool) -> ScheduleCache:
        """The shared cross-request cache for one (machine, policy)."""
        key = (machine, fill_delay_slots)
        with self._state_lock:
            cache = self._caches.get(key)
            if cache is None:
                cache = ScheduleCache(
                    max_entries=SCHEDULE_CACHE_ENTRIES, recorder=self.recorder
                )
                self._caches[key] = cache
            return cache

    # -- the batch entry point ---------------------------------------------------

    def handle_batch(self, payload) -> dict:
        """Decode, admit, and run one request envelope; never raises for
        a per-job failure (those come back as ``ok: false`` results).

        A batch whose every job is an exact repeat is answered from the
        result memo, with no pending slot and without the build lock;
        any other batch is admitted and built, each job looked up again
        under the lock so that equal requests arriving together build
        once.

        :class:`ProtocolError` (malformed request) and
        :class:`AdmissionRefused` (overload) do raise — the daemon maps
        them to 400 and 429 respectively.
        """
        batch = decode_batch(payload)
        self._refuse_oversized(batch)
        recalled = []
        for job in batch.jobs:
            start = time.perf_counter()
            machine = job.machine or self.config.machine
            entry = self._recall(self._memo_key(job, machine, _payload_digest(job)))
            if entry is None:
                break
            recalled.append((job, machine, entry, start))
        if len(recalled) == len(batch.jobs):
            results = [self._replay(*hit) for hit in recalled]
        else:
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

    def _refuse(self, batch, reason: str) -> None:
        """Count ``batch`` as refused and raise (under ``_state_lock``)."""
        self.rejected += len(batch.jobs)
        self.recorder.count(SERVE_REJECTED, len(batch.jobs))
        raise AdmissionRefused(reason)

    def _refuse_oversized(self, batch) -> None:
        limit = self.config.max_batch_jobs
        if len(batch.jobs) > limit:
            with self._state_lock:
                self._refuse(
                    batch,
                    f"batch of {len(batch.jobs)} jobs exceeds max_batch_jobs={limit}",
                )

    def _admit(self, batch) -> None:
        config = self.config
        with self._state_lock:
            if self._pending >= config.max_pending:
                self._refuse(
                    batch,
                    f"{self._pending} batches already queued "
                    f"(max_pending={config.max_pending}); retry later",
                )
            self._pending += 1

    # -- the result memo ---------------------------------------------------------

    def _memo_key(self, job: ServeJob, machine: str, payload: str) -> tuple | None:
        """The whole request as a memo key, ``id`` and ``jobs`` left out
        (bytes, verdicts and quarantine are equal at every ``jobs``).
        None while ``machine`` has no hot model: a lookup never builds
        one, and no answer for it can be stored yet."""
        digest = self._model_digests.get(machine)
        if digest is None:
            return None
        return (
            job.kind,
            machine,
            payload,
            policy_digest(_policy(job)),
            digest,
            job.safe,
            job.superblock,
            job.return_executable,
        )

    def _recall(self, key: tuple | None) -> dict | None:
        if key is None:
            return None
        with self._state_lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
            return entry

    def _remember(self, key: tuple, result: dict) -> None:
        with self._state_lock:
            self._memo[key] = result
            self._memo.move_to_end(key)
            while len(self._memo) > RESULT_MEMO_ENTRIES:
                self._memo.popitem(last=False)

    def _replay(self, job: ServeJob, machine: str, entry: dict, start: float) -> dict:
        """The stored answer for this request, with its ``id`` and its
        own ``wall_ms``."""
        result = _unshared(entry)
        wall_ms = (time.perf_counter() - start) * 1e3
        with self._state_lock:
            self.requests += 1
            self.memo_hits += 1
            self._record_latency(wall_ms)
            self.recorder.count(SERVE_REQUESTS)
            self.recorder.count(SERVE_MEMO_HITS)
        return {
            "id": job.id,
            "kind": job.kind,
            "machine": machine,
            "ok": True,
            "wall_ms": round(wall_ms, 3),
            "memo": True,
            **result,
        }

    def _record_latency(self, wall_ms: float) -> None:
        """Append to the ring and its sorted view (under ``_state_lock``)."""
        ring, ordered = self._latencies_ms, self._latencies_sorted
        if len(ring) == ring.maxlen:
            del ordered[bisect.bisect_left(ordered, ring[0])]
        ring.append(wall_ms)
        bisect.insort(ordered, wall_ms)

    # -- one job -----------------------------------------------------------------

    def _run_job(self, job: ServeJob) -> dict:
        start = time.perf_counter()
        machine = job.machine or self.config.machine
        payload = _payload_digest(job)
        entry = self._recall(self._memo_key(job, machine, payload))
        if entry is not None:
            return self._replay(job, machine, entry, start)
        base = {"id": job.id, "kind": job.kind, "machine": machine}
        try:
            with self.recorder.span("serve.request", kind=job.kind):
                result = self._execute(job, machine)
        except ReproError as exc:
            with self._state_lock:
                self.errors += 1
                self.recorder.count(SERVE_ERRORS)
            return {**base, "ok": False, "error": str(exc)}
        # A quarantine may stem from a wall-clock budget; replaying it
        # would make one slow build's fallback permanent.
        if not result["stats"].get("quarantined"):
            self._remember(self._memo_key(job, machine, payload), _unshared(result))
        wall_ms = (time.perf_counter() - start) * 1e3
        with self._state_lock:
            self.requests += 1
            self.builds += 1
            self._record_latency(wall_ms)
            self.recorder.count(SERVE_REQUESTS)
        return {
            **base,
            "ok": True,
            "wall_ms": round(wall_ms, 3),
            "memo": False,
            **result,
        }

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
        policy = _policy(job)
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
            latencies = self._latencies_sorted
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
            summary["memo"] = {
                "entries": len(self._memo),
                "hits": self.memo_hits,
                "builds": self.builds,
            }
            caches = sorted(self._caches.items())
        summary["caches"] = {
            f"{machine}/{'delay' if fill else 'nodelay'}": {
                "entries": len(cache),
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hit_rate, 4),
            }
            for (machine, fill), cache in caches
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
                "memo_hits": stats["memo"]["hits"],
                "throughput_rps": stats["throughput_rps"],
                **{
                    f"latency_{name}_ms": value
                    for name, value in stats.get("latency_ms", {}).items()
                },
            },
        )
        append_record(path or self.config.ledger_path, record)
        return record
