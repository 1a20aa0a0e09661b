"""Persistent worker pools: spawn once, stay warm, amortize everything.

PR 3's executor built a fresh :class:`~concurrent.futures.ProcessPoolExecutor`
per edit, so every build paid the full fixed cost of parallelism again:
fork the workers, rebuild the machine model from SADL source in each
one, compile its pipeline tables, then throw it all away. On the
bench matrix that overhead exceeded the scheduling work itself —
parallel-cold ran at 0.58× serial.

This module makes the fixed costs *once-per-process-lifetime* instead
of once-per-build:

- **Spawn once.** A module-level :class:`PoolManager` keeps one live
  executor per ``(start method, worker count)``. Builds *lease* it; a
  healthy lease release leaves the workers running for the next build.
- **Hot models.** :func:`worker_model` is an ``lru_cache`` *in the
  worker process*; with a persistent worker, the SADL rebuild happens
  once per digest and every later shard reuses the compiled model.
- **Tables at startup.** Workers compile a model's
  :class:`~repro.pipeline.tables.PipelineTables` when they first see
  it — loaded from the shared disk cache keyed by the model's content
  digest — and keep them for the lease's lifetime and every lease
  after it. Tables change scheduling *cost*, never scheduling
  *results* (the differential battery), so pooled schedules stay
  byte-identical to serial ones.
- **Fork inheritance.** :func:`warm_worker_model` runs in the *parent*
  before a ``fork`` pool spawns, building the worker-side model and
  its tables there; every worker inherits the hot model for free and
  the per-worker rebuild disappears entirely.

Supervision is unchanged. A lease satisfies the
:class:`~repro.robust.supervise.ShardSupervisor` pool protocol
(``submit`` / ``shutdown`` / a ``_processes`` table for
``_kill_pool``): a healthy ``shutdown(wait=True)`` is a no-op that
keeps the pool warm, while the ``cancel_futures`` teardown the
supervisor issues for a hung or crashed pool *retires* the shared
executor — the registry entry is invalidated before the workers are
terminated, so the next lease respawns a clean pool and a poisoned
worker can never serve a later build.

A host with one usable CPU (:func:`effective_workers` is 1) gets no
pool at all: workers would time-slice that core and every IPC hop
adds latency, so :func:`~repro.parallel.executor.make_transform`
returns the serial transform there and :func:`warm_pool` spawns
nothing. Callers that need real processes whatever the host (the
chaos harness, fault-injection tests) build a
:class:`~repro.parallel.executor.ParallelScheduler` themselves.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import POOL_RETIRES, POOL_REUSES, POOL_SPAWNS
from ..spawn.library import load_machine_from_source
from ..spawn.model import MachineModel


# -- worker-side warm state ------------------------------------------------------


@lru_cache(maxsize=8)
def worker_model(name: str, source: str) -> MachineModel:
    """Rebuild (once per process, per digest) a model from SADL source.

    Lives here, not in the executor, so both the parent (for fork
    prewarming) and the workers populate the *same* cache: under
    ``fork`` a child inherits every entry the parent built.
    """
    return load_machine_from_source(source, name)


def warm_worker_model(name: str, source: str) -> MachineModel:
    """Build ``worker_model(name, source)`` and its compiled tables
    (from the shared disk cache). Idempotent; the entry point a pool
    initializer runs in each worker at spawn, and the parent runs
    before a fork spawn so children inherit a hot model."""
    model = worker_model(name, source)
    model.tables  # compiled on first read
    return model


def effective_workers(jobs: int) -> int:
    """How many workers can actually run concurrently: ``jobs`` capped
    by the host's CPU count. The executor does not silently clamp pool
    sizes to this (the CLI warns instead) — it only consults it for the
    one degenerate case where fan-out is pure overhead: at 1, a build
    does not shard."""
    return max(1, min(int(jobs), os.cpu_count() or int(jobs)))


# -- the shared registry ---------------------------------------------------------


@dataclass
class _PoolEntry:
    """One live executor in the registry."""

    key: tuple
    executor: ProcessPoolExecutor
    #: monotonically increasing per key; a retired pool's replacement
    #: gets the next generation, making respawns visible in stats.
    generation: int
    leases: int = 0
    retired: bool = False

    def healthy(self) -> bool:
        if self.retired:
            return False
        executor = self.executor
        if getattr(executor, "_broken", False):
            return False
        if getattr(executor, "_shutdown_thread", False):
            return False
        return True


class PoolLease:
    """One build's handle on a shared executor.

    Implements exactly the protocol :class:`ShardSupervisor` expects of
    the object its ``pool_factory`` returns — and nothing else, so the
    supervisor's crash/hang/teardown machinery carries over unchanged.
    """

    def __init__(
        self,
        manager: "PoolManager",
        entry: _PoolEntry,
        recorder: Recorder | None = None,
    ) -> None:
        self._manager = manager
        self._entry = entry
        self._recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def generation(self) -> int:
        return self._entry.generation

    @property
    def _processes(self):
        # ``supervise._kill_pool`` snapshots this table before calling
        # ``shutdown``; expose the real worker processes so a kill
        # terminates them, not a proxy.
        return getattr(self._entry.executor, "_processes", None)

    def submit(self, fn, /, *args, **kwargs):
        return self._entry.executor.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Healthy release keeps the pool warm; a teardown retires it.

        ``cancel_futures=True`` is only ever issued by ``_kill_pool``
        (hang/crash) — the shared executor must not survive it. A
        plain ``shutdown(wait=True)`` arrives after the supervisor has
        drained every future, so there is nothing to wait on and the
        workers stay up for the next lease.
        """
        entry = self._entry
        if cancel_futures or not entry.healthy():
            self._recorder.count(POOL_RETIRES)
            self._manager._retire(entry, shutdown_wait=wait and not cancel_futures)
        entry.leases = max(0, entry.leases - 1)


class PoolManager:
    """Spawn-once registry of persistent worker pools.

    Keyed by ``(start method, worker count)``: one warm pool serves
    every model — workers cache models per digest, so a pool that has
    scheduled for ``ultrasparc`` schedules for ``supersparc`` without a
    respawn, at the cost of one lazy rebuild per worker per new digest.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: dict[tuple, _PoolEntry] = {}
        self._generations: dict[tuple, int] = {}
        self.spawns = 0
        self.reuses = 0
        self.retires = 0

    def acquire(
        self,
        *,
        jobs: int,
        context,
        warm: tuple[str, str] | None = None,
        recorder: Recorder | None = None,
    ) -> PoolLease:
        """Lease the pool for ``(context, jobs)``, spawning or
        respawning it if absent or unhealthy.

        ``warm`` is an optional ``(model name, SADL source)`` spec: a
        *newly spawned* pool runs :func:`warm_worker_model` in every
        worker at startup (and, under ``fork``, in the parent first so
        children inherit the built model); an already-warm pool ignores
        it — its workers warm lazily on first contact with a new model
        and stay hot from then on.
        """
        recorder = recorder if recorder is not None else NULL_RECORDER
        if context is None:
            context = multiprocessing.get_context(
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        method = context.get_start_method()
        key = (method, int(jobs))
        with self._lock:
            entry = self._pools.get(key)
            if entry is not None and entry.healthy():
                entry.leases += 1
                self.reuses += 1
                recorder.count(POOL_REUSES)
                return PoolLease(self, entry, recorder)
            if entry is not None:
                self._retire_locked(entry, shutdown_wait=False)
            initargs = ()
            initializer = None
            if warm is not None:
                name, source = warm
                if method == "fork":
                    # Build in the parent; children inherit at fork.
                    warm_worker_model(name, source)
                initializer = warm_worker_model
                initargs = (name, source)
            generation = self._generations.get(key, 0) + 1
            self._generations[key] = generation
            executor = ProcessPoolExecutor(
                max_workers=max(1, int(jobs)),
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            )
            entry = _PoolEntry(key=key, executor=executor, generation=generation)
            entry.leases = 1
            self._pools[key] = entry
            self.spawns += 1
            recorder.count(POOL_SPAWNS)
            return PoolLease(self, entry, recorder)

    def _retire(self, entry: _PoolEntry, *, shutdown_wait: bool = False) -> None:
        with self._lock:
            self._retire_locked(entry, shutdown_wait=shutdown_wait)

    def _retire_locked(self, entry: _PoolEntry, *, shutdown_wait: bool) -> None:
        if entry.retired:
            return
        entry.retired = True
        if self._pools.get(entry.key) is entry:
            del self._pools[entry.key]
        self.retires += 1
        try:
            entry.executor.shutdown(wait=shutdown_wait, cancel_futures=True)
        except Exception:
            # A broken executor may refuse teardown; _kill_pool (or the
            # interpreter's atexit join) finishes the job.
            pass

    def shutdown(self, wait: bool = True) -> None:
        """Retire every pool (test teardown / interpreter exit)."""
        with self._lock:
            entries = list(self._pools.values())
        for entry in entries:
            entry.retired = True
            try:
                entry.executor.shutdown(wait=wait, cancel_futures=True)
            except Exception:
                pass
        with self._lock:
            for entry in entries:
                if self._pools.get(entry.key) is entry:
                    del self._pools[entry.key]
            self.retires += len(entries)

    def stats(self) -> dict:
        """Registry counters plus the live pools' shapes."""
        with self._lock:
            pools = [
                {
                    "start_method": entry.key[0],
                    "workers": entry.key[1],
                    "generation": entry.generation,
                    "leases": entry.leases,
                }
                for entry in self._pools.values()
            ]
        return {
            "spawns": self.spawns,
            "reuses": self.reuses,
            "retires": self.retires,
            "pools": pools,
        }


#: The process-wide registry every build leases from.
MANAGER = PoolManager()
atexit.register(MANAGER.shutdown, False)


def acquire_pool(
    *,
    jobs: int,
    context,
    warm: tuple[str, str] | None = None,
    recorder: Recorder | None = None,
) -> PoolLease:
    """Lease the shared persistent pool (see :meth:`PoolManager.acquire`)."""
    return MANAGER.acquire(jobs=jobs, context=context, warm=warm, recorder=recorder)


def pool_stats() -> dict:
    return MANAGER.stats()


def shutdown_pools(wait: bool = True) -> None:
    MANAGER.shutdown(wait)


def warm_pool(
    model: MachineModel,
    *,
    jobs: int,
    start_method: str | None = None,
    recorder: Recorder | None = None,
) -> bool:
    """Spawn (or touch) the persistent pool for ``model`` ahead of need.

    Daemon startup and benchmarks call this so the spawn + model-build
    cost lands at service start, not inside the first request or the
    timed region. Returns False, spawning nothing, when builds at
    ``jobs`` do not shard on this host (:func:`effective_workers` is 1)
    or the model carries no SADL source (such models cannot run in
    workers at all — the executor's serial fallback owns them).
    """
    from .executor import _model_spec, _mp_context

    spec = _model_spec(model)
    if spec is None or effective_workers(jobs) == 1:
        return False
    lease = acquire_pool(
        jobs=jobs, context=_mp_context(start_method), warm=spec, recorder=recorder
    )
    # Round-trip one no-op per worker so spawn completes before return.
    futures = [lease.submit(_noop) for _ in range(max(1, int(jobs)))]
    for future in futures:
        future.result(timeout=60)
    lease.shutdown(wait=True)
    return True


def _noop() -> None:
    return None
