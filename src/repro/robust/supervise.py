"""Shard supervision: deadlines, bounded retry, bisection, quarantine.

The parallel scheduler ships shards of regions to worker processes.
Workers are the least trustworthy component in the pipeline: a process
can die (OOM killer, a native-extension segfault, a chaos test calling
``os._exit``), hang forever, or return garbage. None of those may ever
change the bytes of an edit — the contract is *graceful degradation*:
anything a worker fails to deliver is simply scheduled on the serial
path, which is the ground truth the parallel path replays anyway.

:class:`ShardSupervisor` enforces that contract as a small state
machine over *units* (a shard plus its retry lineage):

1. **Optimistic round** — every unit is submitted to one shared pool
   and drained in submission order, each future given the policy's
   wall-clock deadline. A hang (deadline expiry) or a crash
   (``BrokenProcessPool``) poisons the whole pool, so the suspect unit
   is penalized and every *other* unfinished unit moves to the cautious
   queue unpenalized — ``BrokenProcessPool`` fails all pending futures
   indiscriminately, and blaming innocents would quarantine healthy
   regions.
2. **Cautious rounds** — each queued unit runs alone in a fresh
   single-worker pool, which makes crash/hang attribution exact: the
   unit in the pool is the unit that killed it.
3. **Penalty** — a failed unit of more than one item is *bisected*:
   both halves re-run cautiously, so a single poisoned region ends up
   quarantining alone while its shard-mates complete. A failed
   singleton retries until ``max_retries`` is exhausted, then is
   quarantined.

Quarantined items are returned to the caller (who schedules them
serially); completed results carry hierarchical sort keys — ``(i,)``
for initial shard *i*, extended with ``0``/``1`` per split — so merge
order is deterministic no matter how retries interleaved.

Failures that retrying cannot fix — an unpicklable payload — raise
:class:`~repro.errors.ParallelError` immediately instead of burning
retries. A pool that cannot be created at all (``OSError``) quarantines
everything outstanding: total degradation to serial, bytes unchanged.
"""

from __future__ import annotations

import pickle
from collections import deque
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ParallelError
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    PARALLEL_SHARD_RETRIES,
    PARALLEL_WORKER_CRASHES,
    PARALLEL_WORKER_HANGS,
)

#: Per-shard wall-clock deadline. Shards are a few dozen small regions;
#: a minute of silence means a wedged worker, not a slow one.
DEFAULT_SHARD_DEADLINE_S = 60.0

#: How many times a *singleton* unit may fail before quarantine.
DEFAULT_MAX_SHARD_RETRIES = 2


@dataclass(frozen=True)
class SupervisionPolicy:
    """Deadline and retry budget for supervised shard execution."""

    shard_deadline_s: float = DEFAULT_SHARD_DEADLINE_S
    max_retries: int = DEFAULT_MAX_SHARD_RETRIES

    def __post_init__(self) -> None:
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")


@dataclass(frozen=True)
class ShardFailure:
    """One observed failure of one unit (pre-retry)."""

    #: ``crash`` (worker process died), ``hang`` (deadline expired),
    #: or ``error`` (an exception the worker raised and shipped back).
    kind: str
    #: how many items the failing unit carried.
    items: int
    #: the attempt number this failure charged (1 = first failure).
    attempt: int
    detail: str = ""


@dataclass
class _Unit:
    """A shard (or a bisected fragment of one) awaiting execution."""

    key: tuple[int, ...]
    items: list
    attempt: int = 0


@dataclass
class SupervisionOutcome:
    """Everything a supervised run produced and endured."""

    #: (key, items, result) per unit the workers completed.
    completed: list = field(default_factory=list)
    failures: list[ShardFailure] = field(default_factory=list)
    #: item lists the supervisor gave up on — the caller's serial path
    #: owns them now.
    quarantined: list[list] = field(default_factory=list)
    crashes: int = 0
    hangs: int = 0
    retries: int = 0

    @property
    def degraded(self) -> bool:
        """True when anything fell back to the serial path."""
        return bool(self.quarantined)

    def completed_in_order(self) -> list:
        """Completed units sorted by hierarchical key, so merging is
        deterministic regardless of retry/completion interleaving."""
        return sorted(self.completed, key=lambda entry: entry[0])


def _kill_pool(pool) -> None:
    """Tear a pool down without waiting on wedged workers.

    ``shutdown(wait=False)`` alone would leave a hung worker alive (and
    the interpreter joining it at exit, forever), so the workers are
    terminated outright. The process table is captured *before*
    ``shutdown`` — it nulls the attribute immediately even with
    ``wait=False``. Once the workers are dead the pool's own manager
    thread detects the breakage and retires the queues and threads
    itself; nothing else must touch them or it races that cleanup.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=5)
        except Exception:
            pass


def _pickling_failure(exc: BaseException) -> bool:
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (TypeError, AttributeError)) and "pickle" in str(
        exc
    ).lower()


class ShardSupervisor:
    """Run shards through worker pools under deadlines with bounded,
    bisecting retry.

    ``fn`` is the picklable worker function; ``make_payload`` maps a
    unit's item list to the single argument ``fn`` receives;
    ``pool_factory(queued)`` builds an executor sized for ``queued``
    outstanding units (the caller caps it at its job count).
    """

    def __init__(
        self,
        fn: Callable,
        make_payload: Callable[[list], object],
        pool_factory: Callable[[int], object],
        *,
        policy: SupervisionPolicy | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.fn = fn
        self.make_payload = make_payload
        self.pool_factory = pool_factory
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def run(self, shards: Sequence[list]) -> SupervisionOutcome:
        outcome = SupervisionOutcome()
        queue: deque[_Unit] = deque(
            _Unit(key=(index,), items=list(items))
            for index, items in enumerate(shards)
            if items
        )
        if not queue:
            return outcome
        first_round = True
        while queue:
            if first_round:
                first_round = False
                try:
                    self._optimistic_round(queue, outcome)
                except OSError as exc:
                    self._abandon(queue, outcome, exc)
            else:
                unit = queue.popleft()
                try:
                    self._cautious_one(unit, queue, outcome)
                except OSError as exc:
                    queue.appendleft(unit)
                    self._abandon(queue, outcome, exc)
        return outcome

    # -- rounds -------------------------------------------------------------------

    def _optimistic_round(
        self, queue: deque[_Unit], outcome: SupervisionOutcome
    ) -> None:
        """Submit every queued unit to one shared pool; on pool breakage
        collect what finished and route the rest to cautious retry."""
        units = list(queue)
        queue.clear()
        try:
            pool = self.pool_factory(len(units))
        except OSError:
            queue.extend(units)
            raise
        broken = False
        handled = 0
        try:
            futures = []
            try:
                for unit in units:
                    futures.append(pool.submit(self.fn, self.make_payload(unit.items)))
            except BrokenProcessPool:
                # A submitted unit killed its worker before the rest went
                # in. Drain what was submitted below (the first future to
                # fail is the suspect); the units never submitted re-run
                # cautiously with no penalty.
                queue.extend(units[len(futures) :])
                units = units[: len(futures)]
            for unit, future in zip(units, futures):
                if broken:
                    # The pool died while an earlier future was draining.
                    # Salvage finished results; everything else re-runs
                    # cautiously with no penalty — BrokenProcessPool
                    # fails pending futures indiscriminately, so only
                    # the unit that raised first is a suspect.
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        outcome.completed.append(
                            (unit.key, unit.items, future.result())
                        )
                    else:
                        queue.append(unit)
                    handled += 1
                    continue
                try:
                    result = future.result(timeout=self.policy.shard_deadline_s)
                except FutureTimeoutError:
                    outcome.hangs += 1
                    self.recorder.count(PARALLEL_WORKER_HANGS)
                    broken = True
                    _kill_pool(pool)
                    self._penalize(
                        unit,
                        "hang",
                        f"no result within the "
                        f"{self.policy.shard_deadline_s:g}s shard deadline",
                        queue,
                        outcome,
                    )
                except BrokenProcessPool as exc:
                    outcome.crashes += 1
                    self.recorder.count(PARALLEL_WORKER_CRASHES)
                    broken = True
                    self._penalize(
                        unit,
                        "crash",
                        str(exc) or "worker process died",
                        queue,
                        outcome,
                    )
                except OSError:
                    raise
                except Exception as exc:
                    self._raise_if_unshippable(exc)
                    self._penalize(
                        unit,
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        queue,
                        outcome,
                    )
                else:
                    outcome.completed.append((unit.key, unit.items, result))
                handled += 1
        except OSError:
            queue.extend(units[handled:])
            _kill_pool(pool)
            raise
        finally:
            if broken:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)

    def _cautious_one(
        self, unit: _Unit, queue: deque[_Unit], outcome: SupervisionOutcome
    ) -> None:
        """Run one unit alone in a fresh single-worker pool — exact
        crash/hang attribution, at the price of a pool per unit."""
        pool = self.pool_factory(1)
        broken = False
        try:
            future = pool.submit(self.fn, self.make_payload(unit.items))
            try:
                result = future.result(timeout=self.policy.shard_deadline_s)
            except FutureTimeoutError:
                outcome.hangs += 1
                self.recorder.count(PARALLEL_WORKER_HANGS)
                broken = True
                _kill_pool(pool)
                self._penalize(
                    unit,
                    "hang",
                    f"no result within the "
                    f"{self.policy.shard_deadline_s:g}s shard deadline",
                    queue,
                    outcome,
                )
            except BrokenProcessPool as exc:
                outcome.crashes += 1
                self.recorder.count(PARALLEL_WORKER_CRASHES)
                broken = True
                self._penalize(
                    unit,
                    "crash",
                    str(exc) or "worker process died",
                    queue,
                    outcome,
                )
            except OSError:
                raise
            except Exception as exc:
                self._raise_if_unshippable(exc)
                self._penalize(
                    unit, "error", f"{type(exc).__name__}: {exc}", queue, outcome
                )
            else:
                outcome.completed.append((unit.key, unit.items, result))
        finally:
            if broken:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True)

    # -- bookkeeping --------------------------------------------------------------

    def _penalize(
        self,
        unit: _Unit,
        kind: str,
        detail: str,
        queue: deque[_Unit],
        outcome: SupervisionOutcome,
    ) -> None:
        """Charge a failure to ``unit``: bisect it if it can be split,
        retry it if budget remains, quarantine it otherwise."""
        attempt = unit.attempt + 1
        outcome.failures.append(
            ShardFailure(kind=kind, items=len(unit.items), attempt=attempt, detail=detail)
        )
        if len(unit.items) > 1:
            outcome.retries += 1
            self.recorder.count(PARALLEL_SHARD_RETRIES)
            mid = (len(unit.items) + 1) // 2
            queue.append(_Unit(unit.key + (0,), unit.items[:mid], attempt))
            queue.append(_Unit(unit.key + (1,), unit.items[mid:], attempt))
        elif attempt > self.policy.max_retries:
            outcome.quarantined.append(unit.items)
        else:
            outcome.retries += 1
            self.recorder.count(PARALLEL_SHARD_RETRIES)
            queue.append(_Unit(unit.key, unit.items, attempt))

    def _abandon(
        self, queue: deque[_Unit], outcome: SupervisionOutcome, exc: OSError
    ) -> None:
        """No worker pool at all: everything outstanding degrades to the
        caller's serial path."""
        total = 0
        while queue:
            unit = queue.popleft()
            total += len(unit.items)
            outcome.quarantined.append(unit.items)
        outcome.failures.append(
            ShardFailure(
                kind="error",
                items=total,
                attempt=0,
                detail=f"no worker pool available: {exc}",
            )
        )

    def _raise_if_unshippable(self, exc: BaseException) -> None:
        if _pickling_failure(exc):
            raise ParallelError(
                "parallel payload cannot be shipped to worker processes "
                f"({type(exc).__name__}: {exc}); run with jobs=1 or make "
                "the model/policy/regions picklable"
            ) from exc
