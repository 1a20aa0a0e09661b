"""A content-addressed, bounded LRU cache of schedule results.

Rewriting a large executable is highly repetitive at block granularity:
the same code shapes (a counter increment, a spill/reload pair, a
compiler idiom) recur thousands of times, and the scheduler recomputes
the same dependence graph, chain lengths, and forward pass for each.
:class:`ScheduleCache` memoizes the *outcome* — the permutation and its
cycle accounting, never the concrete instructions — keyed by
:func:`~repro.parallel.fingerprint.region_digest` under a
:func:`~repro.parallel.fingerprint.context_digest` for the (machine
model, policy) pair. Serving a hit replays the permutation against the
block's actual instructions, so register-renamed twins share one entry
yet each block keeps its own operands.

Trust is explicit: each entry carries a ``verified`` bit. The plain
:class:`~repro.core.block_scheduler.BlockScheduler` inserts and serves
unverified entries (the same trust level as running the scheduler
itself), while :class:`~repro.robust.guard.GuardedBlockScheduler` only
*serves* verified entries and only *inserts* after a block's schedule
has climbed the verification ladder
(:func:`~repro.analyze.ladder.prove_schedule`) — an unverified (or
poisoned) entry is treated as a miss and re-proven, and a quarantined
block is never inserted at all. Parallel workers insert unverified
entries only: guarded builds do not shard.

Integrity is checked, not assumed: every entry carries a checksum
(:func:`~repro.parallel.fingerprint.schedule_checksum`) bound to its
cache key and payload, recomputed at every lookup. A bit-flipped entry
(memory corruption, a future persisted-cache tier, a hostile test) is
dropped and counted under ``schedule_cache.corrupt_dropped``; the
region is simply re-scheduled — corruption costs cycles, never
correctness.

Hit/miss/insert/eviction counts flow both through the
:mod:`repro.obs` metrics registry (``schedule_cache.*``) and plain
integer attributes, so callers without a recorder can still assert on
them.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

from ..core.list_scheduler import ScheduleResult
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    CACHE_CORRUPT,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_INSERTS,
    CACHE_MISSES,
)
from .fingerprint import (
    apply_order,
    context_digest,
    region_digest,
    schedule_checksum,
)

#: Default entry bound; at ~100 bytes an entry this is a few hundred KiB.
DEFAULT_CACHE_ENTRIES = 4096


def _entry_checksum(key: tuple[str, str], entry: "CachedSchedule") -> str:
    """The integrity checksum a healthy entry stored under ``key`` has."""
    context, digest = key
    return schedule_checksum(
        f"{context}:{digest}",
        entry.order,
        entry.original_cycles,
        entry.scheduled_cycles,
        entry.verified,
    )


@dataclass(frozen=True)
class CachedSchedule:
    """One memoized schedule: the permutation plus its accounting."""

    order: tuple[int, ...]
    original_cycles: int
    scheduled_cycles: int
    #: True only when the entry was inserted after the schedule passed
    #: post-hoc verification (the guarded path).
    verified: bool
    #: Integrity checksum over (cache key, order, cycles, verified),
    #: recomputed and checked at every :meth:`ScheduleCache.lookup`. A
    #: bit-flipped entry fails the check and is dropped as a miss — it
    #: can never replay a corrupted permutation into an edit.
    checksum: str = ""

    def replay(self, region: Sequence[Instruction]) -> ScheduleResult:
        """Reconstruct a :class:`ScheduleResult` for a concrete region."""
        if len(self.order) != len(region):
            raise ValueError(
                f"cached order has {len(self.order)} entries for a "
                f"{len(region)}-instruction region"
            )
        return ScheduleResult(
            instructions=apply_order(region, self.order),
            order=list(self.order),
            original_cycles=self.original_cycles,
            scheduled_cycles=self.scheduled_cycles,
            graph=None,
        )


@dataclass(frozen=True)
class CachedSuperblockPlan:
    """One memoized superblock plan (see ``repro.core.superblock``).

    Unlike :class:`CachedSchedule` this stores the scheduled bodies
    *concretely*: the superblock digest is computed without register
    renaming (cross-boundary legality is not renaming-invariant), so a
    hit guarantees instruction-identical member blocks and the bodies
    can be replayed verbatim. ``compensation`` pairs each taken edge
    with the copies to re-emit on it."""

    bodies: tuple[tuple[Instruction, ...], ...]
    #: (boundary index, copies): edges are re-derived from the CFG at
    #: replay time, since a content-identical superblock elsewhere in
    #: the text has different block indexes.
    compensation: tuple[tuple[int, tuple[Instruction, ...]], ...]
    moves: int
    copies: int
    local_cost: int
    superblock_cost: int
    verified: bool
    #: the plan's per-block (original, scheduled) cycles, or None.
    cycles: tuple[tuple[int, int] | None, ...]

    def _to_plan(self, superblock, cfg):
        from ..core.superblock import SuperblockPlan  # lazy: core is upstream

        compensation = {}
        for boundary, copies in self.compensation:
            src = cfg.blocks[superblock.blocks[boundary]]
            taken = next(e for e in src.succs if e.kind == "taken")
            compensation[taken] = list(copies)
        return SuperblockPlan(
            superblock=superblock,
            bodies=[list(body) for body in self.bodies],
            compensation=compensation,
            cycles=list(self.cycles),
            moves=self.moves,
            copies=self.copies,
            local_cost=self.local_cost,
            superblock_cost=self.superblock_cost,
        )


class ScheduleCache:
    """Bounded LRU map of (context, region fingerprint) → schedule.

    Superblock plans live in a second, independently bounded LRU store
    (:meth:`lookup_superblock` / :meth:`insert_superblock`) with the
    same verified-bit semantics; their traffic shares the
    ``schedule_cache.*`` counters under ``kind=superblock``."""

    def __init__(
        self,
        *,
        max_entries: int = DEFAULT_CACHE_ENTRIES,
        recorder: Recorder | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._entries: OrderedDict[tuple[str, str], CachedSchedule] = OrderedDict()
        self._superblocks: OrderedDict[tuple[str, str], CachedSuperblockPlan] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        #: Entries dropped because their integrity checksum failed.
        self.corruption_dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def context_for(self, model, policy) -> str:
        """The context digest for a (model, policy) pair. A method so
        the schedulers can stay duck-typed against the cache instead of
        importing :mod:`repro.parallel`."""
        return context_digest(model, policy)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(
        self,
        context: str,
        region: Sequence[Instruction],
        *,
        require_verified: bool = False,
        digest: str | None = None,
    ) -> CachedSchedule | None:
        """The cached schedule for ``region`` under ``context``, or None.

        ``require_verified`` makes unverified entries invisible — the
        guarded scheduler's view of the cache. An entry whose integrity
        checksum no longer matches its payload is dropped and counted
        (``schedule_cache.corrupt_dropped``), then treated as a miss —
        corruption costs a re-schedule, never correctness.

        ``digest`` lets a caller that already canonicalized ``region``
        (:func:`~repro.parallel.fingerprint.region_digest`) skip the
        recomputation — canonicalization is the expensive half of a
        cache probe, and the parallel executor touches each region
        several times per build.
        """
        key = (context, digest if digest is not None else region_digest(region))
        entry = self._entries.get(key)
        if entry is not None and entry.checksum != _entry_checksum(key, entry):
            del self._entries[key]
            self.corruption_dropped += 1
            self.recorder.count(CACHE_CORRUPT)
            entry = None
        if entry is not None and (entry.verified or not require_verified):
            self._entries.move_to_end(key)
            self.hits += 1
            self.recorder.count(CACHE_HITS)
            return entry
        self.misses += 1
        self.recorder.count(CACHE_MISSES)
        return None

    def insert(
        self,
        context: str,
        region: Sequence[Instruction],
        result: ScheduleResult,
        *,
        verified: bool = False,
        digest: str | None = None,
    ) -> CachedSchedule:
        """Memoize ``result`` for ``region``; returns the stored entry.

        A verified insert upgrades an existing unverified entry; an
        unverified insert never downgrades a verified one. ``digest``
        as in :meth:`lookup` — a precomputed region digest.
        """
        key = (context, digest if digest is not None else region_digest(region))
        existing = self._entries.get(key)
        if existing is not None and existing.verified and not verified:
            self._entries.move_to_end(key)
            return existing
        order = tuple(result.order)
        entry = CachedSchedule(
            order=order,
            original_cycles=result.original_cycles,
            scheduled_cycles=result.scheduled_cycles,
            verified=verified,
            checksum=schedule_checksum(
                f"{key[0]}:{key[1]}",
                order,
                result.original_cycles,
                result.scheduled_cycles,
                verified,
            ),
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.inserts += 1
        self.recorder.count(CACHE_INSERTS)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.recorder.count(CACHE_EVICTIONS)
        return entry

    def contains(
        self,
        context: str,
        region: Sequence[Instruction],
        *,
        digest: str | None = None,
    ) -> bool:
        """Membership check without touching LRU order or counters.

        A checksum-corrupt entry reports absent (it would be dropped at
        lookup), but is left in place — ``contains`` stays read-only.
        ``digest`` as in :meth:`lookup` — a precomputed region digest.
        """
        key = (context, digest if digest is not None else region_digest(region))
        entry = self._entries.get(key)
        return entry is not None and entry.checksum == _entry_checksum(key, entry)

    def verified_entries(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.verified)

    def clear(self) -> None:
        self._entries.clear()
        self._superblocks.clear()

    # -- superblock plans --------------------------------------------------------

    def superblock_entries(self) -> int:
        return len(self._superblocks)

    def lookup_superblock(
        self,
        context: str,
        digest: str,
        *,
        require_verified: bool = False,
    ) -> CachedSuperblockPlan | None:
        """The cached plan for a superblock digest under ``context``.

        Same trust contract as :meth:`lookup`: ``require_verified``
        hides unverified entries from the guarded path."""
        key = (context, digest)
        entry = self._superblocks.get(key)
        if entry is not None and (entry.verified or not require_verified):
            self._superblocks.move_to_end(key)
            self.hits += 1
            self.recorder.count(CACHE_HITS, kind="superblock")
            return entry
        self.misses += 1
        self.recorder.count(CACHE_MISSES, kind="superblock")
        return None

    def insert_superblock(
        self,
        context: str,
        digest: str,
        plan,
        *,
        verified: bool = False,
    ) -> CachedSuperblockPlan:
        """Memoize a committed :class:`~repro.core.superblock.SuperblockPlan`.

        Verified inserts upgrade, unverified ones never downgrade —
        mirroring :meth:`insert`."""
        key = (context, digest)
        existing = self._superblocks.get(key)
        if existing is not None and existing.verified and not verified:
            self._superblocks.move_to_end(key)
            return existing
        chain = list(plan.superblock.blocks)
        entry = CachedSuperblockPlan(
            bodies=tuple(tuple(body) for body in plan.bodies),
            compensation=tuple(
                (chain.index(edge.src), tuple(copies))
                for edge, copies in plan.compensation.items()
            ),
            moves=plan.moves,
            copies=plan.copies,
            local_cost=plan.local_cost,
            superblock_cost=plan.superblock_cost,
            verified=verified,
            cycles=tuple(plan.cycles),
        )
        self._superblocks[key] = entry
        self._superblocks.move_to_end(key)
        self.inserts += 1
        self.recorder.count(CACHE_INSERTS, kind="superblock")
        while len(self._superblocks) > self.max_entries:
            self._superblocks.popitem(last=False)
            self.evictions += 1
            self.recorder.count(CACHE_EVICTIONS, kind="superblock")
        return entry
