"""Block-level scheduling glue for the EEL editor.

:class:`BlockScheduler` packages the list scheduler as an editor
transform (see :data:`repro.eel.editor.BlockTransform`): the editor
hands it each block's body — instrumentation already merged in program
order — and it returns the scheduled body, optionally refilling the
branch delay slot.

Delay-slot refill rules (``SchedulingPolicy.fill_delay_slots``): the
slot must currently hold a ``nop``, the branch must not be annulled
(an annulled slot is control-dependent on the branch direction), and
the candidate — the last instruction of the scheduled body — must not
be a memory barrier for the terminator: it may not write any register
the terminator reads (the condition codes for a conditional branch, the
target registers for ``jmpl``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eel.cfg import BasicBlock
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import SCHED_BLOCKS, SCHED_DELAY_SLOTS
from ..pipeline.stalls import issue
from ..pipeline.state import PipelineState
from ..spawn.model import MachineModel
from .dependence import SchedulingPolicy
from .list_scheduler import ListScheduler, ScheduleResult
from .regions import Region, join_regions, split_regions


@dataclass
class SchedulerStats:
    """Accumulated over every block an editor pass schedules."""

    blocks: int = 0
    instructions: int = 0
    original_cycles: int = 0
    scheduled_cycles: int = 0
    delay_slots_filled: int = 0

    @property
    def cycles_saved(self) -> int:
        return self.original_cycles - self.scheduled_cycles

    def merge(self, result: ScheduleResult) -> None:
        self.blocks += 1
        self.instructions += len(result.instructions)
        self.original_cycles += result.original_cycles
        self.scheduled_cycles += result.scheduled_cycles


class BlockScheduler:
    """Schedules each basic block as the editor lays it out (Figure 3).

    ``cache`` is an optional content-addressed schedule cache
    (:class:`~repro.parallel.cache.ScheduleCache`, duck-typed): when a
    region's fingerprint is already memoized under this (model, policy)
    context, the cached permutation is replayed instead of re-running
    the scheduler, and fresh results are inserted as *unverified*
    entries (the same trust level as the scheduler itself).
    """

    def __init__(
        self,
        model: MachineModel,
        policy: SchedulingPolicy | None = None,
        recorder: Recorder | None = None,
        *,
        cache=None,
        provenance=None,
    ) -> None:
        self.model = model
        self.policy = policy or SchedulingPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: optional :class:`repro.obs.provenance.ProvenanceLog`. Note a
        #: cache hit replays a memoized permutation without re-running
        #: the forward pass, so it records no provenance — pass
        #: ``cache=None`` when a complete decision log is the point
        #: (``qpt explain`` does).
        self.provenance = provenance
        self.scheduler = ListScheduler(
            model, self.policy, self.recorder, provenance=provenance
        )
        self.stats = SchedulerStats()
        self.cache = cache
        self._cache_context = (
            cache.context_for(model, self.policy) if cache is not None else None
        )
        #: Optional ``{block index: [region digest, ...]}`` installed by
        #: :class:`~repro.parallel.executor.ParallelScheduler` — the
        #: digests its collect pass already computed for each block's
        #: non-empty regions, in order, so the layout pass's cache
        #: probes skip re-canonicalizing. Purely an optimization: a
        #: stale hint keys lookup *and* insert consistently, so the
        #: worst it can cost is a miss, never a wrong replay.
        self.digest_hints: dict[int, list[str]] | None = None

    # The editor transform protocol.
    def __call__(
        self, block: BasicBlock, body: list[Instruction]
    ) -> tuple[list[Instruction], Instruction | None]:
        if self.provenance is not None:
            self.provenance.current_block = block.index
        if self.digest_hints is not None:
            self._block_hints = self.digest_hints.get(block.index)
        with self.recorder.span("core.schedule_block", block=block.index):
            scheduled = self.schedule_body(body)
            delay = block.delay
            if self.policy.fill_delay_slots:
                scheduled, delay = self._refill_delay_slot(block, scheduled)
        self.recorder.count(SCHED_BLOCKS)
        return scheduled, delay

    def schedule_body(self, body: list[Instruction]) -> list[Instruction]:
        regions, results = self.schedule_regions(body)
        # Stashed for the guard: after it verifies the joined body it can
        # memoize each region as proven (see GuardedBlockScheduler).
        self._last_schedule = (regions, results)
        bodies = [
            result.instructions if result is not None else []
            for result in results
        ]
        return join_regions(regions, bodies)

    def schedule_regions(
        self, body: list[Instruction]
    ) -> tuple[list[Region], list[ScheduleResult | None]]:
        """Split ``body`` and schedule each region (None for empty ones),
        consulting and populating the schedule cache when one is set."""
        regions = split_regions(body)
        hints = getattr(self, "_block_hints", None)
        self._block_hints = None
        busy = [region for region in regions if region.instructions]
        if hints is not None and len(hints) != len(busy):
            # A hint list that doesn't line up region-for-region is
            # discarded wholesale — better an honest re-digest than a
            # misattributed one.
            hints = None
        results: list[ScheduleResult | None] = []
        scheduled = 0
        for region in regions:
            if not region.instructions:
                results.append(None)
                continue
            hint = hints[scheduled] if hints is not None else None
            scheduled += 1
            results.append(
                self._schedule_region(list(region.instructions), digest_hint=hint)
            )
        for result in results:
            if result is not None:
                self.stats.merge(result)
        return regions, results

    def _schedule_region(
        self, region: list[Instruction], *, digest_hint: str | None = None
    ) -> ScheduleResult:
        digest = None
        if self.cache is not None:
            # Canonicalize once: the digest from the (miss) lookup is
            # what the insert below would otherwise recompute — or,
            # better, the digest the parallel collect pass already
            # computed for this exact region. Imported locally — core
            # must not import repro.parallel at module scope (the
            # package initializes executor, which imports this module).
            from ..parallel.fingerprint import region_digest

            digest = digest_hint if digest_hint is not None else region_digest(region)
            entry = self.cache.lookup(self._cache_context, region, digest=digest)
            if entry is not None:
                result = entry.replay(region)
                if self.recorder.telemetry:
                    self._replay_attribution(result.instructions)
                return result
        result = self.scheduler.schedule_region(region)
        if self.cache is not None:
            self.cache.insert(self._cache_context, region, result, digest=digest)
        return result

    def _replay_attribution(self, instructions: list[Instruction]) -> None:
        """Re-issue a cached schedule through the pipeline so hazard
        attribution (``pipeline.*`` counters) matches a cold run.

        The forward pass issues each chosen instruction linearly, so a
        single issue-walk over the final order reproduces the exact
        stall/hazard/issue counts a fresh schedule would have recorded.
        Forward-pass decision telemetry (``scheduler.decisions`` and
        friends) is inherently skipped by memoization and is not
        replayed.
        """
        state = PipelineState(self.model)
        cycle = 0
        for inst in instructions:
            cycle = issue(cycle, state, inst, self.recorder).issue_cycle

    # -- delay slots -------------------------------------------------------------

    def _refill_delay_slot(
        self, block: BasicBlock, scheduled: list[Instruction]
    ) -> tuple[list[Instruction], Instruction | None]:
        term = block.terminator
        delay = block.delay
        if (
            term is None
            or delay is None
            or delay.mnemonic != "nop"
            or term.annul
            or not scheduled
        ):
            return scheduled, delay
        candidate = scheduled[-1]
        if candidate.is_control:
            return scheduled, delay
        if candidate.regs_written() & term.regs_read():
            return scheduled, delay
        self.stats.delay_slots_filled += 1
        self.recorder.count(SCHED_DELAY_SLOTS)
        return scheduled[:-1], candidate


def reschedule_transform(
    model: MachineModel,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    *,
    cache=None,
) -> BlockScheduler:
    """A fresh transform for rescheduling a program's original code
    (the Table 2 protocol's first step)."""
    return BlockScheduler(model, policy, recorder, cache=cache)
