"""Guarded scheduling: verify every block's schedule, or refuse it.

An executable editor that reorders instructions must *prove* each edit
safe or decline to make it. :class:`GuardedBlockScheduler` wraps the
ordinary :class:`~repro.core.block_scheduler.BlockScheduler` in exactly
that contract:

* every scheduled block is proven by the verification ladder
  (:func:`~repro.analyze.ladder.prove_schedule`: dependence-DAG proof,
  then symbolic translation validation, then differential execution);
* on any verification failure — or any exception out of the scheduler —
  the block **falls back to its original instruction order** and is
  *quarantined*: a :class:`QuarantineReport` is recorded and counted
  through the :mod:`repro.obs` recorder, and the edit proceeds;
* per-block and per-routine budgets (:class:`GuardBudget`) bound the
  work: oversized blocks and blocks past a wall-clock deadline degrade
  gracefully to unscheduled instrumentation;
* the machine model itself is linted at construction
  (:func:`~repro.spawn.validate.validate_machine`); a corrupt model
  quarantines *all* scheduling rather than corrupting output.

In **strict** mode the guard raises instead of falling back:
:class:`~repro.errors.VerificationError` on a failed proof,
:class:`~repro.errors.BudgetExceeded` on an exhausted budget, and
:class:`~repro.spawn.model.ModelError` on a bad machine description.

With no faults present the guarded path emits byte-identical schedules
to the unguarded path — the guard only ever *observes* the inner
scheduler's output or discards it wholesale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analyze.ladder import prove_schedule
from ..core.block_scheduler import BlockScheduler, SchedulerStats
from ..core.dependence import SchedulingPolicy, build_dependence_graph
from ..core.regions import Region, join_regions, split_regions
from ..core.verify import DEFAULT_SEED
from ..eel.cfg import BasicBlock
from ..errors import BudgetExceeded, ReproError, VerificationError
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    GUARD_BLOCKS_VERIFIED,
    GUARD_CACHE_SERVED,
    GUARD_FALLBACKS,
    GUARD_QUARANTINED,
    SCHED_BLOCKS,
)
from ..spawn.model import MachineModel, ModelError
from ..spawn.validate import validate_machine


@dataclass(frozen=True)
class GuardBudget:
    """Resource bounds for guarded scheduling; ``None`` disables a bound.

    All deadlines are cooperative wall-clock checks made between blocks
    and around each block's schedule-and-verify step — a budget cannot
    preempt a block mid-schedule, it can only refuse to *use* a result
    that arrived too late (or skip scheduling once the routine deadline
    has passed).
    """

    #: blocks with more instructions than this are not scheduled at all.
    max_block_instructions: int | None = None
    #: per-block schedule+verify wall-clock deadline, in seconds.
    block_deadline_s: float | None = None
    #: cumulative wall-clock deadline across every block this guard
    #: schedules (one editor pass = one routine/program).
    routine_deadline_s: float | None = None

    @property
    def unlimited(self) -> bool:
        return (
            self.max_block_instructions is None
            and self.block_deadline_s is None
            and self.routine_deadline_s is None
        )


@dataclass(frozen=True)
class QuarantineReport:
    """One refused schedule: which block, why, and what was suspect."""

    #: original CFG block index (-1 when the failure is not block-local,
    #: e.g. a corrupt machine model).
    block: int
    #: the block's original address (0 when not block-local).
    address: int
    #: 'verification' | 'scheduler-error' | 'budget' | 'model'
    kind: str
    reason: str
    #: rendered offending instructions, when identifiable.
    offending: tuple[str, ...] = ()
    #: for 'scheduler-error': whether the exception was ReproError-rooted.
    #: The fault-injection harness only counts *typed* failures as
    #: caught — an untyped crash was contained, not diagnosed.
    typed: bool = True

    def __str__(self) -> str:
        where = f"block {self.block} @ {self.address:#x}" if self.block >= 0 else "model"
        text = f"[{self.kind}] {where}: {self.reason}"
        if self.offending:
            text += " | " + " ; ".join(self.offending)
        return text


class GuardedBlockScheduler:
    """A :data:`~repro.eel.editor.BlockTransform` with verify-and-fallback.

    Drop-in replacement for :class:`BlockScheduler` as an editor
    transform. ``inner`` defaults to a fresh ``BlockScheduler``; tests
    and the fault-injection harness substitute deliberately broken
    schedulers to prove the guard catches them.
    """

    def __init__(
        self,
        model: MachineModel,
        policy: SchedulingPolicy | None = None,
        recorder: Recorder | None = None,
        *,
        inner: BlockScheduler | None = None,
        budget: GuardBudget | None = None,
        strict: bool = False,
        verify_trials: int = 4,
        verify_seed: int = DEFAULT_SEED,
        validate_model: bool = True,
        cache=None,
        clock=time.perf_counter,
    ) -> None:
        self.model = model
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if cache is not None and inner is not None and getattr(inner, "cache", None) is not None:
            raise ValueError(
                "pass the schedule cache to the guard, not the inner "
                "scheduler: an inner-owned cache would memoize schedules "
                "the guard later quarantines"
            )
        self.inner = inner if inner is not None else BlockScheduler(
            model, policy, self.recorder
        )
        self.policy = self.inner.policy
        self.cache = cache
        self._cache_context = (
            cache.context_for(model, self.policy) if cache is not None else None
        )
        self.budget = budget if budget is not None else GuardBudget()
        self.strict = strict
        self.verify_trials = verify_trials
        self.verify_seed = verify_seed
        self._clock = clock
        self._elapsed = 0.0
        self.quarantine: list[QuarantineReport] = []
        self.model_findings = ()
        if validate_model:
            self.model_findings = tuple(
                f
                for f in validate_machine(model, require_full_isa=False)
                if f.severity == "error"
            )
        if self.model_findings:
            reason = "; ".join(str(f) for f in self.model_findings[:4])
            if strict:
                raise ModelError(
                    f"{model.name}: description failed validation: {reason}"
                )
            self._record(
                QuarantineReport(block=-1, address=0, kind="model", reason=reason)
            )

    # -- observers ---------------------------------------------------------------

    @property
    def stats(self) -> SchedulerStats:
        """The inner scheduler's accumulated stats (unverified blocks
        included: they describe attempted scheduling work)."""
        return self.inner.stats

    @property
    def fallbacks(self) -> int:
        """Blocks emitted in their original order."""
        return sum(1 for report in self.quarantine if report.block >= 0)

    # -- the editor transform protocol -------------------------------------------

    def __call__(
        self, block: BasicBlock, body: list[Instruction]
    ) -> tuple[list[Instruction], Instruction | None]:
        original = list(body)

        if self.model_findings:
            # The model is quarantined wholesale; every block degrades.
            self._count_fallback()
            return original, block.delay

        limit = self.budget.max_block_instructions
        if limit is not None and len(original) > limit:
            self._budget_stop(
                block,
                "max_block_instructions",
                f"{len(original)} instructions exceed the per-block "
                f"budget of {limit}",
            )
            return original, block.delay
        deadline = self.budget.routine_deadline_s
        if deadline is not None and self._elapsed > deadline:
            self._budget_stop(
                block,
                "routine_deadline_s",
                f"routine budget of {deadline:g}s exhausted after "
                f"{self._elapsed:.3f}s",
            )
            return original, block.delay

        if self.cache is not None:
            # Each region is digested at most once per block: the
            # lookup's digests key the insert below.
            regions = split_regions(original)
            digests: list[str | None] = [None] * len(regions)
            served = self._serve_from_cache(regions, digests)
            if served is not None:
                # Every region of this block was proven on an earlier
                # insert; replay the permutations and emit exactly as a
                # freshly verified block would.
                self.recorder.count(GUARD_CACHE_SERVED)
                self.recorder.count(GUARD_BLOCKS_VERIFIED)
                delay = block.delay
                if self.policy.fill_delay_slots:
                    served, delay = self.inner._refill_delay_slot(block, served)
                self.recorder.count(SCHED_BLOCKS)
                return served, delay

        start = self._clock()
        try:
            with self.recorder.span("robust.guard_block", block=block.index):
                scheduled = self.inner.schedule_body(original)
                verdict, _gate = prove_schedule(
                    original,
                    scheduled,
                    policy=self.policy,
                    trials=self.verify_trials,
                    seed=self.verify_seed,
                    recorder=self.recorder,
                )
        except Exception as exc:  # a buggy scheduler must not crash the edit
            if self.strict:
                raise VerificationError(
                    f"scheduler raised {type(exc).__name__}: {exc}",
                    block=block.index,
                ) from exc
            self._quarantine_block(
                block,
                "scheduler-error",
                f"{type(exc).__name__}: {exc}",
                typed=isinstance(exc, ReproError),
            )
            return original, block.delay
        self._elapsed += self._clock() - start

        if not verdict:
            reason = "; ".join(verdict.failures)
            if self.strict:
                raise VerificationError(
                    reason, failures=tuple(verdict.failures), block=block.index
                )
            self._quarantine_block(
                block,
                "verification",
                reason,
                offending=_offenders(original, scheduled, self.policy),
            )
            return original, block.delay

        block_deadline = self.budget.block_deadline_s
        block_elapsed = self._clock() - start
        if block_deadline is not None and block_elapsed > block_deadline:
            self._budget_stop(
                block,
                "block_deadline_s",
                f"block took {block_elapsed:.3f}s against a deadline of "
                f"{block_deadline:g}s",
            )
            return original, block.delay

        # Proven safe: emit, refilling the delay slot exactly as the
        # unguarded scheduler would.
        if self.cache is not None:
            self._insert_verified(scheduled, regions, digests)
        self.recorder.count(GUARD_BLOCKS_VERIFIED)
        delay = block.delay
        if self.policy.fill_delay_slots:
            scheduled, delay = self.inner._refill_delay_slot(block, scheduled)
        self.recorder.count(SCHED_BLOCKS)
        return scheduled, delay

    # -- schedule cache ----------------------------------------------------------

    def _serve_from_cache(
        self, regions: list[Region], digests: list[str | None]
    ) -> list[Instruction] | None:
        """The whole block rebuilt from *verified* cache entries, or
        ``None`` if any region misses (unverified and poisoned entries
        are invisible here — they must be re-proven, not trusted).
        Records each looked-up region's digest in ``digests``."""
        # Imported locally: repro.parallel imports this module.
        from ..parallel.fingerprint import region_digest

        replayed = []
        for index, region in enumerate(regions):
            if not region.instructions:
                replayed.append(None)
                continue
            digests[index] = region_digest(region.instructions)
            entry = self.cache.lookup(
                self._cache_context,
                list(region.instructions),
                require_verified=True,
                digest=digests[index],
            )
            if entry is None:
                return None
            replayed.append(entry.replay(list(region.instructions)))
        for result in replayed:
            if result is not None:
                self.inner.stats.merge(result)
                if self.recorder.enabled:
                    self.inner._replay_attribution(result.instructions)
        return join_regions(
            regions,
            [r.instructions if r is not None else [] for r in replayed],
        )

    def _insert_verified(
        self,
        scheduled: list[Instruction],
        regions: list[Region],
        digests: list[str | None],
    ) -> None:
        """Memoize the block's regions as proven — but only when the
        emitted body is exactly the join of the per-region results the
        inner scheduler recorded (a sabotaged scheduler mutates after
        the fact; its mutation was verified and refused, and its clean
        intermediate must not be trusted by proxy either). A region's
        digest from the lookup (``regions``/``digests``) is reused only
        for a region of the same instructions."""
        last = getattr(self.inner, "_last_schedule", None)
        if last is None:
            return
        scheduled_regions, results = last
        rejoined = join_regions(
            scheduled_regions,
            [r.instructions if r is not None else [] for r in results],
        )
        if rejoined != scheduled:
            return
        for index, (region, result) in enumerate(zip(scheduled_regions, results)):
            if result is None:
                continue
            digest = None
            if index < len(regions) and regions[index].instructions == region.instructions:
                digest = digests[index]
            self.cache.insert(
                self._cache_context,
                list(region.instructions),
                result,
                verified=True,
                digest=digest,
            )

    # -- internals ---------------------------------------------------------------

    def _budget_stop(self, block: BasicBlock, which: str, reason: str) -> None:
        if self.strict:
            raise BudgetExceeded(reason, budget=which, block=block.index)
        self._quarantine_block(block, "budget", reason)

    def _quarantine_block(
        self,
        block: BasicBlock,
        kind: str,
        reason: str,
        offending: tuple[str, ...] = (),
        typed: bool = True,
    ) -> None:
        self._record(
            QuarantineReport(
                block=block.index,
                address=block.address,
                kind=kind,
                reason=reason,
                offending=offending,
                typed=typed,
            )
        )
        self._count_fallback()

    def _record(self, report: QuarantineReport) -> None:
        self.quarantine.append(report)
        self.recorder.count(GUARD_QUARANTINED, kind=report.kind)

    def _count_fallback(self) -> None:
        self.recorder.count(GUARD_FALLBACKS)


def _offenders(
    original: list[Instruction],
    scheduled: list[Instruction],
    policy: SchedulingPolicy,
) -> tuple[str, ...]:
    """Pin the failure on concrete instructions, for the report."""
    counts: dict[str, int] = {}
    for inst in original:
        counts[str(inst)] = counts.get(str(inst), 0) + 1
    for inst in scheduled:
        key = str(inst)
        if counts.get(key, 0) == 0:
            return (f"extra/unknown instruction {key!r}",)
        counts[key] -= 1
    missing = [key for key, left in counts.items() if left > 0]
    if missing:
        return tuple(f"missing instruction {key!r}" for key in missing[:4])

    graph = build_dependence_graph(original, policy)
    remaining: dict[str, list[int]] = {}
    for index, inst in enumerate(original):
        remaining.setdefault(str(inst), []).append(index)
    order = [remaining[str(inst)].pop(0) for inst in scheduled]
    position = {node: pos for pos, node in enumerate(order)}
    for src in range(graph.size):
        for dst in graph.succs[src]:
            if position[src] > position[dst]:
                return (
                    f"{original[dst]!s} scheduled before its dependence "
                    f"{original[src]!s}",
                )
    return ()
