"""Profile-guided superblock scheduling — beyond the paper's §4 locality.

The paper's scheduler is deliberately *local*: it never moves an
instruction across a basic-block boundary, so a block too small to
absorb QPT2's 4-instruction counter sequence (sethi/ld/add/st) simply
eats the overhead. This module enlarges the scheduling scope to
*superblocks*: single-entry chains of fall-through blocks, selected by
an execution-frequency profile, scheduled as one region family with the
pipeline state carried across the internal boundaries.

Formation (:func:`form_superblocks`)
    Seeds are loop headers first (:class:`~repro.eel.loops.LoopForest`),
    then any remaining hot block, hottest first. A chain extends along
    the fall-through edge while the successor is single-entry,
    unclaimed, not the CFG entry and not a call target, and the
    boundary terminator is absent or a *non-annulled conditional
    branch* whose taken edge stays in the text (CALL/JMPL/unconditional
    branches end the chain — there is no fall-through path to carry
    state over).

Cross-boundary code motion (:class:`SuperblockScheduler`)
    Two dual mechanisms, both gated by register/memory safety against
    the boundary's terminator and delay-slot instruction:

    * **Sinking** (always on): a bottom-closed set of block *i*'s
      instructions moves past ``(terminator, delay)`` to the front of
      block *i+1*, where the carried pipeline state lets the list
      scheduler hide it in the successor's stall cycles. The taken
      (side-exit) path no longer executes the sunk code, so an
      identical *compensation copy* is emitted on the taken edge via
      :meth:`~repro.eel.editor.Editor.instrument_edge` — classic tail
      duplication, bounded by ``SuperblockConfig.dup_budget``. When the
      boundary has no terminator (a pure block split) no compensation
      is needed at all. Sinking is skipped when the profile predicts
      the side exit is ever taken (``freq(i) > freq(i+1)``): the copies
      would then execute, and correctness never depends on the profile
      but cost does.
    * **Speculation** (``speculate=True``, default off): a top-closed
      set of ALU-only instructions from block *i+1* is hoisted above
      the boundary, executing on the side-exit path too. This is sound
      only if every hoisted destination is *dead* at the side-exit
      target, which the liveness oracle (``liveness_factory``) must
      certify. Because a wrong oracle silently corrupts the side exit,
      guarded verification never trusts it: it re-derives liveness from
      scratch (see below), which is exactly what lets the
      ``corrupt-side-exit-liveness`` fault class be caught.

Verification (guarded mode)
    Each planned superblock is proven before it is committed:

    * the *fall-through path* — the concatenation of original bodies
      and boundary delay slots versus the concatenation of scheduled
      bodies and the same delays — climbs the guard's verification
      ladder (:func:`~repro.analyze.ladder.prove_schedule`: DAG proof,
      then symbolic translation validation, then differential
      execution). Terminators are excluded: an untaken
      conditional branch has no architectural effect, and motion across
      it was already gated on ``writes ∩ terminator.reads = ∅``.
    * every *side exit* i — the original prefix up to and including
      boundary i's delay, versus the scheduled prefix plus boundary i's
      compensation copies. Without speculation this is a true
      permutation and climbs the same ladder.
      With speculation the hoisted code is *extra* on the exit path, so
      the check is symbolic masked validation
      (:func:`~repro.analyze.sym_verify.symbolic_masked_verify`),
      escalating to a masked differential: both prefixes execute from
      the verifier's random states and must agree on memory, condition
      codes, Y, and every register **live at the side-exit target**
      under a freshly computed :class:`~repro.eel.liveness.LivenessAnalysis`
      — never the injected oracle.

    Any failure quarantines the whole superblock
    (:class:`~repro.robust.guard.QuarantineReport`, kind
    ``superblock-verification``); its blocks fall back to the inner
    per-block scheduler.

Commit policy
    A verified plan is committed only if the profile-weighted issue
    cycles (pipeline state threaded across the chain for *both*
    variants, compensation weighted by the predicted side-exit
    frequency) are strictly better than per-block local scheduling —
    the superblock pass never regresses the estimate it is built on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..eel.cfg import CFG, BasicBlock, Edge
from ..eel.liveness import LivenessAnalysis
from ..eel.loops import LoopForest
from ..isa.instruction import Instruction
from ..isa.machine_state import MemoryFault
from ..isa.opcodes import Category
from ..isa.registers import Reg, RegKind
from ..isa.semantics import SemanticsError, run_straightline
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    ANALYZE_SYMBOLIC_ESCALATED,
    ANALYZE_SYMBOLIC_PASS,
    ANALYZE_SYMBOLIC_REFUTED,
    GUARD_BLOCKS_VERIFIED,
    GUARD_QUARANTINED,
    SB_COMPENSATION,
    SB_CROSS_MOVES,
    SB_FORMED,
    SB_LEN,
    SCHED_BLOCKS,
)
from ..pipeline.simulator import issue_cycles
from ..pipeline.stalls import issue
from ..pipeline.state import PipelineState
from ..spawn.model import MachineModel
from .block_scheduler import BlockScheduler, SchedulerStats
from .dependence import SchedulingPolicy, _memory_conflict, build_dependence_graph
from .list_scheduler import ListScheduler, ScheduleResult
from .verify import DEFAULT_SEED, VerificationResult, _random_state

#: Branches that are *never* taken: their "side exit" is statically
#: unreachable (the CFG builder emits no taken edge), so sinking past
#: them needs no compensation.
_NEVER_TAKEN = ("bn", "fbn")


@dataclass(frozen=True)
class SuperblockConfig:
    """Formation and motion knobs.

    ``dup_budget`` caps the total compensation copies one superblock may
    emit (tail-duplication cost); a boundary whose sink set would
    overflow it simply does not sink. ``hot_threshold`` is the minimum
    profile count for a seed block. ``speculate`` enables upward code
    motion gated by the liveness oracle (see the module docstring for
    why it is off by default). ``commit_threshold`` scales the commit
    gate: a plan commits when its modeled cost is strictly below
    ``commit_threshold`` times the local-scheduling cost — below 1.0
    demands a margin, above 1.0 tolerates modeled regressions (useful
    for measuring the cost model itself, and for the fault harness,
    which needs plans to reach verification deterministically)."""

    max_blocks: int = 4
    dup_budget: int = 12
    hot_threshold: int = 1
    speculate: bool = False
    max_hoists: int = 4
    commit_threshold: float = 1.0


@dataclass(frozen=True)
class Superblock:
    """A single-entry chain of fall-through block indexes."""

    blocks: tuple[int, ...]

    @property
    def head(self) -> int:
        return self.blocks[0]

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


class Profile:
    """Block execution frequencies driving formation and commit.

    Wraps either measured counts (QPT edge/block profiles, e.g.
    ``SyntheticProgram.frequencies``) or the classic static estimate of
    ``10 ** loop_depth`` when no measurement exists. The profile is
    purely advisory: a wrong profile can only cost cycles, never
    correctness."""

    def __init__(self, frequencies) -> None:
        self._frequencies = dict(frequencies)

    def frequency(self, block_index: int) -> int:
        return self._frequencies.get(block_index, 0)

    @classmethod
    def static_estimate(cls, cfg: CFG) -> "Profile":
        forest = LoopForest(cfg)
        return cls(
            {
                block.index: 10 ** min(forest.depth(block.index), 6)
                for block in cfg.blocks
            }
        )


@dataclass(frozen=True)
class SpeculationRecord:
    """One hoist attempt across a boundary with a live side exit —
    kept for the fault-injection harness, which asserts that every
    oracle-approved but *unsafe* hoist is caught by verification."""

    block: int
    exit_block: int
    instructions: tuple[Instruction, ...]


@dataclass
class SuperblockPlan:
    """A fully planned (and, in guarded mode, verified) superblock."""

    superblock: Superblock
    #: final scheduled body per member block, in chain order.
    bodies: list[list[Instruction]]
    #: taken edge -> compensation copies for boundaries that sank code.
    compensation: dict[Edge, list[Instruction]]
    #: (original, scheduled) cycles per member block, None for an
    #: empty body: the build's accounting, kept with the plan so that a
    #: plan served from the cache reports what the fresh plan did.
    cycles: list[tuple[int, int] | None] = field(default_factory=list)
    moves: int = 0
    copies: int = 0
    local_cost: int = 0
    superblock_cost: int = 0


def _chain_boundary_ok(block: BasicBlock) -> bool:
    """Can a chain continue *through* this block's terminator?"""
    term = block.terminator
    if term is None:
        return True
    if term.category not in (Category.BRANCH, Category.FBRANCH):
        return False
    if term.info.is_unconditional:
        return False
    if term.annul:
        # An annulled delay slot executes only when the branch is
        # taken; the fall-through path we carry state over skips it,
        # which breaks the "delay belongs to both paths" invariant the
        # planner relies on.
        return False
    return True


def _call_targets(cfg: CFG) -> frozenset[int]:
    targets = set()
    for block in cfg.blocks:
        if block.callee is None:
            continue
        target = cfg.block_by_address.get(block.callee)
        if target is not None:
            targets.add(target.index)
    return frozenset(targets)


def form_superblocks(
    cfg: CFG,
    profile: Profile,
    config: SuperblockConfig | None = None,
    *,
    excluded: frozenset[int] = frozenset(),
    blocked_edges: frozenset[tuple[int, int]] = frozenset(),
) -> list[Superblock]:
    """Grow superblocks over ``cfg``, hottest seeds first.

    ``excluded`` blocks are never *absorbed* (they may still seed a
    chain); formation always excludes the CFG entry and call targets on
    top of it. ``blocked_edges`` are (src, dst) fall-through boundaries
    a chain may not cross — e.g. edges the editor already instruments.
    """
    config = config or SuperblockConfig()
    never_absorb = set(excluded) | {cfg.entry_index} | set(_call_targets(cfg))
    forest = LoopForest(cfg)
    headers = set(forest.headers())

    def heat(index: int) -> tuple[int, int]:
        return (-profile.frequency(index), index)

    seeds = sorted(headers, key=heat) + sorted(
        (b.index for b in cfg.blocks if b.index not in headers), key=heat
    )

    claimed: set[int] = set()
    superblocks: list[Superblock] = []
    for seed in seeds:
        if seed in claimed or profile.frequency(seed) < config.hot_threshold:
            continue
        chain = [seed]
        claimed.add(seed)
        while len(chain) < config.max_blocks:
            tail = cfg.blocks[chain[-1]]
            if not _chain_boundary_ok(tail):
                break
            fall = next((e for e in tail.succs if e.kind == "fallthrough"), None)
            if fall is None:
                break
            succ = cfg.blocks[fall.dst]
            if (
                succ.index in claimed
                or succ.index in never_absorb
                or len(succ.preds) != 1
                or (tail.index, succ.index) in blocked_edges
            ):
                break
            chain.append(succ.index)
            claimed.add(succ.index)
        if len(chain) >= 2:
            superblocks.append(Superblock(tuple(chain)))
        else:
            claimed.discard(seed)
    return superblocks


def _masked_equal(
    a, b, live_ints: list[int], live_fps: list[int]
) -> bool:
    """Architectural equality restricted to the registers live at the
    side-exit target (plus all of memory and the condition state) —
    the comparison a speculative hoist is allowed to be judged by."""
    if a.memory.snapshot() != b.memory.snapshot():
        return False
    if (a.icc_n, a.icc_z, a.icc_v, a.icc_c) != (b.icc_n, b.icc_z, b.icc_v, b.icc_c):
        return False
    if a.fcc != b.fcc or a.y != b.y:
        return False
    if any(a.get_reg(i) != b.get_reg(i) for i in live_ints):
        return False
    if any(a.get_freg(i) != b.get_freg(i) for i in live_fps):
        return False
    return True


def masked_differential(
    original: list[Instruction],
    scheduled: list[Instruction],
    live: frozenset[Reg],
    *,
    trials: int = 4,
    seed: int = DEFAULT_SEED,
    orig_base: int = 0x0002_0000,
    instr_base: int = 0x0003_0000,
) -> VerificationResult:
    """Differentially execute two straight-line prefixes and compare
    only what the side-exit continuation can observe: everything except
    registers *dead* at the exit target. The relaxation that makes
    speculative hoisting verifiable — a hoisted instruction legitimately
    leaves a different value in a dead register."""
    live_ints = sorted(r.index for r in live if r.kind is RegKind.INT)
    live_fps = sorted(r.index for r in live if r.kind is RegKind.FP)
    failures: list[str] = []
    rng = random.Random(seed)
    for trial in range(trials):
        state_a = _random_state(rng, orig_base=orig_base, instr_base=instr_base)
        state_b = state_a.copy()
        error_a = error_b = None
        try:
            run_straightline(state_a, original)
        except (SemanticsError, MemoryFault) as exc:
            error_a = str(exc)
        try:
            run_straightline(state_b, scheduled)
        except (SemanticsError, MemoryFault) as exc:
            error_b = str(exc)
        if error_a is not None or error_b is not None:
            if error_a != error_b:
                failures.append(
                    f"trial {trial}: original={error_a!r} scheduled={error_b!r}"
                )
            continue
        if not _masked_equal(state_a, state_b, live_ints, live_fps):
            failures.append(
                f"trial {trial}: states diverge on a register live at the side exit"
            )
    return VerificationResult(not failures, failures)


class SuperblockScheduler:
    """Editor transform wrapping an inner per-block scheduler.

    ``prepare`` (the editor's pre-layout hook) forms, plans, verifies,
    and commits superblocks; ``__call__`` then serves each planned
    block's scheduled body and delegates every other block to ``inner``
    (a :class:`~repro.core.block_scheduler.BlockScheduler`,
    :class:`~repro.robust.guard.GuardedBlockScheduler`, or
    :class:`~repro.parallel.executor.ParallelScheduler` — whose own
    ``prepare`` is forwarded with the planned blocks excluded).

    ``profile`` is a :class:`Profile`, a plain ``{block: count}``
    mapping, or None for the static loop-depth estimate.
    ``liveness_factory`` feeds *only* the speculation gate; guarded
    verification always re-derives liveness itself.
    """

    def __init__(
        self,
        model: MachineModel,
        policy: SchedulingPolicy | None = None,
        recorder: Recorder | None = None,
        *,
        inner=None,
        config: SuperblockConfig | None = None,
        profile=None,
        guarded: bool = False,
        verify_trials: int = 4,
        verify_seed: int = DEFAULT_SEED,
        cache=None,
        liveness_factory=None,
        provenance=None,
    ) -> None:
        self.model = model
        self.policy = policy or SchedulingPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: optional :class:`repro.obs.provenance.ProvenanceLog`. Blocks
        #: the pass delegates record through the inner scheduler;
        #: committed superblock plans record via a replay of the winning
        #: variant (rejected variants never pollute the log). Plans
        #: served from the cache record nothing, like any cache hit.
        self.provenance = provenance
        self.inner = (
            inner
            if inner is not None
            else BlockScheduler(
                model, self.policy, self.recorder, provenance=provenance
            )
        )
        self.config = config or SuperblockConfig()
        self.profile = profile
        self.guarded = guarded
        self.verify_trials = verify_trials
        self.verify_seed = verify_seed
        self.cache = cache if cache is not None else getattr(self.inner, "cache", None)
        self._cache_context = (
            self.cache.context_for(model, self.policy)
            if self.cache is not None
            else None
        )
        self._liveness_factory = (
            liveness_factory if liveness_factory is not None else LivenessAnalysis
        )
        #: telemetry-free planner: both estimate variants must be
        #: costed identically, and rejected plans must not pollute the
        #: scheduler-decision counters. Committed plans replay hazard
        #: attribution through the real recorder instead.
        self._planner = ListScheduler(model, self.policy)
        self._stats = SchedulerStats()
        self._planned: dict[int, list[Instruction]] = {}
        self._previews: dict[int, list[Instruction]] = {}
        self.superblocks: list[Superblock] = []
        self.plans: list[SuperblockPlan] = []
        self.speculated: list[SpeculationRecord] = []
        self.formed = 0
        self.cross_block_moves = 0
        self.compensation_copies = 0
        self._quarantined: list = []

    # -- delegation --------------------------------------------------------------

    @property
    def stats(self) -> SchedulerStats:
        inner = getattr(self.inner, "stats", None) or SchedulerStats()
        return SchedulerStats(
            blocks=self._stats.blocks + inner.blocks,
            instructions=self._stats.instructions + inner.instructions,
            original_cycles=self._stats.original_cycles + inner.original_cycles,
            scheduled_cycles=self._stats.scheduled_cycles + inner.scheduled_cycles,
            delay_slots_filled=inner.delay_slots_filled,
        )

    @property
    def quarantine(self) -> tuple:
        return tuple(self._quarantined) + tuple(getattr(self.inner, "quarantine", ()))

    @property
    def fallbacks(self) -> int:
        return getattr(self.inner, "fallbacks", 0)

    # -- editor transform protocol ----------------------------------------------

    def prepare(self, editor) -> None:
        """Plan every committable superblock, emit its compensation
        edges, then hand the remaining blocks to the inner scheduler's
        own prepare hook (cache warming), if it has one."""
        claimed = self._plan_all(editor)
        inner_prepare = getattr(self.inner, "prepare", None)
        if inner_prepare is not None:
            inner_prepare(editor, skip_blocks=frozenset(claimed))

    def __call__(
        self, block: BasicBlock, body: list[Instruction]
    ) -> tuple[list[Instruction], Instruction | None]:
        planned = self._planned.get(block.index)
        if planned is None:
            return self.inner(block, body)
        if body != self._previews[block.index]:
            from ..eel.editor import EditError  # lazy: editor imports core

            raise EditError(
                f"block {block.index} changed between superblock planning "
                "and layout; plans are only valid within one build"
            )
        self.recorder.count(SCHED_BLOCKS)
        # The delay slot is never refilled for a planned block: refill
        # moves the last scheduled instruction past code this plan may
        # have sunk across the boundary, which the plan did not verify.
        return list(planned), block.delay

    # -- planning ----------------------------------------------------------------

    def _resolve_profile(self, cfg: CFG) -> Profile:
        if self.profile is None:
            return Profile.static_estimate(cfg)
        if isinstance(self.profile, Profile):
            return self.profile
        return Profile(self.profile)

    def _plan_all(self, editor) -> list[int]:
        cfg = editor.cfg
        profile = self._resolve_profile(cfg)
        # A fall-through edge the editor already instruments gets an
        # inline block between src and dst at layout time — code our
        # fall-through path model would not see. Never chain across one.
        blocked = frozenset(getattr(editor, "_fallthrough_edge_insertions", {}))
        candidates = form_superblocks(
            cfg, profile, self.config, blocked_edges=blocked
        )
        claimed: list[int] = []
        for superblock in candidates:
            plan = self._plan_superblock(editor, cfg, superblock, profile)
            if plan is None:
                continue
            self._commit(editor, cfg, plan)
            claimed.extend(superblock.blocks)
        return claimed

    def _plan_superblock(
        self, editor, cfg: CFG, superblock: Superblock, profile: Profile
    ) -> SuperblockPlan | None:
        blocks = [cfg.blocks[i] for i in superblock.blocks]
        previews = {b.index: list(editor.block_body(b)) for b in blocks}
        bodies = [list(previews[b.index]) for b in blocks]
        if any(inst.is_control for body in bodies for inst in body):
            return None
        terms = [b.terminator for b in blocks]
        delays = [b.delay for b in blocks]
        freqs = [max(profile.frequency(i), 0) for i in superblock.blocks]
        if all(f == 0 for f in freqs):
            return None
        n = len(blocks)

        taken_blocked = set(getattr(editor, "_taken_edge_insertions", {}))
        cached = self._cache_lookup(cfg, blocks, bodies, terms, delays, freqs)
        if cached is not None:
            plan = cached._to_plan(superblock, cfg)
            if not any(
                (edge.src, edge.dst) in taken_blocked for edge in plan.compensation
            ):
                for index, preview in previews.items():
                    self._previews[index] = preview
                return plan
            # A side exit gained instrumentation since the plan was
            # cached; replan around it.

        # -- cross-boundary motion
        working = [list(body) for body in bodies]
        sunk_prefix = [0] * n
        sink_sets: list[list[Instruction]] = [[] for _ in range(n - 1)]
        hoist_sets: list[list[Instruction]] = [[] for _ in range(n - 1)]
        comp_edges: list[Edge | None] = [None] * (n - 1)
        exit_edges: list[Edge | None] = [None] * (n - 1)
        budget = self.config.dup_budget
        oracle = None
        for i in range(n - 1):
            term, delay = terms[i], delays[i]
            taken = next(
                (e for e in blocks[i].succs if e.kind == "taken"), None
            )
            exit_edges[i] = taken
            never_taken = term is not None and term.mnemonic in _NEVER_TAKEN
            needs_comp = term is not None and not never_taken
            if needs_comp:
                if taken is None:
                    continue  # taken target outside the text: uncompensatable
                if taken.dst == blocks[i + 1].index:
                    # Branch-to-next: both paths reach the successor, so
                    # sunk code would execute twice via the trampoline,
                    # and a hoist's exit-liveness model breaks.
                    continue
                if (taken.src, taken.dst) in taken_blocked:
                    # Someone else already instruments this side exit;
                    # appending compensation behind their code has an
                    # unverified execution order. Leave the boundary be.
                    continue
            # Sinking is attempted at every compensable boundary; the
            # profile-weighted gate below charges the predicted side-exit
            # executions of the compensation copies, so an unprofitable
            # sink is priced out rather than forbidden up front.
            sink = self._sink_set(working[i], sunk_prefix[i], term, delay)
            if needs_comp and sink and len(sink) > budget:
                sink = []
            if sink:
                chosen = set(sink)
                moved = [working[i][j] for j in sink]
                working[i] = [
                    inst for j, inst in enumerate(working[i]) if j not in chosen
                ]
                working[i + 1] = moved + working[i + 1]
                sunk_prefix[i + 1] = len(moved)
                sink_sets[i] = moved
                if needs_comp:
                    budget -= len(moved)
                    comp_edges[i] = taken
                continue
            if self.config.speculate:
                live = None
                if needs_comp:
                    if oracle is None:
                        oracle = self._liveness_factory(cfg)
                    live = oracle.live_in(taken.dst)
                hoist = self._hoist_set(working[i + 1], term, delay, live)
                if hoist:
                    chosen = set(hoist)
                    moved = [working[i + 1][j] for j in hoist]
                    working[i + 1] = [
                        inst
                        for j, inst in enumerate(working[i + 1])
                        if j not in chosen
                    ]
                    working[i] = working[i] + moved
                    hoist_sets[i] = moved
                    if needs_comp:
                        self.speculated.append(
                            SpeculationRecord(
                                block=blocks[i + 1].index,
                                exit_block=taken.dst,
                                instructions=tuple(moved),
                            )
                        )

        # -- carry-in scheduling across the chain, for the motion
        #    variant and (when any motion happened) a no-motion variant:
        #    carry-in-aware ordering alone sometimes wins where a sink
        #    loses, and a bad sink must not poison the whole plan.
        results, superblock_costs = self._evaluate(working, terms, delays)
        scheds = [r.instructions if r is not None else [] for r in results]
        winning = working
        moved = any(sink_sets) or any(hoist_sets)

        # -- verify before costing, so a planted fault is always
        #    exercised regardless of whether the plan would pay off.
        if self.guarded:
            failure = self._verify_plan(
                cfg,
                bodies,
                scheds,
                terms,
                delays,
                sink_sets,
                hoist_sets,
                comp_edges,
                exit_edges,
            )
            if failure is not None:
                self._quarantine(superblock, blocks[0], failure)
                return None

        # -- profile-weighted commit gate. The local baseline schedules
        #    each block in isolation (exactly what the inner scheduler
        #    would emit) but times the sequence with the pipeline state
        #    threaded, so both variants are costed on the same terms.
        state = PipelineState(self.model)
        cycle = 0
        local_checkpoints: list[int] = []
        for i in range(n):
            if bodies[i]:
                local = self._planner.schedule_region(list(bodies[i]))
                for inst in local.instructions:
                    cycle = issue(cycle, state, inst).issue_cycle
            for extra in (terms[i], delays[i]):
                if extra is not None:
                    cycle = issue(cycle, state, extra).issue_cycle
            local_checkpoints.append(cycle)
        local_costs = _marginal(local_checkpoints)

        total_superblock = sum(f * c for f, c in zip(freqs, superblock_costs))
        total_local = sum(f * c for f, c in zip(freqs, local_costs))
        for i in range(n - 1):
            if comp_edges[i] is not None and sink_sets[i]:
                predicted_taken = max(freqs[i] - freqs[i + 1], 0)
                # the trampoline adds its own ba + nop on the exit path.
                total_superblock += predicted_taken * (
                    issue_cycles(self.model, sink_sets[i])[0] + 2
                )

        if moved:
            plain_results, plain_costs = self._evaluate(bodies, terms, delays)
            total_plain = sum(f * c for f, c in zip(freqs, plain_costs))
            if total_plain < total_superblock:
                plain_scheds = [
                    r.instructions if r is not None else [] for r in plain_results
                ]
                if self.guarded:
                    empty: list[list[Instruction]] = [[] for _ in range(n - 1)]
                    failure = self._verify_plan(
                        cfg,
                        bodies,
                        plain_scheds,
                        terms,
                        delays,
                        empty,
                        [list(s) for s in empty],
                        [None] * (n - 1),
                        exit_edges,
                    )
                    if failure is not None:
                        self._quarantine(superblock, blocks[0], failure)
                        return None
                results, scheds = plain_results, plain_scheds
                winning = bodies
                total_superblock = total_plain
                sink_sets = [[] for _ in range(n - 1)]
                hoist_sets = [[] for _ in range(n - 1)]
                comp_edges = [None] * (n - 1)

        if total_superblock >= self.config.commit_threshold * total_local:
            return None

        for index, preview in previews.items():
            self._previews[index] = preview
        plan = SuperblockPlan(
            superblock=superblock,
            bodies=scheds,
            compensation={
                comp_edges[i]: list(sink_sets[i])
                for i in range(n - 1)
                if comp_edges[i] is not None and sink_sets[i]
            },
            cycles=[
                None if r is None else (r.original_cycles, r.scheduled_cycles)
                for r in results
            ],
            moves=sum(len(s) for s in sink_sets) + sum(len(h) for h in hoist_sets),
            copies=sum(
                len(sink_sets[i]) for i in range(n - 1) if comp_edges[i] is not None
            ),
            local_cost=total_local,
            superblock_cost=total_superblock,
        )
        self._cache_insert(cfg, blocks, bodies, terms, delays, freqs, plan)
        self._record_plan_provenance(blocks, winning, terms, delays)
        return plan

    def _record_plan_provenance(
        self,
        blocks: list[BasicBlock],
        winning: list[list[Instruction]],
        terms: list[Instruction | None],
        delays: list[Instruction | None],
    ) -> None:
        """Replay the committed variant through a provenance-enabled
        scheduler. Mirrors :meth:`_evaluate` exactly (same carried-in
        pipeline state), so the recorded decisions are the ones that
        produced the committed bodies; the planner itself stays
        telemetry-free so rejected variants never reach the log."""
        if self.provenance is None:
            return
        planner = ListScheduler(
            self.model, self.policy, provenance=self.provenance
        )
        state = PipelineState(self.model)
        cycle = 0
        for i, body in enumerate(winning):
            self.provenance.current_block = blocks[i].index
            if body:
                result = planner.schedule_region(
                    list(body), entry_state=state, entry_cycle=cycle
                )
                cycle = result.exit_cycle
            for extra in (terms[i], delays[i]):
                if extra is not None:
                    cycle = issue(cycle, state, extra).issue_cycle

    def _evaluate(
        self,
        working: list[list[Instruction]],
        terms: list[Instruction | None],
        delays: list[Instruction | None],
    ) -> tuple[list[ScheduleResult | None], list[int]]:
        """Schedule each member body with the pipeline state carried in
        from its predecessors; returns the results and the per-block
        marginal cycle costs (terminator and delay slot included)."""
        results: list[ScheduleResult | None] = []
        state = PipelineState(self.model)
        cycle = 0
        checkpoints: list[int] = []
        for i, body in enumerate(working):
            if body:
                result = self._planner.schedule_region(
                    list(body), entry_state=state, entry_cycle=cycle
                )
                cycle = result.exit_cycle
                results.append(result)
            else:
                results.append(None)
            for extra in (terms[i], delays[i]):
                if extra is not None:
                    cycle = issue(cycle, state, extra).issue_cycle
            checkpoints.append(cycle)
        return results, _marginal(checkpoints)

    # -- motion sets -------------------------------------------------------------

    def _crosses_safely(
        self,
        inst: Instruction,
        term: Instruction | None,
        delay: Instruction | None,
    ) -> bool:
        """Register/memory safety of moving ``inst`` across a boundary's
        terminator and delay-slot instruction (either direction)."""
        writes = inst.regs_written()
        reads = inst.regs_read()
        if term is not None and writes & term.regs_read():
            return False
        if delay is not None:
            if writes & (delay.regs_read() | delay.regs_written()):
                return False
            if reads & delay.regs_written():
                return False
            if _memory_conflict(inst, delay, self.policy) or _memory_conflict(
                delay, inst, self.policy
            ):
                return False
        return True

    def _sink_set(
        self,
        body: list[Instruction],
        protected_prefix: int,
        term: Instruction | None,
        delay: Instruction | None,
    ) -> list[int]:
        """Indexes of ``body`` safe to sink past (term, delay) — bottom-
        closed in the body's dependence DAG so no intra-block dependence
        is left behind. The first ``protected_prefix`` entries arrived
        by sinking across the previous boundary and never cascade."""
        graph = build_dependence_graph(body, self.policy)
        candidates = {
            j
            for j in range(protected_prefix, len(body))
            if self._crosses_safely(body[j], term, delay)
        }
        changed = True
        while changed:
            changed = False
            for j in list(candidates):
                if any(s not in candidates for s in graph.succs[j]):
                    candidates.discard(j)
                    changed = True
        return sorted(candidates)

    def _hoist_set(
        self,
        body: list[Instruction],
        term: Instruction | None,
        delay: Instruction | None,
        exit_live: frozenset[Reg] | None,
    ) -> list[int]:
        """Indexes of the successor's body safe to hoist above the
        boundary: top-closed, ALU-only (no memory, no control), safe
        against term/delay, and — when a side exit exists — writing only
        registers the liveness oracle says are dead at its target."""
        graph = build_dependence_graph(body, self.policy)
        hoisted: list[int] = []
        chosen: set[int] = set()
        for j, inst in enumerate(body):
            if len(hoisted) >= self.config.max_hoists:
                break
            if inst.is_control or inst.memory is not None:
                continue
            if any(p not in chosen for p in graph.preds[j]):
                continue
            if not self._crosses_safely(inst, term, delay):
                continue
            if exit_live is not None and inst.regs_written() & exit_live:
                continue
            hoisted.append(j)
            chosen.add(j)
        return hoisted

    # -- verification ------------------------------------------------------------

    def _check_exact(
        self, original: list[Instruction], scheduled: list[Instruction]
    ) -> str | None:
        """The guard's verification ladder; a failure reason, or None."""
        from ..analyze.ladder import prove_schedule  # lazy: analyze imports core

        result, _gate = prove_schedule(
            original,
            scheduled,
            policy=self.policy,
            trials=self.verify_trials,
            seed=self.verify_seed,
            recorder=self.recorder,
        )
        return None if result.ok else "; ".join(result.failures)

    def _verify_plan(
        self,
        cfg: CFG,
        bodies: list[list[Instruction]],
        scheds: list[list[Instruction]],
        terms: list[Instruction | None],
        delays: list[Instruction | None],
        sink_sets: list[list[Instruction]],
        hoist_sets: list[list[Instruction]],
        comp_edges: list[Edge | None],
        exit_edges: list[Edge | None],
    ) -> str | None:
        """Prove the fall-through path and every side exit, per the
        module docstring. Returns a failure reason, or None."""
        n = len(bodies)
        original: list[Instruction] = []
        scheduled: list[Instruction] = []
        for i in range(n):
            original += bodies[i]
            scheduled += scheds[i]
            if i < n - 1 and delays[i] is not None:
                original.append(delays[i])
                scheduled.append(delays[i])
        failure = self._check_exact(original, scheduled)
        if failure is not None:
            return f"fall-through path: {failure}"

        fresh_liveness = None
        orig_prefix: list[Instruction] = []
        new_prefix: list[Instruction] = []
        for i in range(n - 1):
            orig_prefix = orig_prefix + bodies[i]
            new_prefix = new_prefix + scheds[i]
            if delays[i] is not None:
                orig_prefix = orig_prefix + [delays[i]]
                new_prefix = new_prefix + [delays[i]]
            taken = exit_edges[i]
            if taken is None:
                continue
            exit_orig = orig_prefix
            exit_new = new_prefix
            if comp_edges[i] is not None and sink_sets[i]:
                exit_new = exit_new + sink_sets[i]
            if hoist_sets[i]:
                # Hoisted code is extra on this exit path; compare only
                # what its continuation can observe, under liveness we
                # compute ourselves (the oracle is untrusted here).
                if fresh_liveness is None:
                    fresh_liveness = LivenessAnalysis(cfg)
                live = fresh_liveness.live_in(taken.dst)
                from ..analyze.sym_verify import symbolic_masked_verify  # lazy

                verdict = symbolic_masked_verify(
                    exit_orig,
                    exit_new,
                    live,
                    policy=self.policy,
                    seed=self.verify_seed,
                )
                if verdict.proven:
                    self.recorder.count(ANALYZE_SYMBOLIC_PASS)
                    continue
                if verdict.refuted:
                    self.recorder.count(ANALYZE_SYMBOLIC_REFUTED)
                    reasons = list(verdict.reasons)
                    if verdict.counterexample is not None:
                        reasons.append(f"counterexample: {verdict.counterexample}")
                    return f"side exit at boundary {i}: " + "; ".join(reasons)
                self.recorder.count(ANALYZE_SYMBOLIC_ESCALATED)
                result = masked_differential(
                    exit_orig,
                    exit_new,
                    live,
                    trials=self.verify_trials,
                    seed=self.verify_seed,
                )
                if not result.ok:
                    return (
                        f"side exit at boundary {i}: "
                        + ("; ".join(result.failures) or "masked differential failed")
                    )
            else:
                failure = self._check_exact(exit_orig, exit_new)
                if failure is not None:
                    return f"side exit at boundary {i}: {failure}"
        return None

    def _quarantine(self, superblock: Superblock, head: BasicBlock, reason: str) -> None:
        from ..robust.guard import QuarantineReport  # lazy: robust imports core

        report = QuarantineReport(
            block=head.index,
            address=head.address,
            kind="superblock-verification",
            reason=f"superblock {tuple(superblock.blocks)}: {reason}",
        )
        self._quarantined.append(report)
        self.recorder.count(GUARD_QUARANTINED, kind=report.kind)

    # -- commit ------------------------------------------------------------------

    def _commit(self, editor, cfg: CFG, plan: SuperblockPlan) -> None:
        rec = self.recorder
        for index, body in zip(plan.superblock.blocks, plan.bodies):
            self._planned[index] = body
        for edge, copies in plan.compensation.items():
            editor.instrument_edge(edge, list(copies))
        self.superblocks.append(plan.superblock)
        self.plans.append(plan)
        self.formed += 1
        self.cross_block_moves += plan.moves
        self.compensation_copies += plan.copies
        rec.count(SB_FORMED)
        rec.observe(SB_LEN, len(plan.superblock))
        if plan.moves:
            rec.count(SB_CROSS_MOVES, plan.moves)
        if plan.copies:
            rec.count(SB_COMPENSATION, plan.copies)
        if self.guarded:
            for _ in plan.superblock.blocks:
                rec.count(GUARD_BLOCKS_VERIFIED)
        for body, cycles in zip(plan.bodies, plan.cycles):
            self._stats.blocks += 1
            if cycles is not None:
                self._stats.instructions += len(body)
                self._stats.original_cycles += cycles[0]
                self._stats.scheduled_cycles += cycles[1]
        if rec.enabled:
            self._replay_attribution(cfg, plan)

    def _replay_attribution(self, cfg: CFG, plan: SuperblockPlan) -> None:
        """Re-issue the committed schedule through the recorder so the
        hazard-attribution counters reflect served plans, mirroring what
        the guard does for cache hits — state threaded across the chain
        exactly as the plan costed it."""
        state = PipelineState(self.model)
        cycle = 0
        for index, body in zip(plan.superblock.blocks, plan.bodies):
            block = cfg.blocks[index]
            for inst in body:
                cycle = issue(cycle, state, inst, self.recorder).issue_cycle
            for extra in (block.terminator, block.delay):
                if extra is not None:
                    cycle = issue(cycle, state, extra, self.recorder).issue_cycle

    # -- cache -------------------------------------------------------------------

    def _cache_key(self, cfg, blocks, bodies, terms, delays, freqs) -> str | None:
        if self.cache is None or self.config.speculate:
            # A speculative plan depends on CFG-wide liveness, which the
            # superblock's own content cannot fingerprint; don't memoize.
            return None
        lookup = getattr(self.cache, "lookup_superblock", None)
        if lookup is None:
            return None
        from ..parallel.fingerprint import superblock_digest  # lazy

        # Boundary structure the instruction content alone cannot see:
        # whether the side exit exists in the text and whether it is the
        # branch-to-next degenerate case — both change plan legality.
        structure = []
        for i in range(len(blocks) - 1):
            taken = next((e for e in blocks[i].succs if e.kind == "taken"), None)
            structure.append(
                (taken is not None, taken is not None and taken.dst == blocks[i + 1].index)
            )
        return superblock_digest(
            bodies,
            terms,
            delays,
            extra=(
                tuple(freqs),
                tuple(structure),
                self.config.max_blocks,
                self.config.dup_budget,
                self.config.commit_threshold,
            ),
        )

    def _cache_lookup(self, cfg, blocks, bodies, terms, delays, freqs):
        digest = self._cache_key(cfg, blocks, bodies, terms, delays, freqs)
        if digest is None:
            return None
        return self.cache.lookup_superblock(
            self._cache_context, digest, require_verified=self.guarded
        )

    def _cache_insert(
        self, cfg, blocks, bodies, terms, delays, freqs, plan: SuperblockPlan
    ) -> None:
        digest = self._cache_key(cfg, blocks, bodies, terms, delays, freqs)
        if digest is None:
            return
        self.cache.insert_superblock(
            self._cache_context, digest, plan, verified=self.guarded
        )


def _marginal(checkpoints: list[int]) -> list[int]:
    costs = []
    previous = 0
    for value in checkpoints:
        costs.append(value - previous)
        previous = value
    return costs
