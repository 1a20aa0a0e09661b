"""Fault injection: prove the guards catch what they claim to catch.

The harness deliberately breaks each layer the guarded pipeline defends
and asserts the break is *caught* — a quarantine or a typed error, never
a silently wrong output:

* **model faults** (:data:`MODEL_FAULTS`) corrupt a machine model's
  timing traces — a write latency of zero, a read after retirement, a
  dropped ``release``, issue-slot acquires swapped onto the wrong unit,
  over-releases, capacity overflows. Every one must be flagged by
  :func:`~repro.spawn.validate.validate_machine` and must quarantine a
  :class:`~repro.robust.guard.GuardedBlockScheduler` at construction.
* **encoding faults** flip every bit of every instruction word of a
  real program. Each flip must either raise
  :class:`~repro.isa.decode.DecodeError` or decode to an instruction
  that re-encodes to exactly the flipped word (the change is visible in
  the IR). A flip that decodes but re-encodes differently is a *silent
  misdecode* — the paper's "dominant source of subtle bugs" — and
  counts as an escape.
* **scheduler faults** (:data:`SCHEDULER_MUTATIONS`) wrap the real
  scheduler in a :class:`SabotagedScheduler` that applies an illegal
  mutation (swapping a dependent pair, dropping or duplicating an
  instruction) to each block's schedule. Every sabotaged block must be
  quarantined by the guard's verification ladder.
* **symbolic-validator faults** (:func:`inject_symbolic_faults`) aim
  the same corruptions — plus block reversal and immediate tampering —
  at the static→symbolic proof chain instead of the dynamic guard. A
  corrupted block the chain calls *proven* is a false proof unless a
  differential battery confirms the corruption was semantically
  harmless; the must-catch bar is zero false proofs.
* **instrumentation faults** (:func:`inject_clobber_faults`) make the
  profiler deliberately pick *live* registers as counter scratch — the
  snippets corrupt program state, yet every block is a perfectly legal
  schedule, so the dynamic guard structurally cannot object. Only the
  whole-image static analysis (:func:`repro.analyze.lint_profiled`'s
  ``image/clobber-live-register`` rule) sees the clobber.
* **superblock faults** (:func:`inject_superblock_faults`) hand the
  superblock scheduler a corrupted liveness oracle that claims every
  register is dead at every side exit, provoking speculative hoists
  that clobber registers the side-exit target reads. Guarded
  verification recomputes liveness itself, so every unsafe hoist must
  fail the masked differential and quarantine the superblock.
* **cache faults** (:func:`inject_cache_faults`) attack the
  content-addressed schedule cache: entries warmed under a healthy
  model must be invisible to a corrupted variant (no stale masking), a
  deliberately wrong *unverified* entry planted under the live context
  must never be served by the guard, and blocks a sabotaged scheduler
  corrupts must leave no cache entry behind.

``python -m repro.tools.qpt_cli faults --machine ultrasparc`` runs the
whole catalog and exits nonzero if anything escapes; CI runs it against
the UltraSPARC model and a synthetic 4-wide machine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from ..core.dependence import SchedulingPolicy, build_dependence_graph
from ..core.block_scheduler import BlockScheduler
from ..core.verify import DEFAULT_SEED
from ..eel.editor import Editor
from ..eel.executable import Executable
from ..isa.decode import DecodeError, decode
from ..isa.encode import encode
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..sadl.trace import Trace, UnitEvent
from ..spawn.model import MachineModel
from ..spawn.validate import validate_machine
from .guard import GuardedBlockScheduler

# -- model corruption ------------------------------------------------------------


@dataclass(frozen=True)
class ModelFault:
    """One way to corrupt a machine description's timing traces."""

    name: str
    description: str
    corrupt: Callable[[Trace, MachineModel], Trace]


def _copy_trace(trace: Trace) -> Trace:
    return Trace(
        acquires=list(trace.acquires),
        releases=list(trace.releases),
        reads=list(trace.reads),
        writes=list(trace.writes),
        flags=set(trace.flags),
        cycles=trace.cycles,
    )


def _fault_write_latency_zero(trace: Trace, model: MachineModel) -> Trace:
    trace.writes = [
        type(a)(a.file, a.index, 0, a.width) for a in trace.writes
    ]
    return trace


def _fault_read_after_retire(trace: Trace, model: MachineModel) -> Trace:
    trace.reads = [
        type(a)(a.file, a.index, trace.cycles + 1, a.width) for a in trace.reads
    ]
    return trace


def _fault_dropped_release(trace: Trace, model: MachineModel) -> Trace:
    trace.releases = []
    return trace


def _fault_swapped_units(trace: Trace, model: MachineModel) -> Trace:
    other = next((u for u in sorted(model.units) if u != "Group"), None)
    if other is None:
        return trace

    def swap(event: UnitEvent) -> UnitEvent:
        if event.unit == "Group":
            return UnitEvent(other, event.count, event.cycle)
        if event.unit == other:
            return UnitEvent("Group", event.count, event.cycle)
        return event

    trace.acquires = [swap(e) for e in trace.acquires]
    trace.releases = [swap(e) for e in trace.releases]
    return trace


def _fault_over_release(trace: Trace, model: MachineModel) -> Trace:
    if trace.releases:
        first = trace.releases[0]
        trace.releases = list(trace.releases) + [
            UnitEvent(first.unit, first.count + 1, first.cycle)
        ]
    return trace


def _fault_capacity_overflow(trace: Trace, model: MachineModel) -> Trace:
    if trace.acquires:
        first = trace.acquires[0]
        capacity = model.units.get(first.unit, 1)
        trace.acquires = [UnitEvent(first.unit, capacity + 1, first.cycle)] + list(
            trace.acquires[1:]
        )
    return trace


#: The model-corruption catalog: every entry must be caught by
#: ``validate_machine`` (and therefore quarantine a guard at init).
MODEL_FAULTS: tuple[ModelFault, ...] = (
    ModelFault(
        "write-latency-zero",
        "every write's value usable in cycle 0 (impossible forwarding)",
        _fault_write_latency_zero,
    ),
    ModelFault(
        "read-after-retire",
        "every register read moved past the end of the pipeline",
        _fault_read_after_retire,
    ),
    ModelFault(
        "dropped-release",
        "all unit releases removed: capacity leaks until deadlock",
        _fault_dropped_release,
    ),
    ModelFault(
        "swapped-units",
        "issue-slot ('Group') events swapped with another unit",
        _fault_swapped_units,
    ),
    ModelFault(
        "over-release",
        "a unit released more times than it was acquired",
        _fault_over_release,
    ),
    ModelFault(
        "capacity-overflow",
        "an acquire demands more copies of a unit than the machine has",
        _fault_capacity_overflow,
    ),
)


class CorruptedModel:
    """A machine model with a :class:`ModelFault` applied to every trace.

    Duck-types the :class:`~repro.spawn.model.MachineModel` surface that
    ``validate_machine`` and the schedulers use; everything it does not
    override delegates to the base model.
    """

    def __init__(self, base: MachineModel, fault: ModelFault) -> None:
        self._base = base
        self.fault = fault
        self.name = f"{base.name}+{fault.name}"

    def __getattr__(self, attr: str):
        return getattr(self._base, attr)

    def _variant(self, mnemonic: str, uses_imm: bool):
        group, trace = self._base._variant(mnemonic, uses_imm)
        corrupted = self.fault.corrupt(_copy_trace(trace), self._base)
        # Re-run the build-time capacity check on the corrupted trace so
        # capacity faults surface as ModelError, exactly as they would
        # had the description itself been wrong.
        self._base._validate(mnemonic, corrupted)
        return group, corrupted


# -- scheduler sabotage ----------------------------------------------------------


def _mutate_swap_dependent(
    scheduled: list[Instruction], policy: SchedulingPolicy
) -> list[Instruction] | None:
    graph = build_dependence_graph(scheduled, policy)
    for src in range(graph.size):
        for dst in sorted(graph.succs[src]):
            if str(scheduled[src]) != str(scheduled[dst]):
                out = list(scheduled)
                out[src], out[dst] = out[dst], out[src]
                return out
    return None


def _mutate_drop_last(
    scheduled: list[Instruction], policy: SchedulingPolicy
) -> list[Instruction] | None:
    return scheduled[:-1] if scheduled else None


def _mutate_duplicate_first(
    scheduled: list[Instruction], policy: SchedulingPolicy
) -> list[Instruction] | None:
    return [scheduled[0]] + list(scheduled) if scheduled else None


#: Illegal post-schedule mutations; each returns None when a block
#: offers no opportunity to apply it.
SCHEDULER_MUTATIONS: dict[str, Callable] = {
    "swap-dependent-pair": _mutate_swap_dependent,
    "drop-instruction": _mutate_drop_last,
    "duplicate-instruction": _mutate_duplicate_first,
}


class SabotagedScheduler(BlockScheduler):
    """A deliberately buggy scheduler: schedules correctly, then applies
    an illegal mutation — the guard must refuse every mutated block."""

    def __init__(
        self,
        model: MachineModel,
        policy: SchedulingPolicy | None = None,
        recorder: Recorder | None = None,
        *,
        mutation: str = "swap-dependent-pair",
    ) -> None:
        super().__init__(model, policy, recorder)
        if mutation not in SCHEDULER_MUTATIONS:
            raise ValueError(
                f"unknown mutation {mutation!r}; choose from "
                f"{sorted(SCHEDULER_MUTATIONS)}"
            )
        self.mutation = mutation
        self.mutations_applied = 0

    def schedule_body(self, body: list[Instruction]) -> list[Instruction]:
        scheduled = super().schedule_body(body)
        mutated = SCHEDULER_MUTATIONS[self.mutation](scheduled, self.policy)
        if mutated is None:
            return scheduled
        self.mutations_applied += 1
        return mutated


# -- outcomes --------------------------------------------------------------------


@dataclass(frozen=True)
class FaultOutcome:
    """Result of injecting one fault class."""

    fault: str
    #: 'model' | 'encoding' | 'scheduler' | 'cache' | 'superblock'
    layer: str
    injected: int
    caught: int
    details: tuple[str, ...] = ()

    @property
    def escaped(self) -> int:
        return self.injected - self.caught


@dataclass
class FaultInjectionReport:
    machine: str
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return sum(o.injected for o in self.outcomes)

    @property
    def escaped(self) -> int:
        return sum(o.escaped for o in self.outcomes)

    @property
    def clean(self) -> bool:
        """True when every injected fault was caught — and faults were
        actually injected (an empty run proves nothing)."""
        return self.injected > 0 and self.escaped == 0

    def render(self) -> str:
        lines = [f"fault injection against {self.machine}:"]
        width = max(len(o.fault) for o in self.outcomes) if self.outcomes else 8
        for o in self.outcomes:
            status = "ok" if o.escaped == 0 else f"ESCAPED {o.escaped}"
            lines.append(
                f"  {o.layer:<9} {o.fault:<{width}}  "
                f"injected {o.injected:>5}  caught {o.caught:>5}  {status}"
            )
            for detail in o.details[:2]:
                lines.append(f"            {detail}")
        verdict = (
            "all injected faults caught"
            if self.clean
            else f"{self.escaped} of {self.injected} faults ESCAPED the guards"
        )
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


# -- the harness -----------------------------------------------------------------


def default_workload() -> Executable:
    """A small mixed workload for the encoding/scheduler fault classes."""
    from ..workloads import sum_loop

    return sum_loop(12).executable


def inject_model_faults(
    model: MachineModel, faults: tuple[ModelFault, ...] = MODEL_FAULTS
) -> list[FaultOutcome]:
    outcomes = []
    for fault in faults:
        corrupted = CorruptedModel(model, fault)
        findings = validate_machine(corrupted, require_full_isa=False)
        errors = [f for f in findings if f.severity == "error"]
        guard = GuardedBlockScheduler(corrupted, validate_model=True)
        guarded = any(q.kind == "model" for q in guard.quarantine)
        caught = 1 if (errors and guarded) else 0
        outcomes.append(
            FaultOutcome(
                fault=fault.name,
                layer="model",
                injected=1,
                caught=caught,
                details=(str(errors[0]),) if errors else ("no finding",),
            )
        )
    return outcomes


def inject_encoding_faults(executable: Executable) -> FaultOutcome:
    """Flip every bit of every text word; count silent misdecodes."""
    data = executable.text_section().data
    injected = caught = 0
    details: list[str] = []
    for (word,) in struct.iter_unpack(">I", data):
        for bit in range(32):
            corrupted = word ^ (1 << bit)
            injected += 1
            try:
                inst = decode(corrupted)
            except DecodeError:
                caught += 1
                continue
            if encode(inst) == corrupted:
                caught += 1  # faithful decode: the fault is visible in the IR
            elif len(details) < 4:
                details.append(
                    f"silent misdecode {corrupted:#010x} -> {inst!s}"
                )
    return FaultOutcome(
        fault="bit-flip",
        layer="encoding",
        injected=injected,
        caught=caught,
        details=tuple(details),
    )


def inject_scheduler_faults(
    model: MachineModel,
    executable: Executable,
    *,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    verify_trials: int = 2,
    verify_seed: int = DEFAULT_SEED,
) -> list[FaultOutcome]:
    outcomes = []
    rec = recorder if recorder is not None else NULL_RECORDER
    for name in SCHEDULER_MUTATIONS:
        inner = SabotagedScheduler(model, policy, rec, mutation=name)
        guard = GuardedBlockScheduler(
            model,
            policy,
            rec,
            inner=inner,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
            validate_model=False,
        )
        Editor(executable, recorder=rec).build(guard)
        # Only ReproError-rooted failures count as caught: an untyped
        # crash was merely contained, not diagnosed (q.typed is False
        # exactly when a scheduler-error quarantine wrapped a bare
        # exception).
        caught = sum(
            1
            for q in guard.quarantine
            if q.kind == "verification"
            or (q.kind == "scheduler-error" and q.typed)
        )
        outcomes.append(
            FaultOutcome(
                fault=name,
                layer="scheduler",
                injected=inner.mutations_applied,
                caught=min(caught, inner.mutations_applied),
                details=tuple(str(q) for q in guard.quarantine[:1]),
            )
        )
    return outcomes


def _mutate_reverse(
    scheduled: list[Instruction], policy: SchedulingPolicy
) -> list[Instruction] | None:
    out = list(reversed(scheduled))
    if [str(i) for i in out] == [str(i) for i in scheduled]:
        return None
    return out


def _mutate_tamper_immediate(
    scheduled: list[Instruction], policy: SchedulingPolicy
) -> list[Instruction] | None:
    from dataclasses import replace

    for index, inst in enumerate(scheduled):
        if inst.imm is not None and inst.memory is None and not inst.is_control:
            out = list(scheduled)
            out[index] = replace(inst, imm=inst.imm ^ 1)
            return out
    return None


#: Corruptions aimed at the static→symbolic proof chain. The bool says
#: whether the chain may use its structural (permutation + DAG) gates:
#: immediate tampering runs with them disabled, forcing the *semantic*
#: term comparison to notice the changed constant on its own.
SYMBOLIC_MUTATIONS: dict[str, tuple[Callable, bool]] = {
    "swap-dependent-pair": (_mutate_swap_dependent, True),
    "drop-instruction": (_mutate_drop_last, True),
    "duplicate-instruction": (_mutate_duplicate_first, True),
    "reverse-block": (_mutate_reverse, True),
    "tamper-immediate": (_mutate_tamper_immediate, False),
}


def inject_symbolic_faults(
    model: MachineModel,
    executable: Executable,
    *,
    policy: SchedulingPolicy | None = None,
    verify_trials: int = 4,
    verify_seed: int = DEFAULT_SEED,
) -> list[FaultOutcome]:
    """``symbolic-false-proof``: corrupt real schedules and demand the
    static→symbolic chain never calls a corrupted block proven.

    One exception is legitimate: a corruption the differential battery
    itself cannot distinguish from the original (a reversal of fully
    independent instructions, say) is semantically harmless, and proving
    it is correct behavior — so a surviving proof only counts as an
    escape when differential execution confirms actual divergence."""
    from ..analyze import static_verify_schedule, symbolic_verify_schedule
    from ..core.verify import verify_schedule
    from ..eel.cfg import build_cfg
    from ..errors import ReproError

    policy = policy or SchedulingPolicy()
    scheduler = BlockScheduler(model, policy)
    outcomes: list[FaultOutcome] = []
    for name, (mutate, structural) in SYMBOLIC_MUTATIONS.items():
        injected = caught = 0
        details: list[str] = []
        for block in build_cfg(executable):
            body = list(block.body)
            if len(body) < 2:
                continue
            scheduled = scheduler.schedule_body(body)
            mutated = mutate(scheduled, policy)
            if mutated is None or [str(i) for i in mutated] == [
                str(i) for i in scheduled
            ]:
                continue
            injected += 1
            static_proven = False
            if structural:
                static = static_verify_schedule(body, mutated, policy=policy)
                if static.refuted:
                    caught += 1
                    continue
                static_proven = static.proven
            if static_proven:
                proven = True
            else:
                verdict = symbolic_verify_schedule(
                    body,
                    mutated,
                    policy=policy,
                    check_structure=structural,
                    seed=verify_seed,
                )
                proven = verdict.proven
            if not proven:
                caught += 1
                continue
            # The corrupted block was proven: acceptable only when the
            # battery agrees the corruption changed nothing observable.
            try:
                harmless = verify_schedule(
                    body,
                    mutated,
                    policy=policy,
                    trials=verify_trials,
                    seed=verify_seed,
                ).ok
            except ReproError:
                # Both orders fault identically on the battery's inputs
                # (the proof covered the trap); nothing divergent ran.
                harmless = True
                if len(details) < 2:
                    details.append(
                        f"block {block.index}: differential battery faulted "
                        "on both orders; proof stands"
                    )
            if harmless:
                caught += 1
            elif len(details) < 2:
                details.append(
                    f"block {block.index}: {name} proven but differential "
                    "execution diverges — a false proof"
                )
        outcomes.append(
            FaultOutcome(
                fault=f"false-proof-{name}",
                layer="analyze",
                injected=injected,
                caught=caught,
                details=tuple(details),
            )
        )
    return outcomes


class ClobberingProfiler:
    """A QPT profiler that deliberately picks *live* registers as counter
    scratch — the snippet corruption fault class.

    Wraps :class:`~repro.qpt.profiling.SlowProfiler` (composition, so
    the import stays lazy) and overrides its scratch choice: instead of
    provably dead registers it picks registers the block's own original
    code still reads. The guard proves schedules, not snippets, so it
    verifies most such blocks (see :func:`inject_clobber_faults` for the
    ones it catches); ``corrupted`` records the block indexes whose
    snippets clobber live state.
    """

    def __init__(self, executable: Executable, *, recorder: Recorder | None = None):
        from ..qpt.profiling import SlowProfiler

        outer = self

        class _Profiler(SlowProfiler):
            def _pick_scratch(self, liveness, block):
                regs = outer._live_scratch(block)
                if regs is None:
                    return super()._pick_scratch(liveness, block)
                outer.corrupted.add(block.index)
                return regs

        self._profiler = _Profiler(executable, recorder=recorder)
        #: block indexes whose counter snippets clobber live registers.
        self.corrupted: set[int] = set()

    def instrument(self, transform=None):
        return self._profiler.instrument(transform)

    @staticmethod
    def _live_scratch(block):
        """Two upward-exposed integer registers of ``block`` (read by the
        original body before any redefinition), or None when the block
        offers none. Upward-exposed regs are live at the insertion point
        by construction."""
        from ..analyze.image_rules import RESERVED_SCRATCH as ABI_SCRATCH
        from ..isa.registers import RegKind

        exposed = []
        written = set()
        for inst in block.body:
            for reg in sorted(inst.regs_read()):
                if (
                    reg.kind is RegKind.INT
                    and reg not in written
                    and reg not in ABI_SCRATCH
                    and reg not in exposed
                ):
                    exposed.append(reg)
            written |= inst.regs_written()
        if not exposed:
            return None
        return (exposed[0], exposed[1] if len(exposed) > 1 else exposed[0])


def inject_clobber_faults(
    model: MachineModel,
    executable: Executable,
    *,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    verify_trials: int = 2,
    verify_seed: int = DEFAULT_SEED,
) -> FaultOutcome:
    """Instrument with live-register scratch; the static image analysis
    must flag every corrupted block.

    The guard proves schedules, not snippets, so most corrupted blocks
    pass it. It can still catch one: the policy assumes counter and
    original memory disjoint, but a clobbered base register can point
    an original access at the counter's own word, and the scheduler may
    then move that access across the counter's store. The ladder sees
    the changed value and quarantines the block. A quarantined block
    in ``corrupted`` is such an expected catch; one outside it is
    reported as unexpected."""
    from ..analyze import lint_profiled

    rec = recorder if recorder is not None else NULL_RECORDER
    profiler = ClobberingProfiler(executable, recorder=rec)
    guard = GuardedBlockScheduler(
        model,
        policy,
        rec,
        verify_trials=verify_trials,
        verify_seed=verify_seed,
        validate_model=False,
    )
    profiled = profiler.instrument(guard)
    flagged = {
        finding.location.block
        for finding in lint_profiled(profiled, model)
        if finding.rule == "image/clobber-live-register"
    }
    caught = len(profiler.corrupted & flagged)
    details = []
    quarantined = {report.block for report in guard.quarantine}
    expected = sorted(quarantined & profiler.corrupted)
    if expected:
        details.append(
            f"guard also quarantined corrupted blocks {expected}: a "
            "clobbered register let the schedule change a value"
        )
    unexpected = sorted(quarantined - profiler.corrupted)
    if unexpected:
        details.append(
            f"unexpected quarantine of blocks {unexpected}: their counter "
            "snippets clobber nothing"
        )
    missed = sorted(profiler.corrupted - flagged)
    if missed:
        details.append(f"blocks {missed} clobber live registers unflagged")
    return FaultOutcome(
        fault="clobber-live-register",
        layer="instrumentation",
        injected=len(profiler.corrupted),
        caught=caught,
        details=tuple(details),
    )


def inject_cache_faults(
    model: MachineModel,
    executable: Executable,
    *,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    verify_trials: int = 2,
    verify_seed: int = DEFAULT_SEED,
) -> list[FaultOutcome]:
    """Attack the schedule cache; every attack must be neutralized."""
    # Imported lazily: repro.parallel imports this package's guard.
    from ..core.list_scheduler import ScheduleResult
    from ..core.regions import split_regions
    from ..eel.cfg import build_cfg
    from ..parallel.cache import ScheduleCache

    rec = recorder if recorder is not None else NULL_RECORDER
    policy = policy or SchedulingPolicy()
    outcomes: list[FaultOutcome] = []

    def guard(inner=None, cache=None):
        return GuardedBlockScheduler(
            model,
            policy,
            rec,
            inner=inner,
            cache=cache,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
            validate_model=False,
        )

    def text(edited: Executable) -> bytes:
        return bytes(edited.text_section().data)

    reference = text(Editor(executable, recorder=rec).build(guard()))

    # 1. Stale-model-entry: warm the cache under the healthy model, then
    # corrupt the model. Context digests must separate the two — a
    # corrupted model served stale healthy-model schedules (or vice
    # versa) would time and verify against the wrong machine.
    cache = ScheduleCache()
    Editor(executable, recorder=rec).build(guard(cache=cache))
    healthy_context = cache.context_for(model, policy)
    sample = next(
        (
            list(region.instructions)
            for block in build_cfg(executable)
            for region in split_regions(list(block.body))
            if region.instructions
        ),
        None,
    )
    injected = caught = 0
    details: list[str] = []
    for fault in MODEL_FAULTS:
        corrupted = CorruptedModel(model, fault)
        injected += 1
        context = cache.context_for(corrupted, policy)
        visible = sample is not None and cache.lookup(context, sample) is not None
        if context != healthy_context and not visible:
            caught += 1
        elif len(details) < 2:
            details.append(
                f"{fault.name}: healthy-model entries visible under the "
                "corrupted model"
            )
    outcomes.append(
        FaultOutcome(
            fault="stale-model-entry",
            layer="cache",
            injected=injected,
            caught=caught,
            details=tuple(details),
        )
    )

    # 2. Poisoned-unverified-entry: plant wrong, unverified schedules
    # under the live context. The guard must treat them as misses and
    # re-prove every region; output must match the clean reference.
    poisoned = ScheduleCache()
    context = poisoned.context_for(model, policy)
    injected = 0
    for block in build_cfg(executable):
        for region in split_regions(list(block.body)):
            instructions = list(region.instructions)
            if len(instructions) < 2:
                continue
            reversed_order = list(range(len(instructions)))[::-1]
            poisoned.insert(
                context,
                instructions,
                ScheduleResult(
                    instructions=[instructions[i] for i in reversed_order],
                    order=reversed_order,
                    original_cycles=1,
                    scheduled_cycles=0,
                ),
                verified=False,
            )
            injected += 1
    served_poison = (
        text(Editor(executable, recorder=rec).build(guard(cache=poisoned)))
        != reference
    )
    outcomes.append(
        FaultOutcome(
            fault="poisoned-unverified-entry",
            layer="cache",
            injected=injected,
            caught=0 if served_poison else injected,
            details=("guard emitted a poisoned schedule",) if served_poison else (),
        )
    )

    # 3. Sabotage-never-cached: a sabotaged scheduler's quarantined
    # blocks must leave nothing behind — only verified entries may
    # exist afterwards, and a rebuild served from them must be clean.
    injected = caught = 0
    details = []
    for name in SCHEDULER_MUTATIONS:
        cache = ScheduleCache()
        inner = SabotagedScheduler(model, policy, rec, mutation=name)
        Editor(executable, recorder=rec).build(guard(inner=inner, cache=cache))
        injected += inner.mutations_applied
        rebuilt = text(Editor(executable, recorder=rec).build(guard(cache=cache)))
        clean = (
            cache.verified_entries() == len(cache) and rebuilt == reference
        )
        if clean:
            caught += inner.mutations_applied
        elif len(details) < 2:
            details.append(f"{name}: a mutated schedule leaked into the cache")
    outcomes.append(
        FaultOutcome(
            fault="sabotage-never-cached",
            layer="cache",
            injected=injected,
            caught=caught,
            details=tuple(details),
        )
    )
    return outcomes


# -- superblock faults ------------------------------------------------------------


class _DeadLivenessOracle:
    """A corrupted liveness analysis that swears every register is dead.

    Fed to :class:`~repro.core.superblock.SuperblockScheduler` as its
    ``liveness_factory``, it approves every speculative hoist — including
    ones that clobber registers the side-exit target actually reads."""

    def __init__(self, cfg) -> None:
        self.cfg = cfg

    def live_in(self, index: int) -> frozenset:
        return frozenset()


def _speculation_workload() -> Executable:
    """A three-block fall-through chain with two live side exits.

    Each boundary's successor leads with an ALU instruction that writes
    a register the side-exit target reads (``%o2`` at ``side1``, ``%o4``
    at ``side2``) — exactly the hoist an honest liveness oracle forbids
    and a corrupted one approves. Every instruction above each branch
    feeds its condition, so nothing can *sink* across the boundary and
    the planner is forced onto the speculative-hoist path."""
    from ..eel.executable import TEXT_BASE
    from ..isa.asm import Assembler

    source = """
            set 1, %o2
            set 2, %o4
            add %o2, %o4, %o5
            subcc %o5, 7, %g0
            be side1
            nop
            add %o2, 3, %o2
            subcc %o4, 9, %g0
            be side2
            nop
            add %o4, 5, %o4
            add %o1, 1, %o1
            retl
            nop
        side1:
            add %o2, 0, %o3
            retl
            nop
        side2:
            add %o4, 0, %o5
            retl
            nop
    """
    program = Assembler(base_address=TEXT_BASE).assemble(source)
    return Executable.from_instructions(program, text_base=TEXT_BASE)


def inject_superblock_faults(
    model: MachineModel,
    *,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    verify_trials: int = 2,
    verify_seed: int = DEFAULT_SEED,
) -> FaultOutcome:
    """``corrupt-side-exit-liveness``: hand the superblock scheduler a
    lying liveness oracle and let it speculatively hoist instructions
    that clobber registers live at a side exit. The oracle feeds only
    the speculation *gate*; guarded verification recomputes liveness
    itself, so every unsafe hoist must die in the masked differential
    and quarantine the superblock."""
    from ..core.superblock import SuperblockConfig, SuperblockScheduler
    from ..eel.cfg import build_cfg
    from ..eel.liveness import LivenessAnalysis

    policy = policy or SchedulingPolicy()
    rec = recorder if recorder is not None else NULL_RECORDER
    executable = _speculation_workload()

    scheduler = SuperblockScheduler(
        model,
        policy,
        rec,
        config=SuperblockConfig(speculate=True),
        guarded=True,
        verify_trials=verify_trials,
        verify_seed=verify_seed,
        liveness_factory=_DeadLivenessOracle,
    )
    Editor(executable, recorder=rec).build(scheduler)

    honest = LivenessAnalysis(build_cfg(executable))
    unsafe = [
        record
        for record in scheduler.speculated
        if any(
            inst.regs_written() & honest.live_in(record.exit_block)
            for inst in record.instructions
        )
    ]
    injected = len(unsafe)
    quarantined = [
        q for q in scheduler.quarantine if q.kind == "superblock-verification"
    ]
    details = []
    if injected == 0:
        details.append(
            "the corrupted oracle provoked no unsafe hoists — workload drift?"
        )
    # Caught means the whole poisoned plan was quarantined and nothing
    # committed: no unsafe hoist can reach the output executable.
    caught = injected if quarantined and scheduler.formed == 0 else 0
    if injected and not caught and len(details) < 2:
        details.append(
            f"{scheduler.formed} superblock(s) committed despite "
            f"{injected} unsafe hoist(s); quarantines: {len(quarantined)}"
        )
    return FaultOutcome(
        fault="corrupt-side-exit-liveness",
        layer="superblock",
        injected=injected,
        caught=caught,
        details=tuple(details),
    )


def run_fault_injection(
    model: MachineModel,
    *,
    executable: Executable | None = None,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    verify_trials: int = 2,
    verify_seed: int = DEFAULT_SEED,
    jobs: int = 1,
    chaos: bool = False,
    chaos_only: tuple[str, ...] | None = None,
    chaos_workdir: "str | None" = None,
) -> FaultInjectionReport:
    """Run the whole catalog against ``model``; see the module docstring.

    ``chaos`` appends the process-level chaos classes
    (:func:`~repro.robust.chaos.run_chaos_suite`: worker crashes,
    hangs, corrupted IPC, torn ledger writes, bit-flipped cache
    entries) to the same report; ``chaos_only`` restricts the chaos
    pass to the named fault classes and ``chaos_workdir`` pins its
    scratch directory (both forwarded verbatim). ``jobs`` sizes the
    chaos pass's worker pools (at least two); the other classes run
    in this process.
    """
    if executable is None:
        executable = default_workload()
    report = FaultInjectionReport(machine=model.name)
    report.outcomes.extend(inject_model_faults(model))
    report.outcomes.append(inject_encoding_faults(executable))
    report.outcomes.extend(
        inject_scheduler_faults(
            model,
            executable,
            policy=policy,
            recorder=recorder,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
        )
    )
    report.outcomes.extend(
        inject_symbolic_faults(
            model,
            executable,
            policy=policy,
            verify_trials=max(verify_trials, 4),
            verify_seed=verify_seed,
        )
    )
    report.outcomes.append(
        inject_clobber_faults(
            model,
            executable,
            policy=policy,
            recorder=recorder,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
        )
    )
    report.outcomes.extend(
        inject_cache_faults(
            model,
            executable,
            policy=policy,
            recorder=recorder,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
        )
    )
    report.outcomes.append(
        inject_superblock_faults(
            model,
            policy=policy,
            recorder=recorder,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
        )
    )
    if chaos:
        # Imported lazily: chaos drives repro.parallel, which imports
        # this package.
        from .chaos import run_chaos_suite

        chaos_report = run_chaos_suite(
            model,
            policy=policy,
            jobs=max(jobs, 2),
            only=chaos_only,
            workdir=chaos_workdir,
        )
        for outcome in chaos_report.outcomes:
            details = list(outcome.details)
            if not outcome.byte_identical:
                details.append(
                    "faulted build bytes diverged from the clean serial run"
                )
            report.outcomes.append(
                FaultOutcome(
                    fault=outcome.fault,
                    layer=f"chaos-{outcome.layer}",
                    injected=outcome.injected,
                    caught=outcome.contained if outcome.byte_identical else 0,
                    details=tuple(details),
                )
            )
    return report
