"""``pipeline_stalls`` — the Appendix A computation.

Given the pipeline state generated by previously issued instructions and
the next candidate instruction, compute how many cycles the candidate
must wait before entering the execution pipeline, considering structural
hazards (not enough free copies of a unit) and RAW/WAR/WAW register
hazards.

We model *delayed issue*: an instruction issues at the earliest cycle
from which it can flow through the pipeline with no internal stall. On
the in-order machines the paper describes this is equivalent to holding
the instruction at the issue stage, and it preserves program order — a
younger instruction can never overtake an older one that is stalled in a
later stage. The Appendix's C++ counts the same wait as ``stalls``.

The same walk, with :func:`issue`, commits the instruction: its unit
holds are written onto the state's timeline and its register reads and
writes update the history. Keeping the query and the commit as one walk
guarantees the two can never disagree — the original achieved this by
generating both from the same Spawn annotations.

Every query is first put to the model's compiled transition tables
(:mod:`repro.pipeline.tables`) through the state's lean stream; the
interpreted walk below answers only what the tables cannot, and is the
reference the tables learn from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..isa.registers import Reg
from ..obs.report import ISSUES, TABLE_FALLBACKS, TABLE_HITS
from ..sadl.trace import Trace
from ..spawn.model import InstructionTiming
from .state import HeldInterval, PipelineState
from .tables import TableMiss

#: Safety bound: a candidate that cannot issue within this many cycles
#: indicates an impossible resource demand (caught earlier by the model
#: validator) or a modelling bug.
MAX_STALL_SEARCH = 4096


class PipelineDeadlock(Exception):
    """The candidate can never satisfy its resource demands."""


@dataclass
class WalkResult:
    """Outcome of walking one instruction through the pipeline."""

    stalls: int
    issue_cycle: int
    #: absolute cycle after the instruction's last pipeline cycle.
    completion_cycle: int
    intervals: list[HeldInterval] = field(default_factory=list)
    reads: list[tuple[Reg, int]] = field(default_factory=list)
    writes: list[tuple[Reg, int]] = field(default_factory=list)


@dataclass(frozen=True)
class _Prepared:
    """Per-relative-cycle unit events of one timing group's trace.

    Register reads and writes differ between the instructions of a
    group, so they are not here: the walk takes them from the
    :class:`~repro.spawn.model.InstructionTiming`."""

    acquires: tuple[tuple[int, tuple], ...]
    releases_by_rel: dict[int, list]
    last_rel: int
    #: the occupancy intervals for an issue at cycle 0, as
    #: (unit, count, rel_start, rel_end). Acquire/release pairing only
    #: depends on relative cycles, so an issue at ``start`` holds
    #: exactly these intervals shifted by ``start`` — materializing a
    #: walk is a template stamp, not a pairing pass.
    rel_intervals: tuple[tuple[str, int, int, int], ...] = ()


def _prepare(trace: Trace) -> _Prepared:
    """``trace``'s unit events, prepared once and kept on the trace.

    A model hands every timing of a group the group's one trace object
    (:meth:`~repro.spawn.model.MachineModel.timing`), so this is one
    bundle per timing group, shared by the walker and the table learner
    (:meth:`~repro.pipeline.tables.PipelineTables.lookup`)."""
    prepared = trace.__dict__.get("_prepared")
    if prepared is None:
        prepared = trace.__dict__["_prepared"] = _prepare_uncached(trace)
    return prepared


def _prepare_uncached(trace: Trace) -> _Prepared:
    acquires: dict[int, list] = {}
    for event in trace.acquires:
        acquires.setdefault(event.cycle, []).append(event)
    releases: dict[int, list] = {}
    for event in trace.releases:
        releases.setdefault(event.cycle, []).append(event)
    prepared = _Prepared(
        acquires=tuple((rel, tuple(events)) for rel, events in sorted(acquires.items())),
        releases_by_rel=releases,
        last_rel=trace.max_event_cycle,
    )
    object.__setattr__(prepared, "rel_intervals", _pair_intervals(prepared))
    return prepared


def _pair_intervals(prepared: _Prepared) -> tuple[tuple[str, int, int, int], ...]:
    """Pair acquires with releases, in rel-cycle order, into the
    occupancy-interval template for an issue at cycle 0."""
    intervals: list[tuple[str, int, int, int]] = []
    open_holds: dict[str, list] = {}
    for rel in range(prepared.last_rel + 1):
        for event in prepared.releases_by_rel.get(rel, ()):
            holds = open_holds.get(event.unit, [])
            remaining = event.count
            while remaining > 0 and holds:
                count, hold_start = holds[0]
                take = min(count, remaining)
                if rel > hold_start:
                    intervals.append((event.unit, take, hold_start, rel))
                remaining -= take
                if take == count:
                    holds.pop(0)
                else:
                    holds[0][0] -= take
        for acq_rel, events in prepared.acquires:
            if acq_rel != rel:
                continue
            for event in events:
                open_holds.setdefault(event.unit, []).append([event.count, rel])
    end = prepared.last_rel + 1
    for unit, holds in open_holds.items():
        for count, hold_start in holds:
            if end > hold_start:
                intervals.append((unit, count, hold_start, end))
    return tuple(intervals)


def pipeline_stalls(cycle: int, state: PipelineState, inst: Instruction) -> int:
    """How many cycles must ``inst`` wait, starting from ``cycle``,
    before it can enter the execution pipeline? (Appendix A.)"""
    timing = state.model.timing(inst)
    return stall_query(cycle, state, timing)


def stall_query(cycle: int, state: PipelineState, timing: InstructionTiming) -> int:
    """The stall count alone — :func:`walk` without materializing the
    occupancy intervals. This is the scheduler's per-candidate query,
    usually a pair of dictionary lookups in the model's tables."""
    hit = _table_hit(cycle, state, timing)
    if hit is not None:
        return hit[0] - cycle
    return _search(cycle, state, _prepare(timing.trace), timing) - cycle


def issue(
    cycle: int,
    state: PipelineState,
    inst: Instruction,
    recorder=None,
) -> WalkResult:
    """Issue ``inst`` at or after ``cycle``, committing its effects.

    ``recorder`` (a :class:`repro.obs.Recorder`) attributes each
    committed stall cycle to its hazard bucket when its ``telemetry``
    is set; the default, a ``NullRecorder`` or a recorder without
    telemetry records nothing and adds no work.
    """
    timing = state.model.timing(inst)
    prepared = _prepare(timing.trace)
    hit = _table_hit(cycle, state, timing)
    issue_cycle = _search(cycle, state, prepared, timing) if hit is None else hit[0]
    result = _materialize(issue_cycle, cycle, prepared, timing)
    if recorder is not None and recorder.telemetry:
        from .diagnose import attribute_stalls  # lazy: diagnose imports us

        recorder.count(ISSUES)
        recorder.count(TABLE_FALLBACKS if hit is None else TABLE_HITS)
        if result.stalls:
            attribute_stalls(recorder, state, timing, cycle, issue_cycle)
    for interval in result.intervals:
        state.commit_interval(interval)
    next_sid = None if hit is None else hit[1]
    if next_sid is None:
        # Table tracking lost (interpreted fallback, or the next state
        # was past the interning budget): re-intern the live occupancy
        # so tracking resumes when possible.
        next_sid = state.tables.intern_from_state(state, issue_cycle)
    state.commit(timing, issue_cycle, next_sid)
    return result


def walk(cycle: int, state: PipelineState, timing: InstructionTiming) -> WalkResult:
    """Find the earliest issue cycle >= ``cycle`` for ``timing`` and
    describe the resulting pipeline occupancy, without mutating
    ``state``."""
    prepared = _prepare(timing.trace)
    hit = _table_hit(cycle, state, timing)
    start = _search(cycle, state, prepared, timing) if hit is None else hit[0]
    return _materialize(start, cycle, prepared, timing)


def _table_hit(
    cycle: int, state: PipelineState, timing: InstructionTiming
) -> tuple[int, int | None] | None:
    """``(issue_cycle, next_state_id)`` from the model's tables through
    the state's lean stream, or None when the caller must fall back to
    the interpreted search."""
    if state.sid is None and cycle >= len(state._free):
        # Tracking was lost, but the machine has drained (no occupancy
        # at or after `cycle`): the state is empty again and tracking
        # resumes for free.
        state.sid = 0
        state.origin = cycle
    try:
        return state.query(cycle, timing)
    except TableMiss:
        return None


def _search(
    cycle: int,
    state: PipelineState,
    prepared: _Prepared,
    timing: InstructionTiming | None = None,
) -> int:
    """The interpreted walk: earliest start >= ``cycle`` passing every
    hazard check. Without a ``timing`` (the table learner's bare group
    trace) only the structural checks apply."""
    start = cycle
    while True:
        if _fits(start, state, prepared, timing):
            return start
        start += 1
        if start - cycle > MAX_STALL_SEARCH:
            raise PipelineDeadlock(
                "instruction cannot issue; impossible resource demand"
            )


def _fits(
    start: int,
    state: PipelineState,
    prepared: _Prepared,
    timing: InstructionTiming | None,
) -> bool:
    unit_index = state.model.unit_index

    # Structural hazards. The instruction's own earlier acquisitions
    # count against availability until their release cycle (the C++
    # trace[] array).
    own: dict[str, int] = {}
    next_release: dict[str, list] = {}
    for rel in range(prepared.last_rel + 1):
        for event in prepared.releases_by_rel.get(rel, ()):  # releases first (§3.1)
            if own.get(event.unit, 0) > 0:
                own[event.unit] = max(0, own[event.unit] - event.count)
        events = ()
        for acq_rel, acq_events in prepared.acquires:
            if acq_rel == rel:
                events = acq_events
                break
        for event in events:
            held = own.get(event.unit, 0)
            free = state.free_units(start + rel, unit_index[event.unit]) - held
            if free < event.count:
                return False
            own[event.unit] = held + event.count

    if timing is None:
        return True

    # RAW: every read needs its value ready by the read cycle.
    for reg, rel in timing.reads:
        if start + rel < state.value_ready(reg):
            return False

    # WAW / WAR: our value becomes usable at its write cycle; it must not
    # overtake the previous write, nor become visible before the last
    # already-issued read of the old value.
    for reg, rel in timing.writes:
        avail = start + rel
        if avail < state.value_ready(reg) or avail <= state.last_read(reg):
            return False

    return True


def _materialize(
    start: int,
    requested: int,
    prepared: _Prepared,
    timing: InstructionTiming | None = None,
) -> WalkResult:
    reads = timing.reads if timing is not None else ()
    writes = timing.writes if timing is not None else ()
    return WalkResult(
        stalls=start - requested,
        issue_cycle=start,
        completion_cycle=start + prepared.last_rel + 1,
        intervals=[
            HeldInterval(unit, count, start + rel_start, start + rel_end)
            for unit, count, rel_start, rel_end in prepared.rel_intervals
        ],
        reads=[(reg, start + rel) for reg, rel in reads],
        writes=[(reg, start + rel) for reg, rel in writes],
    )
