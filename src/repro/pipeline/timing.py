"""Trace-driven whole-program timing.

The functional simulator executes the program and records the path it
took as straight-line segments
(:meth:`~repro.isa.simulator.Simulator.run`); the pipeline model then
issues that path in true dynamic order. This carries pipeline state
*across* basic blocks — a load at the end of one block stalls its use
at the top of the next, and back-to-back tiny blocks contend for the
branch unit — which is essential for the paper's small-block SPECINT
behaviour.

The path is issued segment by segment through the model's
:class:`~repro.pipeline.tables.SegmentMemo`: a segment that repeats
from an equivalent pipeline state (same table state id, same register
history it can read, relative to its entry) advances the stream by the
memoized amount, and only a memo miss issues instructions through the
lean table stream. A :class:`~repro.pipeline.tables.TableMiss`, or a
live recorder (which attributes every stall), times the path on the
interpreted walker instead, so the cycle count is the walker's either
way.

Scheduling and QPT instrumentation never change a program's control
flow (the §4 axiom the symbolic verifier also assumes), so every build
of one program executes the same path of blocks. ``timed_run(model,
build, along=path)`` therefore times ``build`` without running it: it
lays the build's own blocks along a path recorded by a functional run
of the executable ``build`` was edited from, through the editor's block
maps (:class:`~repro.eel.executable.BlockMap`). A build whose maps do
not chain one for one to that executable runs for real instead, and
says so in :attr:`TimedRun.fallback`.

This is the "Time" measurement of the evaluation harness: the paper ran
wall-clock on hardware; we run the same binaries through an in-order
pipeline simulation of the same microarchitectures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from ..isa.simulator import (
    LONE,
    WITH_DELAY,
    RunResult,
    SimulationLimit,
    Simulator,
    segment_instructions,
)
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stalls import issue
from .state import PipelineState
from .tables import LeanPipeline, TableMiss, _lean_record

#: Why a timing asked to replay ran the program instead: the build's
#: block maps do not chain one for one to the path's executable, or
#: the tables could not carry the replayed stream.
UNCHAINED = "unchained"
TABLE_MISS = "table_miss"


@dataclass
class ExecutedPath:
    """The path one functional run of ``executable`` executed:
    ``segments`` in the encoding of
    :meth:`~repro.isa.simulator.Simulator.run`."""

    executable: object
    segments: list[int] = field(repr=False)

    @cached_property
    def visits(self) -> Counter:
        """How often each distinct segment was executed."""
        return Counter(self.segments)


@dataclass
class TimedRun:
    """Outcome of a trace-driven timing run."""

    cycles: int
    instructions: int
    #: the functional run's outcome; None for a replayed timing, which
    #: runs nothing.
    result: RunResult | None
    #: the path the functional run executed (None for a replay).
    path: ExecutedPath | None = None
    #: set when a replay was asked for but the program ran instead
    #: (:data:`UNCHAINED` or :data:`TABLE_MISS`).
    fallback: str | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def replayed(self) -> bool:
        return self.result is None


def timed_run(
    model: MachineModel,
    executable,
    *,
    max_instructions: int = 5_000_000,
    count_executions: bool = False,
    recorder: Recorder | None = None,
    along: ExecutedPath | None = None,
) -> TimedRun:
    """Run ``executable`` functionally while timing it on ``model``.

    With ``along``, a path a functional run of another build of the
    same program recorded, ``executable`` is replayed along it instead
    (see the module docstring): same cycles and instruction count as
    its own run, and :class:`SimulationLimit` when that run would
    exceed ``max_instructions``.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span("pipeline.timed_run"):
        fallback = None
        if along is not None:
            if count_executions:
                raise ValueError("a replayed timing executes nothing to count")
            layout = _replay_layout(executable, along)
            if layout is None:
                fallback = UNCHAINED
            else:
                instructions = sum(
                    len(layout[segment]) * count
                    for segment, count in along.visits.items()
                )
                if instructions > max_instructions:
                    raise SimulationLimit(f"exceeded {max_instructions} instructions")
                cycles = _time_path(model, along.segments, layout, rec)
                if cycles is not None:
                    return TimedRun(cycles, instructions, None)
                fallback = TABLE_MISS
        code = executable.code_map()
        segments: list[int] = []
        result = Simulator(code).run(
            executable.entry,
            state=executable.load_state(),
            max_instructions=max_instructions,
            count_executions=count_executions,
            path=segments,
        )
        path = ExecutedPath(executable, segments)
        layout = {
            segment: segment_instructions(code, segment) for segment in path.visits
        }
        cycles = None
        if fallback is None:
            cycles = _time_path(model, segments, layout, rec)
        if cycles is None:
            cycles = _walk(model, segments, layout, rec)
    return TimedRun(cycles, result.instructions_executed, result, path, fallback)


def _replay_layout(executable, along: ExecutedPath) -> dict | None:
    """Each segment of ``along`` as ``executable``'s own instructions,
    or None when its block maps do not place every segment.

    A segment is not placed either when its executed delay slot reads or
    writes a register its control transfer writes (a ``call``'s
    ``%o7``): the slot runs after that write, so an edit that moved an
    instruction there can change where the program goes, which no
    replay can vouch for."""
    addresses = executable.blocks_from(along.executable)
    if addresses is None:
        return None
    code = executable.code_map()
    layout = {}
    for segment in along.visits:
        start = addresses.get(segment >> 2)
        if start is None or segment & 3 == LONE:
            return None
        instructions = segment_instructions(code, start << 2 | segment & 3)
        if instructions is None:
            return None
        if segment & 3 == WITH_DELAY:
            transfer, delay = instructions[-2:]
            if transfer.write_mask() & (delay.read_mask() | delay.write_mask()):
                return None
        layout[segment] = instructions
    return layout


def _time_path(
    model: MachineModel, segments: list[int], layout: dict, rec: Recorder
) -> int | None:
    """Cycles to issue ``segments`` laid out by ``layout``: through the
    segment memo, on the walker when ``rec`` attributes stalls, and
    None when the tables cannot carry the stream (counted in
    ``tables.misses``)."""
    if rec.enabled:
        return _walk(model, segments, layout, rec)
    tables = model.tables
    try:
        return _memo_walk(model, tables, segments, layout)
    except TableMiss:
        tables.misses += 1
        return None


def _walk(model: MachineModel, segments: list[int], layout: dict, rec) -> int:
    """The interpreted walker over the whole stream."""
    state = PipelineState(model)
    last_issue = -1
    for segment in segments:
        for inst in layout[segment]:
            last_issue = issue(max(last_issue, 0), state, inst, rec).issue_cycle
    return last_issue + 1


def _memo_walk(model: MachineModel, tables, segments: list[int], layout: dict) -> int:
    """One lean stream over the path, a segment at a time through the
    tables' :class:`~repro.pipeline.tables.SegmentMemo`. The stream's
    state at a segment's entry is ``(sid, history)`` at ``cycle``, the
    last issue cycle, which is also the state's origin."""
    memo = tables.memo
    entries = memo.entries
    timing = model.timing
    steps = {}
    for segment, instructions in layout.items():
        timings = [timing(inst) for inst in instructions]
        records = tuple(map(_lean_record, timings))
        steps[segment] = (*memo.segment(records), timings, records)
    lean = LeanPipeline(tables)
    lean_issue = lean.issue
    history = lean.history
    sid = 0
    cycle = 0
    hits = misses = 0
    try:
        for seg_id, floors, timings, records in map(steps.__getitem__, segments):
            key = (
                seg_id,
                sid,
                *[d if (d := history[i] - cycle) > f else f for i, f in floors],
            )
            step = entries.get(key)
            if step is not None:
                hits += 1
                advance, sid, overwrites, maxima = step
                for index, offset in overwrites:
                    history[index] = cycle + offset
                for index, offset in maxima:
                    offset += cycle
                    if offset > history[index]:
                        history[index] = offset
                cycle += advance
                continue
            misses += 1
            start = cycle
            lean.sid, lean.origin = sid, cycle
            # One timing at a time: the write-back needs each issue cycle.
            issued = [cycle := lean_issue(cycle, (t,)) for t in timings]
            overwrites: dict[int, int] = {}
            maxima: dict[int, int] = {}
            for at, (_, _, reads, writes) in zip(issued, records):
                at -= start
                for index, rel in reads:
                    if at + rel > maxima.get(index, at + rel - 1):
                        maxima[index] = at + rel
                for index, rel in writes:
                    overwrites[index] = at + rel
            sid = lean.sid
            memo.store(
                key,
                (cycle - start, sid, tuple(overwrites.items()), tuple(maxima.items())),
            )
    finally:
        memo.hits += hits
        memo.misses += misses
    return cycle + 1 if segments else 0
