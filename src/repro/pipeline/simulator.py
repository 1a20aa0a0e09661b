"""Straight-line and block timing on top of ``pipeline_stalls``.

The scheduler asks one question — "how many cycles does this sequence of
instructions take to issue?" — and the evaluation harness asks it for
every basic block in a program. Both use :class:`BlockSimulator`.

Block cost is measured as *issue time*: the cycle after the last
instruction of the block enters the pipeline. This is the quantity local
scheduling actually changes (long-latency tails drain concurrently with
the next block on these in-order machines, and neither the paper's model
nor ours tracks cache or fetch effects — §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stalls import issue, pipeline_stalls
from .state import PipelineState
from .tables import LeanPipeline, TableMiss


@dataclass
class BlockTiming:
    """Timing of one straight-line instruction sequence."""

    instructions: int
    #: cycle after the last instruction issued (the block's issue cost).
    issue_cycles: int
    #: cycle after the last instruction left the pipeline entirely.
    drain_cycles: int
    #: total stall cycles summed over instructions.
    stall_cycles: int
    #: issue cycle per instruction, in sequence order.
    issue_times: list[int] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        """Issued instructions per cycle."""
        if self.issue_cycles == 0:
            return 0.0
        return self.instructions / self.issue_cycles


class BlockSimulator:
    """Times straight-line code on a machine model, in order."""

    def __init__(
        self, model: MachineModel, recorder: Recorder | None = None
    ) -> None:
        self.model = model
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def time_block(self, instructions: list[Instruction]) -> BlockTiming:
        """Issue ``instructions`` in order through a fresh pipeline."""
        state = PipelineState(self.model)
        cycle = 0
        stall_total = 0
        drain = 0
        issue_times: list[int] = []
        for inst in instructions:
            result = issue(cycle, state, inst, self.recorder)
            stall_total += result.stalls
            cycle = result.issue_cycle
            drain = max(drain, result.completion_cycle)
            issue_times.append(result.issue_cycle)
        last_issue = issue_times[-1] if issue_times else -1
        return BlockTiming(
            instructions=len(instructions),
            issue_cycles=last_issue + 1,
            drain_cycles=drain,
            stall_cycles=stall_total,
            issue_times=issue_times,
        )

    def block_cycles(self, instructions: list[Instruction]) -> int:
        """The issue-cycle cost of a block. With a telemetry recorder
        this is :meth:`time_block`, whose issues attribute their stalls;
        otherwise :func:`issue_cycles`, which walks the compiled
        tables."""
        if self.recorder.telemetry:
            return self.time_block(instructions).issue_cycles
        return issue_cycles(self.model, instructions)[0]

    def next_stalls(
        self, state: PipelineState, cycle: int, inst: Instruction
    ) -> int:
        """The scheduler's priority metric: stalls before ``inst`` could
        start executing, given the pipeline state so far."""
        return pipeline_stalls(cycle, state, inst)


def issue_cycles(
    model: MachineModel, instructions: list[Instruction], copies: int = 1
) -> list[int]:
    """Issue ``copies`` back-to-back copies of ``instructions`` through
    one fresh in-order stream; the issue-cycle cost after each copy.

    The stream is a :class:`~repro.pipeline.tables.LeanPipeline` over
    the model's compiled tables. When the tables cannot carry it
    (:class:`~repro.pipeline.tables.TableMiss`, counted in
    ``tables.misses``) the whole stream is redone on a
    :class:`PipelineState` through :func:`issue`, so the answer is the
    interpreted walker's either way.
    """
    if not instructions:
        return [0] * copies
    tables = model.tables
    timings = [model.timing(inst) for inst in instructions]
    try:
        return _stream(LeanPipeline(tables).issue, timings, copies)
    except TableMiss:
        tables.misses += 1
    state = PipelineState(model)

    def walk(cycle: int, instructions: list[Instruction]) -> int:
        for inst in instructions:
            cycle = issue(cycle, state, inst).issue_cycle
        return cycle

    return _stream(walk, instructions, copies)


def _stream(issue_run, items: list, copies: int) -> list[int]:
    """``copies`` back-to-back runs of ``items`` through ``issue_run(cycle,
    items) -> last issue cycle``; the issue-cycle cost after each."""
    cycle = 0
    out = []
    for _ in range(copies):
        cycle = issue_run(cycle, items)
        out.append(cycle + 1)
    return out
