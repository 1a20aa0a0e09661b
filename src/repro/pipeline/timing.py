"""Trace-driven whole-program timing.

The functional simulator executes the program and feeds every
dynamically executed instruction, in true dynamic order, into the
pipeline model. This carries pipeline state *across* basic blocks — a
load at the end of one block stalls its use at the top of the next, and
back-to-back tiny blocks contend for the branch unit — which is
essential for the paper's small-block SPECINT behaviour.

This is the "Time" measurement of the evaluation harness: the paper ran
wall-clock on hardware; we run the same binaries through an in-order
pipeline simulation of the same microarchitectures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.simulator import RunResult
from ..obs.recorder import NULL_RECORDER, Recorder
from ..spawn.model import MachineModel
from .stalls import issue
from .state import PipelineState
from .tables import LeanPipeline, TableMiss


@dataclass
class TimedRun:
    """Outcome of a trace-driven timing run."""

    cycles: int
    instructions: int
    result: RunResult

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def timed_run(
    model: MachineModel,
    executable,
    *,
    max_instructions: int = 5_000_000,
    count_executions: bool = False,
    recorder: Recorder | None = None,
) -> TimedRun:
    """Run ``executable`` functionally while timing it on ``model``.

    With no live recorder, every executed instruction issues through a
    :class:`LeanPipeline` over the model's compiled tables. When the
    tables cannot carry the stream (:class:`TableMiss`, counted in
    ``tables.misses``) the program is run again on a full
    :class:`PipelineState` through :func:`issue`, so the cycle count is
    the interpreted walker's either way.
    """
    rec = recorder if recorder is not None else NULL_RECORDER

    def run(hook):
        return executable.run(
            max_instructions=max_instructions,
            count_executions=count_executions,
            on_execute=hook,
        )

    with rec.span("pipeline.timed_run"):
        if not rec.enabled:
            tables = model.tables
            try:
                return _lean_timed_run(model, LeanPipeline(tables), run)
            except TableMiss:
                tables.misses += 1
        state = PipelineState(model)
        last_issue = -1

        def hook(address: int, inst) -> None:
            nonlocal last_issue
            last_issue = issue(max(last_issue, 0), state, inst, rec).issue_cycle

        result = run(hook)
    return TimedRun(
        cycles=last_issue + 1,
        instructions=result.instructions_executed,
        result=result,
    )


def _lean_timed_run(model: MachineModel, lean: LeanPipeline, run) -> TimedRun:
    timing = model.timing
    lean_issue = lean.issue
    cycle = 0

    def hook(address: int, inst) -> None:
        nonlocal cycle
        cycle = lean_issue(cycle, timing(inst))

    result = run(hook)
    executed = result.instructions_executed
    return TimedRun(
        cycles=cycle + 1 if executed else 0, instructions=executed, result=result
    )
