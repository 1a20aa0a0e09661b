"""Pipeline state: what previously issued instructions left behind.

The paper's ``pipeline_stalls`` (Appendix A) consults two kinds of
history: how many copies of each unit are free in each future cycle
(``UnitValues`` in the C++), and for every architectural register the
cycle its last value becomes usable and the last cycle it was read.
:class:`PipelineState` keeps the first on an absolute-cycle timeline
that grows lazily as instructions are committed, and the second as the
flat register history of the compiled tables' lean stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..spawn.model import MachineModel
from .tables import LeanPipeline


@dataclass(frozen=True)
class HeldInterval:
    """``count`` copies of ``unit`` held from ``start`` up to (but not
    including) ``end`` — absolute cycles."""

    unit: str
    count: int
    start: int
    end: int


class Occupancy:
    """Free units per absolute cycle: the structural half of the
    pipeline state, and all the interpreted walker needs to place a
    trace without register accesses."""

    def __init__(self, model: MachineModel) -> None:
        self.model = model
        self._capacity = list(model.unit_capacity)
        self._unit_index = model.unit_index
        #: free units per absolute cycle; grown on demand.
        self._free: list[list[int]] = []

    def _row(self, cycle: int) -> list[int]:
        while len(self._free) <= cycle:
            self._free.append(list(self._capacity))
        return self._free[cycle]

    def free_units(self, cycle: int, unit_index: int) -> int:
        if cycle < len(self._free):
            return self._free[cycle][unit_index]
        return self._capacity[unit_index]

    def unit_free_by_name(self, cycle: int, unit: str) -> int:
        return self.free_units(cycle, self._unit_index[unit])

    def commit_interval(self, interval: HeldInterval) -> None:
        """Mark ``interval`` as occupied on the timeline."""
        index = self._unit_index[interval.unit]
        for cycle in range(interval.start, interval.end):
            row = self._row(cycle)
            row[index] -= interval.count
            if row[index] < 0:
                raise RuntimeError(
                    f"over-committed unit {interval.unit!r} at cycle {cycle}"
                )


class PipelineState(Occupancy, LeanPipeline):
    """Absolute-cycle occupancy and register history for one in-order
    instruction stream.

    The state is the model's lean table stream
    (:class:`~repro.pipeline.tables.LeanPipeline`: table state id
    ``sid`` relative to absolute cycle ``origin``, plus the register
    history) kept beside its occupancy timeline. Stall queries answer
    through the stream; when the tables cannot, the interpreted walker
    answers from the timeline and the stream re-interns it. The
    timeline and history are committed identically either way, so
    attribution, visualization, and diagnosis read the same data.
    """

    def __init__(self, model: MachineModel) -> None:
        Occupancy.__init__(self, model)
        LeanPipeline.__init__(self, model.tables)
