"""The functional simulator's one-instruction-at-a-time loop, kept as
the reference its bound-segment run is tested against.

:class:`ReferenceSimulator` is a :class:`~repro.isa.simulator.Simulator`
whose ``run`` looks up, counts, reports and executes every instruction
alone, as the simulator did before it ran straight-line segments as
tuples of bound steps. Both read the same semantics table, so a
difference between them is a difference in how the run is driven:
segment boundaries, ``pc``/``npc``, the instruction budget, counts,
the recorded path or the ``on_execute`` stream.
"""

from collections import Counter

from repro.isa.machine_state import MASK32, MachineState
from repro.isa.semantics import execute
from repro.isa.simulator import (
    LONE,
    STOP_ADDRESS,
    BadPC,
    RunResult,
    SimulationLimit,
    Simulator,
)


class ReferenceSimulator(Simulator):
    """Runs every instruction alone."""

    def run(
        self,
        entry,
        *,
        state=None,
        max_instructions=2_000_000,
        count_executions=False,
        on_execute=None,
        path=None,
    ):
        if state is None:
            state = MachineState()
        state.pc, state.npc = entry, entry + 4
        state.set_reg(15, (STOP_ADDRESS - 8) & MASK32)  # %o7
        counts = Counter()
        executed = 0
        record = path.append if path is not None else None
        segment = entry  # where the current straight-line segment began
        delay_slot = -1  # the executed delay slot that runs next, if any

        while state.pc != STOP_ADDRESS:
            if executed >= max_instructions:
                raise SimulationLimit(f"exceeded {max_instructions} instructions")
            inst = self.code.get(state.pc)
            if inst is None:
                raise BadPC(f"no instruction at {state.pc:#x}")

            executed += 1
            if count_executions:
                counts[state.pc] += 1
            if on_execute is not None:
                on_execute(state.pc, inst)

            if inst.is_control:
                pc = state.pc
                delay = self._execute_control(state, inst)
                if record is not None:
                    if pc != delay_slot:
                        record(segment << 2 | delay)
                    elif delay:
                        record(state.pc << 2 | LONE)
                    if delay:
                        delay_slot, segment = state.pc, state.npc
                    else:
                        delay_slot, segment = -1, state.pc
            else:
                execute(state, inst)
                state.pc, state.npc = state.npc, (state.npc + 4) & MASK32

        state.set_reg(15, 0)  # scrub the sentinel so states compare cleanly
        return RunResult(
            state=state, instructions_executed=executed, execution_counts=counts
        )
