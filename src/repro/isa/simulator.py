"""Whole-program functional simulator with SPARC delayed control transfer.

This simulator executes *architectural* semantics only — timing lives in
:mod:`repro.pipeline`. It exists for three jobs:

* verifying that an edited (instrumented/scheduled) executable is
  behaviour-identical to the original;
* reading back QPT profiling counters and checking them against true
  basic-block execution counts;
* collecting dynamic execution frequencies for the real workload kernels.

``pc``/``npc`` and branch annul bits follow the V8 manual: a conditional
branch's delay slot is annulled only when the branch is untaken (or
always, for ``ba,a``/``fba,a``).

Instructions run as the steps :mod:`repro.isa.semantics` binds, each
bound once (Shade's translate-once, cache-the-translation scheme). A
run caches, per start address, the straight-line segment there — the
instructions up to the next control transfer — as a tuple of bound
steps, and runs it whole wherever execution flows sequentially into
that address (``npc == pc + 4``). A control transfer runs alone,
through :meth:`Simulator._execute_control`, and the run records the
executed path there. A taken transfer's delay slot runs alone too; an
untaken branch's slot is sequential, so the segment from it runs it.
Every instruction runs alone in a run with an ``on_execute`` callback,
and in a segment that would cross ``max_instructions``. A fault inside
a segment leaves ``pc``/``npc`` at the faulting instruction, as running
it alone does.
The tests hold every run equal to a reference loop that runs each
instruction alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import length_hint

from .instruction import Instruction
from .machine_state import MASK32, MachineState
from .opcodes import Category, Format
from .semantics import SemanticsError, _src2, step_of

#: Return-to-here address that cleanly stops simulation. Programs are
#: started with ``%o7 = STOP_ADDRESS - 8`` so a final ``retl`` exits.
STOP_ADDRESS = 0xFFFF0000

#: Kinds of recorded path segment (:meth:`Simulator.run`'s ``path``),
#: held in a segment's low two bits: straight-line code up to and
#: including a control transfer whose delay slot was annulled, the same
#: with its delay slot executed, or one lone instruction (the delay
#: slot of a control transfer that itself sat in a delay slot).
NO_DELAY, WITH_DELAY, LONE = 0, 1, 2


class SimulationLimit(Exception):
    """Raised when the instruction budget is exhausted (runaway loop)."""


class BadPC(Exception):
    """Raised when control flows outside the program text."""


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    state: MachineState
    instructions_executed: int
    #: dynamic execution count per instruction address.
    execution_counts: Counter = field(default_factory=Counter)

    def count_at(self, address: int) -> int:
        return self.execution_counts.get(address, 0)


class Simulator:
    """Executes a code image (address → instruction) functionally."""

    def __init__(self, code: dict[int, Instruction]) -> None:
        self.code = code

    @classmethod
    def from_instructions(
        cls, instructions: list[Instruction], *, base_address: int = 0x1000
    ) -> "Simulator":
        return cls(
            {base_address + 4 * i: inst for i, inst in enumerate(instructions)}
        )

    def run(
        self,
        entry: int,
        *,
        state: MachineState | None = None,
        max_instructions: int = 2_000_000,
        count_executions: bool = False,
        on_execute=None,
        path: list[int] | None = None,
    ) -> RunResult:
        """Run from ``entry`` until control reaches :data:`STOP_ADDRESS`.

        ``on_execute(address, instruction)`` is invoked for every
        dynamically executed instruction (annulled delay slots are
        skipped, so they are not reported).

        ``path``, when given, receives the path the run executed as
        straight-line segments, one ``start << 2 | kind`` per executed
        control transfer: ``start`` is the address the segment began
        at, and ``kind`` (:data:`NO_DELAY` or :data:`WITH_DELAY`) says
        whether the transfer's delay slot executed; a transfer that sat
        in a delay slot adds a :data:`LONE` segment for its own delay
        instruction. The segments, laid end to end by
        :func:`segment_instructions`, are exactly the executed
        instruction stream — what trace timing replays.
        """
        if state is None:
            state = MachineState()
        state.pc, state.npc = entry, entry + 4
        state.set_reg(15, (STOP_ADDRESS - 8) & MASK32)  # %o7
        code = self.code
        counts: Counter = Counter()
        executed = 0
        record = path.append if path is not None else None
        segment = entry  # where the current straight-line segment began
        delay_slot = -1  # the executed delay slot that runs next, if any
        #: start address -> (steps, addresses) of the segment there;
        #: None when every instruction runs alone, for ``on_execute``.
        bound_segments: dict | None = {} if on_execute is None else None

        while True:
            pc = state.pc
            if bound_segments is not None and state.npc == pc + 4:
                bound = bound_segments.get(pc)
                if bound is None:
                    bound = bound_segments[pc] = self._bind_segment(pc)
                steps, addresses = bound
                size = len(steps)
                if size and executed + size <= max_instructions:
                    remaining = iter(steps)
                    try:
                        for step in remaining:
                            step(state)
                    except BaseException:
                        # The fault is the step the iterator handed out last.
                        pc = (pc + 4 * (size - 1 - length_hint(remaining))) & MASK32
                        state.pc, state.npc = pc, (pc + 4) & MASK32
                        raise
                    executed += size
                    if count_executions:
                        counts.update(addresses)
                    pc = state.pc = (pc + 4 * size) & MASK32
                    state.npc = (pc + 4) & MASK32
            if pc == STOP_ADDRESS:
                break
            if executed >= max_instructions:
                raise SimulationLimit(f"exceeded {max_instructions} instructions")
            inst = code.get(pc)
            if inst is None:
                raise BadPC(f"no instruction at {pc:#x}")

            executed += 1
            if count_executions:
                counts[pc] += 1
            if on_execute is not None:
                on_execute(pc, inst)

            if inst.is_control:
                delay = self._execute_control(state, inst)
                if record is not None:
                    if pc != delay_slot:
                        record(segment << 2 | delay)
                    elif delay:
                        # A transfer in a delay slot is its predecessor's
                        # delay instruction; its own delay slot is the
                        # predecessor's target, which runs alone.
                        record(state.pc << 2 | LONE)
                    if delay:
                        delay_slot, segment = state.pc, state.npc
                    else:
                        delay_slot, segment = -1, state.pc
            else:
                step_of(inst)(state)
                state.pc, state.npc = state.npc, (state.npc + 4) & MASK32

        state.set_reg(15, 0)  # scrub the sentinel so states compare cleanly
        return RunResult(state=state, instructions_executed=executed, execution_counts=counts)

    def _bind_segment(self, start: int) -> tuple[tuple, tuple]:
        """The bound steps and addresses of the straight-line run of
        instructions from ``start``: up to the first control transfer,
        missing instruction or :data:`STOP_ADDRESS`, none past 2**32."""
        steps, addresses = [], []
        address = start
        while address <= MASK32 and address != STOP_ADDRESS:
            inst = self.code.get(address)
            if inst is None or inst.is_control:
                break
            steps.append(step_of(inst))
            addresses.append(address)
            address += 4
        return tuple(steps), tuple(addresses)

    # -- control transfer -------------------------------------------------------

    def _execute_control(self, state: MachineState, inst: Instruction) -> bool:
        """Execute a control-transfer instruction, applying annulment by
        stepping ``pc`` past the delay slot when required. True when the
        delay slot executes."""
        info = inst.info
        pc = state.pc

        if info.fmt is Format.CALL:
            state.set_reg(15, pc)  # %o7
            target = (pc + 4 * (inst.imm or 0)) & MASK32
            taken = True
        elif inst.mnemonic == "jmpl":
            target = self._jmpl_target(state, inst)
            state.set_reg(inst.rd.index, pc)
            taken = True
        elif info.fmt is Format.BRANCH:
            target = (pc + 4 * (inst.imm or 0)) & MASK32
            taken = _branch_taken(state, inst)
        else:  # pragma: no cover
            raise SemanticsError(f"unhandled control instruction {inst.mnemonic}")

        next_npc = target if taken else (state.npc + 4) & MASK32
        annulled = inst.annul and (info.is_unconditional or not taken)
        if annulled:
            state.pc, state.npc = next_npc, (next_npc + 4) & MASK32
        else:
            state.pc, state.npc = state.npc, next_npc
        return not annulled

    @staticmethod
    def _jmpl_target(state: MachineState, inst: Instruction) -> int:
        base = state.get_reg(inst.rs1.index) if inst.rs1 is not None else 0
        return (base + _src2(state, inst)) & MASK32


def segment_instructions(
    code: dict[int, Instruction], segment: int
) -> list[Instruction] | None:
    """The instructions one recorded path segment executes in ``code``
    (see :meth:`Simulator.run`): from its start up to the first control
    transfer, plus the delay slot when it executed. None when ``code``
    has no instruction where the segment needs one."""
    address, kind = segment >> 2, segment & 3
    inst = code.get(address)
    if kind == LONE:
        return None if inst is None else [inst]
    out = []
    while inst is not None and not inst.is_control:
        out.append(inst)
        address += 4
        inst = code.get(address)
    if inst is None:
        return None
    out.append(inst)
    if kind == WITH_DELAY:
        delay = code.get(address + 4)
        if delay is None:
            return None
        out.append(delay)
    return out


def _branch_taken(state: MachineState, inst: Instruction) -> bool:
    m = inst.mnemonic
    if inst.category is Category.FBRANCH:
        return state.fcc in _FCC_SETS[m]
    n, z, v, c = state.icc_n, state.icc_z, state.icc_v, state.icc_c
    return _ICC_CONDS[m](n, z, v, c)


_ICC_CONDS = {
    "ba": lambda n, z, v, c: True,
    "bn": lambda n, z, v, c: False,
    "be": lambda n, z, v, c: z,
    "bne": lambda n, z, v, c: not z,
    "ble": lambda n, z, v, c: z or (n != v),
    "bg": lambda n, z, v, c: not (z or (n != v)),
    "bl": lambda n, z, v, c: n != v,
    "bge": lambda n, z, v, c: n == v,
    "bleu": lambda n, z, v, c: c or z,
    "bgu": lambda n, z, v, c: not (c or z),
    "bcs": lambda n, z, v, c: c,
    "bcc": lambda n, z, v, c: not c,
    "bneg": lambda n, z, v, c: n,
    "bpos": lambda n, z, v, c: not n,
    "bvs": lambda n, z, v, c: v,
    "bvc": lambda n, z, v, c: not v,
}

# fcc value sets (E=0, L=1, G=2, U=3) for each fbfcc condition.
_FCC_SETS = {
    "fbn": frozenset(),
    "fbne": frozenset({1, 2, 3}),
    "fblg": frozenset({1, 2}),
    "fbul": frozenset({1, 3}),
    "fbl": frozenset({1}),
    "fbug": frozenset({2, 3}),
    "fbg": frozenset({2}),
    "fbu": frozenset({3}),
    "fba": frozenset({0, 1, 2, 3}),
    "fbe": frozenset({0}),
    "fbue": frozenset({0, 3}),
    "fbge": frozenset({0, 2}),
    "fbuge": frozenset({0, 2, 3}),
    "fble": frozenset({0, 1}),
    "fbule": frozenset({0, 1, 3}),
    "fbo": frozenset({0, 1, 2}),
}
