"""The machine model Spawn builds from a SADL description.

Spawn's job in the paper is to analyze a description, group instructions
with identical timing/resource patterns, and hand the scheduler three
things per instruction: how long it occupies the pipeline, which units
it acquires/releases in each cycle, and in which cycles it reads and
writes registers. :class:`MachineModel` is that product.

Register accesses in SADL traces use symbolic operand fields (``rs1``…);
:func:`MachineModel.timing` resolves them against a concrete
:class:`~repro.isa.instruction.Instruction` using a fixed convention for
file names: ``R`` is the integer file, ``F`` the floating-point file,
``CC`` holds the condition codes (index 0 = ``%icc``, 1 = ``%fcc``), and
``YR`` the multiply/divide ``%y`` register.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..isa.instruction import Instruction
from ..isa.registers import FCC, ICC, Reg, RegKind, Y
from ..sadl.ast_nodes import Description
from ..sadl.evaluator import DescriptionEvaluator
from ..sadl.trace import RegAccess, Trace
from ..errors import ReproError


class ModelError(ReproError):
    """Raised when a description cannot model a requested instruction."""


@dataclass(frozen=True)
class InstructionTiming:
    """Fully resolved timing for one concrete instruction."""

    group: int
    trace: Trace
    #: (register, relative cycle of the read)
    reads: tuple[tuple[Reg, int], ...]
    #: (register, first relative cycle the written value is usable)
    writes: tuple[tuple[Reg, int], ...]

    @property
    def cycles(self) -> int:
        return self.trace.cycles


class MachineModel:
    """A processor model: units plus per-instruction timing groups."""

    def __init__(
        self,
        description: Description,
        name: str = "machine",
        source: str | None = None,
    ) -> None:
        self.name = name
        #: the SADL source this model was compiled from, when known.
        #: Content-addresses the model for the schedule cache and lets
        #: parallel worker processes rebuild it (the compiled evaluator
        #: holds closures and does not pickle).
        self.source = source
        self.evaluator = DescriptionEvaluator(description)
        self.units: dict[str, int] = dict(self.evaluator.units)
        #: unit name -> dense index, for the pipeline state vectors.
        self.unit_index: dict[str, int] = {
            unit: i for i, unit in enumerate(sorted(self.units))
        }
        self.unit_capacity: tuple[int, ...] = tuple(
            self.units[u] for u in sorted(self.units)
        )
        self._groups: dict[tuple, int] = {}
        self._group_traces: list[Trace] = []
        self._variant_cache: dict[tuple[str, bool], tuple[int, Trace]] = {}
        self._timing_cache: dict[tuple, InstructionTiming] = {}

    @cached_property
    def tables(self):
        """The compiled stall-transition tables
        (:class:`repro.pipeline.tables.PipelineTables`) every stall query
        on this model answers through, compiled — or loaded from the
        disk cache — on first use by
        :func:`repro.pipeline.tables.attach_tables`."""
        from ..pipeline import tables

        return tables.attach_tables(self)

    # -- group formation ----------------------------------------------------

    def _variant(self, mnemonic: str, uses_imm: bool) -> tuple[int, Trace]:
        """The (group id, trace) for an instruction variant, forming a
        new timing group the first time a signature is seen — the
        paper's space optimization in generated code."""
        key = (mnemonic, uses_imm)
        cached = self._variant_cache.get(key)
        if cached is not None:
            return cached
        if not self.evaluator.has_sem(mnemonic):
            raise ModelError(
                f"{self.name}: no SADL semantics for instruction {mnemonic!r}"
            )
        trace = self.evaluator.trace_for(mnemonic, {"iflag": int(uses_imm)})
        self._validate(mnemonic, trace)
        signature = trace.signature()
        group = self._groups.get(signature)
        if group is None:
            group = len(self._group_traces)
            self._groups[signature] = group
            self._group_traces.append(trace)
        result = (group, self._group_traces[group])
        self._variant_cache[key] = result
        return result

    def _validate(self, mnemonic: str, trace: Trace) -> None:
        for event in trace.acquires:
            capacity = self.units.get(event.unit)
            if capacity is None:  # pragma: no cover - evaluator checks too
                raise ModelError(f"{mnemonic}: unknown unit {event.unit!r}")
            if event.count > capacity:
                raise ModelError(
                    f"{mnemonic}: acquires {event.count} of unit "
                    f"{event.unit!r} but the machine only has {capacity}"
                )

    @property
    def group_count(self) -> int:
        return len(self._group_traces)

    def group_trace(self, group: int) -> Trace:
        return self._group_traces[group]

    # -- resolution -----------------------------------------------------------

    def timing(self, inst: Instruction) -> InstructionTiming:
        """Resolve the timing trace for a concrete instruction.

        Results are interned per (mnemonic, immediate-use, operand
        registers) — the fields timing depends on — so hot loops in the
        trace-driven timing simulator hit a dictionary, not the
        evaluator. The latest resolution is additionally memoized on
        the instruction itself (guarded by model identity, since two
        models resolve the same instruction differently), which is the
        common hit when one model schedules a region repeatedly.
        """
        memo = inst.__dict__.get("_timing_memo")
        if memo is not None and memo[0] is self:
            return memo[1]
        key = (inst.mnemonic, inst.uses_immediate, inst.rd, inst.rs1, inst.rs2)
        timing = self._timing_cache.get(key)
        if timing is None:
            timing = self._timing_uncached(inst)
            self._timing_cache[key] = timing
        object.__setattr__(inst, "_timing_memo", (self, timing))
        return timing

    def _timing_uncached(self, inst: Instruction) -> InstructionTiming:
        group, trace = self._variant(inst.mnemonic, inst.uses_immediate)
        reads = tuple(
            (reg, access.cycle)
            for access in trace.reads
            for reg in self._resolve(inst, access)
        )
        writes = tuple(
            (reg, access.cycle)
            for access in trace.writes
            for reg in self._resolve(inst, access)
        )
        return InstructionTiming(group=group, trace=trace, reads=reads, writes=writes)

    def group_of(self, inst: Instruction) -> int:
        return self._variant(inst.mnemonic, inst.uses_immediate)[0]

    def _resolve(self, inst: Instruction, access: RegAccess) -> list[Reg]:
        index = access.index
        if isinstance(index, str):
            operand = getattr(inst, index, None)
            if operand is None:
                raise ModelError(
                    f"{inst.mnemonic}: SADL accesses field {index!r} but the "
                    f"instruction has no such operand"
                )
            number = operand.index
        else:
            number = index
        regs = _file_registers(access.file, number, access.width)
        # Drop %g0 — it is not a real dependence.
        return [reg for reg in regs if not reg.is_zero]


def _file_registers(file: str, number: int, width: int) -> list[Reg]:
    if file == "R":
        return [Reg(RegKind.INT, number + k) for k in range(width)]
    if file == "F":
        return [Reg(RegKind.FP, number + k) for k in range(width)]
    if file == "CC":
        return [ICC if number == 0 else FCC]
    if file == "YR":
        return [Y]
    raise ModelError(f"unknown register file {file!r} (expected R/F/CC/YR)")
