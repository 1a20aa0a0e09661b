"""The instruction intermediate representation used throughout the library.

An :class:`Instruction` is an immutable record of one SPARC V8 machine
instruction: a mnemonic, register operands, and an optional immediate or
symbolic branch target. EEL attaches two pieces of provenance that the
paper's scheduler relies on:

* ``tag`` — ``"orig"`` for instructions from the input executable and
  ``"instr"`` for instrumentation added by a tool. The dependence
  analyzer uses the tag to apply the paper's memory-aliasing policy
  (§4: instrumentation memory references are assumed disjoint from the
  original program's).
* ``seq`` — the instruction's position in the original code sequence,
  used as the scheduler's final tie-break ("the instruction listed
  earlier in the original code sequence is chosen").
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator

from .opcodes import Category, Format, OpcodeInfo, Slot, lookup
from .registers import FCC, ICC, O7, PC, Reg, RegKind, Y, reg_code

#: Provenance tags.
TAG_ORIGINAL = "orig"
TAG_INSTRUMENTATION = "instr"


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    Exactly one of ``rs2`` / ``imm`` is set for register-or-immediate
    formats; branch and ``sethi`` instructions use ``imm`` for their
    displacement / imm22 and may instead carry a symbolic ``target``
    resolved at layout time.
    """

    mnemonic: str
    rd: Reg | None = None
    rs1: Reg | None = None
    rs2: Reg | None = None
    imm: int | None = None
    annul: bool = False
    target: str | None = None
    tag: str = TAG_ORIGINAL
    seq: int = -1

    def __post_init__(self) -> None:
        info = lookup(self.mnemonic)  # raises KeyError for unknown ops
        object.__setattr__(self, "_info", info)
        if self.rs2 is not None and self.imm is not None:
            raise ValueError(f"{self.mnemonic}: both rs2 and imm given")
        if self.rs2 is None and self.imm is None and self.target is None:
            # Canonical zero-immediate form, so encode/decode round-trips
            # (the hardware has no "absent" rs2 field).
            if info.operand_kinds.get(Slot.RS2) == "r" or info.fmt in (
                Format.CALL,
                Format.SETHI,
                Format.BRANCH,
            ):
                object.__setattr__(self, "imm", 0)
        for slot, reg in ((Slot.RD, self.rd), (Slot.RS1, self.rs1), (Slot.RS2, self.rs2)):
            if reg is None:
                continue
            want = info.operand_kinds.get(slot)
            if want is None:
                raise ValueError(f"{self.mnemonic}: unexpected operand {slot.value}")
            have = "f" if reg.kind is RegKind.FP else "r"
            if reg.kind not in (RegKind.INT, RegKind.FP) or have != want:
                raise ValueError(
                    f"{self.mnemonic}: operand {slot.value} must be an "
                    f"{'fp' if want == 'f' else 'integer'} register, got {reg}"
                )

    def __getstate__(self) -> dict:
        """Pickle without ``_timing_memo``: it holds the machine model
        (:meth:`~repro.spawn.model.MachineModel.timing`), whose compiled
        evaluator does not pickle. Unpickling restores the fields as
        they were, without re-running operand validation."""
        state = dict(self.__dict__)
        state.pop("_timing_memo", None)
        return state

    # -- static properties -------------------------------------------------

    @property
    def info(self) -> OpcodeInfo:
        try:
            return self._info
        except AttributeError:  # unpickled from pre-memo state
            info = lookup(self.mnemonic)
            object.__setattr__(self, "_info", info)
            return info

    @property
    def category(self) -> Category:
        return self.info.category

    @property
    def is_control(self) -> bool:
        return self.info.is_control

    @property
    def is_branch(self) -> bool:
        return self.info.fmt is Format.BRANCH

    @property
    def is_instrumentation(self) -> bool:
        return self.tag == TAG_INSTRUMENTATION

    @property
    def memory(self) -> str | None:
        """``'load'``, ``'store'``, or ``None``."""
        return self.info.memory

    @property
    def uses_immediate(self) -> bool:
        return self.imm is not None

    # -- effects -----------------------------------------------------------

    def _slot_regs(self, slots: frozenset[Slot]) -> Iterator[Reg]:
        info = self.info
        for slot in slots:
            if slot is Slot.ICC:
                yield ICC
            elif slot is Slot.FCC:
                yield FCC
            elif slot is Slot.Y:
                yield Y
            elif slot is Slot.PC:
                yield PC
            elif slot is Slot.O7:
                yield O7
            else:
                reg = {Slot.RD: self.rd, Slot.RS1: self.rs1, Slot.RS2: self.rs2}[slot]
                if reg is None:
                    continue
                if reg.kind is RegKind.FP and info.fp_width == 2:
                    yield reg
                    yield Reg(RegKind.FP, reg.index + 1)
                else:
                    yield reg

    def regs_read(self) -> frozenset[Reg]:
        """Registers this instruction reads, %g0 excluded.

        Memoized on the instance (instructions are immutable): the
        dependence analyzer asks for the effect sets of the same
        instructions on every scheduling and verification pass."""
        try:
            return self._regs_read
        except AttributeError:
            regs = frozenset(
                x for x in self._slot_regs(self.info.reads) if not x.is_zero
            )
            object.__setattr__(self, "_regs_read", regs)
            return regs

    def regs_written(self) -> frozenset[Reg]:
        """Registers this instruction writes, %g0 excluded. Memoized
        like :meth:`regs_read`."""
        try:
            return self._regs_written
        except AttributeError:
            regs = frozenset(
                x for x in self._slot_regs(self.info.writes) if not x.is_zero
            )
            object.__setattr__(self, "_regs_written", regs)
            return regs

    def read_mask(self) -> int:
        """:meth:`regs_read` as a bitmask over ``Reg.code`` positions —
        the dependence analyzer's pairwise hazard test is three integer
        ANDs instead of set intersections."""
        try:
            return self._read_mask
        except AttributeError:
            mask = 0
            for reg in self.regs_read():
                mask |= 1 << reg_code(reg)
            object.__setattr__(self, "_read_mask", mask)
            return mask

    def write_mask(self) -> int:
        """:meth:`regs_written` as a bitmask over ``Reg.code``."""
        try:
            return self._write_mask
        except AttributeError:
            mask = 0
            for reg in self.regs_written():
                mask |= 1 << reg_code(reg)
            object.__setattr__(self, "_write_mask", mask)
            return mask

    # -- convenience -------------------------------------------------------

    def _derived(self, name: str, value) -> "Instruction":
        """A copy with one non-operand field changed. The operands are
        this instruction's, validated when it was built, so the copy
        skips ``__post_init__``; it holds exactly what
        ``dataclasses.replace`` would give it (the fields, then the
        opcode info) and none of the per-instance memos."""
        clone = object.__new__(Instruction)
        state = clone.__dict__
        own = self.__dict__
        for field_name in _FIELD_NAMES:
            state[field_name] = own[field_name]
        state[name] = value
        state["_info"] = self.info
        return clone

    def retag(self, tag: str) -> "Instruction":
        return self._derived("tag", tag)

    def with_seq(self, seq: int) -> "Instruction":
        return self._derived("seq", seq)

    def with_target(self, target: str | None, imm: int | None = None) -> "Instruction":
        return replace(self, target=target, imm=imm)

    def __str__(self) -> str:
        return format_instruction(self)


#: Field names in declaration order: the order ``__init__`` stores them
#: in, which a derived copy keeps so it pickles like a replaced one.
_FIELD_NAMES = tuple(f.name for f in fields(Instruction))


def format_instruction(inst: Instruction) -> str:
    """Render an instruction in conventional SPARC assembly syntax."""
    m = inst.mnemonic
    info = inst.info
    if info.category is Category.NOP:
        return "nop"
    if info.fmt is Format.CALL:
        dest = inst.target if inst.target is not None else hex(inst.imm or 0)
        return f"call {dest}"
    if info.fmt is Format.BRANCH:
        dest = inst.target if inst.target is not None else str(inst.imm)
        suffix = ",a" if inst.annul else ""
        return f"{m}{suffix} {dest}"
    if info.fmt is Format.SETHI:
        # Print the full constant (imm22 << 10) so %hi() round-trips
        # through the assembler.
        value = inst.target if inst.target is not None else f"0x{((inst.imm or 0) << 10):x}"
        return f"sethi %hi({value}), {inst.rd}"
    if info.fmt is Format.FPOP:
        ops = [str(x) for x in (inst.rs1, inst.rs2, inst.rd) if x is not None]
        if info.category is Category.FPCMP:
            ops = [str(inst.rs1), str(inst.rs2)]
        return f"{m} {', '.join(ops)}"
    if info.fmt is Format.MEM:
        addr = _format_address(inst)
        if info.memory == "store":
            return f"{m} {inst.rd}, [{addr}]"
        return f"{m} [{addr}], {inst.rd}"
    if m == "jmpl":
        second = str(inst.rs2) if inst.rs2 is not None else str(inst.imm or 0)
        return f"jmpl {inst.rs1} + {second}, {inst.rd}"
    # ARITH
    second = str(inst.rs2) if inst.rs2 is not None else str(inst.imm or 0)
    parts = []
    if inst.rs1 is not None:
        parts.append(str(inst.rs1))
    if Slot.RS2 in info.operand_kinds:
        parts.append(second)
    if inst.rd is not None:
        parts.append(str(inst.rd))
    return f"{m} {', '.join(parts)}"


def _format_address(inst: Instruction) -> str:
    base = str(inst.rs1)
    if inst.rs2 is not None and not inst.rs2.is_zero:
        return f"{base} + {inst.rs2}"
    if inst.imm:
        sign = "+" if inst.imm >= 0 else "-"
        return f"{base} {sign} {abs(inst.imm)}"
    return base


def nop() -> Instruction:
    return Instruction("nop", imm=0)
