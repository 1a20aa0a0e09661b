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

from dataclasses import dataclass, fields

from .opcodes import Category, Format, OpcodeInfo, Slot, all_mnemonics, lookup
from .registers import FCC, ICC, O7, PC, Reg, RegKind, Y, f

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
        plan = _PLANS[self.mnemonic]
        if (
            self.rs2 is None
            and self.imm is None
            and self.target is None
            and plan.zero_imm
        ):
            object.__setattr__(self, "imm", 0)
        state = self.__dict__
        for name, kind in plan.operands:
            reg = state[name]
            if reg is None:
                # A slot the mnemonic has must be filled; imm or target
                # fills an absent rs2.
                if kind is not None and (
                    name != "rs2" or state["imm"] is None and state["target"] is None
                ):
                    raise ValueError(f"{self.mnemonic}: missing operand {name}")
            elif reg.kind is not kind:
                if kind is None:
                    raise ValueError(f"{self.mnemonic}: unexpected operand {name}")
                raise ValueError(
                    f"{self.mnemonic}: operand {name} must be an "
                    f"{'fp' if kind is RegKind.FP else 'integer'} register, got {reg}"
                )

    def __getstate__(self) -> dict:
        """Pickle without ``_timing_memo`` or ``_step``: the first holds
        the machine model (:meth:`~repro.spawn.model.MachineModel.timing`),
        whose compiled evaluator does not pickle, and the second the
        bound step (:func:`~repro.isa.semantics.step_of`), a closure.
        Unpickling restores the fields as they were, without re-running
        operand validation."""
        state = dict(self.__dict__)
        state.pop("_timing_memo", None)
        state.pop("_step", None)
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

    def _operand_regs(self, names: tuple[str, ...], pair: bool) -> list[Reg]:
        """The registers the operand fields ``names`` name, %g0 excluded;
        with ``pair``, an fp operand names ``reg`` and ``reg+1``."""
        state = self.__dict__
        regs = []
        for name in names:
            reg = state[name]
            if reg is None or not reg.code:  # code 0 is %g0
                continue
            regs.append(reg)
            if pair and reg.kind is RegKind.FP:
                regs.append(f(reg.index + 1))
        return regs

    def regs_read(self) -> frozenset[Reg]:
        """Registers this instruction reads, %g0 excluded.

        Memoized on the instance (instructions are immutable): the
        dependence analyzer asks for the effect sets of the same
        instructions on every scheduling and verification pass."""
        try:
            return self._regs_read
        except AttributeError:
            plan = _PLANS[self.mnemonic]
            regs = frozenset(
                (*self._operand_regs(plan.read_fields, plan.pair), *plan.fixed_reads)
            )
            object.__setattr__(self, "_regs_read", regs)
            return regs

    def regs_written(self) -> frozenset[Reg]:
        """Registers this instruction writes, %g0 excluded. Memoized
        like :meth:`regs_read`."""
        try:
            return self._regs_written
        except AttributeError:
            plan = _PLANS[self.mnemonic]
            regs = frozenset(
                (*self._operand_regs(plan.write_fields, plan.pair), *plan.fixed_writes)
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
            plan = _PLANS[self.mnemonic]
            mask = plan.fixed_read_mask
            for reg in self._operand_regs(plan.read_fields, plan.pair):
                mask |= 1 << reg.code
            object.__setattr__(self, "_read_mask", mask)
            return mask

    def write_mask(self) -> int:
        """:meth:`regs_written` as a bitmask over ``Reg.code``."""
        try:
            return self._write_mask
        except AttributeError:
            plan = _PLANS[self.mnemonic]
            mask = plan.fixed_write_mask
            for reg in self._operand_regs(plan.write_fields, plan.pair):
                mask |= 1 << reg.code
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
        """A copy with a new symbolic target and immediate, built like
        :meth:`with_seq` and equal to ``dataclasses.replace(self,
        target=target, imm=imm)``, zero-immediate rule included."""
        if imm is not None and self.rs2 is not None:
            raise ValueError(f"{self.mnemonic}: both rs2 and imm given")
        if imm is None and target is None and self.rs2 is None:
            if _PLANS[self.mnemonic].zero_imm:
                imm = 0
        clone = self._derived("target", target)
        clone.__dict__["imm"] = imm
        return clone

    def __str__(self) -> str:
        """:func:`format_instruction`, rendered once per instance: the
        verification gates compare instructions by their text, and
        every gate renders the same instructions."""
        try:
            return self._text
        except AttributeError:
            text = format_instruction(self)
            object.__setattr__(self, "_text", text)
            return text


#: Field names in declaration order: the order ``__init__`` stores them
#: in, which a derived copy keeps so it pickles like a replaced one.
_FIELD_NAMES = tuple(field.name for field in fields(Instruction))

_FIXED_REGS = {Slot.ICC: ICC, Slot.FCC: FCC, Slot.Y: Y, Slot.PC: PC, Slot.O7: O7}
_OPERAND_FIELDS = {Slot.RD: "rd", Slot.RS1: "rs1", Slot.RS2: "rs2"}
#: ``OpcodeInfo.operand_kinds`` letter -> the register file it names.
_REG_FILES = {"r": RegKind.INT, "f": RegKind.FP}


@dataclass(frozen=True)
class _Plan:
    """What every instruction of one mnemonic derives alike, worked out
    once from its :class:`OpcodeInfo`: the fixed resources it reads and
    writes (as registers and as ``Reg.code`` masks), the operand fields
    it reads and writes, whether an fp operand names a register pair,
    whether an absent ``rs2``/``imm``/``target`` means ``imm=0``, and
    the register file each of ``rd``, ``rs1`` and ``rs2`` must name
    (None where the mnemonic has no such slot: that field must be
    empty).

    Every slot the mnemonic has must be filled, or construction raises.
    ``rs2``, ``imm`` or a symbolic ``target`` fill one slot, and a
    branch or ``call`` needs ``imm`` or ``target``; the zero-immediate
    rule fills ``imm`` for an integer ``rs2`` slot and for every
    transfer before the check."""

    fixed_reads: tuple[Reg, ...]
    fixed_writes: tuple[Reg, ...]
    fixed_read_mask: int
    fixed_write_mask: int
    read_fields: tuple[str, ...]
    write_fields: tuple[str, ...]
    pair: bool
    zero_imm: bool
    operands: tuple[tuple[str, RegKind | None], ...]


def _plan(info: OpcodeInfo) -> _Plan:
    def fixed(slots: frozenset[Slot]) -> tuple[Reg, ...]:
        return tuple(_FIXED_REGS[slot] for slot in slots if slot in _FIXED_REGS)

    def operand_fields(slots: frozenset[Slot]) -> tuple[str, ...]:
        return tuple(
            _OPERAND_FIELDS[slot] for slot in slots if slot in _OPERAND_FIELDS
        )

    reads, writes = fixed(info.reads), fixed(info.writes)
    return _Plan(
        fixed_reads=reads,
        fixed_writes=writes,
        fixed_read_mask=sum(1 << reg.code for reg in reads),
        fixed_write_mask=sum(1 << reg.code for reg in writes),
        read_fields=operand_fields(info.reads),
        write_fields=operand_fields(info.writes),
        pair=info.fp_width == 2,
        # Canonical zero-immediate form, so encode/decode round-trips
        # (the hardware has no "absent" rs2 field).
        zero_imm=info.operand_kinds.get(Slot.RS2) == "r"
        or info.fmt in (Format.CALL, Format.SETHI, Format.BRANCH),
        operands=tuple(
            (name, _REG_FILES.get(info.operand_kinds.get(slot)))
            for slot, name in _OPERAND_FIELDS.items()
        ),
    )


#: Mnemonic -> its plan, for every supported mnemonic.
_PLANS = {mnemonic: _plan(lookup(mnemonic)) for mnemonic in all_mnemonics()}


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
