"""Functional (architectural) semantics for the supported SPARC V8 subset.

The semantics is one table, :data:`_BINDERS`: for every mnemonic, a
binder that reads one instruction's operands once — the register
indices, the immediate, which source or destination is ``%g0`` — and
returns a *step*, a function that applies that instruction to a
:class:`MachineState`. :func:`step_of` memoizes the step on the
instruction (instructions are immutable), so an instruction is bound
once however often it runs. Everything that executes instructions runs
these steps: :func:`execute` (one instruction), :func:`run_straightline`
(the verification ladder's dynamic gate, the symbolic gate's
confirmation, the superblock check, the scheduler's differential tests)
and the :class:`~repro.isa.simulator.Simulator`, which runs each
straight-line segment of a program as a tuple of steps.

Binding never raises. What can fault — a misaligned address, an odd
double register, a zero divisor, a control transfer outside the
simulator — raises when the step runs, as the running instruction's
fault.

Fidelity notes: all integer arithmetic wraps at 32 bits, condition codes
follow the V8 manual (including carry-as-borrow for subtract), ``sdiv``
divides exactly in integer arithmetic, singles are truncated through an
actual IEEE binary32 round-trip, and ``%g0`` stays zero: a ``%g0``
destination drops the register write and nothing else (``subcc %g0,
…`` still sets icc). Traps (divide by zero, misalignment) raise Python
exceptions rather than vectoring — no instrumented program we generate
traps.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable

from .instruction import Instruction
from .machine_state import (
    FCC_EQUAL,
    FCC_GREATER,
    FCC_LESS,
    FCC_UNORDERED,
    MASK32,
    MachineState,
)
from .opcodes import all_mnemonics, lookup
from ..errors import ReproError

SIGN_BIT = 0x80000000

#: One instruction, bound: applies its effect to a machine state.
Step = Callable[[MachineState], None]


class SemanticsError(ReproError):
    """Raised when an instruction cannot be executed functionally."""


def _signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & SIGN_BIT else value


def _signed64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - (1 << 64) if value & (1 << 63) else value


def udiv_result(y: int, a: int, b: int) -> int:
    """What ``udiv`` writes: ``%y:a`` over a nonzero ``b``, unsigned,
    saturated to 32 bits."""
    return min(((y << 32) | a) // b, MASK32)


def sdiv_result(y: int, a: int, b: int) -> int:
    """What ``sdiv`` writes: ``%y:a`` over ``b`` (nonzero as a signed
    word), both signed, truncated toward zero and clamped to the signed
    32-bit range, as a 32-bit pattern. The quotient is exact integer
    arithmetic: a float quotient rounds dividends above 2**53."""
    dividend = _signed64((y << 32) | a)
    divisor = _signed(b)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    return max(-(1 << 31), min(quotient, (1 << 31) - 1)) & MASK32


def _src2(state: MachineState, inst: Instruction) -> int:
    if inst.imm is not None:
        return inst.imm & MASK32
    if inst.rs2 is None:
        return 0
    return state.get_reg(inst.rs2.index)


# -- condition codes ----------------------------------------------------------------


def _icc_add(state: MachineState, a: int, b: int, result: int) -> None:
    state.icc_n = bool(result & SIGN_BIT)
    state.icc_z = (result & MASK32) == 0
    state.icc_v = bool((~(a ^ b)) & (a ^ result) & SIGN_BIT)
    state.icc_c = (a + b) > MASK32


def _icc_sub(state: MachineState, a: int, b: int, result: int) -> None:
    state.icc_n = bool(result & SIGN_BIT)
    state.icc_z = (result & MASK32) == 0
    state.icc_v = bool((a ^ b) & (a ^ result) & SIGN_BIT)
    state.icc_c = b > a  # borrow


def _icc_logic(state: MachineState, a: int, b: int, result: int) -> None:
    state.icc_n = bool(result & SIGN_BIT)
    state.icc_z = (result & MASK32) == 0
    state.icc_v = False
    state.icc_c = False


# -- binding --------------------------------------------------------------------------


def step_of(inst: Instruction) -> Step:
    """``inst``'s bound step, memoized on the instruction. Pickling
    leaves the memo out (:meth:`Instruction.__getstate__`): a step is a
    closure."""
    try:
        return inst._step
    except AttributeError:
        pass
    try:
        step = _BINDERS[inst.mnemonic](inst)
    except AttributeError as exc:  # an operand the mnemonic needs is missing
        step = _faulting(AttributeError, str(exc))
    object.__setattr__(inst, "_step", step)
    return step


def _sources(inst: Instruction) -> tuple[int, int, int]:
    """``(k1, k2, c2)``: the first source is ``regs[k1]`` when ``k1``
    is nonzero and 0 otherwise (no ``rs1``, or ``%g0``); the second is
    ``regs[k2]`` when ``k2`` is nonzero and ``c2`` otherwise (the
    immediate as a 32-bit pattern, or 0)."""
    k1 = inst.rs1.index if inst.rs1 is not None else 0
    if inst.imm is not None:
        return k1, 0, inst.imm & MASK32
    return k1, inst.rs2.index if inst.rs2 is not None else 0, 0


def _dest(inst: Instruction) -> int:
    """The integer register ``inst`` writes; 0 (``%g0``, or none)
    drops the write."""
    return inst.rd.index if inst.rd is not None else 0


def _nop(state: MachineState) -> None:
    return None


def _faulting(kind: type[Exception], message: str) -> Step:
    def step(state: MachineState) -> None:
        raise kind(message)

    return step


def _bind_control(inst: Instruction) -> Step:
    return _faulting(
        SemanticsError, f"control transfer {inst.mnemonic} needs the simulator"
    )


def _bind_sethi(inst: Instruction) -> Step:
    rd = _dest(inst)
    value = ((inst.imm or 0) << 10) & MASK32
    if not rd:
        return _nop

    def step(state: MachineState) -> None:
        state.regs[rd] = value

    return step


# -- integer ----------------------------------------------------------------------------


def _alu(op: Callable[[int, int], int]) -> Callable[[Instruction], Step]:
    """Binder of a two-source operation that writes ``op(a, b)``."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = _dest(inst)
        if not rd:
            return _nop

        def step(state: MachineState) -> None:
            regs = state.regs
            regs[rd] = op(regs[k1] if k1 else 0, regs[k2] if k2 else c2) & MASK32

        return step

    return bind


def _alu_cc(
    op: Callable[[int, int], int], icc: Callable[[MachineState, int, int, int], None]
) -> Callable[[Instruction], Step]:
    """Binder of a two-source operation that also sets icc."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = _dest(inst)

        def step(state: MachineState) -> None:
            regs = state.regs
            a = regs[k1] if k1 else 0
            b = regs[k2] if k2 else c2
            result = op(a, b) & MASK32
            icc(state, a, b, result)
            if rd:
                regs[rd] = result

        return step

    return bind


def _with_carry(sign: int) -> Callable[[Instruction], Step]:
    """``addx`` (``sign`` 1) and ``subx`` (-1): ``a ± (b + icc.c)``."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = _dest(inst)
        if not rd:
            return _nop

        def step(state: MachineState) -> None:
            regs = state.regs
            b = (regs[k2] if k2 else c2) + int(state.icc_c)
            regs[rd] = ((regs[k1] if k1 else 0) + sign * b) & MASK32

        return step

    return bind


def _multiply(signed: bool, sets_cc: bool) -> Callable[[Instruction], Step]:
    """``umul``, ``smul`` and ``smulcc``: the high word goes to Y."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = _dest(inst)

        def step(state: MachineState) -> None:
            regs = state.regs
            a = regs[k1] if k1 else 0
            b = regs[k2] if k2 else c2
            product = _signed(a) * _signed(b) if signed else a * b
            state.y = (product >> 32) & MASK32
            result = product & MASK32
            if sets_cc:
                _icc_logic(state, a, b, result)
            if rd:
                regs[rd] = result

        return step

    return bind


def _divide(
    name: str, result_of: Callable[[int, int, int], int], zero: Callable[[int], bool]
) -> Callable[[Instruction], Step]:
    """``udiv`` and ``sdiv``: ``%y:a`` over ``b``; a zero divisor
    faults."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = _dest(inst)

        def step(state: MachineState) -> None:
            regs = state.regs
            b = regs[k2] if k2 else c2
            if zero(b):
                raise SemanticsError(f"{name} by zero")
            result = result_of(state.y, regs[k1] if k1 else 0, b)
            if rd:
                regs[rd] = result

        return step

    return bind


def _bind_rdy(inst: Instruction) -> Step:
    rd = _dest(inst)
    if not rd:
        return _nop

    def step(state: MachineState) -> None:
        state.regs[rd] = state.y & MASK32

    return step


def _bind_wry(inst: Instruction) -> Step:
    k1, k2, c2 = _sources(inst)

    def step(state: MachineState) -> None:
        regs = state.regs
        state.y = ((regs[k1] if k1 else 0) ^ (regs[k2] if k2 else c2)) & MASK32

    return step


# -- memory -------------------------------------------------------------------------------


def _load(size: int, *, fp: bool = False, sign_bit: int = 0) -> Callable[[Instruction], Step]:
    """Binder of a load of ``size`` bytes into an integer or (``fp``)
    an FP register; 8 is a doubleword into a register pair, and
    ``sign_bit`` sign-extends a byte or halfword. Words reach the byte
    store through ``Memory.read_word``, without a call per byte. A
    doubleword's second word sits at ``address + 4``, wrapping at
    2**32; ``ldd`` into ``%g0`` still writes ``%g1``."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = inst.rd.index
        second = rd + 1 if fp else rd | 1
        keep = fp or rd != 0

        def step(state: MachineState) -> None:
            regs = state.regs
            address = ((regs[k1] if k1 else 0) + (regs[k2] if k2 else c2)) & MASK32
            memory = state.memory
            target = state.fregs if fp else regs
            if size >= 4:
                value = memory.read_word(address)
            else:
                value = memory.read(address, size)
                if value & sign_bit:
                    value = (value - (sign_bit << 1)) & MASK32
            if keep:
                target[rd] = value
            if size == 8:
                target[second] = memory.read_word((address + 4) & MASK32)

        return step

    return bind


def _store(size: int, *, fp: bool = False) -> Callable[[Instruction], Step]:
    """Binder of a store of ``size`` bytes, laid out as :func:`_load`
    reads them; ``%g0`` stores zero."""

    def bind(inst: Instruction) -> Step:
        k1, k2, c2 = _sources(inst)
        rd = inst.rd.index
        second = rd + 1 if fp else rd | 1
        zero = not fp and rd == 0

        def step(state: MachineState) -> None:
            regs = state.regs
            address = ((regs[k1] if k1 else 0) + (regs[k2] if k2 else c2)) & MASK32
            memory = state.memory
            source = state.fregs if fp else regs
            value = 0 if zero else source[rd]
            if size >= 4:
                memory.write_word(address, value)
            else:
                memory.write(address, value, size)
            if size == 8:
                memory.write_word((address + 4) & MASK32, source[second])

        return step

    return bind


# -- floating point ------------------------------------------------------------------------

_WORDS = struct.Struct(">II")
_DOUBLE = struct.Struct(">d")
_pack_words = _WORDS.pack
_unpack_words = _WORDS.unpack
_pack_double = _DOUBLE.pack
_unpack_double = _DOUBLE.unpack


def _fp_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        return math.copysign(float("inf"), a) * math.copysign(1.0, b)
    return a / b


def _fp_move(pattern_of: Callable[[int], int]) -> Callable[[Instruction], Step]:
    """``fmovs``, ``fnegs`` and ``fabss``: bit operations on a single."""

    def bind(inst: Instruction) -> Step:
        rs2, rd = inst.rs2.index, inst.rd.index

        def step(state: MachineState) -> None:
            fregs = state.fregs
            fregs[rd] = pattern_of(fregs[rs2]) & MASK32

        return step

    return bind


def _fp_binary(op: Callable[[float, float], float], double: bool):
    """``fadd``, ``fsub``, ``fmul`` and ``fdiv`` in either width. A
    double whose registers are all even converts its register pairs
    inline; otherwise the state's accessors raise the odd register."""

    def bind(inst: Instruction) -> Step:
        rs1, rs2, rd = inst.rs1.index, inst.rs2.index, inst.rd.index
        if double and not (rs1 | rs2 | rd) & 1:

            def step(state: MachineState) -> None:
                fregs = state.fregs
                (a,) = _unpack_double(_pack_words(fregs[rs1], fregs[rs1 + 1]))
                (b,) = _unpack_double(_pack_words(fregs[rs2], fregs[rs2 + 1]))
                fregs[rd], fregs[rd + 1] = _unpack_words(_pack_double(op(a, b)))

            return step
        get = MachineState.get_double if double else MachineState.get_single
        put = MachineState.set_double if double else MachineState.set_single

        def step(state: MachineState) -> None:
            a = get(state, rs1)
            b = get(state, rs2)
            put(state, rd, op(a, b))

        return step

    return bind


def _fp_compare(double: bool) -> Callable[[Instruction], Step]:
    def bind(inst: Instruction) -> Step:
        rs1, rs2 = inst.rs1.index, inst.rs2.index
        get = MachineState.get_double if double else MachineState.get_single

        def step(state: MachineState) -> None:
            a = get(state, rs1)
            b = get(state, rs2)
            if math.isnan(a) or math.isnan(b):
                state.fcc = FCC_UNORDERED
            elif a == b:
                state.fcc = FCC_EQUAL
            elif a < b:
                state.fcc = FCC_LESS
            else:
                state.fcc = FCC_GREATER

        return step

    return bind


def _fp_unary(
    get: Callable[[MachineState, int], float | int],
    put: Callable[[MachineState, int, float | int], None],
    convert: Callable,
) -> Callable[[Instruction], Step]:
    """A one-source FP operation: ``put(rd, convert(get(rs2)))``."""

    def bind(inst: Instruction) -> Step:
        rs2, rd = inst.rs2.index, inst.rd.index

        def step(state: MachineState) -> None:
            put(state, rd, convert(get(state, rs2)))

        return step

    return bind


def _sqrt(value: float) -> float:
    return math.sqrt(value) if value >= 0 else float("nan")


def _to_int(value: float) -> int:
    return int(value) & MASK32 if math.isfinite(value) else 0


def _from_int(pattern: int) -> float:
    return float(_signed(pattern))


def _same(value):
    return value


_BINDERS: dict[str, Callable[[Instruction], Step]] = {
    "nop": lambda inst: _nop,
    "sethi": _bind_sethi,
    # integer
    "add": _alu(operator.add),
    "save": _alu(operator.add),
    "restore": _alu(operator.add),
    "sub": _alu(operator.sub),
    "and": _alu(operator.and_),
    "or": _alu(operator.or_),
    "xor": _alu(operator.xor),
    "andn": _alu(lambda a, b: a & ~b),
    "orn": _alu(lambda a, b: a | ~b),
    "xnor": _alu(lambda a, b: ~(a ^ b)),
    "sll": _alu(lambda a, b: a << (b & 31)),
    "srl": _alu(lambda a, b: a >> (b & 31)),
    "sra": _alu(lambda a, b: _signed(a) >> (b & 31)),
    "addcc": _alu_cc(operator.add, _icc_add),
    "subcc": _alu_cc(operator.sub, _icc_sub),
    "andcc": _alu_cc(operator.and_, _icc_logic),
    "orcc": _alu_cc(operator.or_, _icc_logic),
    "xorcc": _alu_cc(operator.xor, _icc_logic),
    "addx": _with_carry(1),
    "subx": _with_carry(-1),
    "umul": _multiply(signed=False, sets_cc=False),
    "smul": _multiply(signed=True, sets_cc=False),
    "smulcc": _multiply(signed=True, sets_cc=True),
    "udiv": _divide("udiv", udiv_result, lambda b: b == 0),
    "sdiv": _divide("sdiv", sdiv_result, lambda b: _signed(b) == 0),
    "rdy": _bind_rdy,
    "wry": _bind_wry,
    # memory
    "ld": _load(4),
    "ldd": _load(8),
    "ldf": _load(4, fp=True),
    "lddf": _load(8, fp=True),
    "ldub": _load(1),
    "lduh": _load(2),
    "ldsb": _load(1, sign_bit=0x80),
    "ldsh": _load(2, sign_bit=0x8000),
    "st": _store(4),
    "std": _store(8),
    "stf": _store(4, fp=True),
    "stdf": _store(8, fp=True),
    "stb": _store(1),
    "sth": _store(2),
    # floating point
    "fmovs": _fp_move(_same),
    "fnegs": _fp_move(lambda pattern: pattern ^ SIGN_BIT),
    "fabss": _fp_move(lambda pattern: pattern & ~SIGN_BIT),
    "fadds": _fp_binary(operator.add, double=False),
    "faddd": _fp_binary(operator.add, double=True),
    "fsubs": _fp_binary(operator.sub, double=False),
    "fsubd": _fp_binary(operator.sub, double=True),
    "fmuls": _fp_binary(operator.mul, double=False),
    "fmuld": _fp_binary(operator.mul, double=True),
    "fdivs": _fp_binary(_fp_div, double=False),
    "fdivd": _fp_binary(_fp_div, double=True),
    "fcmps": _fp_compare(double=False),
    "fcmpd": _fp_compare(double=True),
    "fsqrts": _fp_unary(MachineState.get_single, MachineState.set_single, _sqrt),
    "fsqrtd": _fp_unary(MachineState.get_double, MachineState.set_double, _sqrt),
    "fitos": _fp_unary(MachineState.get_freg, MachineState.set_single, _from_int),
    "fitod": _fp_unary(MachineState.get_freg, MachineState.set_double, _from_int),
    "fstoi": _fp_unary(MachineState.get_single, MachineState.set_freg, _to_int),
    "fdtoi": _fp_unary(MachineState.get_double, MachineState.set_freg, _to_int),
    "fstod": _fp_unary(MachineState.get_single, MachineState.set_double, _same),
    "fdtos": _fp_unary(MachineState.get_double, MachineState.set_single, _same),
}
for _mnemonic in all_mnemonics():
    if lookup(_mnemonic).is_control:
        _BINDERS[_mnemonic] = _bind_control


# -- running ---------------------------------------------------------------------------


def execute(state: MachineState, inst: Instruction) -> None:
    """Apply ``inst``'s architectural effect to ``state``: run its bound
    step.

    Control-transfer instructions fault here — the simulator handles
    them because they involve ``pc``/``npc``; straight-line callers
    (the verification gates, the scheduler's differential tests) never
    contain them.
    """
    step_of(inst)(state)


def run_straightline(state: MachineState, instructions: list[Instruction]) -> MachineState:
    """Execute a branch-free instruction sequence, returning ``state``.

    This is the workhorse of the scheduler's differential correctness
    tests: original order and scheduled order must leave identical
    architectural state from any starting state.
    """
    for inst in instructions:
        step_of(inst)(state)
    return state
