"""Differential: the symbolic executor's constant folding vs the
concrete semantics table, mnemonic by mnemonic.

Seeded with constants, :func:`repro.analyze.symex.sym_execute` must fold
every integer and memory instruction, and ``fmovs``/``fnegs``/``fabss``,
to the constants the concrete step computes: every register, FP
register, icc flag, Y and memory byte. The operands are the edge
values 0, 1, 0x7FFFFFFF, 0x80000000 and 0xFFFFFFFF, with large Y values
for multiplies and divides. Both sides fault alike on a zero divisor
and a misaligned address. FP arithmetic, which symex leaves
uninterpreted, is out of scope.
"""

import itertools

import pytest

from repro.analyze.symex import SymbolicState, SymbolicTrap, app, const, sym_execute
from repro.errors import ReproError
from repro.isa.instruction import Instruction
from repro.isa.machine_state import MachineState
from repro.isa.opcodes import Category, all_mnemonics, lookup
from repro.isa.registers import f, r
from repro.isa.semantics import execute

EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
#: Y values for multiplies and divides: each makes ``%y:rs1`` a
#: dividend past 2**53 for some ``rs1``.
LARGE_Y = (0, 1, 0x0FFFFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
#: Divisors: the edges plus a power of two that divides such a
#: dividend to a result a float quotient gets wrong.
DIVISORS = EDGES + (0x40000000,)
IMMEDIATES = (0, 1, -1, 4095, -4096)

INTEGER = tuple(
    m
    for m in all_mnemonics()
    if lookup(m).category
    in (Category.IALU, Category.SHIFT, Category.IMUL, Category.IDIV, Category.SETHI, Category.NOP)
)
USES_Y = ("umul", "smul", "smulcc", "udiv", "sdiv", "rdy", "wry")


def _concrete(a, b, y, carry):
    state = MachineState()
    state.set_reg(1, a)
    state.set_reg(2, b)
    state.set_reg(5, 0x2000)
    state.y = y
    state.icc_n, state.icc_z, state.icc_v, state.icc_c = carry, not carry, False, carry
    for index in range(32):
        state.fregs[index] = EDGES[index % len(EDGES)] ^ index
    return state


def _symbolic(concrete):
    """A symbolic state holding ``concrete``'s registers, FP registers,
    icc and Y as constants; memory stays the opaque initial term."""
    state = SymbolicState()
    for index in range(1, 32):
        state.regs[index] = const(concrete.regs[index])
    for index in range(32):
        state.fregs[index] = const(concrete.fregs[index])
    state.icc_n = const(concrete.icc_n)
    state.icc_z = const(concrete.icc_z)
    state.icc_v = const(concrete.icc_v)
    state.icc_c = const(concrete.icc_c)
    state.y = const(concrete.y)
    return state


def _run_both(concrete, symbolic, body):
    """Run ``body`` on both sides; the fault each raised, or None."""
    faults = []
    try:
        for inst in body:
            execute(concrete, inst)
        faults.append(None)
    except ReproError as exc:
        faults.append(exc)
    try:
        for index, inst in enumerate(body):
            sym_execute(symbolic, inst, index=index)
        faults.append(None)
    except SymbolicTrap as exc:
        faults.append(exc)
    return faults


def _disagreements(initial, concrete, symbolic):
    """Every place the folded symbolic state differs from the concrete
    one; memory compares the symbolic write log, replayed onto
    ``initial``'s memory, with the concrete memory."""
    out = []
    for name, values, terms in (
        ("%r", concrete.regs, symbolic.regs),
        ("%f", concrete.fregs, symbolic.fregs),
    ):
        for index, (value, term) in enumerate(zip(values, terms)):
            if not term.is_const or term.value != value:
                out.append(f"{name}{index}: {term} != {value:#x}")
    for flag in ("icc_n", "icc_z", "icc_v", "icc_c", "y"):
        term, value = getattr(symbolic, flag), int(getattr(concrete, flag))
        if not term.is_const or term.value != value:
            out.append(f"{flag}: {term} != {value:#x}")
    memory = initial.memory.copy()
    for write in symbolic.memory.writes:
        if not (write.addr.is_const and write.value.is_const):
            out.append(f"store at {write.addr} of {write.value} did not fold")
            continue
        memory.write(write.addr.value, write.value.value, write.size)
    if memory.snapshot() != concrete.memory.snapshot():
        out.append("memory")
    return out


def _check(body, a, b, y=0, carry=False):
    initial = _concrete(a, b, y, carry)
    concrete, symbolic = initial.copy(), _symbolic(initial)
    concrete_fault, symbolic_fault = _run_both(concrete, symbolic, body)
    where = f"{[str(i) for i in body]} with a={a:#x} b={b:#x} y={y:#x} c={carry}"
    assert (concrete_fault is None) == (symbolic_fault is None), (
        f"{where}: concrete {concrete_fault!r}, symbolic {symbolic_fault!r}"
    )
    if concrete_fault is None:
        assert not _disagreements(initial, concrete, symbolic), where
    else:
        assert str(concrete_fault) == str(symbolic_fault), where


def _forms(mnemonic):
    """``mnemonic`` with register operands and with each immediate,
    into %r3 and into %g0."""
    info = lookup(mnemonic)
    if mnemonic == "nop":
        return [Instruction("nop")]
    if mnemonic == "sethi":
        return [Instruction("sethi", rd=r(3), imm=imm) for imm in (0, 1, 0x3FFFFF)]
    if mnemonic == "rdy":
        return [Instruction("rdy", rd=r(3)), Instruction("rdy", rd=r(0))]
    if mnemonic == "wry":
        return [Instruction("wry", rs1=r(1), rs2=r(2))] + [
            Instruction("wry", rs1=r(1), imm=imm) for imm in IMMEDIATES
        ]
    assert info.fmt.name == "ARITH"
    return [
        Instruction(mnemonic, rd=rd, rs1=r(1), **second)
        for rd in (r(3), r(0))
        for second in [{"rs2": r(2)}] + [{"imm": imm} for imm in IMMEDIATES]
    ]


@pytest.mark.parametrize("mnemonic", INTEGER)
def test_integer_folds_match_the_concrete_step(mnemonic):
    ys = LARGE_Y if mnemonic in USES_Y else (0,)
    divisors = DIVISORS if mnemonic in ("udiv", "sdiv") else EDGES
    for inst in _forms(mnemonic):
        for a, b, y, carry in itertools.product(EDGES, divisors, ys, (False, True)):
            _check([inst], a, b, y, carry)


#: Store-then-load pairs of one width: the load folds to the stored
#: value (a load from the initial memory stays an opaque term).
_MEMORY_PAIRS = (
    ("st", "ld", r),
    ("stb", "ldub", r),
    ("stb", "ldsb", r),
    ("sth", "lduh", r),
    ("sth", "ldsh", r),
    ("std", "ldd", r),
    ("stf", "ldf", f),
    ("stdf", "lddf", f),
)


@pytest.mark.parametrize("store, load, bank", _MEMORY_PAIRS, ids=lambda v: getattr(v, "__name__", v))
def test_memory_folds_match_the_concrete_step(store, load, bank):
    """Both widths of address form (register + register, register +
    immediate), the edge values as data, a load into a register the
    store did not name, and an offset that misaligns the access."""
    size = {"b": 1, "h": 2}.get(store[-1], 4)
    for a, b in itertools.product(EDGES, EDGES):
        for offset in (0, 8, 4 - size if size < 4 else 4, 1 if size > 1 else 3):
            if bank is r:
                stored, loaded = r(2), r(6)
            else:
                stored, loaded = f(2), f(6)
            body = [
                Instruction(store, rd=stored, rs1=r(5), imm=offset),
                Instruction(load, rd=loaded, rs1=r(5), imm=offset),
            ]
            _check(body, a, b)
            _check([Instruction(store, rd=r(1) if bank is r else f(0), rs1=r(5), rs2=r(0))], a, b)


@pytest.mark.parametrize("mnemonic", ["fmovs", "fnegs", "fabss"])
def test_fp_moves_fold_to_the_concrete_patterns(mnemonic):
    for source in range(32):
        _check([Instruction(mnemonic, rd=f(7), rs2=f(source))], 0, 0)


def test_sdiv_fold_divides_exactly():
    """%y:rs1 = 2**60 - 1 over 2**30 folds to 0x3FFFFFFF, as the
    concrete step computes; a float quotient gives 0x40000000."""
    assert app("sdiv", const(0x0FFFFFFF), const(0xFFFFFFFF), const(0x40000000)).value == 0x3FFFFFFF
    assert app("sdiv", const(0xF0000000), const(1), const(0x40000000)).value == 0xC0000001
