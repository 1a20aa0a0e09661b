"""Functional-semantics unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (
    Instruction,
    MachineState,
    SemanticsError,
    execute,
    f,
    r,
    run_straightline,
)
from repro.isa.machine_state import (
    FCC_EQUAL,
    FCC_GREATER,
    FCC_LESS,
    FCC_UNORDERED,
    MASK32,
)

U32 = st.integers(0, MASK32)


def _state(**regs):
    state = MachineState()
    for name, value in regs.items():
        state.set_reg(int(name[1:]), value)
    return state


def test_add_wraps():
    state = _state(r1=MASK32, r2=1)
    execute(state, Instruction("add", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 0


def test_g0_stays_zero():
    state = _state(r1=5)
    execute(state, Instruction("add", rd=r(0), rs1=r(1), imm=10))
    assert state.get_reg(0) == 0


def test_sethi():
    state = MachineState()
    execute(state, Instruction("sethi", rd=r(1), imm=0x123))
    assert state.get_reg(1) == 0x123 << 10


def test_subcc_flags_zero():
    state = _state(r1=7, r2=7)
    execute(state, Instruction("subcc", rd=r(0), rs1=r(1), rs2=r(2)))
    assert state.icc_z and not state.icc_n and not state.icc_c


def test_subcc_borrow():
    state = _state(r1=1, r2=2)
    execute(state, Instruction("subcc", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.icc_c  # borrow
    assert state.icc_n
    assert state.get_reg(3) == MASK32


def test_addcc_carry_and_overflow():
    state = _state(r1=0x7FFFFFFF, r2=1)
    execute(state, Instruction("addcc", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.icc_v and state.icc_n and not state.icc_c
    state = _state(r1=MASK32, r2=1)
    execute(state, Instruction("addcc", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.icc_c and state.icc_z and not state.icc_v


def test_addx_uses_carry():
    state = _state(r1=1)
    state.icc_c = True
    execute(state, Instruction("addx", rd=r(2), rs1=r(1), imm=1))
    assert state.get_reg(2) == 3


def test_logic_ops():
    state = _state(r1=0b1100, r2=0b1010)
    execute(state, Instruction("and", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 0b1000
    execute(state, Instruction("xor", rd=r(4), rs1=r(1), rs2=r(2)))
    assert state.get_reg(4) == 0b0110
    execute(state, Instruction("andn", rd=r(5), rs1=r(1), rs2=r(2)))
    assert state.get_reg(5) == 0b0100
    execute(state, Instruction("xnor", rd=r(6), rs1=r(1), rs2=r(2)))
    assert state.get_reg(6) == 0b0110 ^ MASK32


def test_shifts():
    state = _state(r1=0x80000000)
    execute(state, Instruction("srl", rd=r(2), rs1=r(1), imm=4))
    assert state.get_reg(2) == 0x08000000
    execute(state, Instruction("sra", rd=r(3), rs1=r(1), imm=4))
    assert state.get_reg(3) == 0xF8000000
    execute(state, Instruction("sll", rd=r(4), rs1=r(1), imm=1))
    assert state.get_reg(4) == 0


def test_shift_counts_mask_to_5_bits():
    state = _state(r1=1, r2=33)
    execute(state, Instruction("sll", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 2


def test_smul_sets_y():
    state = _state(r1=MASK32, r2=2)  # -1 * 2
    execute(state, Instruction("smul", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == (MASK32 - 1)
    assert state.y == MASK32  # high word of -2


def test_umul_sets_y():
    state = _state(r1=0x10000, r2=0x10000)
    execute(state, Instruction("umul", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 0
    assert state.y == 1


def test_udiv():
    state = _state(r1=100, r2=7)
    state.y = 0
    execute(state, Instruction("udiv", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 14


def test_sdiv_divides_exactly():
    """%y:rs1 = 0x0FFFFFFF_FFFFFFFF (2**60 - 1) over 2**30 truncates to
    0x3FFFFFFF; a float quotient rounds the dividend up to 2**60."""
    state = _state(r1=0xFFFFFFFF, r2=0x40000000)
    state.y = 0x0FFFFFFF
    execute(state, Instruction("sdiv", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == 0x3FFFFFFF
    state = _state(r1=1, r2=0x40000000)  # -(2**60 - 1): toward zero
    state.y = 0xF0000000
    execute(state, Instruction("sdiv", rd=r(3), rs1=r(1), rs2=r(2)))
    assert state.get_reg(3) == -0x3FFFFFFF & MASK32


def test_div_by_zero_raises():
    state = _state(r1=1, r2=0)
    with pytest.raises(SemanticsError):
        execute(state, Instruction("udiv", rd=r(3), rs1=r(1), rs2=r(2)))


def test_load_store_word():
    state = _state(r1=0x100, r2=0xDEADBEEF)
    execute(state, Instruction("st", rd=r(2), rs1=r(1), imm=4))
    execute(state, Instruction("ld", rd=r(3), rs1=r(1), imm=4))
    assert state.get_reg(3) == 0xDEADBEEF
    assert state.memory.read_word(0x104) == 0xDEADBEEF


def test_byte_and_half_access():
    state = _state(r1=0x200, r2=0x1234ABCD)
    execute(state, Instruction("stb", rd=r(2), rs1=r(1), imm=0))
    execute(state, Instruction("ldub", rd=r(3), rs1=r(1), imm=0))
    assert state.get_reg(3) == 0xCD
    execute(state, Instruction("ldsb", rd=r(4), rs1=r(1), imm=0))
    assert state.get_reg(4) == (0xCD - 0x100) & MASK32
    execute(state, Instruction("sth", rd=r(2), rs1=r(1), imm=2))
    execute(state, Instruction("lduh", rd=r(5), rs1=r(1), imm=2))
    assert state.get_reg(5) == 0xABCD


def test_double_word_memory():
    state = _state(r1=0x300, r2=0x11111111, r3=0x22222222)
    execute(state, Instruction("std", rd=r(2), rs1=r(1), imm=0))
    execute(state, Instruction("ldd", rd=r(4), rs1=r(1), imm=0))
    assert state.get_reg(4) == 0x11111111
    assert state.get_reg(5) == 0x22222222


def test_fp_single_add():
    state = MachineState()
    state.set_single(1, 1.5)
    state.set_single(2, 2.25)
    execute(state, Instruction("fadds", rd=f(0), rs1=f(1), rs2=f(2)))
    assert state.get_single(0) == 3.75


def test_fp_double_mul():
    state = MachineState()
    state.set_double(2, 3.0)
    state.set_double(4, 0.5)
    execute(state, Instruction("fmuld", rd=f(0), rs1=f(2), rs2=f(4)))
    assert state.get_double(0) == 1.5


def test_fp_single_rounding():
    # 1/3 is not representable in binary32; the result must round-trip
    # through single precision, not stay a Python double.
    state = MachineState()
    state.set_single(1, 1.0)
    state.set_single(2, 3.0)
    execute(state, Instruction("fdivs", rd=f(0), rs1=f(1), rs2=f(2)))
    import struct

    expected = struct.unpack(">f", struct.pack(">f", 1.0 / 3.0))[0]
    assert state.get_single(0) == expected
    assert state.get_single(0) != 1.0 / 3.0


def test_fnegs_fabss_are_bit_operations():
    state = MachineState()
    state.set_single(1, -2.5)
    execute(state, Instruction("fabss", rd=f(2), rs2=f(1)))
    assert state.get_single(2) == 2.5
    execute(state, Instruction("fnegs", rd=f(3), rs2=f(2)))
    assert state.get_single(3) == -2.5


def test_fcmp_all_outcomes():
    state = MachineState()
    for a, b, expected in [
        (1.0, 1.0, FCC_EQUAL),
        (1.0, 2.0, FCC_LESS),
        (2.0, 1.0, FCC_GREATER),
        (float("nan"), 1.0, FCC_UNORDERED),
    ]:
        state.set_double(0, a)
        state.set_double(2, b)
        execute(state, Instruction("fcmpd", rs1=f(0), rs2=f(2)))
        assert state.fcc == expected


def test_conversions():
    state = MachineState()
    state.set_freg(1, (-7) & MASK32)
    execute(state, Instruction("fitod", rd=f(2), rs2=f(1)))
    assert state.get_double(2) == -7.0
    execute(state, Instruction("fdtoi", rd=f(4), rs2=f(2)))
    assert state.get_freg(4) == (-7) & MASK32
    execute(state, Instruction("fdtos", rd=f(5), rs2=f(2)))
    assert state.get_single(5) == -7.0
    execute(state, Instruction("fstod", rd=f(6), rs2=f(5)))
    assert state.get_double(6) == -7.0


def test_control_instruction_rejected():
    with pytest.raises(SemanticsError):
        execute(MachineState(), Instruction("ba", imm=1))


@given(a=U32, b=U32)
@settings(max_examples=200, deadline=None)
def test_sub_add_inverse(a, b):
    """(a - b) + b == a in 32-bit arithmetic."""
    state = _state(r1=a, r2=b)
    run_straightline(
        state,
        [
            Instruction("sub", rd=r(3), rs1=r(1), rs2=r(2)),
            Instruction("add", rd=r(4), rs1=r(3), rs2=r(2)),
        ],
    )
    assert state.get_reg(4) == a


@given(a=U32, b=U32)
@settings(max_examples=200, deadline=None)
def test_subcc_flag_consistency(a, b):
    """N reflects the sign, Z reflects zero, C is the unsigned borrow."""
    state = _state(r1=a, r2=b)
    execute(state, Instruction("subcc", rd=r(3), rs1=r(1), rs2=r(2)))
    result = (a - b) & MASK32
    assert state.icc_z == (result == 0)
    assert state.icc_n == bool(result >> 31)
    assert state.icc_c == (b > a)


@given(value=U32, addr=st.integers(0, 1 << 16).map(lambda a: a * 4))
@settings(max_examples=200, deadline=None)
def test_store_load_roundtrip(value, addr):
    state = _state(r1=addr, r2=value)
    run_straightline(
        state,
        [
            Instruction("st", rd=r(2), rs1=r(1), imm=0),
            Instruction("ld", rd=r(3), rs1=r(1), imm=0),
        ],
    )
    assert state.get_reg(3) == value


def test_architectural_equal():
    a = _state(r1=1)
    b = _state(r1=1)
    assert a.architectural_equal(b)
    b.set_reg(2, 5)
    assert not a.architectural_equal(b)
    c = _state(r1=1)
    c.memory.write_word(0x10, 99)
    assert not a.architectural_equal(c)
