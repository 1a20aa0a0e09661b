"""Encode/decode unit tests plus the hypothesis round-trip property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (
    DecodeError,
    EncodeError,
    Instruction,
    decode,
    decode_bytes,
    encode,
    encode_words,
    f,
    nop,
    r,
)
from repro.isa.opcodes import Category, Format, Slot, all_mnemonics, lookup


# -- hand-checked encodings (cross-checked against the V8 manual) -----------


def test_nop_is_sethi_zero():
    assert encode(nop()) == 0x01000000


def test_add_register_form():
    # add %g1, %g2, %g3  ->  op=10 rd=3 op3=0 rs1=1 i=0 rs2=2
    word = encode(Instruction("add", rd=r(3), rs1=r(1), rs2=r(2)))
    assert word == 0x86004002 | (0 << 19)
    assert word == 0x86004002


def test_add_immediate_form():
    word = encode(Instruction("add", rd=r(3), rs1=r(1), imm=-1))
    expected = (0b10 << 30) | (3 << 25) | (0x00 << 19) | (1 << 14) | (1 << 13) | 0x1FFF
    assert word == expected


def test_sethi_encoding():
    word = encode(Instruction("sethi", rd=r(1), imm=0x3FFFF))
    assert word == (1 << 25) | (0b100 << 22) | 0x3FFFF


def test_call_encoding():
    assert encode(Instruction("call", imm=4)) == (0b01 << 30) | 4
    assert encode(Instruction("call", imm=-1)) == 0x7FFFFFFF


def test_branch_encoding():
    # ba with displacement 2: cond=8, op2=010
    word = encode(Instruction("ba", imm=2))
    assert word == (8 << 25) | (0b010 << 22) | 2
    word = encode(Instruction("bne", imm=-2, annul=True))
    assert word >> 29 & 1 == 1
    assert word & 0x3FFFFF == 0x3FFFFE


def test_load_store_encoding():
    word = encode(Instruction("ld", rd=r(1), rs1=r(2), imm=8))
    assert word >> 30 == 0b11
    assert (word >> 19) & 0x3F == 0x00
    word = encode(Instruction("st", rd=r(1), rs1=r(2), imm=8))
    assert (word >> 19) & 0x3F == 0x04


def test_fpop_encoding():
    word = encode(Instruction("faddd", rd=f(0), rs1=f(2), rs2=f(4)))
    assert word >> 30 == 0b10
    assert (word >> 19) & 0x3F == 0x34
    assert (word >> 5) & 0x1FF == 0x42
    word = encode(Instruction("fcmpd", rs1=f(0), rs2=f(2)))
    assert (word >> 19) & 0x3F == 0x35


def test_out_of_range_immediates_rejected():
    with pytest.raises(EncodeError):
        encode(Instruction("add", rd=r(1), rs1=r(1), imm=5000))
    with pytest.raises(EncodeError):
        encode(Instruction("sethi", rd=r(1), imm=1 << 22))
    with pytest.raises(EncodeError):
        encode(Instruction("ba", imm=1 << 21))


def test_unresolved_target_rejected():
    with pytest.raises(EncodeError):
        encode(Instruction("ba", target="somewhere"))


def test_decode_rejects_garbage():
    with pytest.raises(DecodeError):
        decode(0x00000000)  # unimp (format 2, op2=0)
    with pytest.raises(DecodeError):
        decode((0b10 << 30) | (0x3F << 19))  # unused op3
    with pytest.raises(DecodeError):
        decode_bytes(b"\x01\x00\x00")  # not word aligned


def test_decode_bytes_assigns_seq():
    data = encode_words([nop(), nop(), nop()])
    insts = decode_bytes(data, base_seq=10)
    assert [i.seq for i in insts] == [10, 11, 12]


def test_decode_bytes_numbers_like_decode_then_with_seq():
    """Building each instruction with its ``seq`` gives exactly the
    instruction a decode renumbered by ``with_seq`` gives, over every
    word of a generated image."""
    from repro.isa.decode import iter_words
    from repro.workloads import WorkloadSpec, generate

    spec = WorkloadSpec(
        name="seq", seed=5, kind="fp", avg_block_size=9.0, loops=4, call_prob=0.5
    )
    data = generate(spec).executable.text_section().data
    decoded = decode_bytes(data, base_seq=3)
    assert decoded == [
        decode(word).with_seq(3 + i) for i, word in enumerate(iter_words(data))
    ]
    assert {inst.mnemonic for inst in decoded} >= {"call", "lddf", "bne", "nop"}


# -- round-trip property -----------------------------------------------------


def _operand_strategy(mnemonic: str):
    info = lookup(mnemonic)
    kinds = info.operand_kinds

    def reg_for(slot):
        if slot not in kinds:
            return st.none()
        if kinds[slot] == "f":
            if info.fp_width == 2:
                return st.integers(0, 15).map(lambda i: f(2 * i))
            return st.integers(0, 31).map(f)
        return st.integers(0, 31).map(r)

    if info.fmt is Format.CALL:
        return st.builds(
            Instruction,
            mnemonic=st.just(mnemonic),
            imm=st.integers(-(1 << 29), (1 << 29) - 1),
        )
    if info.fmt is Format.BRANCH:
        return st.builds(
            Instruction,
            mnemonic=st.just(mnemonic),
            imm=st.integers(-(1 << 21), (1 << 21) - 1),
            annul=st.booleans(),
        )
    if mnemonic == "sethi":
        return st.builds(
            Instruction,
            mnemonic=st.just(mnemonic),
            rd=st.integers(1, 31).map(r),
            imm=st.integers(1, (1 << 22) - 1),
        )
    if mnemonic == "nop":
        return st.just(nop())
    if info.fmt is Format.FPOP:
        return st.builds(
            Instruction,
            mnemonic=st.just(mnemonic),
            rd=reg_for(Slot.RD),
            rs1=reg_for(Slot.RS1),
            rs2=reg_for(Slot.RS2),
        )
    # format 3: choose register or immediate second operand
    base = dict(
        mnemonic=st.just(mnemonic),
        rd=reg_for(Slot.RD),
        rs1=reg_for(Slot.RS1),
    )
    if Slot.RS2 in kinds:
        return st.one_of(
            st.builds(Instruction, rs2=st.integers(0, 31).map(r), **base),
            st.builds(Instruction, imm=st.integers(-4096, 4095), **base),
        )
    return st.builds(Instruction, **base)


_all_instructions = st.sampled_from(all_mnemonics()).flatmap(_operand_strategy)


@given(_all_instructions)
@settings(max_examples=500, deadline=None)
def test_roundtrip(inst):
    word = encode(inst)
    assert 0 <= word < (1 << 32)
    again = decode(word)
    assert again == inst.with_seq(again.seq)


@given(st.lists(_all_instructions, max_size=20))
@settings(max_examples=50, deadline=None)
def test_bytes_roundtrip(instructions):
    data = encode_words(instructions)
    assert len(data) == 4 * len(instructions)
    decoded = decode_bytes(data)
    assert [d.with_seq(-1) for d in decoded] == [
        i.with_seq(-1) for i in instructions
    ]
