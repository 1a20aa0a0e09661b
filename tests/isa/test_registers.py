"""Unit tests for the SPARC register model."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.isa import Instruction, all_mnemonics, lookup
from repro.isa.opcodes import Format, Slot
from repro.isa.registers import (
    FCC,
    G0,
    ICC,
    O7,
    SP,
    Y,
    Reg,
    RegKind,
    f,
    parse_reg,
    r,
)


def test_g0_is_zero_register():
    assert G0.is_zero
    assert not r(1).is_zero
    assert not f(0).is_zero


def test_bank_names():
    assert r(0).name == "%g0"
    assert r(7).name == "%g7"
    assert r(8).name == "%o0"
    assert r(15).name == "%o7"
    assert r(16).name == "%l0"
    assert r(24).name == "%i0"
    assert r(31).name == "%i7"
    assert f(12).name == "%f12"


def test_special_registers():
    assert ICC.kind is RegKind.ICC
    assert FCC.kind is RegKind.FCC
    assert O7 == r(15)
    assert SP == r(14)


def test_index_bounds():
    with pytest.raises(ValueError):
        r(32)
    with pytest.raises(ValueError):
        f(-1)
    with pytest.raises(ValueError):
        Reg(RegKind.ICC, 1)


@pytest.mark.parametrize("build", (lambda: r(32), lambda: r(-1), lambda: f(32)))
def test_out_of_range_never_wraps_into_the_shared_table(build):
    with pytest.raises(ValueError, match="out of range"):
        build()


def test_registers_are_shared_instances():
    for index in range(32):
        assert r(index) is r(index)
        assert f(index) is f(index)
    assert parse_reg("%o7") is r(15) is O7
    assert parse_reg("%f3") is f(3)


def test_decoded_operands_are_the_shared_instances():
    from repro.workloads.spec95 import all_benchmarks, generate_benchmark

    operands = 0
    for name in all_benchmarks():
        text = generate_benchmark(name, trip_count=4).executable.decode_text()
        for _address, inst in text:
            for reg in (inst.rd, inst.rs1, inst.rs2):
                if reg is not None:
                    shared = f(reg.index) if reg.kind is RegKind.FP else r(reg.index)
                    assert reg is shared
                    operands += 1
    assert operands > 1000


def test_hand_built_and_unpickled_registers_equal_the_shared_instance():
    hand = Reg(RegKind.INT, 5)
    assert hand is not r(5)
    assert hand == r(5) and hash(hand) == hash(r(5)) and hand in {r(5)}
    assert pickle.loads(pickle.dumps(hand)) is r(5)
    assert pickle.loads(pickle.dumps(ICC)) is ICC


def test_registers_pickled_under_another_hash_seed_hash_equal():
    # Enum members hash by name and string hashing is seeded per
    # interpreter, so a worker's registers must not carry its hashes.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    payload = subprocess.run(
        [
            sys.executable,
            "-c",
            "import pickle, sys\n"
            "from repro.isa.registers import ICC, f, r\n"
            "sys.stdout.buffer.write(pickle.dumps([r(5), f(3), ICC]))",
        ],
        env={**os.environ, "PYTHONHASHSEED": seed},
        capture_output=True,
        check=True,
        timeout=60,
    ).stdout
    loaded = pickle.loads(payload)
    assert loaded == [r(5), f(3), ICC]
    assert [hash(reg) for reg in loaded] == [hash(r(5)), hash(f(3)), hash(ICC)]
    assert set(loaded) == {r(5), f(3), ICC}


@pytest.mark.parametrize(
    "text,expected",
    [
        ("%g0", r(0)),
        ("%o3", r(11)),
        ("%l5", r(21)),
        ("%i7", r(31)),
        ("%r17", r(17)),
        ("%f31", f(31)),
        ("%sp", r(14)),
        ("%fp", r(30)),
        ("%SP", r(14)),
    ],
)
def test_parse_reg(text, expected):
    assert parse_reg(text) == expected


@pytest.mark.parametrize("text", ["o3", "%x3", "%o8", "%g", "%f32", "42"])
def test_parse_reg_rejects(text):
    with pytest.raises(ValueError):
        parse_reg(text)


def test_parse_roundtrips_names():
    for index in range(32):
        assert parse_reg(r(index).name) == r(index)
        assert parse_reg(f(index).name) == f(index)


def test_regs_are_hashable_and_ordered():
    assert len({r(1), r(1), r(2)}) == 2
    assert sorted([f(2), f(1)]) == [f(1), f(2)]


def test_registers_order_by_code_across_kinds():
    mixed = [ICC, f(3), r(2), Y, FCC, r(1), f(0)]
    assert sorted(mixed) == sorted(mixed, key=lambda reg: reg.code)
    assert sorted(mixed) == [r(1), r(2), f(0), f(3), ICC, FCC, Y]
    assert r(31) < f(0) <= f(0) < ICC
    assert Y > ICC >= ICC
    # One kind sorts by index, as it always has.
    assert sorted([r(17), r(3), r(9)]) == [r(3), r(9), r(17)]
    assert Reg(RegKind.FP, 3) < f(4)


def _every_slot_filled(mnemonic: str) -> Instruction:
    """One instruction of ``mnemonic`` with a register in every slot."""
    info = lookup(mnemonic)
    if info.fmt in (Format.CALL, Format.BRANCH):
        return Instruction(mnemonic, imm=4)
    if mnemonic == "nop":
        return Instruction(mnemonic, imm=0)
    if info.fmt is Format.SETHI:
        return Instruction(mnemonic, rd=r(1), imm=0x100)
    registers = {}
    for slot, name in zip((Slot.RD, Slot.RS1, Slot.RS2), ("rd", "rs1", "rs2")):
        kind = info.operand_kinds.get(slot)
        if kind == "f":
            registers[name] = f({Slot.RD: 0, Slot.RS1: 4, Slot.RS2: 8}[slot])
        elif kind == "r":
            registers[name] = r({Slot.RD: 3, Slot.RS1: 1, Slot.RS2: 2}[slot])
    return Instruction(mnemonic, **registers)


@pytest.mark.parametrize("mnemonic", all_mnemonics())
def test_effect_sets_of_every_mnemonic_sort(mnemonic):
    """FP loads and stores read an integer base and an FP register, and
    ``addx`` reads ``%icc``: sets that mix kinds must sort."""
    inst = _every_slot_filled(mnemonic)
    for regs in (inst.regs_read(), inst.regs_written()):
        ordered = sorted(regs)
        assert [reg.code for reg in ordered] == sorted(reg.code for reg in regs)
