"""Unit tests for the instruction IR and its effect metadata."""

import pytest

from repro.isa import (
    ICC,
    Instruction,
    TAG_INSTRUMENTATION,
    Y,
    f,
    nop,
    r,
)
from repro.isa.registers import FCC, O7, PC


def test_add_effects():
    inst = Instruction("add", rd=r(3), rs1=r(1), rs2=r(2))
    assert inst.regs_read() == {r(1), r(2)}
    assert inst.regs_written() == {r(3)}
    assert inst.memory is None
    assert not inst.is_control


def test_g0_never_a_dependence():
    inst = Instruction("add", rd=r(0), rs1=r(0), rs2=r(2))
    assert inst.regs_read() == {r(2)}
    assert inst.regs_written() == set()


def test_immediate_form():
    inst = Instruction("add", rd=r(3), rs1=r(1), imm=42)
    assert inst.regs_read() == {r(1)}
    assert inst.uses_immediate


def test_rs2_and_imm_conflict():
    with pytest.raises(ValueError):
        Instruction("add", rd=r(3), rs1=r(1), rs2=r(2), imm=1)


def test_missing_rs2_becomes_zero_immediate():
    """``rs2`` or ``imm`` is one slot, and so is a transfer's ``imm`` or
    ``target``: the zero-immediate rule fills an absent one before the
    missing-operand check, and a symbolic target needs no immediate."""
    cases = [
        (Instruction("add", rd=r(3), rs1=r(1)), 0),
        (Instruction("wry", rs1=r(1)), 0),
        (Instruction("sethi", rd=r(1)), 0),
        (Instruction("ba"), 0),
        (Instruction("call"), 0),
        (Instruction("ba", target="L"), None),
    ]
    for inst, imm in cases:
        assert inst.imm == imm, inst


@pytest.mark.parametrize(
    "mnemonic, operands, slot",
    [
        ("ldf", dict(rs1=r(2), imm=0), "rd"),
        ("add", dict(rd=r(1)), "rs1"),
        ("st", dict(rs1=r(2), imm=4), "rd"),
        ("jmpl", dict(rd=r(0), imm=8), "rs1"),
        ("sethi", dict(imm=5), "rd"),
        ("fadds", dict(rd=f(0), rs1=f(1)), "rs2"),
        ("fcmpd", dict(rs2=f(2)), "rs1"),
    ],
)
def test_a_missing_required_operand_is_rejected(mnemonic, operands, slot):
    with pytest.raises(ValueError, match=f"^{mnemonic}: missing operand {slot}$"):
        Instruction(mnemonic, **operands)


def test_condition_code_effects():
    assert ICC in Instruction("subcc", rd=r(0), rs1=r(1), rs2=r(2)).regs_written()
    assert ICC in Instruction("be", imm=4).regs_read()
    assert ICC not in Instruction("ba", imm=4).regs_read()
    assert ICC in Instruction("addx", rd=r(1), rs1=r(1), imm=0).regs_read()


def test_fp_double_spans_register_pair():
    inst = Instruction("faddd", rd=f(0), rs1=f(2), rs2=f(4))
    assert inst.regs_read() == {f(2), f(3), f(4), f(5)}
    assert inst.regs_written() == {f(0), f(1)}


def test_fp_single_is_one_register():
    inst = Instruction("fadds", rd=f(0), rs1=f(1), rs2=f(2))
    assert inst.regs_read() == {f(1), f(2)}
    assert inst.regs_written() == {f(0)}


def test_fcmp_writes_fcc():
    inst = Instruction("fcmpd", rs1=f(0), rs2=f(2))
    assert FCC in inst.regs_written()
    assert inst.regs_read() == {f(0), f(1), f(2), f(3)}


def test_store_reads_data_register():
    inst = Instruction("st", rd=r(5), rs1=r(6), imm=8)
    assert inst.regs_read() == {r(5), r(6)}
    assert inst.regs_written() == set()
    assert inst.memory == "store"


def test_load_effects():
    inst = Instruction("ld", rd=r(5), rs1=r(6), rs2=r(7))
    assert inst.regs_read() == {r(6), r(7)}
    assert inst.regs_written() == {r(5)}
    assert inst.memory == "load"


def test_call_effects():
    inst = Instruction("call", imm=100)
    assert inst.is_control
    assert O7 in inst.regs_written()
    assert PC in inst.regs_read()


def test_mul_touches_y():
    inst = Instruction("smul", rd=r(1), rs1=r(2), rs2=r(3))
    assert Y in inst.regs_written()
    div = Instruction("sdiv", rd=r(1), rs1=r(2), rs2=r(3))
    assert Y in div.regs_read()


def test_operand_kind_checking():
    with pytest.raises(ValueError):
        Instruction("add", rd=f(0), rs1=r(1), rs2=r(2))
    with pytest.raises(ValueError):
        Instruction("fadds", rd=r(0), rs1=f(1), rs2=f(2))
    with pytest.raises(ValueError):
        Instruction("sethi", rd=r(1), rs1=r(2), imm=1)


def test_unknown_mnemonic_rejected():
    with pytest.raises(KeyError):
        Instruction("frobnicate")


def test_provenance_helpers():
    inst = Instruction("add", rd=r(1), rs1=r(1), imm=1)
    tagged = inst.retag(TAG_INSTRUMENTATION)
    assert tagged.is_instrumentation
    assert not inst.is_instrumentation
    assert tagged.with_seq(7).seq == 7


def test_formatting():
    assert str(nop()) == "nop"
    assert str(Instruction("add", rd=r(3), rs1=r(1), rs2=r(2))) == "add %g1, %g2, %g3"
    assert str(Instruction("add", rd=r(3), rs1=r(1), imm=-4)) == "add %g1, -4, %g3"
    assert str(Instruction("ld", rd=r(5), rs1=r(14), imm=64)) == "ld [%o6 + 64], %g5"
    assert str(Instruction("st", rd=r(5), rs1=r(14), imm=-8)) == "st %g5, [%o6 - 8]"
    assert str(Instruction("ba", target="loop")) == "ba loop"
    assert str(Instruction("bne", imm=-3, annul=True)) == "bne,a -3"
    # sethi prints the full constant (imm22 << 10) so %hi() round-trips.
    assert str(Instruction("sethi", rd=r(1), imm=0x123)) == "sethi %hi(0x48c00), %g1"
    assert str(Instruction("fcmpd", rs1=f(0), rs2=f(2))) == "fcmpd %f0, %f2"


def test_instruction_pickles_after_model_timing():
    """``MachineModel.timing`` memoizes on the instruction itself; the
    memo holds the model, which does not pickle, so a timed instruction
    must still ship to worker processes without it."""
    import pickle

    from repro.spawn import load_machine

    model = load_machine("ultrasparc")
    inst = Instruction("ld", rd=r(1), rs1=r(2), imm=8, tag="instr", seq=3)
    timing = model.timing(inst)
    assert "_timing_memo" in inst.__dict__
    copy = pickle.loads(pickle.dumps(inst))
    assert copy == inst and copy.seq == 3 and copy.tag == "instr"
    assert "_timing_memo" not in copy.__dict__
    assert model.timing(copy) is timing


def test_derived_copies_match_replace_on_every_spec95_instruction():
    """``with_seq``, ``retag`` and ``with_target`` skip operand
    re-validation; each must still build exactly the copy
    ``dataclasses.replace`` builds — equal, with the same instance state
    (no memo carried over), the same pickle, the same rendered text and
    the same effects — on every instruction of every SPEC95 stand-in."""
    import pickle
    from dataclasses import replace

    from repro.workloads.spec95 import all_benchmarks, generate_benchmark

    checked = 0
    for name in all_benchmarks():
        text = generate_benchmark(name, trip_count=4).executable.decode_text()
        for _address, inst in text:
            # Fill per-instance memos, which a copy must not inherit.
            inst.regs_read()
            inst.write_mask()
            str(inst)
            pairs = [
                (inst.with_seq(inst.seq + 7), replace(inst, seq=inst.seq + 7)),
                (
                    inst.retag(TAG_INSTRUMENTATION),
                    replace(inst, tag=TAG_INSTRUMENTATION),
                ),
                # A symbolic target, and none at all (the zero-immediate
                # rule fills ``imm`` where the format needs one).
                (inst.with_target("there"), replace(inst, target="there", imm=None)),
                (inst.with_target(None), replace(inst, target=None, imm=None)),
            ]
            if inst.rs2 is None:
                pairs.append(
                    (inst.with_target(None, 12), replace(inst, target=None, imm=12))
                )
            else:
                with pytest.raises(ValueError, match="both rs2 and imm given"):
                    replace(inst, target=None, imm=12)
                with pytest.raises(ValueError, match="both rs2 and imm given"):
                    inst.with_target(None, 12)
            for derived, replaced in pairs:
                assert derived == replaced
                assert derived.__dict__ == replaced.__dict__
                assert list(derived.__dict__) == list(replaced.__dict__)
                assert pickle.dumps(derived) == pickle.dumps(replaced)
                assert str(derived) == str(replaced)
                assert derived.regs_read() == replaced.regs_read()
                assert derived.regs_written() == replaced.regs_written()
                assert derived.read_mask() == replaced.read_mask()
                assert derived.write_mask() == replaced.write_mask()
            checked += 1
    assert checked > 1000


def test_text_is_rendered_once_and_equals_a_fresh_rendering():
    from repro.isa.instruction import format_instruction

    inst = Instruction("ld", rd=r(10), rs1=r(9), imm=8)
    text = str(inst)
    assert text == format_instruction(inst) == "ld [%o1 + 8], %o2"
    assert str(inst) is text
    assert "_text" not in inst.with_seq(3).__dict__
