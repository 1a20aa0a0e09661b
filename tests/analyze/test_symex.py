"""Units for the symbolic executor: terms, memory, semantics fidelity."""

import random

import pytest

from repro.analyze.symex import (
    SymbolicMemory,
    SymbolicState,
    SymbolicTrap,
    SymexUnsupported,
    app,
    const,
    render_term,
    sym_execute,
    sym_run,
    var,
)
from repro.core.verify import _random_state
from repro.isa.instruction import TAG_INSTRUMENTATION, Instruction
from repro.isa.machine_state import MASK32
from repro.isa.registers import f, r
from repro.isa.semantics import run_straightline

# -- the term language ------------------------------------------------------------


def test_terms_are_hash_consed():
    a = app("add", var("x"), var("y"))
    b = app("add", var("x"), var("y"))
    assert a is b
    assert const(7) is const(7)
    assert var("x") is not var("y")


def test_constant_folding_wraps_like_the_concrete_semantics():
    assert app("add", const(0xFFFF_FFFF), const(1)).value == 0
    assert app("sub", const(0), const(1)).value == MASK32
    assert app("sra", const(0x8000_0000), const(31)).value == MASK32
    assert app("sll", const(1), const(33)).value == 2  # shift counts mask to 5 bits
    # V8 carry-as-borrow on subtract.
    assert app("subc", const(1), const(2)).value == 1
    assert app("subc", const(2), const(1)).value == 0


def test_udiv_fold_saturates():
    # (%y:dividend) = 1<<32, divisor 1: quotient exceeds 32 bits.
    assert app("udiv", const(1), const(0), const(1)).value == MASK32


def test_address_canonicalization():
    x = var("x")
    assert app("sub", x, const(4)) is app("add", x, const(-4))
    assert app("add", app("add", x, const(8)), const(4)) is app("add", x, const(12))
    assert app("add", const(4), x) is app("add", x, const(4))
    assert app("add", x, const(0)) is x
    assert app("or", x, const(0)) is x


def test_render_term_truncates():
    term = var("x")
    for _ in range(100):
        term = app("add", term, var("y"))
    text = render_term(term, limit=50)
    assert text.endswith("…")
    assert len(text) < 200


# -- executor fidelity against the concrete semantics -----------------------------

_ALU_SAMPLES = (
    Instruction("add", rd=r(9), rs1=r(8), rs2=r(10)),
    Instruction("sub", rd=r(11), rs1=r(9), imm=5),
    Instruction("xor", rd=r(12), rs1=r(11), rs2=r(8)),
    Instruction("subcc", rd=r(0), rs1=r(9), imm=3),
    Instruction("addx", rd=r(13), rs1=r(12), imm=0),
    Instruction("sll", rd=r(14), rs1=r(13), imm=3),
    Instruction("sra", rd=r(15), rs1=r(9), imm=7),
    Instruction("smul", rd=r(16), rs1=r(8), rs2=r(10)),
    Instruction("sethi", rd=r(17), imm=0x123),
    Instruction("andcc", rd=r(18), rs1=r(16), imm=0xFF),
)


@pytest.mark.parametrize("seed", range(5))
def test_symbolic_matches_concrete_on_constant_inputs(seed):
    """Seeding every register with the concrete state's values must fold
    the whole block to constants equal to the concrete run's results."""
    rng = random.Random(seed)
    concrete = _random_state(rng, orig_base=0x0002_0000, instr_base=0x0003_0000)
    body = [_ALU_SAMPLES[rng.randrange(len(_ALU_SAMPLES))] for _ in range(12)]

    state = SymbolicState()
    for index in range(1, 32):
        state.regs[index] = const(concrete.get_reg(index))
    state.icc_n = const(concrete.icc_n)
    state.icc_z = const(concrete.icc_z)
    state.icc_v = const(concrete.icc_v)
    state.icc_c = const(concrete.icc_c)
    state.y = const(concrete.y)
    sym_run(state, body)
    run_straightline(concrete, body)

    for index in range(1, 32):
        term = state.regs[index]
        assert term.is_const, f"%r{index} did not fold: {term}"
        assert term.value == concrete.get_reg(index), f"%r{index}"
    for slot in ("icc_n", "icc_z", "icc_v", "icc_c", "y"):
        term = getattr(state, slot)
        assert term.is_const and term.value == getattr(concrete, slot), slot


def test_control_transfer_is_unsupported():
    with pytest.raises(SymexUnsupported):
        sym_execute(SymbolicState(), Instruction("call", imm=8))


@pytest.mark.parametrize("mnemonic", ["lddf", "stdf"])
@pytest.mark.parametrize("rd", [31, 5])
def test_odd_fp_doubleword_access_is_unsupported(mnemonic, rd):
    """The concrete step faults on an odd FP pair; symex refuses it with
    the same text, as FP double arithmetic does, before it reads or
    writes anything."""
    state = SymbolicState()
    fregs = list(state.fregs)
    with pytest.raises(SymexUnsupported, match=f"^odd double register %f{rd}$"):
        sym_execute(state, Instruction(mnemonic, rd=f(rd), rs1=r(1), imm=0))
    assert state.fregs == fregs and not state.memory.writes


# -- traps ------------------------------------------------------------------------


def test_constant_zero_divisor_traps():
    body = [
        Instruction("or", rd=r(9), rs1=r(0), imm=0),  # %o1 = 0
        Instruction("udiv", rd=r(10), rs1=r(8), rs2=r(9)),
    ]
    with pytest.raises(SymbolicTrap) as excinfo:
        sym_run(SymbolicState(), body)
    assert excinfo.value.kind == "div-zero"
    assert excinfo.value.index == 1


def test_constant_misaligned_address_traps():
    state = SymbolicState()
    state.regs[8] = const(0x2_0002)
    with pytest.raises(SymbolicTrap) as excinfo:
        sym_execute(state, Instruction("ld", rd=r(9), rs1=r(8), imm=0))
    assert excinfo.value.kind == "misaligned"


# -- symbolic memory --------------------------------------------------------------


def test_load_forwards_from_exact_store():
    mem = SymbolicMemory()
    addr = app("add", var("r8"), const(0))
    mem.store("orig", addr, 4, var("v"))
    assert mem.load("orig", addr, 4) is var("v")


def test_load_skips_provably_disjoint_same_base_write():
    mem = SymbolicMemory()
    base = var("r8")
    mem.store("orig", app("add", base, const(0)), 4, var("v"))
    value = mem.load("orig", app("add", base, const(8)), 4)
    assert value.op == "read"
    assert value.args[0] is mem.base  # straight from the initial memory


def test_cross_side_axiom_only_under_permissive_policy():
    # Permissive: instrumentation writes are invisible to original loads.
    permissive = SymbolicMemory(restrict=False)
    permissive.store("instr", var("counter"), 4, var("v"))
    value = permissive.load("orig", var("p"), 4)
    assert value.args[0] is permissive.base

    # Restrictive: the same load must go through an opaque snapshot.
    restrictive = SymbolicMemory(restrict=True)
    restrictive.store("instr", var("counter"), 4, var("v"))
    value = restrictive.load("orig", var("p"), 4)
    assert value.op == "read"
    assert value.args[0].op == "store"  # the snapshot, not the initial memory


def test_snapshot_canonicalizes_independent_store_order():
    a = SymbolicMemory()
    a.store("orig", const(0x2_0000), 4, var("x"))
    a.store("orig", const(0x2_0008), 4, var("y"))
    b = SymbolicMemory()
    b.store("orig", const(0x2_0008), 4, var("y"))
    b.store("orig", const(0x2_0000), 4, var("x"))
    assert a.snapshot() is b.snapshot()


def test_snapshot_preserves_order_of_possible_aliases():
    a = SymbolicMemory()
    a.store("orig", var("p"), 4, var("x"))
    a.store("orig", var("q"), 4, var("y"))
    b = SymbolicMemory()
    b.store("orig", var("q"), 4, var("y"))
    b.store("orig", var("p"), 4, var("x"))
    assert a.snapshot() is not b.snapshot()


def test_dead_store_detection():
    mem = SymbolicMemory()
    addr = var("p")
    mem.store("orig", addr, 4, var("x"), index=0)
    mem.store("orig", addr, 4, var("y"), index=2)
    assert mem.dead_stores() == [(0, 2)]

    observed = SymbolicMemory()
    observed.store("orig", addr, 4, var("x"), index=0)
    observed.load("orig", addr, 4, index=1)
    observed.store("orig", addr, 4, var("y"), index=2)
    assert observed.dead_stores() == []


# -- condition-code provenance ----------------------------------------------------


def test_dead_cc_def_tracked():
    body = [
        Instruction("subcc", rd=r(0), rs1=r(8), imm=1),
        Instruction("addcc", rd=r(9), rs1=r(8), imm=2),
    ]
    state = sym_run(SymbolicState(), body)
    assert state.dead_cc == [(0, 1, "icc")]


def test_cc_reader_suppresses_dead_def():
    body = [
        Instruction("subcc", rd=r(0), rs1=r(8), imm=1),
        Instruction("addx", rd=r(10), rs1=r(9), imm=0),  # reads icc_c
        Instruction("addcc", rd=r(9), rs1=r(8), imm=2),
    ]
    state = sym_run(SymbolicState(), body)
    assert state.dead_cc == []


# -- side tagging -----------------------------------------------------------------


def test_instrumentation_tag_selects_the_write_side():
    state = SymbolicState()
    store = Instruction("st", rd=r(9), rs1=r(8), imm=0).retag(TAG_INSTRUMENTATION)
    sym_execute(state, store)
    assert state.memory.writes[0].side == "instr"
