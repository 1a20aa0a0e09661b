"""Edge parity of the bound semantics and the bound-segment simulator.

Binding an instruction never raises; what can fault raises when its
step runs, with the type and message the instruction's fault names.
The simulator, running straight-line segments whole, must stop where
the one-at-a-time reference loop stops — at the instruction budget, a
missing instruction or a fault inside a segment — with the same
exception, message, ``pc``/``npc``, state and instruction count.
"""

import pickle

import pytest

from repro.isa import Instruction, MachineState, SemanticsError, f, r
from repro.isa.machine_state import MemoryFault
from repro.isa.opcodes import all_mnemonics
from repro.isa.semantics import _BINDERS, execute, step_of
from repro.isa.simulator import BadPC, SimulationLimit, Simulator
from tests.isa.test_simulator_differential import CODE, _differences, _outcome, code_at
from tests.reference_simulator import ReferenceSimulator

RETL = (Instruction("jmpl", rd=r(0), rs1=r(15), imm=8), Instruction("nop"))


def _state(**regs):
    state = MachineState()
    for name, value in regs.items():
        state.set_reg(int(name[1:]), value)
    return state


def _fault_count(code, state, fault):
    """How many instructions the bound simulator had counted when
    ``fault`` was raised: the smallest budget under which the run
    raises ``fault`` rather than :class:`SimulationLimit`."""
    for budget in range(1, 200):
        try:
            Simulator(code).run(CODE, state=state.copy(), max_instructions=budget)
        except SimulationLimit:
            continue
        except fault:
            return budget
    raise AssertionError("the run never faulted")


def _assert_same_fault(instructions, state, fault, message):
    """The reference and the bound simulator fault alike, the fault
    sits inside a segment, and both counted the same instructions."""
    code = code_at(instructions)
    assert not _differences(code, CODE, state, 200)
    ended, snapshot, _, seen = _outcome(
        ReferenceSimulator(code), CODE, state.copy(), 200, watch=True
    )
    assert ended == (fault.__name__, message)
    pc = snapshot[-2]
    assert CODE < pc < CODE + 4 * (len(instructions) - 1)  # mid-segment
    assert _fault_count(code, state, fault) == len(seen)


# -- the table ----------------------------------------------------------------------


def test_every_mnemonic_has_a_binder():
    assert set(_BINDERS) == set(all_mnemonics())


@pytest.mark.parametrize(
    "inst",
    [
        Instruction("ld", rd=r(1), rs1=r(2), imm=2),
        Instruction("lddf", rd=f(31), rs1=r(2), imm=0),
        Instruction("faddd", rd=f(1), rs1=f(3), rs2=f(5)),
        Instruction("fsqrtd", rd=f(2), rs2=f(7)),
        Instruction("udiv", rd=r(1), rs1=r(2), rs2=r(0)),
        Instruction("sdiv", rd=r(1), rs1=r(2), imm=0),
        Instruction("ba", imm=4),
        Instruction("ldf", rs1=r(2), imm=0),  # no destination
    ],
    ids=str,
)
def test_an_unexecuted_faulting_instruction_binds_without_raising(inst):
    step = step_of(inst)
    assert step_of(inst) is step  # memoized on the instruction
    with pytest.raises(Exception):
        step(MachineState())


def test_an_instruction_that_has_run_pickles_and_unpickles():
    inst = Instruction("add", rd=r(3), rs1=r(1), imm=5)
    state = _state(r1=2)
    execute(state, inst)
    assert "_step" in inst.__dict__
    clone = pickle.loads(pickle.dumps(inst))
    assert clone == inst and "_step" not in clone.__dict__
    execute(state, clone)
    assert state.get_reg(3) == 7


@pytest.mark.parametrize("mnemonic", ["subcc", "andcc", "addcc", "orcc", "xorcc", "smulcc"])
def test_cc_ops_into_g0_still_set_icc(mnemonic):
    """``cmp`` is ``subcc %g0``: the flags are those of the same
    operation into a real register, and only the write is dropped."""
    into_g0, into_g3 = _state(r1=0x80000005), _state(r1=0x80000005)
    execute(into_g0, Instruction(mnemonic, rd=r(0), rs1=r(1), imm=0))
    execute(into_g3, Instruction(mnemonic, rd=r(3), rs1=r(1), imm=0))
    flags = (into_g0.icc_n, into_g0.icc_z, into_g0.icc_v, into_g0.icc_c)
    assert flags == (into_g3.icc_n, into_g3.icc_z, into_g3.icc_v, into_g3.icc_c)
    assert any(flags)
    assert into_g0.regs == [0, 0x80000005] + [0] * 30
    assert into_g0.y == into_g3.y


def test_g0_destination_drops_only_the_write():
    state = _state(r1=0x200, r2=7)
    state.memory.write_word(0x200, 0xDEADBEEF)
    execute(state, Instruction("ldd", rd=r(0), rs1=r(1), imm=0))
    assert state.regs[0] == 0 and state.get_reg(1) == 0  # %g1 takes the odd word
    with pytest.raises(MemoryFault, match="misaligned 4-byte access at 0x202"):
        execute(state, Instruction("ld", rd=r(0), rs1=r(2), imm=0x1FB))


def test_odd_double_register_faults_when_run():
    state = MachineState()
    with pytest.raises(MemoryFault, match="odd double register %f3"):
        execute(state, Instruction("fmuld", rd=f(2), rs1=f(3), rs2=f(4)))
    with pytest.raises(MemoryFault, match="odd double register %f5"):
        execute(state, Instruction("faddd", rd=f(5), rs1=f(2), rs2=f(4)))
    assert state.fregs == [0] * 32


@pytest.mark.parametrize("mnemonic", ["udiv", "sdiv"])
def test_divide_by_zero_faults_when_run(mnemonic):
    with pytest.raises(SemanticsError, match=f"^{mnemonic} by zero$"):
        execute(_state(r1=9), Instruction(mnemonic, rd=r(3), rs1=r(1), rs2=r(2)))


# -- the simulator at its edges ---------------------------------------------------------

_SEGMENT = [Instruction("add", rd=r(1), rs1=r(1), imm=i + 1) for i in range(6)]


def test_simulation_limit_at_exactly_max_instructions_inside_a_segment():
    code = code_at(_SEGMENT + list(RETL))
    total = len(_SEGMENT) + len(RETL)
    for budget in range(1, total + 2):
        assert not _differences(code, CODE, MachineState(), budget), budget
    for budget in range(1, len(_SEGMENT)):  # the limit falls inside the segment
        state = MachineState()
        with pytest.raises(SimulationLimit, match=f"exceeded {budget} instructions"):
            Simulator(code).run(CODE, state=state, max_instructions=budget)
        assert (state.pc, state.npc) == (CODE + 4 * budget, CODE + 4 * budget + 4)
        assert state.get_reg(1) == budget * (budget + 1) // 2
    result = Simulator(code).run(CODE, max_instructions=total)
    assert result.instructions_executed == total


def test_bad_pc_after_a_segment():
    code = code_at(_SEGMENT)
    assert not _differences(code, CODE, MachineState(), 100)
    state = MachineState()
    with pytest.raises(BadPC, match=f"no instruction at {CODE + 4 * len(_SEGMENT):#x}"):
        Simulator(code).run(CODE, state=state)
    assert state.get_reg(1) == 21


def test_misaligned_load_inside_a_segment():
    body = _SEGMENT[:3] + [Instruction("ld", rd=r(2), rs1=r(1), imm=0)] + _SEGMENT[3:]
    _assert_same_fault(
        body + list(RETL), MachineState(), MemoryFault, "misaligned 4-byte access at 0x6"
    )


def test_odd_double_register_inside_a_segment():
    body = _SEGMENT[:2] + [Instruction("fsubd", rd=f(4), rs1=f(2), rs2=f(7))] + _SEGMENT[2:]
    _assert_same_fault(body + list(RETL), MachineState(), MemoryFault, "odd double register %f7")


@pytest.mark.parametrize("mnemonic", ["udiv", "sdiv"])
def test_divide_by_zero_inside_a_segment(mnemonic):
    body = _SEGMENT[:4] + [Instruction(mnemonic, rd=r(3), rs1=r(1), rs2=r(9))] + _SEGMENT[4:]
    _assert_same_fault(body + list(RETL), MachineState(), SemanticsError, f"{mnemonic} by zero")
