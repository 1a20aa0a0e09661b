"""Differential battery: the bound-segment simulator vs the reference loop.

:meth:`repro.isa.simulator.Simulator.run` runs each straight-line
segment as a cached tuple of bound steps; ``tests/reference_simulator``
keeps the loop that looks up, counts and executes one instruction at a
time. Both read the same semantics table, so they must agree on
everything a run shows: the final machine state (registers, FP
registers, condition codes, Y, every memory byte), ``pc``/``npc``, the
instruction count, per-address execution counts, the recorded path,
the ``on_execute`` stream, and any fault or limit, by type and message.

Two sources of programs:

* **every SPEC95 stand-in** on every shipped machine — the compiled,
  rescheduled, instrumented, scheduled and superblock builds of the
  replay battery, with delay-slot filling off and on, under its
  instruction budget (builds that loop hit it, inside a segment or not);
* **a seeded fuzz of looping programs** — counted loops over random
  ALU, condition-code, Y, memory and FP instructions, with annulled
  and data-dependent forward branches, branches in delay slots, rare
  faulting instructions and random instruction budgets. A divergence
  is shrunk by the delta-debugging shrinker to the shortest loop body
  that still diverges.
"""

import random

import pytest

from repro.isa.instruction import Instruction
from repro.isa.machine_state import MachineState
from repro.isa.registers import f, r
from repro.isa import simulator
from repro.isa.simulator import LONE, Simulator
from repro.spawn.library import MACHINES
from repro.workloads.spec95 import CFP95, CINT95
from tests.pipeline.test_replay_differential import BUDGET_FACTOR, _builds, _model
from tests.pipeline.test_table_properties import _shrink
from tests.reference_simulator import ReferenceSimulator

BUILDS = ("compiled", "rescheduled", "instrumented", "scheduled", "superblock")


def _snapshot(state: MachineState) -> tuple:
    return (
        list(state.regs),
        list(state.fregs),
        (state.icc_n, state.icc_z, state.icc_v, state.icc_c),
        state.fcc,
        state.y,
        dict(state.memory._bytes),
        state.pc,
        state.npc,
    )


def _outcome(simulator, entry, state, budget, *, watch=False):
    """Everything one run shows: its fault (type and message) or its
    count and execution counts, the final state with ``pc``/``npc``,
    the recorded path and, with ``watch``, the ``on_execute`` stream."""
    path, seen = [], []
    on_execute = (lambda address, inst: seen.append((address, inst))) if watch else None
    try:
        result = simulator.run(
            entry,
            state=state,
            max_instructions=budget,
            count_executions=True,
            on_execute=on_execute,
            path=path,
        )
    except Exception as exc:  # the fault itself is what is compared
        ended = (type(exc).__name__, str(exc))
    else:
        ended = (result.instructions_executed, dict(result.execution_counts))
    return ended, _snapshot(state), path, seen


def _differences(code, entry, state, budget):
    """The parts of a run on which the bound simulator differs from the
    reference loop: a bare run (segments) and a watched run (every
    instruction alone), each against the watched reference."""
    want = _outcome(ReferenceSimulator(code), entry, state.copy(), budget, watch=True)
    bare = _outcome(Simulator(code), entry, state.copy(), budget)
    watched = _outcome(Simulator(code), entry, state.copy(), budget, watch=True)
    names = ("end", "state", "path", "on_execute")
    return [
        f"{mode} {name}"
        for mode, got in (("segments", bare), ("watched", watched))
        for name, have, expected in zip(names, got, want)
        if have != expected and not (mode == "segments" and name == "on_execute")
    ]


# -- every SPEC95 stand-in, every build --------------------------------------------


@pytest.mark.parametrize("fill", (False, True), ids=("no-fill", "fill"))
@pytest.mark.parametrize("machine", MACHINES)
def test_bound_simulator_matches_the_reference_on_every_build(machine, fill):
    model = _model(machine)
    failures = []
    for benchmark in CINT95 + CFP95:
        builds = _builds(model, benchmark, fill)
        compiled = builds["compiled"]
        budget = BUDGET_FACTOR * compiled.run().instructions_executed
        for label in BUILDS:
            build = builds[label]
            diff = _differences(build.code_map(), build.entry, build.load_state(), budget)
            if diff:
                failures.append(f"{benchmark} {label}: {', '.join(diff)}")
    assert not failures, "\n".join(failures)


# -- seeded fuzz of looping programs -------------------------------------------------

COUNTER, BASE = r(16), r(17)  # %l0, %l1
DATA = 0x2000
CODE = 0x1000
#: Instruction budget of a fuzz run without a drawn one. A loop ends
#: within a few hundred instructions unless an annulled slot skipped
#: its counter's ``subcc``; such a run ends at the budget instead.
FUEL = 4_000

#: Loop-body instructions: ALU with and without icc (some to %g0), Y
#: traffic, word, doubleword and sub-word memory off %l1, and FP.
_BODY = (
    Instruction("add", rd=r(8), rs1=r(8), imm=3),
    Instruction("sub", rd=r(9), rs1=r(8), rs2=r(10)),
    Instruction("xor", rd=r(10), rs1=r(9), imm=0x5A5),
    Instruction("or", rd=r(11), rs1=r(0), rs2=r(9)),
    Instruction("sll", rd=r(12), rs1=r(11), imm=7),
    Instruction("sra", rd=r(13), rs1=r(12), rs2=r(8)),
    Instruction("andn", rd=r(1), rs1=r(13), rs2=r(10)),
    Instruction("subcc", rd=r(0), rs1=r(8), rs2=r(9)),
    Instruction("addcc", rd=r(2), rs1=r(9), rs2=r(12)),
    Instruction("andcc", rd=r(0), rs1=r(11), imm=0xFF),
    Instruction("addx", rd=r(3), rs1=r(2), imm=0),
    Instruction("subx", rd=r(4), rs1=r(3), rs2=r(8)),
    Instruction("smul", rd=r(9), rs1=r(12), rs2=r(13)),
    Instruction("umul", rd=r(10), rs1=r(8), rs2=r(11)),
    Instruction("wry", rs1=r(8), rs2=r(13)),
    Instruction("rdy", rd=r(12)),
    Instruction("sethi", rd=r(1), imm=0x3FFFF),
    Instruction("nop"),
    Instruction("ld", rd=r(8), rs1=BASE, imm=8),
    Instruction("st", rd=r(10), rs1=BASE, imm=12),
    Instruction("ldd", rd=r(2), rs1=BASE, imm=16),
    Instruction("std", rd=r(12), rs1=BASE, imm=24),
    Instruction("ldub", rd=r(11), rs1=BASE, imm=13),
    Instruction("ldsh", rd=r(13), rs1=BASE, imm=10),
    Instruction("stb", rd=r(9), rs1=BASE, imm=5),
    Instruction("sth", rd=r(8), rs1=BASE, imm=30),
    Instruction("ld", rd=r(0), rs1=BASE, imm=4),
    Instruction("ldf", rd=f(1), rs1=BASE, imm=20),
    Instruction("lddf", rd=f(2), rs1=BASE, imm=32),
    Instruction("stdf", rd=f(4), rs1=BASE, imm=40),
    Instruction("stf", rd=f(3), rs1=BASE, imm=48),
    Instruction("faddd", rd=f(4), rs1=f(2), rs2=f(4)),
    Instruction("fmuld", rd=f(6), rs1=f(4), rs2=f(2)),
    Instruction("fsubd", rd=f(2), rs1=f(6), rs2=f(4)),
    Instruction("fcmpd", rs1=f(4), rs2=f(6)),
    Instruction("fitod", rd=f(6), rs2=f(1)),
    Instruction("fnegs", rd=f(1), rs2=f(3)),
)

#: Rare body instructions that fault: a misaligned load, a division
#: whose divisor may be zero, an odd double register.
_FAULTS = (
    Instruction("ld", rd=r(9), rs1=BASE, imm=2),
    Instruction("udiv", rd=r(9), rs1=r(8), rs2=r(4)),
    Instruction("sdiv", rd=r(10), rs1=r(9), rs2=r(1)),
    Instruction("faddd", rd=f(4), rs1=f(3), rs2=f(4)),
)

#: Conditional branches for forward skips inside the body.
_CONDITIONS = ("be", "bne", "bg", "ble", "bcs", "bneg", "fbe", "fbne", "ba")


def _items(rng):
    """A random loop body: instructions, and ``(mnemonic, annul, skip)``
    forward branches over the ``skip`` items after their delay slot."""
    items = []
    for _ in range(rng.randrange(1, 24)):
        roll = rng.random()
        if roll < 0.12:
            items.append((rng.choice(_CONDITIONS), rng.random() < 0.5, rng.randrange(4)))
        elif roll < 0.14:
            items.append(rng.choice(_FAULTS))
        else:
            items.append(rng.choice(_BODY))
    return items


def _program(trips, items, couple):
    """The loop as a list of instructions from :data:`CODE`: a counter
    set to ``trips``, the body, ``subcc``/``bg`` back to the top and
    ``retl``. With ``couple``, the back branch's delay slot is a
    ``ba`` to the ``retl``: a transfer in a delay slot. A forward
    branch lands on the ``subcc`` at the latest."""
    head = [
        Instruction("or", rd=COUNTER, rs1=r(0), imm=trips),
        Instruction("sethi", rd=BASE, imm=DATA >> 10),
    ]
    top = len(head)
    tail = top + len(items)  # the subcc
    body = []
    for position, item in enumerate(items):
        if isinstance(item, Instruction):
            body.append(item)
            continue
        mnemonic, annul, skip = item
        here = top + position
        body.append(Instruction(mnemonic, imm=min(here + 2 + skip, tail) - here, annul=annul))
    exit_ = tail + 3
    back = tail + 1
    delay = Instruction("ba", imm=exit_ - (tail + 2)) if couple else Instruction("nop")
    return head + body + [
        Instruction("subcc", rd=COUNTER, rs1=COUNTER, imm=1),
        Instruction("bg", imm=top - back, annul=not couple),
        delay,
        Instruction("jmpl", rd=r(0), rs1=r(15), imm=8),  # retl
        Instruction("nop"),
    ]


def _start_state(seed):
    rng = random.Random(seed)
    state = MachineState()
    for index in range(1, 14):
        state.set_reg(index, rng.choice((0, 1, 2, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, rng.getrandbits(32))))
    for index in range(8):
        state.set_double(2 * index, rng.uniform(-4.0, 4.0))
    state.y = rng.getrandbits(32)
    for offset in range(0, 64, 4):
        state.memory.write_word(DATA + offset, rng.getrandbits(32))
    return state


def _case(seed):
    """``(trips, items, couple, budget)`` for ``seed``; the budget is
    :data:`FUEL` or small enough to stop some runs inside a loop."""
    rng = random.Random(seed)
    items = _items(rng)
    budget = rng.randrange(1, 12 * (len(items) + 4)) if rng.random() < 0.3 else FUEL
    return rng.randrange(1, 6), items, rng.random() < 0.15, budget


def code_at(instructions, base=CODE):
    """``instructions`` as a code image from ``base``."""
    return {base + 4 * i: inst for i, inst in enumerate(instructions)}


def _diverges(seed, items):
    trips, _, couple, budget = _case(seed)
    code = code_at(_program(trips, items, couple))
    return _differences(code, CODE, _start_state(seed), budget)


def fuzz_divergence(seed):
    """None when the fuzz program for ``seed`` runs alike on both
    simulators; otherwise the differing parts and the shrunk body."""
    items = _case(seed)[1]
    diff = _diverges(seed, items)
    if not diff:
        return None
    shrunk = _shrink(items, lambda candidate: bool(_diverges(seed, candidate)))
    return f"seed {seed}: {', '.join(diff)}; minimal body: {[str(i) for i in shrunk]}"


@pytest.mark.parametrize("block", range(8))
def test_fuzz_bound_simulator_matches_the_reference(block):
    failures = [
        message
        for seed in range(block * 40, block * 40 + 40)
        if (message := fuzz_divergence(seed)) is not None
    ]
    assert not failures, "\n".join(failures)


def test_fuzz_reaches_faults_limits_and_delay_slot_couples():
    """The fuzz exercises what it is for: runs that fault, runs cut by
    the instruction budget, and transfers in delay slots."""
    ends, lone = set(), 0
    for seed in range(320):
        trips, items, couple, budget = _case(seed)
        code = code_at(_program(trips, items, couple))
        ended, _, path, _ = _outcome(Simulator(code), CODE, _start_state(seed), budget)
        ends.add(ended[0] if isinstance(ended[0], str) else "completed")
        lone += any(segment & 3 == LONE for segment in path)
    assert {"completed", "SimulationLimit", "MemoryFault", "SemanticsError"} <= ends
    assert lone


def test_shrinker_reduces_a_divergence_to_its_cause(monkeypatch):
    """A bound step that disagrees with the table is caught and the
    body shrunk to the instruction that carries it."""
    target = next(i for i in _BODY if i.mnemonic == "xor")
    wrong = Instruction("xor", rd=target.rd, rs1=target.rs1, imm=target.imm + 1)
    bind = simulator.step_of
    monkeypatch.setattr(
        simulator, "step_of", lambda inst: bind(wrong if inst is target else inst)
    )
    message = next(
        message
        for seed in range(200)
        if target in _case(seed)[1] and (message := fuzz_divergence(seed))
    )
    assert "segments state" in message
    assert message.endswith(f"minimal body: [{str(target)!r}]")
