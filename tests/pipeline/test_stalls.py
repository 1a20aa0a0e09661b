"""pipeline_stalls behaviour on the shipped machine models.

These tests pin the hazards the paper describes: dual-issue pairing,
structural conflicts on single units, load-use latency, and the
RAW-forwarding rule (a value computed in cycle c is usable from c+1).
"""

import pytest

from repro.isa import Instruction, assemble, f, r
from repro.pipeline import BlockSimulator, PipelineState, issue, pipeline_stalls
from repro.spawn import load_machine


@pytest.fixture(scope="module")
def hyper():
    return load_machine("hypersparc")


@pytest.fixture(scope="module")
def ultra():
    return load_machine("ultrasparc")


@pytest.fixture(scope="module")
def supersparc():
    return load_machine("supersparc")


def add(rd, rs1, rs2):
    return Instruction("add", rd=r(rd), rs1=r(rs1), rs2=r(rs2))


def addi(rd, rs1, imm):
    return Instruction("add", rd=r(rd), rs1=r(rs1), imm=imm)


def ld(rd, rs1, imm=0):
    return Instruction("ld", rd=r(rd), rs1=r(rs1), imm=imm)


def st(rd, rs1, imm=0):
    return Instruction("st", rd=r(rd), rs1=r(rs1), imm=imm)


def test_independent_pair_dual_issues_on_hypersparc(hyper):
    # hyperSPARC pairs one ALU op with one memory op.
    sim = BlockSimulator(hyper)
    timing = sim.time_block([addi(1, 1, 1), ld(2, 30)])
    assert timing.issue_times == [0, 0]


def test_two_alu_ops_conflict_on_hypersparc(hyper):
    # Only one arithmetic ALU: the second add waits a cycle.
    sim = BlockSimulator(hyper)
    timing = sim.time_block([addi(1, 1, 1), addi(2, 2, 1)])
    assert timing.issue_times == [0, 1]


def test_two_alu_ops_pair_on_supersparc(supersparc):
    sim = BlockSimulator(supersparc)
    timing = sim.time_block([addi(1, 1, 1), addi(2, 2, 1)])
    assert timing.issue_times == [0, 0]


def test_ultrasparc_issues_at_most_two_integer_ops(ultra):
    sim = BlockSimulator(ultra)
    timing = sim.time_block([addi(1, 1, 1), addi(2, 2, 1), addi(3, 3, 1)])
    assert timing.issue_times == [0, 0, 1]


def test_ultrasparc_can_issue_four_mixed(ultra):
    block = [
        addi(1, 1, 1),
        addi(2, 2, 1),
        ld(3, 30),
        Instruction("ba", imm=4),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times == [0, 0, 0, 0]
    assert timing.ipc == 4.0


def test_raw_dependence_serializes(hyper):
    # add %g1,%g2,%g3 ; add %g3,%g4,%g5 — consumer can issue next cycle
    # (value computed end of cycle 1, read in its own cycle 1).
    sim = BlockSimulator(hyper)
    timing = sim.time_block([add(3, 1, 2), add(5, 3, 4)])
    assert timing.issue_times == [0, 1]


def test_raw_same_cycle_stalls(hyper):
    state = PipelineState(hyper)
    first = issue(0, state, add(3, 1, 2))
    assert first.issue_cycle == 0
    # A dependent consumer attempted in the same cycle must stall one.
    stalls = pipeline_stalls(0, state, add(5, 3, 4))
    assert stalls == 1


def test_sethi_value_usable_same_cycle(hyper):
    # Paper: sethi produces its value at the end of cycle 0, so a
    # consumer issued in the same cycle can use it.
    state = PipelineState(hyper)
    issue(0, state, Instruction("sethi", rd=r(1), imm=0x3F))
    consumer = Instruction("or", rd=r(1), rs1=r(1), imm=0x3FF)
    assert pipeline_stalls(0, state, consumer) == 0


def test_load_use_latency_hyper_vs_ultra(hyper, ultra):
    # hyperSPARC: 1-cycle load latency -> dependent op issues next cycle.
    timing = BlockSimulator(hyper).time_block([ld(3, 30), add(4, 3, 3)])
    assert timing.issue_times == [0, 1]
    # UltraSPARC: 2-cycle use latency -> one extra stall.
    timing = BlockSimulator(ultra).time_block([ld(3, 30), add(4, 3, 3)])
    assert timing.issue_times == [0, 2]


def test_store_occupies_lsu_two_cycles(hyper):
    # Two stores back to back: the second waits for the LSU.
    timing = BlockSimulator(hyper).time_block([st(1, 30, 0), st(2, 30, 4)])
    assert timing.issue_times[1] - timing.issue_times[0] >= 2


def test_loads_single_port(ultra):
    timing = BlockSimulator(ultra).time_block([ld(1, 30, 0), ld(2, 30, 4)])
    assert timing.issue_times == [0, 1]


def test_war_hazard_respected(hyper):
    # write to %g2 must not make its value visible before the earlier
    # read of %g2 has happened.
    state = PipelineState(hyper)
    reader = issue(0, state, add(3, 1, 2))  # reads %g2 in cycle 1
    writer_stalls = pipeline_stalls(0, state, addi(2, 4, 1))
    result = issue(0, state, addi(2, 4, 1))
    assert result.writes  # sanity
    write_cycle = dict(result.writes)[r(2)]
    assert write_cycle > dict(reader.reads)[r(2)]


def test_waw_ordering(hyper):
    state = PipelineState(hyper)
    issue(0, state, add(3, 1, 2))
    second = issue(0, state, Instruction("sethi", rd=r(3), imm=1))
    # The sethi's write must not land before the add's.
    assert state.value_ready(r(3)) >= 2


def test_fp_add_latency_three_cycles(ultra):
    block = [
        Instruction("faddd", rd=f(0), rs1=f(2), rs2=f(4)),
        Instruction("faddd", rd=f(6), rs1=f(0), rs2=f(8)),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times == [0, 3]


def test_fp_adds_pipeline_when_independent(ultra):
    block = [
        Instruction("faddd", rd=f(0), rs1=f(8), rs2=f(10)),
        Instruction("faddd", rd=f(2), rs1=f(12), rs2=f(14)),
        Instruction("faddd", rd=f(4), rs1=f(16), rs2=f(18)),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    # One per cycle through the pipelined adder.
    assert timing.issue_times == [0, 1, 2]


def test_fp_add_and_mul_pair(ultra):
    block = [
        Instruction("faddd", rd=f(0), rs1=f(8), rs2=f(10)),
        Instruction("fmuld", rd=f(2), rs1=f(12), rs2=f(14)),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times == [0, 0]


def test_fdiv_not_pipelined(ultra):
    block = [
        Instruction("fdivd", rd=f(0), rs1=f(8), rs2=f(10)),
        Instruction("fdivd", rd=f(2), rs1=f(12), rs2=f(14)),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times[1] >= 22


def test_cmp_branch_pair(ultra):
    # A compare and its dependent branch can share a group.
    block = assemble("cmp %o0, 7\nbe 12")
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times == [0, 0]


def test_fcmp_fbranch_separation(ultra):
    block = [
        Instruction("fcmpd", rs1=f(0), rs2=f(2)),
        Instruction("fbe", imm=3),
    ]
    timing = BlockSimulator(ultra).time_block(block)
    assert timing.issue_times[1] >= 2


def test_empty_block(ultra):
    timing = BlockSimulator(ultra).time_block([])
    assert timing.issue_cycles == 0
    assert timing.stall_cycles == 0


def test_profiling_sequence_cost_matches_paper(ultra, supersparc):
    """QPT2's 4-instruction counter sequence 'can execute in 4 cycles on
    both SuperSPARC and UltraSPARC' (§4.2)."""
    seq = assemble(
        """
        sethi %hi(0x40000), %g1
        ld [%g1 + 0x10], %g2
        add %g2, 1, %g2
        st %g2, [%g1 + 0x10]
        """
    )
    timing = BlockSimulator(ultra).time_block(seq)
    assert timing.issue_cycles == 4
    # On SuperSPARC the one-cycle load latency lets the load pair with
    # the sethi, so our model issues the chain in 3 cycles — one better
    # than the paper's quoted 4 (which counts execution, not issue).
    timing = BlockSimulator(supersparc).time_block(seq)
    assert timing.issue_cycles in (3, 4)


def test_prepare_cache_is_model_keyed():
    """Regression: prepared events belong to a trace, not to a group id.
    Timing-group ids are handed out per model in formation order, so two
    different machines routinely assign the same ``(group, reads,
    writes)`` triple to *different* pipeline traces — ``add`` on
    hypersparc and ultrasparc is one such pair. A memo keyed on that
    triple would hand the second machine the first machine's prepared
    events and silently mis-time it."""
    from repro.pipeline.stalls import _prepare
    from repro.spawn.library import description_text, load_machine_from_source

    # Fresh models, so the first timing() call forms group 0 on both.
    hyper = load_machine_from_source(description_text("hypersparc"), "hypersparc")
    ultra = load_machine_from_source(description_text("ultrasparc"), "ultrasparc")
    inst = Instruction("add", rd=r(3), rs1=r(1), rs2=r(2))
    timing_h = hyper.timing(inst)
    timing_u = ultra.timing(inst)
    # The collision precondition: identical triple, different traces.
    assert timing_h.group == timing_u.group
    assert timing_h.reads == timing_u.reads
    assert timing_h.writes == timing_u.writes
    assert timing_h.trace.signature() != timing_u.trace.signature()

    # Prepare hypersparc first, then demand the ultrasparc bundle: it
    # must be built from the ultrasparc trace.
    prepared_h = _prepare(timing_h.trace)
    prepared_u = _prepare(timing_u.trace)
    assert prepared_u is not prepared_h
    assert prepared_u.acquires != prepared_h.acquires

    # Behaviorally: issue streams on the second machine agree with an
    # independent implementation (the generated standalone module),
    # which a stale prepared bundle would break.
    from repro.spawn.codegen import compile_machine

    module = compile_machine(ultra)
    block = [
        Instruction("add", rd=r(3), rs1=r(1), rs2=r(2)),
        Instruction("add", rd=r(9), rs1=r(10), rs2=r(11)),
        Instruction("add", rd=r(12), rs1=r(13), rs2=r(14)),
        Instruction("add", rd=r(16), rs1=r(17), rs2=r(18)),
    ]
    state = PipelineState(ultra)
    gen_state = module.GeneratedPipelineState()
    cycle_i = cycle_g = 0
    for item in block:
        cycle_i = issue(cycle_i, state, item).issue_cycle
        cycle_g = module.issue(cycle_g, gen_state, item)
        assert cycle_i == cycle_g


def test_prepare_cache_tells_apart_models_of_one_description():
    """Regression: two models built from the *same* description number
    their timing groups in the order they first meet instructions, so
    ``ld`` and ``add`` — equal register accesses, different traces on
    the SuperSPARC — can both be group 0. Digest plus group id named
    one cache entry for both; each trace carries its own events."""
    from repro.pipeline.stalls import _prepare, _prepare_uncached
    from repro.spawn.library import description_text, load_machine_from_source

    load = Instruction("ld", rd=r(3), rs1=r(1), rs2=r(2))
    add = Instruction("add", rd=r(3), rs1=r(1), rs2=r(2))
    source = description_text("supersparc")
    first = load_machine_from_source(source, "supersparc").timing(load)
    second = load_machine_from_source(source, "supersparc").timing(add)
    assert (first.group, first.reads, first.writes) == (
        second.group,
        second.reads,
        second.writes,
    )
    assert first.trace.signature() != second.trace.signature()

    assert _prepare(first.trace).acquires == _prepare_uncached(first.trace).acquires
    assert (
        _prepare(second.trace).acquires == _prepare_uncached(second.trace).acquires
    )
    assert _prepare(second.trace).acquires != _prepare(first.trace).acquires
