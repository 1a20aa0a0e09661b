"""The symbolic translation validator: verdicts, witnesses, gate wiring."""

from repro.analyze import (
    prove_schedule,
    static_verify_schedule,
    symbolic_masked_verify,
    symbolic_verify_schedule,
)
from repro.core import BlockScheduler, SchedulingPolicy
from repro.eel.cfg import BasicBlock
from repro.isa.instruction import TAG_INSTRUMENTATION, Instruction
from repro.isa.registers import r
from repro.obs import (
    ANALYZE_SYMBOLIC_ESCALATED,
    ANALYZE_SYMBOLIC_PASS,
    ANALYZE_SYMBOLIC_REFUTED,
    MetricsRecorder,
    analyze_table,
)
from repro.qpt import SlowProfiler
from repro.robust import GuardedBlockScheduler
from repro.spawn import load_machine
from repro.workloads import sum_loop

from .test_ladder import guarded_pairs

MACHINE = load_machine("ultrasparc")


def add(dst, src, imm=1):
    return Instruction("add", rd=r(dst), rs1=r(src), imm=imm)


# -- proofs -----------------------------------------------------------------------


def test_independent_reorder_is_proven():
    original = [add(9, 8), add(11, 10)]
    verdict = symbolic_verify_schedule(original, [original[1], original[0]])
    assert verdict.proven and bool(verdict)


def test_cross_side_memory_reorder_is_proven_beyond_the_dag():
    """The tentpole capability: a load/store flip across the
    instrumentation/original boundary with register-based (statically
    unresolvable) addresses escalates the static gate but is proven
    symbolically under the permissive policy's disjointness axiom."""
    load = Instruction("ld", rd=r(10), rs1=r(8), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(9), imm=0).retag(TAG_INSTRUMENTATION)
    static = static_verify_schedule([load, store], [store, load])
    assert static.inconclusive
    verdict = symbolic_verify_schedule([load, store], [store, load])
    assert verdict.proven


def test_same_base_aliasing_flip_is_not_proven():
    """When both accesses use the *same* base register the axiom does
    not apply — the addresses are identical, forwarding exposes the
    difference, and the concrete witness confirms divergence. %r24 is
    one of the battery's seeded memory bases, so witness runs execute
    cleanly."""
    load = Instruction("ld", rd=r(10), rs1=r(24), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(24), imm=0).retag(TAG_INSTRUMENTATION)
    verdict = symbolic_verify_schedule([load, store], [store, load])
    assert verdict.refuted
    assert verdict.counterexample is not None
    assert verdict.counterexample.location == "%r10"
    assert "witness trial" in str(verdict.counterexample)


def test_identity_schedule_is_proven():
    original = [add(9, 8), add(10, 9)]
    assert symbolic_verify_schedule(original, list(original)).proven


# -- structural refutations (same messages as the dynamic verifier) ---------------


def test_refuted_when_not_a_permutation():
    original = [add(9, 8), add(11, 10)]
    verdict = symbolic_verify_schedule(original, [original[0], original[0]])
    assert verdict.refuted
    assert "not a permutation" in verdict.reasons[0]


def test_refuted_when_dag_violated():
    producer, consumer = add(9, 8), add(10, 9)
    verdict = symbolic_verify_schedule([producer, consumer], [consumer, producer])
    assert verdict.refuted
    assert "dependence DAG" in verdict.reasons[0]


# -- semantic refutation with witness ---------------------------------------------


def test_semantic_divergence_refuted_with_counterexample():
    """With the structural gates off (a caller claims they ran), the
    term comparison itself must catch a changed immediate — and refute
    only after a concrete run confirms it."""
    verdict = symbolic_verify_schedule(
        [add(9, 8, imm=1)], [add(9, 8, imm=2)], check_structure=False
    )
    assert verdict.refuted
    counterexample = verdict.counterexample
    assert counterexample is not None and counterexample.location == "%r9"
    assert "original=" in counterexample.witness


def test_term_mismatch_without_witness_is_inconclusive():
    """`xor %o0, %o0` and `and %o0, 0` both compute zero, but the modest
    simplifier cannot reconcile the terms; no concrete run diverges, so
    the verdict must stay inconclusive — never a refutation."""
    zero_a = Instruction("xor", rd=r(9), rs1=r(8), rs2=r(8))
    zero_b = Instruction("and", rd=r(9), rs1=r(8), imm=0)
    verdict = symbolic_verify_schedule([zero_a], [zero_b], check_structure=False)
    assert verdict.inconclusive
    assert "no confirming witness" in verdict.reasons[0]


# -- traps ------------------------------------------------------------------------


def test_both_sides_div_zero_is_proven():
    zero = Instruction("or", rd=r(9), rs1=r(0), imm=0)
    div = Instruction("udiv", rd=r(10), rs1=r(8), rs2=r(9))
    free = add(11, 12)
    original = [zero, free, div]
    scheduled = [free, zero, div]
    assert symbolic_verify_schedule(original, scheduled).proven


def test_unsupported_instruction_is_inconclusive():
    flush = Instruction("call", imm=8)
    original = [add(9, 8), flush, add(11, 10)]
    scheduled = [add(11, 10), flush, add(9, 8)]
    verdict = symbolic_verify_schedule(original, scheduled, check_structure=False)
    assert verdict.inconclusive


# -- delay-slot glue --------------------------------------------------------------


def test_instructions_moved_across_a_cti_are_refuted_with_witness():
    """Moving an instruction across a call changes the state the callee
    observes; the per-region term comparison catches it and a concrete
    witness confirms the divergence."""
    cti = Instruction("call", imm=16)
    delay = Instruction("nop", imm=0)
    a, b = add(9, 8), add(11, 10)
    original = [a, cti, delay, b]
    scheduled = [b, cti, delay, a]
    verdict = symbolic_verify_schedule(original, scheduled, check_structure=False)
    assert verdict.refuted
    assert verdict.counterexample is not None


def test_changed_cti_skeleton_is_inconclusive():
    a = add(9, 8)
    original = [a, Instruction("call", imm=16), Instruction("nop", imm=0)]
    scheduled = [a, Instruction("call", imm=24), Instruction("nop", imm=0)]
    verdict = symbolic_verify_schedule(original, scheduled, check_structure=False)
    assert verdict.inconclusive
    assert "skeletons differ" in verdict.reasons[0]


def test_reorder_within_regions_around_a_cti_is_proven():
    cti = Instruction("call", imm=16)
    delay = Instruction("nop", imm=0)
    a, b = add(9, 8), add(11, 10)
    c, d = add(13, 12), add(15, 14)
    original = [a, b, cti, delay, c, d]
    scheduled = [b, a, cti, delay, d, c]
    assert symbolic_verify_schedule(original, scheduled).proven


# -- masked mode (superblock side exits) ------------------------------------------


def test_masked_accepts_speculated_dead_writes():
    original = [add(9, 8)]
    scheduled = [add(9, 8), add(13, 12, imm=5)]  # %o5 dead at the exit
    verdict = symbolic_masked_verify(original, scheduled, live={r(9)})
    assert verdict.proven


def test_masked_refutes_clobbered_live_register():
    original = [add(9, 8, imm=1)]
    scheduled = [add(9, 8, imm=2)]
    verdict = symbolic_masked_verify(original, scheduled, live={r(9)})
    assert verdict.refuted
    assert verdict.counterexample is not None


def test_masked_requires_straight_line_code():
    cti = Instruction("call", imm=8)
    verdict = symbolic_masked_verify([cti], [cti], live=set())
    assert verdict.inconclusive


# -- the ladder's second gate, as the guard climbs it -----------------------------


def guard_one_block(original, scheduled):
    """Guard one block whose scheduler proposes ``scheduled``; returns
    the emitted body, the guard and its recorder's metrics."""

    class Proposing(BlockScheduler):
        def schedule_body(self, body):
            return list(scheduled)

    recorder = MetricsRecorder()
    guard = GuardedBlockScheduler(
        MACHINE,
        recorder=recorder,
        inner=Proposing(MACHINE, recorder=recorder),
        validate_model=False,
    )
    block = BasicBlock(index=0, address=0x1000, body=list(original))
    emitted, _delay = guard(block, list(original))
    return emitted, guard, recorder.metrics


def test_guard_output_byte_identical_with_and_without_symbolic_gate():
    """The symbolic gate changes no verdict on a guarded build's blocks,
    so a guard without it would emit the same bytes."""
    executable = sum_loop(12).executable
    policy = SchedulingPolicy(fill_delay_slots=True)
    gated = SlowProfiler(executable).instrument(GuardedBlockScheduler(MACHINE, policy))
    plain = SlowProfiler(executable).instrument(BlockScheduler(MACHINE, policy))
    assert gated.executable.to_bytes() == plain.executable.to_bytes()
    assert gated.quarantine == ()
    for body, scheduled in guarded_pairs(executable, policy):
        with_gate, _ = prove_schedule(body, scheduled, policy=policy)
        without, _ = prove_schedule(body, scheduled, policy=policy, symbolic=False)
        assert with_gate.ok and without.ok


def test_guard_counts_symbolic_pass_on_escalated_block():
    load = Instruction("ld", rd=r(10), rs1=r(8), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(9), imm=0).retag(TAG_INSTRUMENTATION)
    emitted, guard, metrics = guard_one_block([load, store], [store, load])
    assert emitted == [store, load]
    assert guard.quarantine == []
    assert metrics.counter_total(ANALYZE_SYMBOLIC_PASS) == 1
    assert metrics.counter_total(ANALYZE_SYMBOLIC_REFUTED) == 0

    table = analyze_table(metrics)
    assert "symbolic validator" in table


def test_guard_counts_symbolic_refutation():
    load = Instruction("ld", rd=r(10), rs1=r(24), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(24), imm=0).retag(TAG_INSTRUMENTATION)
    emitted, guard, metrics = guard_one_block([load, store], [store, load])
    assert emitted == [load, store]  # quarantined to the original order
    (report,) = guard.quarantine
    assert report.kind == "verification"
    assert "counterexample" in report.reason
    assert metrics.counter_total(ANALYZE_SYMBOLIC_REFUTED) == 1


def test_guard_escalates_inconclusive_to_dynamic():
    """A definitely-misaligned load (constant address, sethi-based) is a
    trap, not something the validator can prove equivalent — it
    escalates, and the dynamic battery passes because both orders fault
    identically on every trial."""
    sethi = Instruction("sethi", rd=r(20), imm=0xC0)  # %r20 = 0x30000
    bad_load = Instruction("lduh", rd=r(10), rs1=r(20), imm=1)  # 0x30001: odd
    store = Instruction("st", rd=r(11), rs1=r(9), imm=0).retag(TAG_INSTRUMENTATION)
    original = [sethi, bad_load, store]
    scheduled = [sethi, store, bad_load]
    emitted, guard, metrics = guard_one_block(original, scheduled)
    assert metrics.counter_total(ANALYZE_SYMBOLIC_ESCALATED) == 1
    assert metrics.counter_total(ANALYZE_SYMBOLIC_PASS) == 0
    assert "verify.dynamic" in metrics.timers
    assert emitted == scheduled and guard.quarantine == []


def test_symbolic_gate_off_runs_no_symbolic_checks():
    policy = SchedulingPolicy(fill_delay_slots=True)
    pairs = guarded_pairs(sum_loop(12).executable, policy)
    load = Instruction("ld", rd=r(10), rs1=r(8), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(9), imm=0).retag(TAG_INSTRUMENTATION)
    pairs.append(([load, store], [store, load]))  # escalates past the DAG
    recorder = MetricsRecorder()
    gates = {
        prove_schedule(
            body, scheduled, policy=policy, recorder=recorder, symbolic=False
        )[1]
        for body, scheduled in pairs
    }
    assert "dynamic" in gates and "symbolic" not in gates
    metrics = recorder.metrics
    assert metrics.counter_total(ANALYZE_SYMBOLIC_PASS) == 0
    assert metrics.counter_total(ANALYZE_SYMBOLIC_ESCALATED) == 0
    assert "verify.symbolic" not in metrics.timers
