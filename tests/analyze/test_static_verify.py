"""Static pre-verifier: proofs, refutations, and the ladder's first gate."""

from repro.analyze import prove_schedule
from repro.core import BlockScheduler, SchedulingPolicy
from repro.core.verify import verify_schedule
from repro.isa.instruction import TAG_INSTRUMENTATION, Instruction
from repro.isa.registers import r
from repro.obs import (
    ANALYZE_STATIC_ESCALATED,
    ANALYZE_STATIC_PASS,
    MetricsRecorder,
    analyze_table,
)
from repro.qpt import SlowProfiler
from repro.robust import GuardedBlockScheduler
from repro.spawn import load_machine
from repro.analyze import static_verify_schedule
from repro.workloads import sum_loop

from .test_ladder import guarded_pairs

MACHINE = load_machine("ultrasparc")


def add(dst, src):
    return Instruction("add", rd=r(dst), rs1=r(src), imm=1)


def test_proven_for_independent_reorder():
    original = [add(9, 8), add(11, 10)]
    verdict = static_verify_schedule(original, [original[1], original[0]])
    assert verdict.proven and bool(verdict)
    assert verdict.reasons == ()


def test_identity_schedule_is_proven():
    original = [add(9, 8), add(10, 9)]
    assert static_verify_schedule(original, list(original)).proven


def test_refuted_when_not_a_permutation():
    original = [add(9, 8), add(11, 10)]
    verdict = static_verify_schedule(original, [original[0], original[0]])
    assert verdict.refuted and not bool(verdict)
    assert "not a permutation" in verdict.reasons[0]


def test_refuted_when_dag_violated():
    producer = add(9, 8)
    consumer = add(10, 9)  # reads %o1 written by producer
    verdict = static_verify_schedule([producer, consumer], [consumer, producer])
    assert verdict.refuted
    assert "dependence DAG" in verdict.reasons[0]


def _memory_pair():
    load = Instruction("ld", rd=r(10), rs1=r(8), imm=0)
    store = Instruction(
        "st", rd=r(11), rs1=r(9), imm=0
    ).retag(TAG_INSTRUMENTATION)
    return load, store


def test_inconclusive_on_cross_side_memory_flip():
    load, store = _memory_pair()
    verdict = static_verify_schedule([load, store], [store, load])
    assert verdict.inconclusive and not bool(verdict)
    assert "instrumentation/original memory boundary" in verdict.reasons[0]


def test_restrictive_policy_leaves_no_gap():
    # Under restrict_instrumentation_memory the DAG orders the pair, so
    # the flip is refuted outright instead of escalated.
    load, store = _memory_pair()
    policy = SchedulingPolicy(restrict_instrumentation_memory=True)
    verdict = static_verify_schedule([load, store], [store, load], policy=policy)
    assert verdict.refuted


def test_refutation_matches_dynamic_verifier():
    # A static refutation must agree with verify_schedule, message and all.
    producer = add(9, 8)
    consumer = add(10, 9)
    static = static_verify_schedule([producer, consumer], [consumer, producer])
    dynamic = verify_schedule([producer, consumer], [consumer, producer])
    assert static.refuted and not dynamic.ok
    # The dynamic verifier reports the same refutation (it just keeps
    # going and collects the differential divergence on top).
    assert set(static.reasons) <= set(dynamic.failures)


# -- the ladder's first gate ------------------------------------------------------


def test_guard_output_byte_identical_with_and_without_static_gate():
    """The static gate only saves work: the guarded build equals the
    unguarded one, and every block the gate proves also passes the
    differential battery a guard without the gate would have run."""
    executable = sum_loop(12).executable
    policy = SchedulingPolicy(fill_delay_slots=True)
    gated = SlowProfiler(executable).instrument(GuardedBlockScheduler(MACHINE, policy))
    plain = SlowProfiler(executable).instrument(BlockScheduler(MACHINE, policy))
    assert gated.executable.to_bytes() == plain.executable.to_bytes()
    assert gated.quarantine == ()
    proven = 0
    for body, scheduled in guarded_pairs(executable, policy):
        result, gate = prove_schedule(body, scheduled, policy=policy)
        assert result.ok
        if gate == "static":
            proven += 1
            assert verify_schedule(body, scheduled, policy=policy).ok
    assert proven > 0


def test_guard_counts_static_passes():
    recorder = MetricsRecorder()
    guard = GuardedBlockScheduler(MACHINE, recorder=recorder)
    SlowProfiler(sum_loop(12).executable).instrument(guard)
    metrics = recorder.metrics
    proven = metrics.counter_total(ANALYZE_STATIC_PASS)
    escalated = metrics.counter_total(ANALYZE_STATIC_ESCALATED)
    assert proven > 0
    # Every scheduled block either passes statically or escalates.
    assert proven + escalated >= proven

    table = analyze_table(metrics)
    assert "static pre-verifier" in table
    assert f"{int(proven)}/{int(proven + escalated)} blocks proven" in table


# -- statically resolved disjoint intervals (sethi counter bases) -----------------


def test_disjoint_static_intervals_flip_is_proven():
    """A cross-side flip whose addresses both resolve statically (sethi
    base + immediate) to disjoint byte intervals needs no escalation —
    the disjointness is proven, not assumed."""
    sethi = Instruction("sethi", rd=r(20), imm=0xC0)
    store = Instruction("st", rd=r(11), rs1=r(20), imm=0).retag(TAG_INSTRUMENTATION)
    load = Instruction("ld", rd=r(10), rs1=r(20), imm=8)
    verdict = static_verify_schedule([sethi, store, load], [sethi, load, store])
    assert verdict.proven


def test_overlapping_static_intervals_flip_stays_inconclusive():
    # Same shape, but the word at +0 and a load at +2 overlap: the flip
    # is not provably safe, so it must still escalate.
    sethi = Instruction("sethi", rd=r(20), imm=0xC0)
    store = Instruction("st", rd=r(11), rs1=r(20), imm=0).retag(TAG_INSTRUMENTATION)
    load = Instruction("ld", rd=r(10), rs1=r(20), imm=2)
    verdict = static_verify_schedule([sethi, store, load], [sethi, load, store])
    assert verdict.inconclusive
    assert "assumed, not proven" in verdict.reasons[0]


def test_clobbered_sethi_base_invalidates_static_resolution():
    # Redefining the base register between sethi and the access kills
    # the static resolution, so the flip escalates even at +8.
    sethi = Instruction("sethi", rd=r(20), imm=0xC0)
    clobber = Instruction("add", rd=r(20), rs1=r(20), imm=4)
    store = Instruction("st", rd=r(11), rs1=r(20), imm=0).retag(TAG_INSTRUMENTATION)
    load = Instruction("ld", rd=r(10), rs1=r(24), imm=8)
    verdict = static_verify_schedule(
        [sethi, clobber, store, load], [sethi, clobber, load, store]
    )
    assert verdict.inconclusive
