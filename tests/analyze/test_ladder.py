"""The verification ladder: static → symbolic → dynamic, in that order.

Each test pins which gate decides a characteristic reorder, what the
ladder records on the way, and that a refutation explains itself.
"""

from repro.analyze import prove_schedule
from repro.core import BlockScheduler, SchedulingPolicy
from repro.isa.instruction import TAG_INSTRUMENTATION, Instruction
from repro.isa.registers import r
from repro.obs import (
    ANALYZE_STATIC_ESCALATED,
    ANALYZE_STATIC_PASS,
    ANALYZE_SYMBOLIC_ESCALATED,
    ANALYZE_SYMBOLIC_PASS,
    ANALYZE_SYMBOLIC_REFUTED,
    MetricsRecorder,
)
from repro.qpt import SlowProfiler
from repro.robust import GuardedBlockScheduler
from repro.spawn import load_machine

MACHINE = load_machine("ultrasparc")

GATE_COUNTERS = (
    ANALYZE_STATIC_PASS,
    ANALYZE_STATIC_ESCALATED,
    ANALYZE_SYMBOLIC_PASS,
    ANALYZE_SYMBOLIC_REFUTED,
    ANALYZE_SYMBOLIC_ESCALATED,
)


def add(dst, src):
    return Instruction("add", rd=r(dst), rs1=r(src), imm=1)


def cross_side_pair(base_load=8, base_store=9):
    """An original load and an instrumentation store, in that order."""
    load = Instruction("ld", rd=r(10), rs1=r(base_load), imm=0)
    store = Instruction("st", rd=r(11), rs1=r(base_store), imm=0).retag(
        TAG_INSTRUMENTATION
    )
    return load, store


def climb(original, scheduled, **kwargs):
    """Run the ladder under a fresh recorder; returns (result, gate,
    nonzero gate counters, span names)."""
    recorder = MetricsRecorder()
    result, gate = prove_schedule(original, scheduled, recorder=recorder, **kwargs)
    metrics = recorder.metrics
    counters = {
        name: int(metrics.counter_total(name))
        for name in GATE_COUNTERS
        if metrics.counter_total(name)
    }
    return result, gate, counters, set(metrics.timers)


def guarded_pairs(executable, policy):
    """Every (body, schedule) pair a guarded instrumentation build of
    ``executable`` puts to the ladder, instrumentation tags included."""
    pairs = []

    class Recording(BlockScheduler):
        def schedule_body(self, body):
            scheduled = super().schedule_body(body)
            pairs.append((list(body), scheduled))
            return scheduled

    guard = GuardedBlockScheduler(
        MACHINE, policy, inner=Recording(MACHINE, policy)
    )
    SlowProfiler(executable).instrument(guard)
    assert guard.quarantine == []
    return pairs


def test_dag_ordered_reorder_stops_at_the_static_gate():
    original = [add(9, 8), add(11, 10)]
    result, gate, counters, spans = climb(original, [original[1], original[0]])
    assert result.ok and gate == "static"
    assert counters == {ANALYZE_STATIC_PASS: 1}
    assert spans == {"verify.static"}


def test_static_refutation_is_final():
    producer, consumer = add(9, 8), add(10, 9)
    result, gate, counters, spans = climb(
        [producer, consumer], [consumer, producer]
    )
    assert not result.ok and gate == "static"
    assert "violates the dependence DAG" in result.failures
    assert counters == {}
    assert spans == {"verify.static"}


def test_cross_side_memory_move_is_proven_symbolically():
    load, store = cross_side_pair()
    result, gate, counters, spans = climb([load, store], [store, load])
    assert result.ok and gate == "symbolic"
    assert counters == {ANALYZE_STATIC_ESCALATED: 1, ANALYZE_SYMBOLIC_PASS: 1}
    assert spans == {"verify.static", "verify.symbolic"}


def test_symbolic_off_reaches_the_differential_battery():
    load, store = cross_side_pair()
    result, gate, counters, spans = climb(
        [load, store], [store, load], symbolic=False
    )
    assert result.ok and gate == "dynamic"
    assert counters == {ANALYZE_STATIC_ESCALATED: 1}
    assert spans == {"verify.static", "verify.dynamic"}


def test_refutation_carries_its_counterexample():
    # Same base register: the instrumentation store overwrites the word
    # the original load reads, so the flip changes the loaded value.
    load, store = cross_side_pair(base_load=24, base_store=24)
    result, gate, counters, _spans = climb([load, store], [store, load])
    assert not result.ok and gate == "symbolic"
    assert any(failure.startswith("counterexample: ") for failure in result.failures)
    assert counters == {ANALYZE_STATIC_ESCALATED: 1, ANALYZE_SYMBOLIC_REFUTED: 1}
