"""GuardedBlockScheduler: byte-identical when clean, quarantine when not."""

import pytest

from repro.core import BlockScheduler, SchedulingPolicy
from repro.eel import Editor
from repro.errors import BudgetExceeded, VerificationError
from repro.obs import (
    GUARD_BLOCKS_VERIFIED,
    GUARD_FALLBACKS,
    GUARD_QUARANTINED,
    MetricsRecorder,
)
from repro.qpt import SlowProfiler
from repro.robust import GuardBudget, GuardedBlockScheduler, SabotagedScheduler
from repro.spawn import load_machine
from repro.workloads import sum_loop

MACHINE = load_machine("ultrasparc")


@pytest.fixture
def executable():
    return sum_loop(12).executable


def test_byte_identical_to_unguarded_path(executable):
    plain = Editor(executable).build(BlockScheduler(MACHINE))
    guard = GuardedBlockScheduler(MACHINE)
    guarded = Editor(executable).build(guard)
    assert guarded.to_bytes() == plain.to_bytes()
    assert guard.quarantine == []
    assert guard.fallbacks == 0


def test_byte_identical_with_instrumentation_and_delay_fill(executable):
    policy = SchedulingPolicy(fill_delay_slots=True)
    plain = SlowProfiler(executable).instrument(BlockScheduler(MACHINE, policy))
    guarded = SlowProfiler(executable).instrument(
        GuardedBlockScheduler(MACHINE, policy)
    )
    assert guarded.executable.to_bytes() == plain.executable.to_bytes()
    assert guarded.quarantine == ()


def test_sabotage_quarantines_and_falls_back(executable):
    inner = SabotagedScheduler(MACHINE, mutation="swap-dependent-pair")
    guard = GuardedBlockScheduler(MACHINE, inner=inner, verify_trials=2)
    edited = Editor(executable).build(guard)
    assert inner.mutations_applied > 0
    assert guard.fallbacks == inner.mutations_applied
    assert all(q.kind == "verification" for q in guard.quarantine)
    assert all(q.block >= 0 and q.offending for q in guard.quarantine)
    # Fallback means the output is the *unscheduled* edit, still correct.
    assert edited.to_bytes() == Editor(executable).build().to_bytes()


def test_strict_mode_raises_verification_error(executable):
    inner = SabotagedScheduler(MACHINE, mutation="drop-instruction")
    guard = GuardedBlockScheduler(
        MACHINE, inner=inner, strict=True, verify_trials=2
    )
    with pytest.raises(VerificationError) as info:
        Editor(executable).build(guard)
    assert info.value.block is not None
    assert "permutation" in str(info.value)


def test_crashing_scheduler_is_quarantined(executable):
    class Crasher(BlockScheduler):
        def schedule_body(self, body):
            raise RuntimeError("boom")

    guard = GuardedBlockScheduler(MACHINE, inner=Crasher(MACHINE))
    edited = Editor(executable).build(guard)
    assert guard.quarantine
    assert all(q.kind == "scheduler-error" for q in guard.quarantine)
    assert edited.to_bytes() == Editor(executable).build().to_bytes()


def test_block_instruction_budget_degrades_gracefully(executable):
    budget = GuardBudget(max_block_instructions=0)
    guard = GuardedBlockScheduler(MACHINE, budget=budget)
    edited = Editor(executable).build(guard)
    assert guard.quarantine
    assert all(q.kind == "budget" for q in guard.quarantine)
    assert edited.to_bytes() == Editor(executable).build().to_bytes()


def test_routine_deadline_stops_scheduling(executable):
    ticks = iter(range(0, 10_000, 100))  # every clock call jumps 100s
    guard = GuardedBlockScheduler(
        MACHINE,
        budget=GuardBudget(routine_deadline_s=1.0),
        clock=lambda: float(next(ticks)),
    )
    Editor(executable).build(guard)
    # First block schedules (deadline not yet hit), the rest degrade.
    assert any(q.kind == "budget" for q in guard.quarantine)
    assert any("routine budget" in q.reason for q in guard.quarantine)


def test_strict_budget_raises(executable):
    guard = GuardedBlockScheduler(
        MACHINE, budget=GuardBudget(max_block_instructions=0), strict=True
    )
    with pytest.raises(BudgetExceeded) as info:
        Editor(executable).build(guard)
    assert info.value.budget == "max_block_instructions"


def test_metrics_counters(executable):
    recorder = MetricsRecorder()
    inner = SabotagedScheduler(
        MACHINE, None, recorder, mutation="duplicate-instruction"
    )
    guard = GuardedBlockScheduler(
        MACHINE, None, recorder, inner=inner, verify_trials=2
    )
    Editor(executable, recorder=recorder).build(guard)
    metrics = recorder.metrics
    assert metrics.counter_total(GUARD_QUARANTINED) == len(guard.quarantine)
    assert metrics.counter_total(GUARD_FALLBACKS) == guard.fallbacks
    assert metrics.counter_total(GUARD_QUARANTINED) > 0

    clean = MetricsRecorder()
    clean_guard = GuardedBlockScheduler(MACHINE, None, clean)
    Editor(executable, recorder=clean).build(clean_guard)
    assert clean.metrics.counter_total(GUARD_BLOCKS_VERIFIED) > 0
    assert clean.metrics.counter_total(GUARD_QUARANTINED) == 0


def test_quarantine_reports_render(executable):
    inner = SabotagedScheduler(MACHINE, mutation="swap-dependent-pair")
    guard = GuardedBlockScheduler(MACHINE, inner=inner, verify_trials=2)
    Editor(executable).build(guard)
    for report in guard.quarantine:
        text = str(report)
        assert "[verification]" in text
        assert "block" in text


def test_profiler_surfaces_quarantine(executable):
    inner = SabotagedScheduler(MACHINE, mutation="swap-dependent-pair")
    guard = GuardedBlockScheduler(MACHINE, inner=inner, verify_trials=2)
    profiled = SlowProfiler(executable).instrument(guard)
    assert profiled.quarantine == tuple(guard.quarantine)
    assert profiled.quarantine  # the sabotage was visible to the tool


def test_cached_guard_digests_each_region_once(monkeypatch):
    """With a schedule cache, the guard canonicalizes each region it
    looks up once: the lookup's digest keys the verified insert."""
    import repro.parallel.cache as cache_module
    import repro.parallel.fingerprint as fingerprint
    from repro.parallel import ScheduleCache
    from repro.workloads.spec95 import generate_benchmark

    digests = []
    real = fingerprint.region_digest

    def counting(region):
        digests.append(len(region))
        return real(region)

    monkeypatch.setattr(fingerprint, "region_digest", counting)
    monkeypatch.setattr(cache_module, "region_digest", counting)
    executable = generate_benchmark("126.gcc", trip_count=4).executable
    cache = ScheduleCache()
    guarded = SlowProfiler(executable).instrument(
        GuardedBlockScheduler(MACHINE, cache=cache)
    )
    assert cache.inserts > 0 and cache.hits > 0
    assert len(digests) == cache.hits + cache.misses
    plain = SlowProfiler(executable).instrument(BlockScheduler(MACHINE))
    assert guarded.executable.to_bytes() == plain.executable.to_bytes()
