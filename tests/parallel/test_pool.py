"""The persistent worker pool: spawn-once reuse, the inline fast path,
and learned-table persistence.

These tests pin the pool's contract rather than its wall clock: leases
hand the supervisor a working executor interface, the single-CPU
inline path runs the *same* worker entry point on the same warm model,
``REPRO_POOL_INLINE`` overrides eligibility both ways, and the tables
a build learns are written back to the disk cache exactly once.
"""

import os

import pytest

from repro.core import SchedulingPolicy
from repro.obs import MetricsRecorder
from repro.parallel import (
    InlineLease,
    ParallelOptions,
    ScheduleCache,
    effective_workers,
    make_transform,
)
from repro.parallel.pool import INLINE_ENV, MANAGER, PoolManager, _inline_eligible
from repro.qpt import SlowProfiler
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)


def _spec():
    if MACHINE.source is None:
        pytest.skip("library machine carries no SADL source")
    return MACHINE.name, MACHINE.source


def workload(seed=61):
    return generate(
        WorkloadSpec(name=f"pool-{seed}", seed=seed, kind="int", avg_block_size=8.0)
    )


def build(program, *, jobs, cache=None, persistent_pool=True):
    transform = make_transform(
        MACHINE,
        POLICY,
        options=ParallelOptions(jobs=jobs, persistent_pool=persistent_pool),
        cache=cache,
    )
    profiled = SlowProfiler(program.executable).instrument(transform)
    return bytes(profiled.executable.text_section().data)


# -- eligibility -----------------------------------------------------------------


def test_effective_workers_clamps_to_cpu_count():
    cpus = os.cpu_count() or 1
    assert effective_workers(1) == 1
    assert effective_workers(4) == min(4, cpus)
    assert effective_workers(0) == 1


def test_inline_env_overrides_both_ways(monkeypatch):
    monkeypatch.setenv(INLINE_ENV, "0")
    assert not _inline_eligible(1)
    monkeypatch.setenv(INLINE_ENV, "1")
    assert _inline_eligible(64)
    monkeypatch.delenv(INLINE_ENV)
    # Without the override, eligibility is "one effective worker".
    assert _inline_eligible(1)
    assert _inline_eligible(4) == (effective_workers(4) == 1)


# -- the inline lease ------------------------------------------------------------


def test_inline_lease_submit_returns_future_result():
    lease = InlineLease()
    future = lease.submit(lambda x: x * 3, 7)
    assert future.result() == 21
    lease.shutdown()


def test_inline_lease_captures_exceptions_in_future():
    lease = InlineLease()
    future = lease.submit(lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        future.result()


def test_manager_acquire_inline_counts_models(monkeypatch):
    monkeypatch.setenv(INLINE_ENV, "1")
    name, source = _spec()
    manager = PoolManager()
    try:
        lease = manager.acquire(
            jobs=4, context=None, warm=(name, source), allow_inline=True
        )
        assert isinstance(lease, InlineLease)
        assert manager.stats()["inline_models"] == 1
        # The warm spec is memoized: a second lease is a reuse, not a
        # second prewarm.
        again = manager.acquire(
            jobs=4, context=None, warm=(name, source), allow_inline=True
        )
        assert isinstance(again, InlineLease)
        assert manager.stats()["inline_models"] == 1
    finally:
        manager.shutdown()


def test_manager_refuses_inline_when_not_allowed(monkeypatch):
    # Fault-injection callers pass allow_inline=False and must get a
    # real executor they can kill, whatever the host looks like.
    monkeypatch.setenv(INLINE_ENV, "1")
    manager = PoolManager()
    try:
        lease = manager.acquire(jobs=2, context=None, warm=None, allow_inline=False)
        assert not isinstance(lease, InlineLease)
        assert lease._processes is not None
    finally:
        manager.shutdown()


# -- builds through the pool -----------------------------------------------------


def test_persistent_and_ephemeral_pools_agree_byte_for_byte():
    program = workload(62)
    serial = build(program, jobs=1)
    assert build(program, jobs=4, persistent_pool=True) == serial
    assert build(program, jobs=4, persistent_pool=False) == serial


def test_forced_real_pool_agrees_with_inline(monkeypatch):
    program = workload(63)
    monkeypatch.setenv(INLINE_ENV, "1")
    inline = build(program, jobs=2, cache=ScheduleCache())
    monkeypatch.setenv(INLINE_ENV, "0")
    pooled = build(program, jobs=2, cache=ScheduleCache())
    assert inline == pooled == build(program, jobs=1)


def test_shared_manager_reuses_across_builds():
    program = workload(64)
    recorder = MetricsRecorder()
    before = MANAGER.stats()
    transform = make_transform(
        MACHINE, POLICY, recorder, options=ParallelOptions(jobs=2)
    )
    SlowProfiler(program.executable).instrument(transform)
    transform = make_transform(
        MACHINE, POLICY, recorder, options=ParallelOptions(jobs=2)
    )
    SlowProfiler(program.executable).instrument(transform)
    after = MANAGER.stats()
    grew = (after["spawns"] + after["reuses"]) - (
        before["spawns"] + before["reuses"]
    )
    assert grew >= 2, "two builds should lease the shared manager twice"
    assert after["reuses"] > before["reuses"] or after["spawns"] > before["spawns"]


# -- learned-table persistence ---------------------------------------------------


def test_persist_learned_writes_back_growth(tmp_path, monkeypatch):
    from repro.core.list_scheduler import ListScheduler
    from repro.core.regions import split_regions
    from repro.eel.cfg import build_cfg
    from repro.pipeline.tables import CACHE_DIR_ENV, _read_entry, persist_learned
    from repro.spawn.library import description_text, load_machine_from_source

    # A private model + private cache dir, so interning here cannot
    # leak into the process-wide caches other tests share.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    source = description_text("ultrasparc")
    model = load_machine_from_source(source, "persist-probe")
    tables = model.tables
    assert tables.cache_path is not None
    assert tables.cache_path.startswith(str(tmp_path))
    assert tables.persisted_states == tables.states

    # No growth, no write.
    assert persist_learned(model) is False

    # Schedule through the tables so lazily-interned states accumulate,
    # then persist with a threshold of one.
    program = workload(65)
    scheduler = ListScheduler(model, POLICY)
    for block in build_cfg(program.executable):
        for region in split_regions(list(block.body)):
            if region.instructions:
                scheduler.schedule_region(list(region.instructions))
    if tables.states == tables.persisted_states:
        pytest.skip("workload interned no new states beyond the eager prefix")
    assert persist_learned(model, min_growth=1) is True
    assert tables.persisted_states == tables.states
    payload = _read_entry(tables.cache_path)
    assert len(payload["keys"]) == tables.states
    # Steady state: a second persist writes nothing.
    assert persist_learned(model, min_growth=1) is False


def test_persist_learned_skips_models_without_cache_path():
    from repro.pipeline.tables import attach_tables, persist_learned
    from repro.spawn.library import description_text, load_machine_from_source

    model = load_machine_from_source(description_text("ultrasparc"), "no-cache")
    attach_tables(model, use_disk_cache=False)
    assert model.tables.cache_path is None
    assert persist_learned(model, min_growth=0) is False
