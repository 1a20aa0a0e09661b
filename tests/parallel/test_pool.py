"""The persistent worker pool: spawn-once reuse, no pool on one CPU,
and learned-table persistence.

These tests pin the pool's contract rather than its wall clock: leases
hand the supervisor a working executor interface backed by real
processes, a host with one usable CPU builds serially and spawns
nothing (while the chaos harness still gets real workers there), and
the tables a build learns are written back to the disk cache exactly
once.
"""

import os

import pytest

from repro.core import BlockScheduler, SchedulingPolicy
from repro.obs import MetricsRecorder
from repro.parallel import (
    ParallelOptions,
    effective_workers,
    make_transform,
    pool_stats,
    warm_pool,
)
from repro.parallel import executor, pool
from repro.parallel.pool import MANAGER, PoolManager
from repro.qpt import SlowProfiler
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)


def workload(seed=61):
    return generate(
        WorkloadSpec(name=f"pool-{seed}", seed=seed, kind="int", avg_block_size=8.0)
    )


def build(program, *, jobs):
    transform = make_transform(MACHINE, POLICY, options=ParallelOptions(jobs=jobs))
    profiled = SlowProfiler(program.executable).instrument(transform)
    return bytes(profiled.executable.text_section().data)


@pytest.fixture
def one_cpu(monkeypatch):
    """The host offers one usable CPU, whatever ``jobs`` asks for."""
    for module in (executor, pool):
        monkeypatch.setattr(module, "effective_workers", lambda jobs: 1)


# -- eligibility -----------------------------------------------------------------


def test_effective_workers_clamps_to_cpu_count():
    cpus = os.cpu_count() or 1
    assert effective_workers(1) == 1
    assert effective_workers(4) == min(4, cpus)
    assert effective_workers(0) == 1


def test_manager_leases_real_processes():
    # Every lease is a real executor the supervisor can kill.
    manager = PoolManager()
    try:
        lease = manager.acquire(jobs=2, context=None, warm=None)
        assert lease._processes is not None
        assert lease.submit(abs, -3).result(timeout=60) == 3
    finally:
        manager.shutdown()


# -- builds through the pool -----------------------------------------------------


def test_pooled_build_agrees_byte_for_byte():
    program = workload(62)
    assert build(program, jobs=4) == build(program, jobs=1)


def test_one_cpu_host_builds_serially(one_cpu):
    program = workload(63)
    transform = make_transform(MACHINE, POLICY, options=ParallelOptions(jobs=4))
    assert type(transform) is BlockScheduler
    assert transform.cache is None
    before = pool_stats()
    text = build(program, jobs=4)
    assert not warm_pool(MACHINE, jobs=4)
    after = pool_stats()
    assert (after["spawns"], after["reuses"]) == (before["spawns"], before["reuses"])
    assert text == build(program, jobs=1)


def test_one_cpu_host_chaos_still_crashes_a_real_worker(one_cpu, tmp_path):
    from repro.robust import run_chaos_suite

    report = run_chaos_suite(
        MACHINE, only=("crash-worker",), shard_deadline_s=30.0,
        workdir=str(tmp_path),
    )
    (outcome,) = report.outcomes
    assert outcome.injected >= 1, outcome.details
    assert outcome.contained == outcome.injected
    assert outcome.byte_identical


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
