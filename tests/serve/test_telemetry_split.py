"""Serve counts and times its builds but attributes no stall.

``SchedulingService``'s default recorder is a ``MetricsRecorder`` with
``telemetry=False``: spans, counters and histograms stay live, while
per-stall attribution and decision telemetry — the work that moves a
build off the compiled stall tables — is skipped. The bytes and
verdicts a request gets back cannot depend on which recorder watched.
"""

import functools

import pytest

from repro.core.block_scheduler import BlockScheduler
from repro.core.list_scheduler import ListScheduler
from repro.core.superblock import SuperblockScheduler
from repro.obs import NULL_RECORDER, MetricsRecorder
from repro.obs.report import (
    CACHE_INSERTS,
    GUARD_BLOCKS_VERIFIED,
    ISSUES,
    PARALLEL_REGIONS,
    SB_LEN,
    SCHED_BLOCKS,
    SCHED_DECISIONS,
    SERVE_BATCHES,
    SERVE_REQUESTS,
    STALL_CYCLES,
)
from repro.parallel import executor
from repro.pipeline import diagnose
from repro.serve import SchedulingService, ServiceConfig, encode_batch, encode_job

SPEC = {"name": "serve-split", "seed": 91, "kind": "int", "avg_block_size": 8.0}

RECORDERS = {
    "null": lambda: NULL_RECORDER,
    "counts": lambda: MetricsRecorder(telemetry=False),
    "telemetry": MetricsRecorder,
}


def jobs_for(jobs: int) -> list[dict]:
    spec = {**SPEC, "name": f"serve-split-{jobs}"}
    return [
        encode_job(kind, workload=spec, id=kind, jobs=jobs)
        for kind in ("instrument", "schedule", "verify")
    ] + [encode_job("instrument", workload=spec, id="sb", jobs=jobs, superblock=True)]


def outcome(service: SchedulingService, jobs: int) -> list[tuple]:
    response = service.handle_batch(encode_batch(jobs_for(jobs)))
    results = response["results"]
    assert all(result["ok"] and not result["memo"] for result in results), results
    return [
        (
            result["id"],
            result["text_digest"],
            result.get("verified"),
            result.get("quarantine"),
            result["stats"]["original_cycles"],
            result["stats"]["scheduled_cycles"],
        )
        for result in results
    ]


#: Counter families that attribution does not feed: every guard, ladder
#: and superblock check runs, and is counted, with or without telemetry.
CHECKS = ("guard.", "analyze.", "superblock.", SCHED_BLOCKS)


def checks_counted(service: SchedulingService) -> dict:
    metrics = service.recorder.metrics
    return {
        name: metrics.counter_total(name)
        for name in metrics.counters
        if name.startswith(CHECKS)
    }


@pytest.mark.parametrize("jobs", (1, 2))
def test_served_bytes_and_verdicts_do_not_depend_on_the_recorder(jobs, monkeypatch):
    # Shard at jobs=2 on any host, so the workers' flag is in play.
    monkeypatch.setattr(executor, "effective_workers", lambda n: max(1, int(n)))
    services = {
        name: SchedulingService(ServiceConfig(jobs=jobs), make())
        for name, make in RECORDERS.items()
    }
    outcomes = {name: outcome(service, jobs) for name, service in services.items()}
    assert outcomes["null"] == outcomes["counts"] == outcomes["telemetry"]
    verify = [row for row in outcomes["null"] if row[0] == "verify"]
    assert verify[0][2] is True
    checks = checks_counted(services["counts"])
    assert checks[GUARD_BLOCKS_VERIFIED] > 0
    assert checks == checks_counted(services["telemetry"])


def _counting(monkeypatch, owner, name: str, calls: list, when=lambda *a, **k: True):
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if when(*args, **kwargs):
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_a_first_seen_build_under_the_serve_default_stays_on_the_tables(monkeypatch):
    service = SchedulingService(ServiceConfig(jobs=1))
    assert service.recorder.enabled and not service.recorder.telemetry
    model = service.model_for("ultrasparc")
    misses0 = model.tables.misses
    attribution: list[str] = []
    restarts: list[str] = []
    _counting(monkeypatch, diagnose, "attribute_stalls", attribution)
    _counting(monkeypatch, BlockScheduler, "_replay_attribution", attribution)
    _counting(monkeypatch, SuperblockScheduler, "_replay_attribution", attribution)
    # The full forward pass from an empty pipeline: only a table miss
    # restarts a region there. Superblock chains thread a live state
    # into it by design and are not counted.
    _counting(
        monkeypatch,
        ListScheduler,
        "_forward_pass",
        restarts,
        when=lambda self, graph, heights, state=None, cycle=0: state is None,
    )
    outcome(service, 1)
    # A repeat of every region, through the shared cache.
    spec = {**SPEC, "name": "serve-split-again"}
    response = service.handle_batch(
        encode_batch([encode_job("verify", workload=spec, jobs=1)])
    )
    assert response["results"][0]["stats"]["cache_hits"] > 0
    assert attribution == []
    assert len(restarts) <= model.tables.misses - misses0


def timed(metrics, name: str) -> int:
    return sum(cell.count for cell in metrics.timers.get(name, {}).values())


def test_the_serve_default_keeps_counts_spans_and_histograms():
    service = SchedulingService(ServiceConfig(jobs=1))
    outcome(service, 1)
    metrics = service.recorder.metrics
    for name in (SERVE_REQUESTS, SERVE_BATCHES, GUARD_BLOCKS_VERIFIED, CACHE_INSERTS):
        assert metrics.counter_total(name) > 0, name
    assert metrics.counter_total(SCHED_BLOCKS) > 0
    for name in ("serve.request", "core.forward_pass", "eel.layout"):
        assert timed(metrics, name), name
    assert metrics.histograms[SB_LEN]
    # What telemetry would have added is absent.
    for name in (ISSUES, STALL_CYCLES, SCHED_DECISIONS):
        assert metrics.counter_total(name) == 0, name
    stats = service.stats()
    assert stats["requests"] == metrics.counter_total(SERVE_REQUESTS)


def test_at_jobs_2_the_serve_default_times_only_the_regions_the_daemon_schedules(
    monkeypatch,
):
    """A worker given no telemetry builds no recorder, so the phase
    timers of the regions it schedules never reach serve's registry;
    a telemetry recorder gets them merged from the workers' snapshots."""
    monkeypatch.setattr(executor, "effective_workers", lambda n: max(1, int(n)))
    seen = {}
    for name in ("counts", "telemetry"):
        service = SchedulingService(ServiceConfig(jobs=2), RECORDERS[name]())
        outcome(service, 2)
        metrics = service.recorder.metrics
        seen[name] = (
            metrics.counter_total(PARALLEL_REGIONS),
            timed(metrics, "core.forward_pass"),
        )
    sharded, daemon_timed = seen["counts"]
    assert sharded > 0 and seen["telemetry"][0] == sharded
    assert daemon_timed + sharded == seen["telemetry"][1]


def test_a_telemetry_recorder_passed_to_serve_attributes_stalls():
    service = SchedulingService(ServiceConfig(jobs=1), MetricsRecorder())
    outcome(service, 1)
    metrics = service.recorder.metrics
    assert metrics.counter_total(ISSUES) > 0
    assert metrics.counter_total(SCHED_DECISIONS) > 0

