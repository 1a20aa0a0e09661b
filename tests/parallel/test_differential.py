"""The differential proof: serial == parallel == cached, byte for byte.

Every configuration of (worker count, cache) must produce the same
scheduled executable as the default build — serial, with no cache —
with the same :class:`SchedulerStats` and the same hazard-attribution
bucket totals, on randomized synthetic executables. The matrix covers
the sharded build (its private transport cache), an explicit cold
cache and an explicit shared warm cache. This is the test layer that
makes the parallel executor's determinism claim falsifiable.
"""

import pytest

from repro.core import SchedulingPolicy
from repro.obs import (
    GUARD_BLOCKS_VERIFIED,
    HAZARD_KINDS,
    ISSUES,
    STALL_CYCLES,
    MetricsRecorder,
)
from repro.parallel import ParallelOptions, ScheduleCache, make_transform
from repro.qpt import SlowProfiler
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)
SEEDS = (101, 202, 303)
JOBS = (1, 2, 4)


def workload(seed, kind="int"):
    return generate(
        WorkloadSpec(
            name=f"diff-{kind}-{seed}", seed=seed, kind=kind, avg_block_size=8.0
        )
    )


def build(
    program,
    *,
    jobs=1,
    cache=None,
    guarded=False,
    verify_seed=0,
):
    """One instrumented-and-scheduled build; returns everything the
    differential claim quantifies over."""
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE,
        POLICY,
        recorder,
        options=ParallelOptions(jobs=jobs),
        cache=cache,
        guarded=guarded,
        verify_seed=verify_seed,
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    metrics = recorder.metrics
    buckets = {
        kind: metrics.counter_total(STALL_CYCLES, kind=kind)
        for kind in HAZARD_KINDS
    }
    buckets["issues"] = metrics.counter_total(ISSUES)
    if guarded:
        buckets["guard_verified"] = metrics.counter_total(GUARD_BLOCKS_VERIFIED)
    return (
        bytes(profiled.executable.text_section().data),
        transform.stats,
        buckets,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_jobs_and_cache_modes_are_equivalent(seed):
    program = workload(seed)
    reference = build(program)
    for jobs in JOBS:
        default = build(program, jobs=jobs)
        assert default == reference, f"jobs={jobs} default build diverged"

        cold = build(program, jobs=jobs, cache=ScheduleCache())
        assert cold == reference, f"jobs={jobs} cache=cold diverged"

        shared = ScheduleCache()
        warming = build(program, jobs=jobs, cache=shared)
        assert warming == reference, f"jobs={jobs} warming build diverged"
        warm = build(program, jobs=1, cache=shared)
        assert warm == reference, f"jobs={jobs} cache=warm diverged"
        assert shared.hits > 0, "warm run never hit the cache"


def test_warm_cache_serves_every_region():
    program = workload(11)
    shared = ScheduleCache()
    build(program, jobs=1, cache=shared)
    misses_after_cold = shared.misses
    build(program, jobs=1, cache=shared)
    assert shared.misses == misses_after_cold, "warm run re-scheduled a region"
    assert shared.hit_rate > 0


def test_fp_workload_equivalent_across_modes():
    # FP workloads exercise double-word memory ops, which disable
    # register-renaming canonicalization — the modes must still agree.
    program = workload(42, kind="fp")
    reference = build(program)
    shared = ScheduleCache()
    assert build(program, jobs=4, cache=shared) == reference
    assert build(program, jobs=1, cache=shared) == reference


@pytest.mark.parametrize("verify_seed", (0, 1, 2))
def test_guarded_modes_equivalent_across_verify_seeds(verify_seed):
    program = workload(77)
    reference = build(program, guarded=True, verify_seed=verify_seed)
    for jobs in (1, 4):
        cold = build(program, jobs=jobs, cache=ScheduleCache(), guarded=True,
                     verify_seed=verify_seed)
        assert cold == reference, f"guarded jobs={jobs} cold diverged"
        shared = ScheduleCache()
        build(program, jobs=jobs, cache=shared, guarded=True,
              verify_seed=verify_seed)
        warm = build(program, jobs=1, cache=shared, guarded=True,
                     verify_seed=verify_seed)
        assert warm == reference, f"guarded jobs={jobs} warm diverged"
        assert shared.verified_entries() == len(shared) > 0


def test_guarded_builds_prove_identically_at_every_jobs():
    """A guarded build proves every block with the verification ladder
    in its own process at every ``jobs``: same bytes, same quarantine,
    and the same gate counters — every block climbs the same gates, so
    its verified bit means the same thing at ``--jobs 4`` as at 1."""

    def guarded(jobs):
        recorder = MetricsRecorder()
        transform = make_transform(
            MACHINE,
            POLICY,
            recorder,
            options=ParallelOptions(jobs=jobs),
            guarded=True,
        )
        profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
            transform
        )
        counters = {
            name: dict(series)
            for name, series in recorder.metrics.counters.items()
            if name.startswith(("analyze.", "guard."))
        }
        return (
            bytes(profiled.executable.text_section().data),
            [str(report) for report in profiled.quarantine],
            counters,
        )

    program = workload(77)
    reference = guarded(1)
    counters = reference[2]
    assert counters.get("analyze.static_pass"), counters
    assert "guard.cache_served" not in counters
    for jobs in (2, 4):
        assert guarded(jobs) == reference, f"guarded jobs={jobs} diverged"


def test_parallel_workers_actually_warm_the_cache():
    program = workload(55)
    shared = ScheduleCache()
    transform = make_transform(
        MACHINE,
        POLICY,
        options=ParallelOptions(jobs=4),
        cache=shared,
    )
    SlowProfiler(program.executable).instrument(transform)
    assert transform.warmed_regions > 0, "no region was scheduled in a worker"
    # The serial layout pass ran entirely on hits.
    assert shared.misses == 0
    assert shared.hits >= transform.warmed_regions


# -- the persistent pool joins the matrix ----------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_persistent_pool_joins_the_differential_matrix(seed):
    """The shared spawn-once pool must not perturb a single byte, stat,
    or hazard bucket: a second build leases the pool the first one
    warmed, and both match the serial reference."""
    program = workload(seed)
    reference = build(program)
    for jobs in (2, 4):
        first = build(program, jobs=jobs, cache=ScheduleCache())
        leased_again = build(program, jobs=jobs, cache=ScheduleCache())
        assert first == reference, f"persistent pool jobs={jobs} diverged"
        assert leased_again == reference, f"reused pool jobs={jobs} diverged"


# -- the daemon joins the matrix -------------------------------------------------


def test_daemon_served_bytes_match_serial_build():
    """A served instrument request returns the byte-identical image a
    local serial build produces — HTTP, batching, the shared service
    cache, and the pool in between change nothing."""
    import threading

    from repro.serve import (
        SchedulingService,
        ServeClient,
        ServeDaemon,
        ServiceConfig,
        decode_result_executable,
        encode_job,
    )

    spec = {"name": "diff-serve", "seed": 404, "kind": "int",
            "avg_block_size": 8.0}
    program = generate(WorkloadSpec(**spec))
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE, POLICY, recorder, options=ParallelOptions(jobs=1)
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    serial_image = profiled.executable.to_bytes()

    service = SchedulingService(ServiceConfig(jobs=2))
    server = ServeDaemon(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(server.server_address[1])
        client.wait_ready(timeout=10.0)
        for _ in range(2):  # cold then cache-warm: same bytes both times
            response = client.batch(
                [encode_job("instrument", workload=spec, id="diff")]
            )
            (result,) = response["results"]
            assert result["ok"], result
            assert decode_result_executable(result) == serial_image
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)


def test_cli_stats_json_deterministic_across_jobs(tmp_path, capsys):
    """`qpt instrument --stats --stats-format json` reports identical
    hazard attribution at jobs=1 and jobs=2 — the observability series
    are part of the differential claim, not just the bytes."""
    import json

    from repro.tools.qpt_cli import main

    program = workload(77)
    image = tmp_path / "diff.rxe"
    image.write_bytes(program.executable.to_bytes())
    payloads = {}
    outputs = {}
    for jobs in (1, 2):
        out = tmp_path / f"diff-{jobs}.qpt.rxe"
        assert main([
            "instrument", str(image), "-o", str(out),
            "--machine", "ultrasparc", "--schedule", "--fill-delay-slots",
            "--jobs", str(jobs), "--stats", "--stats-format", "json",
        ]) == 0
        raw = capsys.readouterr().out
        payloads[jobs] = json.loads(raw[raw.index("{"):])
        outputs[jobs] = out.read_bytes()
    assert outputs[1] == outputs[2]
    assert payloads[1]["hazards"] == payloads[2]["hazards"]
