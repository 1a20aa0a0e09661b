"""The scheduling service behind ``qpt serve``, driven in-process.

The contract under test: a served job produces *byte-identical* output
to the equivalent local build, the cross-request schedule cache
actually carries work between requests, admission control refuses
before doing any work, and per-job failures come back as ``ok: false``
results instead of poisoning the batch.
"""

import base64
import json

import pytest

from repro.core import SchedulingPolicy
from repro.parallel import ParallelOptions, make_transform
from repro.qpt import SlowProfiler
from repro.serve import (
    AdmissionRefused,
    SchedulingService,
    ServiceConfig,
    decode_result_executable,
    encode_batch,
    encode_job,
)
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

SPEC = {"name": "serve-unit", "seed": 71, "kind": "int", "avg_block_size": 8.0}


@pytest.fixture(scope="module")
def service():
    # One service for the module: model building and table attachment
    # dominate setup, and sharing them is exactly the daemon's design.
    return SchedulingService(ServiceConfig(jobs=2))


def batch(service, *jobs):
    return service.handle_batch(encode_batch(list(jobs)))


def local_build(spec: dict, *, fill_delay_slots: bool = True) -> bytes:
    """The one-shot equivalent: fresh transform, serial, no shared cache."""
    model = load_machine("ultrasparc")
    transform = make_transform(
        model,
        SchedulingPolicy(fill_delay_slots=fill_delay_slots),
        options=ParallelOptions(jobs=1),
    )
    program = generate(WorkloadSpec(**spec))
    profiled = SlowProfiler(program.executable).instrument(transform)
    return profiled.executable.to_bytes()


# -- the three job kinds ---------------------------------------------------------


def test_instrument_job_matches_local_build(service):
    response = batch(
        service, encode_job("instrument", workload=SPEC, id="unit", jobs=1)
    )
    (result,) = response["results"]
    assert result["ok"], result
    assert result["id"] == "unit"
    assert result["kind"] == "instrument"
    assert result["machine"] == "ultrasparc"
    assert result["text_digest"].startswith("sha256:")
    assert result["stats"]["blocks"] > 0
    assert result["stats"]["scheduled_cycles"] <= result["stats"]["original_cycles"]
    assert decode_result_executable(result) == local_build(SPEC)


def test_superblock_job_at_two_jobs_succeeds(service):
    """A served superblock build at jobs=2 ships blocks the superblock
    pass already timed to the workers; it must succeed and match the
    same job at jobs=1. The jobs=2 build runs first, on a workload no
    other test schedules, so no block comes from the shared cache."""
    spec = {**SPEC, "name": "serve-superblock", "seed": 73}
    images = []
    for jobs in (2, 1):
        response = batch(
            service,
            encode_job(
                "instrument", workload=spec, id=f"sb{jobs}", jobs=jobs, superblock=True
            ),
        )
        (result,) = response["results"]
        assert result["ok"], result
        images.append(decode_result_executable(result))
    assert images[0] == images[1]


def test_executable_payload_equals_workload_payload(service):
    image = generate(WorkloadSpec(**SPEC)).executable.to_bytes()
    by_image = batch(service, encode_job("instrument", executable=image))
    by_spec = batch(service, encode_job("instrument", workload=SPEC))
    assert decode_result_executable(by_image["results"][0]) == (
        decode_result_executable(by_spec["results"][0])
    )


def test_schedule_job_omits_instrumentation(service):
    response = batch(
        service,
        encode_job("schedule", workload=SPEC, id="bare"),
        encode_job("instrument", workload=SPEC, id="qpt"),
    )
    bare, qpt = response["results"]
    assert bare["ok"] and qpt["ok"]
    # Scheduling alone must not equal the instrumented image: the
    # instrumented one carries profiling counters.
    assert bare["text_digest"] != qpt["text_digest"]


def test_verify_job_reports_verification(service):
    response = batch(service, encode_job("verify", workload=SPEC))
    (result,) = response["results"]
    assert result["ok"], result
    assert result["verified"] is True
    assert result["quarantine"] == []
    assert result["stats"]["quarantined"] == 0


def test_verify_job_reports_the_same_at_every_jobs():
    """A verify job proves every block in the daemon's own process, so a
    two-worker service reports what a serial one does — verdict, stats
    (cache traffic included) and bytes."""
    spec = {**SPEC, "name": "serve-verify-jobs", "seed": 79}
    reports = []
    for jobs in (1, 2):
        fresh = SchedulingService(ServiceConfig(jobs=jobs))
        (result,) = batch(fresh, encode_job("verify", workload=spec))["results"]
        assert result["ok"], result
        reports.append(
            (
                result["verified"],
                result["quarantine"],
                result["stats"],
                result["text_digest"],
            )
        )
    assert reports[0] == reports[1]
    assert reports[0][0] is True


def test_return_executable_false_drops_the_image(service):
    response = batch(
        service, encode_job("instrument", workload=SPEC, return_executable=False)
    )
    (result,) = response["results"]
    assert result["ok"]
    assert "executable" not in result
    assert result["text_digest"].startswith("sha256:")


# -- the cross-request cache tier ------------------------------------------------


def test_repeat_requests_hit_the_shared_cache():
    service = SchedulingService(ServiceConfig(jobs=1))
    spec = {"name": "serve-cache", "seed": 72, "kind": "int", "avg_block_size": 8.0}
    cold = batch(service, encode_job("instrument", workload=spec))
    warm = batch(service, encode_job("instrument", workload=spec))
    cold_stats = cold["results"][0]["stats"]
    warm_stats = warm["results"][0]["stats"]
    assert cold_stats["cache_misses"] > 0
    assert warm_stats["cache_misses"] == 0
    assert warm_stats["cache_hits"] >= cold_stats["cache_misses"]
    # Same bytes either way — the cache replays schedules, not guesses.
    assert cold["results"][0]["text_digest"] == warm["results"][0]["text_digest"]


def test_policies_get_separate_caches(service):
    batch(service, encode_job("instrument", workload=SPEC, fill_delay_slots=False))
    stats = service.stats()
    assert "ultrasparc/delay" in stats["caches"]
    assert "ultrasparc/nodelay" in stats["caches"]


# -- admission control -----------------------------------------------------------


def test_oversized_batch_is_refused_before_any_work():
    service = SchedulingService(ServiceConfig(jobs=1, max_batch_jobs=2))
    jobs = [encode_job("instrument", workload=SPEC) for _ in range(3)]
    with pytest.raises(AdmissionRefused, match="max_batch_jobs=2"):
        service.handle_batch(encode_batch(jobs))
    assert service.rejected == 3
    assert service.requests == 0  # refused batches never reach a build


def test_full_queue_is_refused():
    service = SchedulingService(ServiceConfig(jobs=1, max_pending=1))
    service._pending = 1  # a batch is already waiting on the build lock
    with pytest.raises(AdmissionRefused, match="max_pending=1"):
        service.handle_batch(encode_batch([encode_job("instrument", workload=SPEC)]))
    assert service.rejected == 1


# -- failure isolation -----------------------------------------------------------


def test_bad_job_fails_alone_and_batch_survives(service):
    response = batch(
        service,
        encode_job("instrument", workload={"nonsense": True}, id="bad"),
        encode_job("instrument", workload=SPEC, id="good"),
    )
    bad, good = response["results"]
    assert bad["ok"] is False
    assert "workload" in bad["error"]
    assert good["ok"] is True
    assert service.errors >= 1


def test_config_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        ServiceConfig(jobs=0)
    with pytest.raises(ValueError):
        ServiceConfig(max_batch_jobs=0)
    with pytest.raises(ValueError):
        ServiceConfig(max_pending=0)


# -- observability ---------------------------------------------------------------


def test_stats_shape_and_counters(service):
    batch(service, encode_job("instrument", workload=SPEC))
    stats = service.stats()
    assert stats["requests"] >= 1
    assert stats["batches"] >= 1
    assert stats["throughput_rps"] > 0
    assert stats["latency_ms"]["p50"] <= stats["latency_ms"]["p99"]
    assert stats["latency_ms"]["max"] >= stats["latency_ms"]["p99"]
    assert "pool" in stats
    assert json.dumps(stats)  # the /stats endpoint must serialize


def test_flush_ledger_appends_a_serve_record(service, tmp_path):
    ledger = tmp_path / "ledger.jsonl"
    record = service.flush_ledger(str(ledger))
    assert record["kind"] == "serve"
    lines = ledger.read_text().splitlines()
    assert len(lines) == 1
    stored = json.loads(lines[0])
    assert stored["kind"] == "serve"
    assert stored["results"]["requests"] == service.requests
    assert "latency_p50_ms" in stored["results"]


def test_results_preserve_request_order(service):
    ids = [f"job-{i}" for i in range(4)]
    response = batch(
        service,
        *(encode_job("instrument", workload=SPEC, id=job_id) for job_id in ids),
    )
    assert [result["id"] for result in response["results"]] == ids
