"""The scheduling service behind ``qpt serve``, driven in-process.

The contract under test: a served job produces *byte-identical* output
to the equivalent local build, the cross-request schedule cache
actually carries work between requests, admission control refuses
before doing any work, and per-job failures come back as ``ok: false``
results instead of poisoning the batch.
"""

import base64
import functools
import json
import random
import sys
import threading
import time

import pytest

from repro.core import SchedulingPolicy
from repro.eel.executable import Executable
from repro.obs.report import SERVE_REQUESTS
from repro.parallel import ParallelOptions, make_transform
from repro.qpt import SlowProfiler
from repro.robust import GuardBudget
from repro.serve import (
    JOB_KINDS,
    AdmissionRefused,
    SchedulingService,
    ServiceConfig,
    decode_result_executable,
    encode_batch,
    encode_job,
)
from repro.serve import service as service_module
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
    other test schedules, so no block comes from the shared cache; the
    jobs=1 build runs on a fresh service, since on this one it would be
    a memo hit of the jobs=2 answer."""
    spec = {**SPEC, "name": "serve-superblock", "seed": 73}
    images = []
    for jobs, server in ((2, service), (1, SchedulingService(ServiceConfig(jobs=2)))):
        response = batch(
            server,
            encode_job(
                "instrument", workload=spec, id=f"sb{jobs}", jobs=jobs, superblock=True
            ),
        )
        (result,) = response["results"]
        assert result["ok"], result
        assert result["memo"] is False
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
    """The second request differs from the first only in
    ``return_executable``: it misses the result memo and builds the
    same regions, which the shared cache then supplies."""
    service = SchedulingService(ServiceConfig(jobs=1))
    spec = {"name": "serve-cache", "seed": 72, "kind": "int", "avg_block_size": 8.0}
    cold = batch(service, encode_job("instrument", workload=spec))
    warm = batch(
        service, encode_job("instrument", workload=spec, return_executable=False)
    )
    assert warm["results"][0]["memo"] is False
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
    assert stats["memo"]["entries"] >= 1
    assert stats["memo"]["hits"] + stats["memo"]["builds"] == stats["requests"]
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
    assert stored["results"]["memo_hits"] == service.memo_hits
    assert "latency_p50_ms" in stored["results"]


def test_results_preserve_request_order(service):
    ids = [f"job-{i}" for i in range(4)]
    response = batch(
        service,
        *(encode_job("instrument", workload=SPEC, id=job_id) for job_id in ids),
    )
    assert [result["id"] for result in response["results"]] == ids


# -- the result memo -------------------------------------------------------------

MEMO_SPECS = (
    {"name": "serve-memo-int", "seed": 81, "kind": "int", "avg_block_size": 8.0},
    {"name": "serve-memo-fp", "seed": 82, "kind": "fp", "avg_block_size": 8.0},
)

#: (kind, payload, superblock, fill_delay_slots): every kind × payload ×
#: superblock, plus filling off for one kind.
MEMO_CASES = [
    (kind, payload, superblock, True)
    for kind in JOB_KINDS
    for payload in ("executable", "workload")
    for superblock in (False, True)
] + [("instrument", "workload", False, False)]


@functools.lru_cache(maxsize=None)
def memo_image(spec_index: int) -> bytes:
    return generate(WorkloadSpec(**MEMO_SPECS[spec_index])).executable.to_bytes()


def memo_job(spec_index: int, kind="instrument", payload="executable", **rest):
    if payload == "executable":
        return encode_job(kind, executable=memo_image(spec_index), **rest)
    return encode_job(kind, workload=MEMO_SPECS[spec_index], **rest)


def answer(service, job) -> dict:
    (result,) = batch(service, job)["results"]
    return result


def comparable(result: dict) -> tuple:
    """What a memo answer must repeat: everything but cache traffic."""
    assert result["ok"], result
    stats = {
        name: value
        for name, value in result["stats"].items()
        if name not in ("cache_hits", "cache_misses")
    }
    return (
        result["text_digest"],
        stats,
        result.get("verified"),
        result.get("quarantine"),
        decode_result_executable(result),
    )


@pytest.fixture(scope="module")
def memo_service():
    return SchedulingService(ServiceConfig(jobs=1))


@pytest.mark.parametrize("spec_index", range(len(MEMO_SPECS)))
@pytest.mark.parametrize("kind,payload,superblock,fill", MEMO_CASES)
def test_memo_answer_equals_a_fresh_build(
    memo_service, spec_index, kind, payload, superblock, fill
):
    def job(job_id):
        return memo_job(
            spec_index,
            kind,
            payload,
            id=job_id,
            superblock=superblock,
            fill_delay_slots=fill,
        )

    built = answer(memo_service, job("first"))
    repeat = answer(memo_service, job("second"))
    fresh = answer(SchedulingService(ServiceConfig(jobs=1)), job("fresh"))
    assert built["memo"] is False and fresh["memo"] is False
    assert repeat["memo"] is True
    assert repeat["id"] == "second"
    assert repeat["stats"]["cache_hits"] == repeat["stats"]["cache_misses"] == 0
    assert comparable(repeat) == comparable(built) == comparable(fresh)


def test_memo_key_covers_the_whole_request():
    service = SchedulingService(ServiceConfig(jobs=1))
    image = memo_image(0)
    data = next(s for s in Executable.from_bytes(image).sections if s.name == ".data")
    flipped = bytearray(image)
    flipped[image.index(data.data)] ^= 0x01
    assert answer(service, memo_job(0, id="base"))["memo"] is False
    misses = {
        "kind": memo_job(0, "schedule"),
        "machine": memo_job(0, machine="supersparc"),
        "filling": memo_job(0, fill_delay_slots=False),
        "safe": memo_job(0, safe=True),
        "superblock": memo_job(0, superblock=True),
        "return_executable": memo_job(0, return_executable=False),
        "payload byte": encode_job("instrument", executable=bytes(flipped)),
    }
    for field, job in misses.items():
        result = answer(service, job)
        assert result["ok"], (field, result)
        assert result["memo"] is False, field
    for field, job in {
        "id": memo_job(0, id="other"),
        "jobs": memo_job(0, id="wide", jobs=2),
    }.items():
        result = answer(service, job)
        assert result["memo"] is True, field
        assert result["id"] == job["id"]


def test_guarded_request_is_never_answered_by_an_unguarded_build():
    service = SchedulingService(ServiceConfig(jobs=1))
    plain = answer(service, memo_job(1, id="plain"))
    guarded = answer(service, memo_job(1, id="guarded", safe=True))
    assert plain["memo"] is False and "quarantined" not in plain["stats"]
    assert guarded["memo"] is False
    assert guarded["stats"]["quarantined"] == 0
    assert answer(service, memo_job(1, safe=True))["memo"] is True


def test_failed_jobs_are_not_stored():
    service = SchedulingService(ServiceConfig(jobs=1))
    for _ in range(2):
        result = answer(service, encode_job("instrument", workload={"nonsense": True}))
        assert result["ok"] is False
        assert "workload" in result["error"]
    assert service.errors == 2
    assert service.stats()["memo"]["entries"] == 0


def test_quarantined_results_are_rebuilt():
    service = SchedulingService(
        ServiceConfig(jobs=1, guard_budget=GuardBudget(max_block_instructions=1))
    )
    for _ in range(2):
        result = answer(service, memo_job(0, safe=True))
        assert result["stats"]["quarantined"] > 0
        assert result["memo"] is False
    assert service.builds == 2
    assert service.stats()["memo"] == {"entries": 0, "hits": 0, "builds": 2}


def test_memo_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(service_module, "RESULT_MEMO_ENTRIES", 2)
    service = SchedulingService(ServiceConfig(jobs=1))
    a, b, c = (memo_job(0, kind) for kind in JOB_KINDS)
    answer(service, a)
    answer(service, b)
    assert answer(service, a)["memo"] is True  # b is now the oldest
    answer(service, c)
    assert service.stats()["memo"]["entries"] == 2
    assert answer(service, a)["memo"] is True
    assert answer(service, b)["memo"] is False


def _in_thread(target, timeout: float = 60.0):
    """Run ``target`` on a thread; return its value, or fail the test if
    it does not finish (a hit that waits on the build lock hangs)."""
    box = []
    thread = threading.Thread(target=lambda: box.append(target()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert box, "the call did not return"
    return box[0]


def test_equal_requests_arriving_together_build_once():
    service = SchedulingService(ServiceConfig(jobs=1))
    service.model_for("ultrasparc")
    results = []
    with service._build_lock:
        threads = [
            threading.Thread(
                target=lambda: results.append(answer(service, memo_job(0)))
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        while service._pending < 2:  # both missed and wait on the lock
            assert time.monotonic() < deadline, "the requests never queued"
            time.sleep(0.01)
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert sorted(result["memo"] for result in results) == [False, True]
    assert service.builds == 1 and service.memo_hits == 1


def test_hit_is_answered_while_a_build_holds_the_lock():
    service = SchedulingService(ServiceConfig(jobs=1))
    answer(service, memo_job(0))
    with service._build_lock:
        result = _in_thread(lambda: answer(service, memo_job(0, id="meanwhile")))
    assert result["memo"] is True and result["id"] == "meanwhile"


def test_hits_take_no_pending_slot():
    service = SchedulingService(ServiceConfig(jobs=1, max_pending=1))
    answer(service, memo_job(0))
    service._pending = 1  # a batch is already waiting on the build lock
    response = batch(service, memo_job(0), memo_job(0, id="twice"))
    assert [result["memo"] for result in response["results"]] == [True, True]
    with pytest.raises(AdmissionRefused, match="max_pending=1"):
        batch(service, memo_job(0), memo_job(1))
    assert service.rejected == 2


def test_latency_percentiles_equal_a_fresh_sort_of_the_ring():
    service = SchedulingService(ServiceConfig(jobs=1))
    rng = random.Random(5)
    # Few distinct values, so the ring holds many repeats.
    values = [
        rng.choice((0.5, 1.25, 3.0, 7.5, 40.0)) * rng.randint(1, 4)
        for _ in range(3 * service_module.LATENCY_RING + 17)
    ]
    with service._state_lock:
        for value in values:
            service._record_latency(value)
    ring = sorted(service._latencies_ms)
    assert len(ring) == service_module.LATENCY_RING
    assert service._latencies_sorted == ring
    stats = service.stats()["latency_ms"]
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert stats[name] == round(service_module._percentile(ring, q), 3)
    assert stats["max"] == round(ring[-1], 3)


def test_concurrent_hits_beside_a_build_keep_every_count():
    """More threads than cores, switching often: a count lost to a
    read-modify-write race breaks the equalities below."""
    service = SchedulingService(ServiceConfig(jobs=1))
    answer(service, memo_job(0))
    threads_n, per_thread = 4, 25
    answered = []

    def hits():
        for _ in range(per_thread):
            answered.append(answer(service, memo_job(0))["memo"])

    def build():
        answered.append(answer(service, memo_job(1, "verify"))["memo"])

    threads = [threading.Thread(target=build)] + [
        threading.Thread(target=hits) for _ in range(threads_n)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(answered) == threads_n * per_thread + 1
    total = len(answered) + 1  # the priming build
    counted = service.recorder.metrics.counter_total(SERVE_REQUESTS)
    assert counted == service.requests == total
    assert service.memo_hits + service.builds == total
    assert service.builds == 2
