"""The HTTP shell: routing, status mapping, shutdown choreography.

The daemon runs *in-thread* here (``ServeDaemon`` + ``serve_forever``
on a worker thread) so these tests cost milliseconds; the subprocess
round trip — spawn ``qpt serve``, parse the ready line, byte-compare
against a serial build — lives in the parallel differential battery
(``tests/parallel/test_differential.py``) and the serve benchmark.
"""

import threading

import pytest

from repro.serve import (
    SchedulingService,
    ServeClient,
    ServeDaemon,
    ServeUnavailable,
    ServiceConfig,
    encode_job,
)

SPEC = {"name": "serve-http", "seed": 81, "kind": "int", "avg_block_size": 8.0}


@pytest.fixture(scope="module")
def live():
    """One in-thread daemon for the module: (service, client)."""
    service = SchedulingService(ServiceConfig(jobs=1, max_batch_jobs=4))
    server = ServeDaemon(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(server.server_address[1])
    client.wait_ready(timeout=10.0)
    yield service, client
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)


def test_healthz_reports_protocol_version(live):
    _, client = live
    assert client.health() == {"ok": True, "version": 1}


def test_batch_round_trip_over_http(live):
    service, client = live
    response = client.batch([encode_job("instrument", workload=SPEC, id="http")])
    (result,) = response["results"]
    assert result["ok"], result
    assert result["id"] == "http"
    assert response["version"] == 1
    assert response["service"]["requests"] == service.requests


def test_stats_endpoint_matches_service(live):
    service, client = live
    stats = client.stats()
    assert stats["requests"] == service.requests
    assert stats["batches"] == service.batches


def test_malformed_request_maps_to_400(live):
    _, client = live
    with pytest.raises(ServeUnavailable, match="400"):
        client._request("POST", "/v1/batch", {"version": 99, "jobs": []})


def test_overload_maps_to_429(live):
    _, client = live
    jobs = [encode_job("instrument", workload=SPEC) for _ in range(5)]
    with pytest.raises(ServeUnavailable, match="429"):
        client.batch(jobs)


def test_unknown_endpoint_maps_to_404(live):
    _, client = live
    with pytest.raises(ServeUnavailable, match="404"):
        client._request("GET", "/nope")


def test_error_detail_reaches_the_client(live):
    _, client = live
    with pytest.raises(ServeUnavailable, match="max_batch_jobs"):
        client.batch([encode_job("instrument", workload=SPEC) for _ in range(5)])


def test_client_reports_unreachable_daemon():
    client = ServeClient(1, timeout=0.2)  # port 1: nothing listens there
    with pytest.raises(ServeUnavailable, match="unreachable"):
        client.health()


def test_shutdown_endpoint_stops_the_server():
    service = SchedulingService(ServiceConfig(jobs=1))
    server = ServeDaemon(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(server.server_address[1])
    client.wait_ready(timeout=10.0)
    assert client.shutdown() == {"ok": True, "stopping": True}
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "serve_forever should return after /shutdown"
    server.server_close()


#: Six workload specs; with instrument, verify and schedule each, the
#: 18 jobs learn well over ``PERSIST_MIN_GROWTH`` table states.
PERSIST_SPECS = [
    {"name": f"serve-persist-{seed}", "seed": seed, "kind": kind, "avg_block_size": 8.0}
    for seed, kind in zip(range(61, 67), ("int", "fp") * 3)
]


def test_a_stopped_daemon_persists_the_table_states_it_learned(tmp_path, monkeypatch):
    """A ``jobs=1`` daemon learns every table state in its own process;
    on ``/shutdown`` it writes them back, so a fresh process starts
    with them."""
    import os
    import subprocess
    import sys

    from repro.parallel.fingerprint import model_digest
    from repro.pipeline.tables import (
        CACHE_DIR_ENV,
        EAGER_STATES,
        _cache_path,
        _stored_states,
    )
    from repro.serve import run_daemon
    from repro.serve import service as service_module
    from repro.spawn.library import description_text, load_machine_from_source

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    # A model of its own, on the private store, not the process-wide one.
    monkeypatch.setattr(
        service_module,
        "load_machine",
        lambda machine: load_machine_from_source(description_text(machine), machine),
    )
    service = SchedulingService(ServiceConfig(jobs=1))
    ready = threading.Event()
    urls = []

    def announce(line):
        urls.append(line.rsplit(":", 1)[1])
        ready.set()

    thread = threading.Thread(
        target=run_daemon, kwargs={"service": service, "announce": announce}, daemon=True
    )
    thread.start()
    assert ready.wait(10.0)
    client = ServeClient(int(urls[0]))
    for spec in PERSIST_SPECS:
        jobs = [encode_job(kind, workload=spec) for kind in ("instrument", "verify", "schedule")]
        assert all(result["ok"] for result in client.batch(jobs)["results"])
    states = client.stats()["tables"]["ultrasparc"]["states"]
    client.shutdown()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    path = _cache_path(model_digest(service.model_for("ultrasparc")))
    assert states > EAGER_STATES
    assert _stored_states(path) == states
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.spawn import load_machine; t = load_machine('ultrasparc').tables; "
            "print(t.states, t.rejected)",
        ],
        env={**os.environ, CACHE_DIR_ENV: str(tmp_path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert fresh.stdout.split() == [str(states), "0"]
