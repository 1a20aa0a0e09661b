"""Pool workers get the parent recorder's ``telemetry``, not ``enabled``.

A parent recorder that counts and times but attributes no stall
(``MetricsRecorder(telemetry=False)``, serve's default) ships
``telemetry=False`` in every shard payload, and a worker given that
flag builds no recorder of its own: its regions stay on the lean table
path and it sends back no snapshot.
"""

import os

from repro.core import SchedulingPolicy
from repro.eel.editor import Editor
from repro.obs import MetricsRecorder
from repro.parallel import ParallelOptions, executor, make_transform
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

LOG_ENV = "REPRO_TEST_SHARD_LOG"
MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)


def logging_worker(payload):
    """The stock worker, logging the shipped flag and whether a
    snapshot came back (one line per shard, appended by the worker)."""
    results, snapshot = executor._schedule_shard(payload)
    with open(os.path.join(os.environ[LOG_ENV], f"{os.getpid()}.log"), "a") as log:
        log.write(f"{payload[4]} {snapshot is None}\n")
    return results, snapshot


def test_a_parent_without_telemetry_ships_the_flag_and_workers_build_no_recorder(
    tmp_path, monkeypatch
):
    monkeypatch.setenv(LOG_ENV, str(tmp_path))
    program = generate(
        WorkloadSpec(name="wt-flag", seed=27, kind="int", avg_block_size=8.0)
    )
    recorder = MetricsRecorder(telemetry=False)
    transform = make_transform(
        MACHINE, POLICY, recorder, options=ParallelOptions(jobs=2)
    )
    transform.worker_fn = logging_worker
    Editor(program.executable, recorder=recorder).build(transform)
    lines = [
        line
        for path in tmp_path.iterdir()
        for line in path.read_text().splitlines()
    ]
    assert lines, "no shard reached a worker"
    assert set(lines) == {"False True"}


def test_a_worker_given_no_telemetry_builds_no_recorder(monkeypatch):
    built = []
    monkeypatch.setattr(
        executor, "MetricsRecorder", lambda *a, **k: built.append(1) or MetricsRecorder()
    )
    program = generate(
        WorkloadSpec(name="wt-inline", seed=28, kind="int", avg_block_size=8.0)
    )
    text = program.executable.decode_text()
    body = [inst for _address, inst in text if not inst.is_control][:6]
    payload = (*executor._model_spec(MACHINE), POLICY, [body], False)
    results, snapshot = executor._schedule_shard(payload)
    assert len(results) == 1 and snapshot is None and built == []
    _results, snapshot = executor._schedule_shard(payload[:4] + (True,))
    assert snapshot is not None and built == [1]
