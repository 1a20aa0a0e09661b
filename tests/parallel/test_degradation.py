"""Degradation determinism: a crashed worker must not change the output.

Three builds of the same program — serial, healthy parallel, and
parallel with a worker crash injected mid-run — must produce
byte-identical text sections, identical :class:`SchedulerStats`, and
identical hazard-attribution buckets. The crash-degraded build must
also *report* its degradation (``parallel.degraded_serial`` ≥ 1), so a
quiet fallback can never masquerade as a healthy parallel run.
"""

import pytest

from repro.core import SchedulingPolicy
from repro.obs import (
    HAZARD_KINDS,
    ISSUES,
    PARALLEL_DEGRADED,
    PARALLEL_WORKER_CRASHES,
    STALL_CYCLES,
    MetricsRecorder,
)
from repro.eel.editor import Editor
from repro.parallel import ParallelOptions, make_transform
from repro.robust.chaos import (
    CHAOS_DIR_ENV,
    _first_region_digest,
    chaos_crash_worker,
)
from repro.spawn import load_machine
from repro.workloads.generator import WorkloadSpec, generate

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy(fill_delay_slots=True)


def workload(seed=909):
    return generate(
        WorkloadSpec(name=f"degrade-{seed}", seed=seed, kind="int", avg_block_size=8.0)
    )


def build(program, *, jobs=1, worker_fn=None):
    recorder = MetricsRecorder()
    transform = make_transform(
        MACHINE,
        POLICY,
        recorder,
        options=ParallelOptions(jobs=jobs, shard_deadline_s=30.0),
    )
    if worker_fn is not None:
        transform.worker_fn = worker_fn
    edited = Editor(program.executable, recorder=recorder).build(transform)
    metrics = recorder.metrics
    buckets = {
        kind: metrics.counter_total(STALL_CYCLES, kind=kind)
        for kind in HAZARD_KINDS
    }
    buckets["issues"] = metrics.counter_total(ISSUES)
    text = bytes(edited.text_section().data)
    return text, transform.stats, buckets, metrics


def test_crash_degraded_parallel_is_byte_identical_to_serial(tmp_path, monkeypatch):
    program = workload()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(tmp_path))
    (tmp_path / "poison.digest").write_text(
        _first_region_digest(program.executable)
    )

    serial_text, serial_stats, serial_buckets, _ = build(program, jobs=1)
    healthy_text, healthy_stats, healthy_buckets, _ = build(program, jobs=2)
    degraded_text, degraded_stats, degraded_buckets, metrics = build(
        program, jobs=2, worker_fn=chaos_crash_worker
    )

    assert healthy_text == serial_text
    assert healthy_stats == serial_stats
    assert healthy_buckets == serial_buckets

    # The crash must actually have happened and been reported...
    assert metrics.counter_total(PARALLEL_WORKER_CRASHES) >= 1
    assert metrics.counter_total(PARALLEL_DEGRADED) >= 1
    # ...and changed nothing about the output.
    assert degraded_text == serial_text
    assert degraded_stats == serial_stats
    assert degraded_buckets == serial_buckets


def test_healthy_parallel_run_reports_no_degradation():
    program = workload(910)
    _, _, _, metrics = build(program, jobs=2)
    assert metrics.counter_total(PARALLEL_DEGRADED) == 0
    assert metrics.counter_total(PARALLEL_WORKER_CRASHES) == 0
