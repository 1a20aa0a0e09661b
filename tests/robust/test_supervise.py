"""Supervisor state machine: deadlines, bisection, quarantine, degradation.

Worker functions live at module level so they pickle into real worker
processes — these tests exercise actual crashes (``os._exit``), actual
hangs (sleeps past the deadline), and actual pool teardown, not mocks.
"""

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ParallelError, ReproError
from repro.robust.supervise import (
    ShardSupervisor,
    SupervisionPolicy,
)

POISON = 7


def echo(items):
    return [x * 2 for x in items]


def crash_on_poison(items):
    if POISON in items:
        os._exit(3)
    return list(items)


def hang_on_poison(items):
    if POISON in items:
        time.sleep(600)
    return list(items)


def raise_on_poison(items):
    if POISON in items:
        raise RuntimeError("boom")
    return list(items)


def make_supervisor(fn, *, deadline=30.0, retries=2, workers=2, factory=None):
    if factory is None:
        def factory(queued):
            return ProcessPoolExecutor(max_workers=max(1, min(workers, queued)))
    return ShardSupervisor(
        fn,
        lambda items: list(items),
        factory,
        policy=SupervisionPolicy(shard_deadline_s=deadline, max_retries=retries),
    )


def completed_items(outcome):
    return [items for _key, items, _result in outcome.completed_in_order()]


def test_healthy_run_completes_everything_in_key_order():
    outcome = make_supervisor(echo).run([[1, 2], [3], [4, 5]])
    assert [key for key, _, _ in outcome.completed_in_order()] == [
        (0,),
        (1,),
        (2,),
    ]
    assert [result for _, _, result in outcome.completed_in_order()] == [
        [2, 4],
        [6],
        [8, 10],
    ]
    assert not outcome.failures
    assert not outcome.quarantined
    assert not outcome.degraded
    assert outcome.crashes == outcome.hangs == outcome.retries == 0


def test_empty_shards_are_a_no_op():
    outcome = make_supervisor(echo).run([])
    assert not outcome.completed and not outcome.quarantined
    outcome = make_supervisor(echo).run([[], []])
    assert not outcome.completed and not outcome.quarantined


def test_crash_bisects_until_the_poison_quarantines_alone():
    outcome = make_supervisor(crash_on_poison, retries=1).run(
        [[1, POISON, 2, 3], [4, 5]]
    )
    assert outcome.quarantined == [[POISON]]
    assert outcome.degraded
    assert outcome.crashes >= 1
    assert outcome.retries >= 1
    survivors = sorted(x for items in completed_items(outcome) for x in items)
    assert survivors == [1, 2, 3, 4, 5]
    assert any(f.kind == "crash" for f in outcome.failures)


def test_completed_key_order_preserves_original_item_order():
    # Bisected halves sort as (0,0) < (0,1) < (1,): flattening the
    # completed units must reproduce the original order minus the
    # quarantined poison.
    outcome = make_supervisor(crash_on_poison, retries=0).run(
        [[1, 2, POISON, 3], [4]]
    )
    flattened = [x for items in completed_items(outcome) for x in items]
    assert flattened == [1, 2, 3, 4]
    assert outcome.quarantined == [[POISON]]


def test_hang_deadline_fires_and_the_rest_completes():
    outcome = make_supervisor(hang_on_poison, deadline=1.5, retries=0).run(
        [[POISON], [1], [2]]
    )
    assert outcome.hangs >= 1
    assert outcome.quarantined == [[POISON]]
    survivors = sorted(x for items in completed_items(outcome) for x in items)
    assert survivors == [1, 2]
    assert any(f.kind == "hang" for f in outcome.failures)


def test_worker_exception_retries_then_quarantines():
    outcome = make_supervisor(raise_on_poison, retries=1).run([[POISON]])
    assert outcome.quarantined == [[POISON]]
    assert outcome.crashes == 0 and outcome.hangs == 0
    kinds = {f.kind for f in outcome.failures}
    assert kinds == {"error"}
    assert outcome.retries >= 1
    assert any("RuntimeError" in f.detail for f in outcome.failures)


def test_unpicklable_payload_raises_typed_parallel_error():
    supervisor = ShardSupervisor(
        echo,
        lambda items: (lambda: items),  # a closure cannot be pickled
        lambda queued: ProcessPoolExecutor(max_workers=1),
        policy=SupervisionPolicy(max_retries=0),
    )
    with pytest.raises(ParallelError) as err:
        supervisor.run([[1]])
    assert isinstance(err.value, ReproError)
    assert "pickl" in str(err.value).lower()


def test_pool_factory_failure_quarantines_everything():
    def no_pool(queued):
        raise OSError("no processes for you")

    outcome = make_supervisor(echo, factory=no_pool).run([[1, 2], [3]])
    assert not outcome.completed
    assert sorted(x for items in outcome.quarantined for x in items) == [1, 2, 3]
    assert outcome.degraded
    assert any("no worker pool" in f.detail for f in outcome.failures)


class InlinePool:
    """A deterministic stand-in for a process pool: each unit runs in the
    calling process, and a unit holding the poison "kills the worker" —
    its future fails with ``BrokenProcessPool`` and every later submit
    raises it synchronously, as a real pool does once it is broken.
    ``submit_error`` is raised by the second submit instead."""

    def __init__(self, submit_error=None):
        self.broken = False
        self.submits = 0
        self.submit_error = submit_error

    def submit(self, fn, payload):
        self.submits += 1
        if self.submit_error is not None and self.submits == 2:
            raise self.submit_error
        if self.broken:
            raise BrokenProcessPool("a worker died; the pool is unusable")
        future = Future()
        if POISON in payload:
            self.broken = True
            future.set_exception(BrokenProcessPool("worker process died"))
        else:
            future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_pool_breaking_during_submit_requeues_the_rest_unpenalized():
    # The poison kills its worker before the second unit is submitted,
    # so that submit raises BrokenProcessPool synchronously. Only the
    # poisoned unit is charged; the unsubmitted ones re-run cleanly.
    outcome = make_supervisor(
        echo, retries=1, factory=lambda queued: InlinePool()
    ).run([[POISON, 1], [2, 3], [4]])
    assert outcome.quarantined == [[POISON]]
    assert [(f.kind, f.items, f.attempt) for f in outcome.failures] == [
        ("crash", 2, 1),
        ("crash", 1, 2),
    ]
    assert outcome.crashes == 2
    assert completed_items(outcome) == [[1], [2, 3], [4]]


def test_submit_oserror_quarantines_every_unit_once():
    pools = []

    def factory(queued):
        pools.append(InlinePool(submit_error=OSError("cannot start a worker")))
        return pools[-1]

    outcome = make_supervisor(echo, factory=factory).run([[1, 2], [3], [4]])
    assert not outcome.completed
    assert outcome.quarantined == [[1, 2], [3], [4]]
    assert any("no worker pool" in f.detail for f in outcome.failures)


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisionPolicy(shard_deadline_s=0)
    with pytest.raises(ValueError):
        SupervisionPolicy(max_retries=-1)
