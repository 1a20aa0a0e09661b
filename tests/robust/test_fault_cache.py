"""Fault injection against the schedule cache layer.

A memo of schedule outcomes is a new place for a corrupted model or a
sabotaged scheduler to hide: a stale entry computed under a healthy
model could mask the corruption, and a poisoned entry could smuggle an
unverified permutation past the guard. These tests pin the harness
that proves neither can happen — including at ``--jobs`` above one.
"""

import pytest

from repro.core import ListScheduler, SchedulingPolicy
from repro.core.list_scheduler import ScheduleResult
from repro.core.regions import split_regions
from repro.eel.cfg import build_cfg
from repro.eel.editor import Editor
from repro.isa import assemble
from repro.parallel import ParallelOptions, ScheduleCache, make_transform
from repro.robust import (
    MODEL_FAULTS,
    CorruptedModel,
    default_workload,
    inject_cache_faults,
    run_fault_injection,
)
from repro.spawn import load_machine

MACHINE = load_machine("ultrasparc")
POLICY = SchedulingPolicy()

CACHE_FAULTS = {
    "stale-model-entry",
    "poisoned-unverified-entry",
    "sabotage-never-cached",
}


def _poisoned_cache(executable):
    """A cache holding a reversed, unverified schedule for every region."""
    cache = ScheduleCache()
    context = cache.context_for(MACHINE, POLICY)
    for block in build_cfg(executable):
        for region in split_regions(list(block.body)):
            insts = list(region.instructions)
            if len(insts) < 2:
                continue
            order = list(range(len(insts)))[::-1]
            cache.insert(
                context,
                insts,
                ScheduleResult(
                    instructions=[insts[i] for i in order],
                    order=order,
                    original_cycles=1,
                    scheduled_cycles=0,
                ),
                verified=False,
            )
    return cache


def _guarded_text(executable, jobs, cache=None):
    transform = make_transform(
        MACHINE,
        POLICY,
        options=ParallelOptions(jobs=jobs),
        cache=cache,
        guarded=True,
    )
    return bytes(Editor(executable).build(transform).text_section().data)


@pytest.mark.parametrize("jobs", (1, 2))
def test_every_cache_fault_is_caught(jobs):
    outcomes = inject_cache_faults(MACHINE, default_workload())
    assert {o.fault for o in outcomes} == CACHE_FAULTS
    for outcome in outcomes:
        assert outcome.layer == "cache"
        assert outcome.injected > 0, outcome.fault
        assert outcome.escaped == 0, (outcome.fault, outcome.details)
    # The production guarded transform at this --jobs treats the same
    # poison as misses: its output matches a clean serial build.
    executable = default_workload()
    poisoned = _poisoned_cache(executable)
    assert len(poisoned) > 0
    assert _guarded_text(executable, jobs, poisoned) == _guarded_text(executable, 1)


def test_corrupted_models_cannot_hit_healthy_entries():
    # The structural property behind stale-model-entry: a context
    # digest covers the model, so entries warmed under a healthy model
    # are unreachable from any corrupted one.
    cache = ScheduleCache()
    healthy = cache.context_for(MACHINE, POLICY)
    insts = assemble("add %o0, 1, %o1\nld [%o1 + 8], %o2\nsub %o2, 3, %o3")
    cache.insert(healthy, insts, ListScheduler(MACHINE, POLICY).schedule_region(list(insts)))
    assert cache.lookup(healthy, insts) is not None
    for fault in MODEL_FAULTS:
        corrupted = cache.context_for(CorruptedModel(MACHINE, fault), POLICY)
        assert corrupted != healthy, fault.name
        assert cache.lookup(corrupted, insts) is None, fault.name


def test_full_report_includes_cache_layer_under_parallel_jobs():
    report = run_fault_injection(MACHINE, jobs=2)
    assert report.clean, report.render()
    cache_outcomes = [o for o in report.outcomes if o.layer == "cache"]
    assert {o.fault for o in cache_outcomes} == CACHE_FAULTS
