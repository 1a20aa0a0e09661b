"""Exactness of the compiled-input optimizer's scoring.

:class:`~repro.core.optimizer.ImprovedScheduler` scores each order once
per region, issuing its two back-to-back copies through one lean
stream over timings resolved once. The reference here scores every
candidate and every refinement step afresh through
``issue_cycles(..., copies=2)`` and prices the list schedule from the
instructions it produced. Both must compile every SPEC95 stand-in to
the same bytes with the same :class:`OptimizerStats`, on the compiled
tables and on the walker.
"""

import random
import zlib

import pytest

from repro.core import optimizer as optimizer_module
from repro.core.dependence import build_dependence_graph
from repro.core.optimizer import ImprovedScheduler, random_topological_order
from repro.core.priorities import chain_lengths
from repro.eel.editor import Editor
from repro.isa import assemble
from repro.pipeline.simulator import issue_cycles
from repro.spawn import load_machine
from repro.spawn.library import description_text, load_machine_from_source
from repro.workloads.spec95 import all_benchmarks, generate_benchmark
from tests.walker_tables import use_walker

MACHINES = ("ultrasparc", "supersparc", "hypersparc")
TRIPS = 3


class FreshScoring(ImprovedScheduler):
    """The reference: the same search, each order scored afresh."""

    def __init__(self, model, **kwargs):
        super().__init__(model, **kwargs)
        #: per optimized region, the distinct orders it scored.
        self.scored: list[set] = []

    def _cost(self, instructions):
        once, twice = issue_cycles(self.model, instructions, copies=2)
        return twice - once

    def _fresh(self, region, order):
        self.scored[-1].add(tuple(order))
        return self._cost([region[i] for i in order])

    def optimize_region(self, region):
        if len(region) < 2:
            return list(region)
        self.stats.regions += 1
        self.scored.append(set())
        graph = build_dependence_graph(region, self.policy)
        heights = chain_lengths(self.model, graph)
        list_result = self._list.schedule_region(region)
        candidates = [
            list(range(len(region))),
            list_result.order,
            sorted(range(len(region)), key=lambda i: (-heights[i], i)),
        ]
        fingerprint = zlib.crc32(" ".join(i.mnemonic for i in region).encode())
        rng = random.Random(self.seed * 2654435761 + fingerprint)
        for _ in range(self.restarts):
            candidates.append(random_topological_order(graph, rng))
        self.scored[-1].add(tuple(list_result.order))
        best_order = best_cycles = None
        for order in candidates:
            if not graph.is_valid_order(order):
                continue
            cycles = self._fresh(region, order)
            if best_cycles is None or cycles < best_cycles:
                best_order, best_cycles = order, cycles
        order = best_order
        for _ in range(self.refine_steps):
            k = rng.randrange(len(order) - 1)
            a, b = order[k], order[k + 1]
            if b in graph.succs[a]:
                continue
            order[k], order[k + 1] = b, a
            cycles = self._fresh(region, order)
            if cycles <= best_cycles:
                best_cycles = cycles
            else:
                order[k], order[k + 1] = a, b
        if best_cycles < self._cost(list_result.instructions):
            self.stats.improved_over_list += 1
        return [region[i] for i in order]


def _compile(model, program, scheduler=ImprovedScheduler):
    optimizer = scheduler(model, seed=program.spec.seed)
    return Editor(program.executable).build(optimizer).to_bytes(), optimizer


def _program(name, machine):
    return generate_benchmark(name, machine=machine, trip_count=TRIPS)


@pytest.mark.parametrize("machine", MACHINES)
def test_memoized_scores_compile_every_stand_in_like_fresh_scores(machine):
    model = load_machine(machine)
    for name in all_benchmarks():
        program = _program(name, machine)
        want, reference = _compile(model, program, FreshScoring)
        got, optimizer = _compile(model, program)
        assert got == want, (machine, name)
        assert optimizer.stats == reference.stats, (machine, name)


@pytest.mark.parametrize("name", ["130.li", "125.turb3d"])
def test_walker_tables_score_every_order_through_the_counted_fallback(
    name, monkeypatch
):
    """On tables that never answer, each distinct order of a region
    falls back through ``issue_cycles``, which counts one miss and
    answers on the walker; the build and the stats still match."""
    machine = "ultrasparc"
    program = _program(name, machine)
    want, reference = _compile(load_machine(machine), program, FreshScoring)

    walker = use_walker(load_machine_from_source(description_text(machine), machine))
    fallbacks = []

    def counted(model, instructions, copies=1):
        before = model.tables.misses
        result = issue_cycles(model, instructions, copies)
        fallbacks.append(model.tables.misses - before)
        return result

    monkeypatch.setattr(optimizer_module, "issue_cycles", counted)
    got, optimizer = _compile(walker, program)
    assert got == want
    assert optimizer.stats == reference.stats
    assert fallbacks and set(fallbacks) == {1}
    assert len(fallbacks) == sum(len(orders) for orders in reference.scored)


#: A 146.wave5 region (seed 1812209430) where EEL's list schedule is
#: the best candidate and refinement then improves on it in place.
LIST_WINS = """
    ld [%i0 + 1204], %g4
    fsubd %f22, %f10, %f12
    sra %l0, 21, %l0
    fdtos %f14, %f16
    fsubd %f28, %f24, %f12
    fdivd %f16, %f26, %f2
    lddf [%i0 + 1176], %f28
    faddd %f22, %f24, %f24
    lddf [%i0 + 1928], %f16
    subcc %i2, 1, %i2
"""


def test_improvement_is_counted_against_the_list_schedule_as_produced(monkeypatch):
    """Refinement reorders the winning candidate in place, and here
    that candidate is the list schedule's own order: the improvement
    must still count against the schedule the list scheduler made."""
    model = load_machine("ultrasparc")
    region = assemble(LIST_WINS)
    optimizer = ImprovedScheduler(model, seed=1812209430)
    produced = []
    schedule_region = optimizer._list.schedule_region

    def spy(instructions):
        result = schedule_region(instructions)
        produced.append((result, list(result.order)))
        return result

    monkeypatch.setattr(optimizer._list, "schedule_region", spy)
    scheduled = optimizer.optimize_region(region)

    (result, as_produced), = produced
    assert result.order != as_produced  # refined in place: the list won
    assert scheduled == [region[i] for i in result.order]
    reference = FreshScoring(model, seed=1812209430)
    assert scheduled == reference.optimize_region(region)
    assert optimizer.stats == reference.stats
    assert optimizer.stats.improved_over_list == 1
    list_cost = reference._cost([region[i] for i in as_produced])
    assert reference._cost(scheduled) < list_cost
