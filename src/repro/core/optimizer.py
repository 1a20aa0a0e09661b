"""A stronger-than-EEL block scheduler, used two ways.

The paper attributes the weak Table 1 SPECFP numbers to EEL's scheduler
being "quite simple … it does not perform as well as the optimizers in
the SUN C and Fortran compilers that compiled the benchmarks". To
reproduce that effect we need a stand-in for those compilers: a
scheduler that usually finds schedules at least as good as — and often
better than — EEL's greedy pass. The workload generator runs it over
synthetic programs to produce "highly optimized" input code; EEL's
single-heuristic rescheduling of such code can then lose cycles, exactly
the de-scheduling the paper measures.

It is also the "more accurate and aggressive instrumentation scheduler"
the conclusion floats as future work, so an ablation bench compares it
against the paper's scheduler directly.

The search is simple and deterministic: take EEL's schedule, a
chain-height-first variant, the original order, and ``restarts`` random
topological orders (seeded), keep whichever issues in the fewest
cycles, then polish it by hill-climbing over adjacent swaps that
respect the dependences.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable
from dataclasses import dataclass

from ..eel.cfg import BasicBlock
from ..isa.instruction import Instruction
from ..pipeline.simulator import issue_cycles
from ..pipeline.tables import LeanPipeline, TableMiss
from ..spawn.model import MachineModel
from .dependence import DependenceGraph, SchedulingPolicy
from .list_scheduler import ListScheduler
from .priorities import chain_lengths
from .regions import join_regions, split_regions


def random_topological_order(graph: DependenceGraph, rng: random.Random) -> list[int]:
    remaining = [len(graph.preds[i]) for i in range(graph.size)]
    ready = [i for i in range(graph.size) if remaining[i] == 0]
    order = []
    while ready:
        node = ready.pop(rng.randrange(len(ready)))
        order.append(node)
        for succ in graph.succs[node]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                ready.append(succ)
    return order


@dataclass
class OptimizerStats:
    regions: int = 0
    improved_over_list: int = 0


class ImprovedScheduler:
    """Random-restart block scheduling with hill-climbing refinement:
    at least as good as the EEL list scheduler on every region, by
    construction.

    Per region it scores the original order, EEL's list schedule, a
    chain-height-first order and ``restarts`` seeded random topological
    orders, then walks ``refine_steps`` random adjacent swaps from the
    best of them, keeping every swap that respects the dependences and
    scores no worse. The score is the steady-state cost of the order
    (see :meth:`_scorer`); ``stats`` counts the regions optimized and
    those where the result beats the list schedule."""

    def __init__(
        self,
        model: MachineModel,
        *,
        restarts: int = 12,
        refine_steps: int = 150,
        seed: int = 0,
        policy: SchedulingPolicy | None = None,
    ) -> None:
        self.model = model
        self.restarts = restarts
        self.refine_steps = refine_steps
        self.seed = seed
        self.policy = policy or SchedulingPolicy()
        self._list = ListScheduler(model, self.policy)
        self.stats = OptimizerStats()

    # Editor transform protocol (body-only: delay slots untouched).
    def __call__(self, block: BasicBlock, body: list[Instruction]) -> list[Instruction]:
        return self.optimize_body(body)

    def optimize_body(self, body: list[Instruction]) -> list[Instruction]:
        regions = split_regions(body)
        bodies = [
            self.optimize_region(list(region.instructions))
            for region in regions
        ]
        return join_regions(regions, bodies)

    def optimize_region(self, region: list[Instruction]) -> list[Instruction]:
        if len(region) < 2:
            return list(region)
        self.stats.regions += 1
        list_result = self._list.schedule_region(region)
        graph = list_result.graph  # the region's, under this policy
        heights = chain_lengths(self.model, graph)

        candidates: list[list[int]] = [
            list(range(len(region))),  # original order
            list_result.order,  # EEL's schedule
            sorted(range(len(region)), key=lambda i: (-heights[i], i)),
        ]
        fingerprint = zlib.crc32(" ".join(i.mnemonic for i in region).encode())
        rng = random.Random(self.seed * 2654435761 + fingerprint)
        for _ in range(self.restarts):
            candidates.append(random_topological_order(graph, rng))

        # Score the list schedule as produced: refinement reorders the
        # winning candidate in place, and that can be this very list.
        score = self._scorer(region)
        list_cycles = score(list_result.order)
        best_order: list[int] | None = None
        best_cycles = None
        for order in candidates:
            if not graph.is_valid_order(order):
                continue
            cycles = score(order)
            if best_cycles is None or cycles < best_cycles:
                best_cycles = cycles
                best_order = order

        best_order, best_cycles = self._refine(
            graph, best_order, best_cycles, rng, score
        )
        if best_cycles < list_cycles:
            self.stats.improved_over_list += 1
        return [region[i] for i in best_order]

    def _scorer(self, region: list[Instruction]) -> Callable[[list[int]], int]:
        """The region's score of an order: the steady-state cost of
        issuing ``[region[i] for i in order]``, the marginal issue
        cycles of a second back-to-back copy. Compilers schedule loop
        bodies for their steady state, not for a cold pipeline — this
        is what lets the generated 'compiled' code beat EEL's
        isolated-block scheduling, reproducing the paper's
        de-scheduling effect.

        Both copies issue in one lean stream over the region's timings,
        resolved once. Each order is scored once per region (the
        candidates and the refinement walk revisit orders); an order
        the tables cannot carry is redone through :func:`issue_cycles`,
        which answers on the walker and counts the miss."""
        model = self.model
        tables = model.tables
        timings = [model.timing(inst) for inst in region]
        memo: dict[tuple[int, ...], int] = {}

        def score(order: list[int]) -> int:
            key = tuple(order)
            cycles = memo.get(key)
            if cycles is None:
                stream = [timings[i] for i in order]
                try:
                    lean = LeanPipeline(tables)
                    once = lean.issue(0, stream)
                    cycles = lean.issue(once, stream) - once
                except TableMiss:
                    once, twice = issue_cycles(
                        model, [region[i] for i in order], copies=2
                    )
                    cycles = twice - once
                memo[key] = cycles
            return cycles

        return score

    def _refine(
        self,
        graph: DependenceGraph,
        order: list[int],
        cycles: int,
        rng: random.Random,
        score: Callable[[list[int]], int],
    ) -> tuple[list[int], int]:
        """Hill-climb with dependence-respecting adjacent swaps — the
        cheap local-search polish that separates 'compiler quality' from
        a single greedy list pass. A swap that scores no worse is kept,
        so the walk crosses plateaus."""
        n = len(order)
        for _ in range(self.refine_steps):
            k = rng.randrange(n - 1)
            a, b = order[k], order[k + 1]
            if b in graph.succs[a]:
                continue  # would violate a dependence
            order[k], order[k + 1] = b, a
            new_cycles = score(order)
            if new_cycles <= cycles:
                cycles = new_cycles
            else:
                order[k], order[k + 1] = a, b
        return order, cycles
