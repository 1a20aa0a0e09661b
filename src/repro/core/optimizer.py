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
topological orders (seeded), and keep whichever issues in the fewest
cycles.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from ..eel.cfg import BasicBlock
from ..isa.instruction import Instruction
from ..pipeline.simulator import issue_cycles
from ..spawn.model import MachineModel
from .dependence import DependenceGraph, SchedulingPolicy, build_dependence_graph
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
    """Random-restart block scheduling: at least as good as the EEL
    list scheduler on every region, by construction."""

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
        graph = build_dependence_graph(region, self.policy)
        heights = chain_lengths(self.model, graph)

        list_result = self._list.schedule_region(region)
        candidates: list[list[int]] = [
            list(range(len(region))),  # original order
            list_result.order,  # EEL's schedule
            sorted(range(len(region)), key=lambda i: (-heights[i], i)),
        ]
        fingerprint = zlib.crc32(" ".join(i.mnemonic for i in region).encode())
        rng = random.Random(self.seed * 2654435761 + fingerprint)
        for _ in range(self.restarts):
            candidates.append(random_topological_order(graph, rng))

        best_order: list[int] | None = None
        best_cycles = None
        for order in candidates:
            if not graph.is_valid_order(order):
                continue
            cycles = self._score([region[i] for i in order])
            if best_cycles is None or cycles < best_cycles:
                best_cycles = cycles
                best_order = order

        best_order, best_cycles = self._refine(region, graph, best_order, best_cycles, rng)
        if best_cycles < self._score(list_result.instructions):
            self.stats.improved_over_list += 1
        return [region[i] for i in best_order]

    def _score(self, instructions: list[Instruction]) -> int:
        """Steady-state cost: the marginal issue cycles of a second
        back-to-back copy of the block. Compilers schedule loop bodies
        for their steady state, not for a cold pipeline — this is what
        lets the generated 'compiled' code beat EEL's isolated-block
        scheduling, reproducing the paper's de-scheduling effect.

        Both copies issue in one stream: the cost of the first copy is
        the stream's cycle after it, exactly what timing it alone
        gives."""
        once, twice = issue_cycles(self.model, instructions, copies=2)
        return twice - once

    def _refine(
        self,
        region: list[Instruction],
        graph: DependenceGraph,
        order: list[int],
        cycles: int,
        rng: random.Random,
    ) -> tuple[list[int], int]:
        """Hill-climb with dependence-respecting adjacent swaps — the
        cheap local-search polish that separates 'compiler quality' from
        a single greedy list pass."""
        n = len(order)
        for _ in range(self.refine_steps):
            k = rng.randrange(n - 1)
            a, b = order[k], order[k + 1]
            if b in graph.succs[a]:
                continue  # would violate a dependence
            order[k], order[k + 1] = b, a
            new_cycles = self._score([region[i] for i in order])
            if new_cycles <= cycles:
                cycles = new_cycles
            else:
                order[k], order[k + 1] = a, b
        return order, cycles
