"""The two-pass local list scheduler — the paper's core algorithm (§4).

Forward pass: "The instruction with the highest priority of any
instruction that can be legally scheduled at this point is put next in
the schedule. An instruction's priority is determined primarily by how
few stalls it requires before it can start execution (as computed by
``pipeline_stalls``). If two instructions require the same number of
stalls, the instruction farthest from the end of the block, using the
metric computed in the first pass, is scheduled first. If two
instructions still have the same priority, the instruction listed
earlier in the original code sequence is chosen under the assumption
that the instructions were previously scheduled."
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..isa.instruction import Instruction
from ..obs.provenance import Candidate, Placement, ProvenanceLog
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    SCHED_CHOSEN_STALLS,
    SCHED_DECISIONS,
    SCHED_READY_SET,
    SCHED_TIE_BREAK,
)
from ..pipeline.diagnose import explain_stall
from ..pipeline.simulator import issue_cycles
from ..pipeline.stalls import issue, stall_query
from ..pipeline.state import PipelineState
from ..pipeline.tables import LeanPipeline, TableMiss
from ..spawn.model import MachineModel
from .dependence import DependenceGraph, SchedulingPolicy, build_dependence_graph
from .priorities import chain_lengths

#: The meaning of each priority-key component, per policy — used to name
#: which component decided a forward-pass pick (the tie-break telemetry).
_KEY_COMPONENTS = {
    "stalls_chain": ("stalls", "chain", "program_order"),
    "chain_stalls": ("chain", "stalls", "program_order"),
    "program_order": ("program_order", "stalls"),
}


@dataclass
class ScheduleResult:
    """A scheduled region plus its accounting."""

    instructions: list[Instruction]
    order: list[int]
    #: issue-cycle cost of the region before and after scheduling.
    original_cycles: int
    scheduled_cycles: int
    graph: DependenceGraph = field(repr=False, default=None)
    #: the running pipeline cycle after the forward pass when an entry
    #: state was threaded in (superblock scheduling); None otherwise.
    exit_cycle: int | None = field(default=None, compare=False)

    @property
    def cycles_saved(self) -> int:
        return self.original_cycles - self.scheduled_cycles


class ListScheduler:
    """EEL's local instruction scheduler for one machine model."""

    def __init__(
        self,
        model: MachineModel,
        policy: SchedulingPolicy | None = None,
        recorder: Recorder | None = None,
        *,
        provenance: ProvenanceLog | None = None,
    ) -> None:
        self.model = model
        self.policy = policy or SchedulingPolicy()
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: optional decision-provenance sink
        #: (:class:`repro.obs.provenance.ProvenanceLog`): when set, every
        #: forward-pass pick records the cycle chosen, the candidates
        #: rejected, and the hazard pricing each rejection. Costs one
        #: hazard diagnosis per rejected candidate; schedules are
        #: byte-identical either way.
        self.provenance = provenance

    # -- public API -------------------------------------------------------------

    def schedule_region(
        self,
        region: list[Instruction],
        *,
        entry_state: PipelineState | None = None,
        entry_cycle: int = 0,
    ) -> ScheduleResult:
        """Schedule one straight-line region (no control transfers).

        ``entry_state``/``entry_cycle`` thread a live pipeline state into
        the forward pass, so the priority function sees latencies still
        draining from code issued *before* this region — how the
        superblock scheduler carries state across fall-through block
        boundaries (:mod:`repro.core.superblock`). The state is mutated
        in place (each chosen instruction is committed to it); the
        result's ``exit_cycle`` is the running cycle afterwards. With
        the defaults the behavior is exactly the paper's local pass.
        """
        for inst in region:
            if inst.is_control:
                raise ValueError(
                    f"region contains control transfer {inst.mnemonic!r}; "
                    "split regions first (see repro.core.regions)"
                )
        rec = self.recorder
        if self.provenance is not None:
            self.provenance.begin_region()
        with rec.span("core.dependence_graph"):
            graph = build_dependence_graph(region, self.policy)
        with rec.span("core.backward_pass"):
            heights = chain_lengths(self.model, graph)
        with rec.span("core.forward_pass"):
            order = exit_cycle = None
            if entry_state is None and not rec.telemetry and self.provenance is None:
                # Table-only fast path: no telemetry or provenance to
                # feed and no threaded state, so the pass needs neither
                # the occupancy timeline nor interval commits. Any
                # query the tables cannot serve restarts the region on
                # the full machinery below.
                try:
                    order, exit_cycle = self._forward_pass_lean(graph, heights)
                except TableMiss:
                    self.model.tables.misses += 1
                    order = None
            if order is None:
                order, exit_cycle = self._forward_pass(
                    graph, heights, state=entry_state, cycle=entry_cycle
                )
        scheduled = [region[i] for i in order]
        if entry_state is None:
            # From an empty pipeline the forward pass *is* the
            # sequential issue walk over `scheduled`, so its final
            # cycle already prices the schedule.
            scheduled_cycles = exit_cycle + 1 if region else 0
        else:
            scheduled_cycles = issue_cycles(self.model, scheduled)[0]
        return ScheduleResult(
            instructions=scheduled,
            order=order,
            original_cycles=issue_cycles(self.model, region)[0],
            scheduled_cycles=scheduled_cycles,
            graph=graph,
            exit_cycle=exit_cycle if entry_state is not None else None,
        )

    # -- passes -----------------------------------------------------------------

    def _forward_pass_lean(
        self, graph: DependenceGraph, heights: list[int]
    ) -> tuple[list[int], int]:
        """The forward pass on a :class:`LeanPipeline` — identical
        picks and cycles to :meth:`_forward_pass` from an empty entry
        state, computed entirely from the compiled tables. Raises
        :class:`TableMiss` when the tables cannot carry the region.

        The pick is a minimum over the candidate keys, so unlike the
        generic pass (which must price every candidate for its
        telemetry and provenance sinks) this pass scans the ready set
        in sorted secondary order and stops at the first candidate no
        later candidate can beat — under ``stalls_chain`` and
        ``chain_stalls`` a zero-stall candidate met in ``(-height,
        node)`` order, under ``program_order`` simply the lowest-index
        candidate."""
        n = graph.size
        remaining_preds = [len(graph.preds[i]) for i in range(n)]
        order: list[int] = []
        model = self.model
        timings = [model.timing(node) for node in graph.nodes]
        lean = LeanPipeline(model.tables)
        priority = self.policy.priority
        program_order = priority == "program_order"
        chain_first = priority == "chain_stalls"
        if program_order:
            scan_key = [(i,) for i in range(n)]
        else:
            scan_key = [(-heights[i], i) for i in range(n)]
        ready = sorted(scan_key[i] for i in range(n) if remaining_preds[i] == 0)
        # Issuing an instruction only ever adds constraints (occupancy
        # grows, register history tightens — WAW enforcement keeps
        # write availability monotone), so a candidate's answered issue
        # cycle is a lower bound on every later answer. A candidate
        # whose bound cannot beat the scan's current best is skipped
        # without a query: it loses on stalls, or ties and then loses
        # the (-height, node) tie-break to the earlier-scanned best.
        floor = [0] * n
        cycle = 0

        while ready:
            best = None
            best_key = None
            best_hit = None
            for entry in ready:
                node = entry[-1]
                if (
                    chain_first
                    and best_key is not None
                    and entry[0] > best_key[0]
                ):
                    break  # a worse chain height can no longer win
                if best_hit is not None and floor[node] >= best_hit[0]:
                    continue
                hit = lean.query(cycle, timings[node])
                floor[node] = hit[0]
                stalls = hit[0] - cycle
                if chain_first:
                    key = (-heights[node], stalls, node)
                elif program_order:
                    key = (node, stalls)
                else:
                    key = (stalls, -heights[node], node)
                if best_key is None or key < best_key:
                    best_key = key
                    best = node
                    best_hit = hit
                if program_order or stalls == 0:
                    # program_order: the lowest index always wins.
                    # Otherwise: zero stalls is unbeatable, and every
                    # later candidate loses the (-height, node)
                    # tie-break by scan order.
                    break
            cycle = best_hit[0]
            lean.commit(timings[best], cycle, best_hit[1])
            order.append(best)
            ready.remove(scan_key[best])
            for succ in graph.succs[best]:
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    insort(ready, scan_key[succ])

        if len(order) != n:  # pragma: no cover - DAGs are acyclic by construction
            raise RuntimeError("dependence graph had a cycle")
        return order, cycle

    def _forward_pass(
        self,
        graph: DependenceGraph,
        heights: list[int],
        *,
        state: PipelineState | None = None,
        cycle: int = 0,
    ) -> tuple[list[int], int]:
        n = graph.size
        remaining_preds = [len(graph.preds[i]) for i in range(n)]
        ready = [i for i in range(n) if remaining_preds[i] == 0]
        order: list[int] = []
        if state is None:
            state = PipelineState(self.model)
            cycle = 0
        model = self.model
        timings = [model.timing(node) for node in graph.nodes]
        rec = self.recorder
        log = self.provenance
        telemetry = rec.telemetry
        keys: list[tuple] | None = [] if (telemetry or log is not None) else None
        cands: list[tuple[int, int]] | None = [] if log is not None else None

        while ready:
            best = None
            best_key = None
            if keys is not None:
                keys.clear()
            if cands is not None:
                cands.clear()
            for node in ready:
                stalls = stall_query(cycle, state, timings[node])
                # The paper's priority: fewest stalls, then longest
                # chain to block end, then original program position.
                # Variants exist for the ablation study.
                if self.policy.priority == "chain_stalls":
                    key = (-heights[node], stalls, node)
                elif self.policy.priority == "program_order":
                    key = (node, stalls)
                else:
                    key = (stalls, -heights[node], node)
                if keys is not None:
                    keys.append(key)
                if cands is not None:
                    cands.append((node, stalls))
                if best_key is None or key < best_key:
                    best_key = key
                    best = node
            if telemetry:
                self._record_decision(rec, keys, best_key)
            rejected = (
                self._collect_rejections(graph, cands, best, cycle, state)
                if log is not None
                else None
            )
            result = issue(cycle, state, graph.nodes[best], rec)
            if log is not None:
                chosen_stalls = next(s for n, s in cands if n == best)
                log.record(
                    Placement(
                        slot=len(order),
                        index=best,
                        mnemonic=str(graph.nodes[best]),
                        cycle=result.issue_cycle,
                        stalls=chosen_stalls,
                        reason=self._decision_reason(keys, best_key),
                        rejected=rejected,
                    )
                )
            cycle = result.issue_cycle
            order.append(best)
            ready.remove(best)
            for succ in graph.succs[best]:
                remaining_preds[succ] -= 1
                if remaining_preds[succ] == 0:
                    ready.append(succ)

        if len(order) != n:  # pragma: no cover - DAGs are acyclic by construction
            raise RuntimeError("dependence graph had a cycle")
        return order, cycle

    # -- telemetry ---------------------------------------------------------------

    def _record_decision(
        self, rec: Recorder, keys: list[tuple], best_key: tuple
    ) -> None:
        """Record one forward-pass pick: candidate-set size, the chosen
        instruction's stall count, and which priority component decided
        (the tie-break reason)."""
        components = _KEY_COMPONENTS[self.policy.priority]
        rec.count(SCHED_DECISIONS)
        rec.observe(SCHED_READY_SET, len(keys))
        stalls_index = components.index("stalls")
        rec.observe(SCHED_CHOSEN_STALLS, best_key[stalls_index])
        rec.count(SCHED_TIE_BREAK, reason=self._decision_reason(keys, best_key))

    def _decision_reason(self, keys: list[tuple], best_key: tuple) -> str:
        """Which priority-key component made the pick unique."""
        components = _KEY_COMPONENTS[self.policy.priority]
        depth = 1
        for depth in range(1, len(best_key) + 1):
            matching = sum(1 for key in keys if key[:depth] == best_key[:depth])
            if matching == 1:
                break
        return components[min(depth, len(components)) - 1]

    def _collect_rejections(
        self,
        graph: DependenceGraph,
        cands: list[tuple[int, int]],
        best: int,
        cycle: int,
        state: PipelineState,
    ) -> tuple[Candidate, ...]:
        """Provenance for everything the pick beat: each rejected ready
        candidate, priced by the first hazard blocking it at ``cycle``
        (None when it could issue now and lost purely on priority).
        Runs against the pre-issue state, so the hazards reported are
        exactly the ones the priority function saw."""
        rejected = []
        for node, stalls in cands:
            if node == best:
                continue
            inst = graph.nodes[node]
            hazard = explain_stall(cycle, state, inst) if stalls > 0 else None
            rejected.append(
                Candidate(
                    index=node,
                    mnemonic=str(inst),
                    stalls=stalls,
                    hazard=None if hazard is None else str(hazard),
                )
            )
        return tuple(rejected)
