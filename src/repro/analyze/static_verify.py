"""The static pre-verifier: prove a schedule legal without executing it.

:func:`~repro.core.verify.verify_schedule` proves a reordering safe by
permutation + DAG checks and then a battery of differential executions —
and the executions dominate guarded scheduling's cost. In the spirit of
solver-based schedulers that *prove* schedules instead of testing them,
:func:`static_verify_schedule` discharges the proof obligation from the
dependence DAG alone whenever the DAG is a complete model of the
region's semantics:

* ``refuted`` — the permutation or topological check fails. These are
  exactly the dynamic verifier's first two checks (same messages), so a
  refutation is *final*: the dynamic verdict would be identical and the
  guard can quarantine without executing anything.
* ``proven`` — both checks pass and every reordered instruction pair is
  fully ordered by the DAG's register/condition-code/memory edges. Then
  both orders compute identical architectural states, so differential
  execution cannot fail and is safely skipped.
* ``inconclusive`` — both checks pass but the scheduler reordered a
  load/store across an instrumentation/original memory boundary under
  the permissive aliasing policy. The DAG deliberately has no edge
  there (the paper's disjointness assumption); whether the assumption
  holds is not statically decidable in general, so the symbolic and
  differential gates must run. One exception stays proven: when both
  absolute addresses resolve statically (the ``sethi``-plus-immediate
  counter shape from :func:`~repro.core.dependence._static_addresses`)
  and their byte intervals are disjoint, the flip is a fact, not an
  assumption.

The guard (:class:`~repro.robust.GuardedBlockScheduler`) uses this as
its first gate and counts ``analyze.static_pass`` /
``analyze.static_escalated``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dependence import (
    SchedulingPolicy,
    _disjoint_access,
    _static_addresses,
    build_dependence_graph,
)
from ..core.verify import _recover_order
from ..isa.instruction import Instruction


@dataclass(frozen=True)
class StaticVerdict:
    """Outcome of a static legality proof."""

    status: str  # 'proven' | 'refuted' | 'inconclusive'
    reasons: tuple[str, ...] = ()

    @property
    def proven(self) -> bool:
        return self.status == "proven"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"

    @property
    def inconclusive(self) -> bool:
        return self.status == "inconclusive"

    def __bool__(self) -> bool:
        return self.proven


def static_verify_schedule(
    original: list[Instruction],
    scheduled: list[Instruction],
    *,
    policy: SchedulingPolicy | None = None,
) -> StaticVerdict:
    """Prove ``scheduled`` legal (or illegal) from the DAG alone."""
    # 1. Permutation — identical to the dynamic verifier's first check.
    order = _recover_order(original, scheduled)
    if order is None:
        return StaticVerdict(
            "refuted", ("not a permutation of the original instructions",)
        )

    # 2. Topological order of the dependence DAG — identical to the
    #    dynamic verifier's second check.
    graph = build_dependence_graph(original, policy)
    if not graph.is_valid_order(order):
        return StaticVerdict("refuted", ("violates the dependence DAG",))

    # 3. The one modeling gap: under the permissive policy the DAG has
    #    no edge between instrumentation and original memory operations.
    #    A reordering across that gap leans on the disjointness
    #    assumption, which only execution can test.
    policy = policy or SchedulingPolicy()
    if not policy.restrict_instrumentation_memory:
        flip = _flipped_cross_side_memory_pair(original, order)
        if flip is not None:
            a, b = flip
            return StaticVerdict(
                "inconclusive",
                (
                    f"reorders {a.mnemonic} across {b.mnemonic} on the "
                    "instrumentation/original memory boundary: disjointness "
                    "is assumed, not proven",
                ),
            )

    return StaticVerdict("proven")


def _flipped_cross_side_memory_pair(
    original: list[Instruction], order: list[int]
) -> tuple[Instruction, Instruction] | None:
    """The first (original-order) pair of memory operations on opposite
    tag sides, at least one a store, whose relative order the schedule
    flipped — or None.

    Pairs whose absolute addresses both resolve statically (a ``sethi``
    base plus immediate, the counter-update shape tracked by
    :func:`~repro.core.dependence._static_addresses`) and whose byte
    intervals are provably disjoint are skipped: their reorder is
    proven, not assumed, so it needs no escalation."""
    position_of = {orig_index: pos for pos, orig_index in enumerate(order)}
    addresses = _static_addresses(original)
    memory_ops = [
        (index, inst)
        for index, inst in enumerate(original)
        if inst.memory is not None
    ]
    for slot_a, (index_a, inst_a) in enumerate(memory_ops):
        for index_b, inst_b in memory_ops[slot_a + 1 :]:
            if inst_a.memory == "load" and inst_b.memory == "load":
                continue
            if inst_a.is_instrumentation == inst_b.is_instrumentation:
                continue  # same side: the DAG already ordered them
            if position_of[index_a] <= position_of[index_b]:
                continue  # order preserved: nothing assumed
            addr_a, addr_b = addresses[index_a], addresses[index_b]
            if (
                addr_a is not None
                and addr_b is not None
                and _disjoint_access(inst_a, addr_a, inst_b, addr_b)
            ):
                continue  # disjoint intervals: the flip is proven safe
            return inst_a, inst_b
    return None


__all__ = ["StaticVerdict", "static_verify_schedule"]
