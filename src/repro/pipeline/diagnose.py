"""Stall diagnosis: *why* can't this instruction issue yet?

``pipeline_stalls`` answers "how long"; tools and humans also ask
"why". :func:`explain_stall` re-runs the hazard checks for one candidate
start cycle and reports the first failing condition — a structural
hazard on a named unit, or a RAW/WAW/WAR hazard on a named register —
so schedules can be debugged and the examples can annotate their
charts. :func:`all_hazards` reports *every* failing condition at the
cycle (hazards overlap: a candidate can be blocked by a busy unit and a
pending operand at once), which is what the observability layer's
attribution buckets consume so they never undercount.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..isa.registers import Reg
from ..obs.recorder import Recorder
from ..obs.report import HAZARDS, STALL_CYCLES
from ..spawn.model import InstructionTiming
from .stalls import _prepare
from .state import PipelineState


@dataclass(frozen=True)
class Hazard:
    """One reason an instruction cannot start at a given cycle."""

    kind: str  # 'structural' | 'raw' | 'waw' | 'war'
    cycle: int  # absolute cycle of the failing check
    unit: str | None = None
    register: Reg | None = None

    def __str__(self) -> str:
        if self.kind == "structural":
            return f"structural hazard on {self.unit} at cycle {self.cycle}"
        return f"{self.kind.upper()} hazard on {self.register} at cycle {self.cycle}"

    def labels(self) -> dict[str, str]:
        """The attribution-bucket key: hazard kind plus the contended
        unit (structural) or register class (data hazards)."""
        if self.kind == "structural":
            return {"kind": self.kind, "unit": self.unit or "?"}
        kind_name = self.register.kind.name if self.register else "?"
        return {"kind": self.kind, "regclass": kind_name}


def _collect_hazards(
    cycle: int,
    state: PipelineState,
    timing: InstructionTiming,
    *,
    first_only: bool,
) -> list[Hazard]:
    """The hazard checks of ``stalls._fits``, reporting failures instead
    of bailing. A failed acquire is treated as granted so later checks
    still run and overlapping hazards all surface; check order matches
    ``_fits`` exactly, so the first element is *the* blocking hazard."""
    unit_index = state.model.unit_index
    prepared = _prepare(timing.trace)
    hazards: list[Hazard] = []

    own: dict[str, int] = {}
    for rel in range(prepared.last_rel + 1):
        for event in prepared.releases_by_rel.get(rel, ()):
            if own.get(event.unit, 0) > 0:
                own[event.unit] = max(0, own[event.unit] - event.count)
        for acq_rel, events in prepared.acquires:
            if acq_rel != rel:
                continue
            for event in events:
                held = own.get(event.unit, 0)
                free = state.free_units(cycle + rel, unit_index[event.unit]) - held
                if free < event.count:
                    hazards.append(Hazard("structural", cycle + rel, unit=event.unit))
                    if first_only:
                        return hazards
                own[event.unit] = held + event.count

    for reg, rel in timing.reads:
        if cycle + rel < state.value_ready(reg):
            hazards.append(Hazard("raw", cycle + rel, register=reg))
            if first_only:
                return hazards

    for reg, rel in timing.writes:
        avail = cycle + rel
        if avail < state.value_ready(reg):
            hazards.append(Hazard("waw", avail, register=reg))
            if first_only:
                return hazards
        if avail <= state.last_read(reg):
            hazards.append(Hazard("war", avail, register=reg))
            if first_only:
                return hazards

    return hazards


def explain_stall(
    cycle: int, state: PipelineState, inst: Instruction
) -> Hazard | None:
    """The first hazard preventing ``inst`` from issuing at ``cycle``,
    or None when it can issue immediately."""
    hazards = _collect_hazards(
        cycle, state, state.model.timing(inst), first_only=True
    )
    return hazards[0] if hazards else None


def all_hazards(
    cycle: int, state: PipelineState, inst: Instruction
) -> list[Hazard]:
    """Every failing condition keeping ``inst`` from issuing at
    ``cycle`` (empty when it can issue). The first element is always
    :func:`explain_stall`'s answer; the rest are the overlapping hazards
    it hides."""
    return _collect_hazards(
        cycle, state, state.model.timing(inst), first_only=False
    )


def stall_breakdown(
    cycle: int, state: PipelineState, inst: Instruction
) -> list[Hazard]:
    """One hazard per stalled cycle until the instruction can issue —
    the full story of a delayed issue."""
    hazards: list[Hazard] = []
    start = cycle
    while True:
        hazard = explain_stall(start, state, inst)
        if hazard is None:
            return hazards
        hazards.append(hazard)
        start += 1
        if len(hazards) > 4096:  # pragma: no cover - deadlock guard
            raise RuntimeError("instruction can never issue")


def attribute_stalls(
    recorder: Recorder,
    state: PipelineState,
    timing: InstructionTiming,
    requested: int,
    issue_cycle: int,
) -> None:
    """Classify every stalled cycle in ``[requested, issue_cycle)`` into
    the observability buckets.

    Each stalled cycle counts exactly once under ``STALL_CYCLES`` (its
    primary, first-failing hazard) — so the bucket totals sum to the
    walk's ``stalls`` — and once per failing condition under
    ``HAZARDS``, which includes the overlapping ones. Must run against
    the pre-commit state (before the instruction's own effects land).
    """
    for cycle in range(requested, issue_cycle):
        hazards = _collect_hazards(cycle, state, timing, first_only=False)
        if not hazards:  # pragma: no cover - _fits and the walker agree
            recorder.count(STALL_CYCLES, 1, kind="unknown")
            continue
        recorder.count(STALL_CYCLES, 1, **hazards[0].labels())
        for hazard in hazards:
            recorder.count(HAZARDS, 1, **hazard.labels())
