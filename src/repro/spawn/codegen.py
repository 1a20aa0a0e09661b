"""Spawn's code generation (paper Figure 1 and Appendix A).

The original Spawn filled ``{{…}}`` annotations in a C++ template with
per-group tables extracted from the description, producing the
``pipeline_stalls`` that EEL linked in. This module does the same in
Python: given a :class:`MachineModel` it emits *standalone* Python
source — group tables plus a self-contained ``pipeline_stalls`` — that
depends only on the standard library. The generated module and the
generic interpreter (:mod:`repro.pipeline.stalls`) must agree on every
instruction and pipeline state; a differential test pins that.

The generated code implements the same delayed-issue semantics as the
interpreter: an instruction issues at the earliest cycle from which it
flows through its pipeline trace without an internal stall.
"""

from __future__ import annotations

import types

from ..isa.opcodes import Slot, all_mnemonics, lookup
from .model import MachineModel

_HEADER = '''"""Generated by repro.spawn.codegen — machine: {name}.

Standalone pipeline_stalls tables and routine for the {name}
microarchitecture. Do not edit; regenerate from the SADL description.
"""

#: unit name -> dense index
UNIT_INDEX = {unit_index!r}

#: free copies of each unit in an idle cycle
UNIT_CAPACITY = {unit_capacity!r}

#: (mnemonic, uses_immediate) -> timing group id
GROUP_OF = {group_of!r}

#: per group: total pipeline cycles
GROUP_CYCLES = {group_cycles!r}

#: per group: ((rel_cycle, unit_index, count), ...) acquire events
GROUP_ACQUIRES = {group_acquires!r}

#: per group: ((rel_cycle, unit_index, count), ...) release events
GROUP_RELEASES = {group_releases!r}

#: per group: ((file, index_or_field, rel_cycle, width), ...) reads
GROUP_READS = {group_reads!r}

#: per group: writes, same layout; rel_cycle is first-usable cycle
GROUP_WRITES = {group_writes!r}

#: per group: last relative cycle with any event
GROUP_LAST_REL = {group_last_rel!r}


class GeneratedPipelineState:
    """Minimal pipeline state for the generated routine: free units per
    absolute cycle plus register read/write history keyed by
    (file, register-number) pairs."""

    def __init__(self):
        self.free = []
        self.write_cy = {{}}
        self.read_cy = {{}}

    def _row(self, cycle):
        while len(self.free) <= cycle:
            self.free.append(list(UNIT_CAPACITY))
        return self.free[cycle]

    def free_units(self, cycle, unit):
        if cycle < len(self.free):
            return self.free[cycle][unit]
        return UNIT_CAPACITY[unit]


def resolve_regs(inst, file, index, width):
    """Expand a symbolic register access into (file, number) keys,
    dropping %g0 (never a dependence)."""
    if isinstance(index, str):
        operand = getattr(inst, index)
        number = operand.index
    else:
        number = index
    keys = []
    for k in range(width):
        if file == "R" and number + k == 0:
            continue
        keys.append((file, number + k))
    return keys


def group_of(inst):
    return GROUP_OF[(inst.mnemonic, inst.imm is not None)]


def _resolved(inst, gid):
    reads = [
        (key, rel)
        for (file, index, rel, width) in GROUP_READS[gid]
        for key in resolve_regs(inst, file, index, width)
    ]
    writes = [
        (key, rel)
        for (file, index, rel, width) in GROUP_WRITES[gid]
        for key in resolve_regs(inst, file, index, width)
    ]
    return reads, writes


def pipeline_stalls(cycle, state, inst):
    """How many cycles must ``inst`` wait before entering the pipeline?

    ``state`` is a :class:`GeneratedPipelineState` updated by
    :func:`issue`.
    """
    gid = group_of(inst)
    reads, writes = _resolved(inst, gid)
    start = cycle
    while True:
        if _fits(start, state, gid, reads, writes):
            return start - cycle
        start += 1
        if start - cycle > 4096:
            raise RuntimeError("impossible resource demand")


def _fits(start, state, gid, reads, writes):
    # Structural hazards, tracking our own holdings (the trace[] array
    # of the paper's Appendix A).
    own = {{}}
    acquires = GROUP_ACQUIRES[gid]
    releases = GROUP_RELEASES[gid]
    for rel in range(GROUP_LAST_REL[gid] + 1):
        for (r_rel, unit, count) in releases:
            if r_rel == rel and own.get(unit, 0) > 0:
                own[unit] = max(0, own[unit] - count)
        for (a_rel, unit, count) in acquires:
            if a_rel != rel:
                continue
            held = own.get(unit, 0)
            if state.free_units(start + rel, unit) - held < count:
                return False
            own[unit] = held + count
    # RAW
    for key, rel in reads:
        if start + rel < state.write_cy.get(key, 0):
            return False
    # WAW / WAR
    for key, rel in writes:
        avail = start + rel
        if avail < state.write_cy.get(key, 0) or avail <= state.read_cy.get(key, -1):
            return False
    return True


def issue(cycle, state, inst):
    """Issue ``inst`` at or after ``cycle``; returns its issue cycle."""
    stalls = pipeline_stalls(cycle, state, inst)
    start = cycle + stalls
    _commit(start, state, inst, group_of(inst))
    return start


def _commit(start, state, inst, gid):
    # Commit unit occupancy: pair acquires with releases in rel order.
    open_holds = {{}}
    for rel in range(GROUP_LAST_REL[gid] + 1):
        for (r_rel, unit, count) in GROUP_RELEASES[gid]:
            if r_rel != rel:
                continue
            holds = open_holds.get(unit, [])
            remaining = count
            while remaining > 0 and holds:
                held, hstart = holds[0]
                take = held if held < remaining else remaining
                _occupy(state, unit, take, hstart, start + rel)
                remaining -= take
                if take == held:
                    holds.pop(0)
                else:
                    holds[0][0] -= take
        for (a_rel, unit, count) in GROUP_ACQUIRES[gid]:
            if a_rel == rel:
                open_holds.setdefault(unit, []).append([count, start + rel])
    end = start + GROUP_LAST_REL[gid] + 1
    for unit, holds in open_holds.items():
        for held, hstart in holds:
            _occupy(state, unit, held, hstart, end)
    # Register history.
    for (file, index, rel, width) in GROUP_READS[gid]:
        for key in resolve_regs(inst, file, index, width):
            if start + rel > state.read_cy.get(key, -1):
                state.read_cy[key] = start + rel
    for (file, index, rel, width) in GROUP_WRITES[gid]:
        for key in resolve_regs(inst, file, index, width):
            state.write_cy[key] = start + rel


def _occupy(state, unit, count, begin, end):
    for cycle in range(begin, end):
        state._row(cycle)[unit] -= count
'''


def generate_source(model: MachineModel) -> str:
    """Emit standalone Python source for ``model``'s pipeline_stalls."""
    group_of: dict[tuple[str, bool], int] = {}
    acquires: list[tuple] = []
    releases: list[tuple] = []
    reads: list[tuple] = []
    writes: list[tuple] = []
    cycles: list[int] = []
    last_rel: list[int] = []

    unit_index = model.unit_index

    for mnemonic in all_mnemonics():
        if not model.evaluator.has_sem(mnemonic):
            continue  # partial description: omit unmodelled instructions
        # Register both decode variants; for instructions without a
        # register-or-immediate operand they share one timing group.
        for uses_imm in (False, True):
            gid, trace = model._variant(mnemonic, uses_imm)
            group_of[(mnemonic, uses_imm)] = gid
            while len(cycles) <= gid:
                cycles.append(0)
                acquires.append(())
                releases.append(())
                reads.append(())
                writes.append(())
                last_rel.append(0)
            cycles[gid] = trace.cycles
            acquires[gid] = tuple(
                (e.cycle, unit_index[e.unit], e.count) for e in trace.acquires
            )
            releases[gid] = tuple(
                (e.cycle, unit_index[e.unit], e.count) for e in trace.releases
            )
            reads[gid] = tuple(
                (a.file, a.index, a.cycle, a.width) for a in trace.reads
            )
            writes[gid] = tuple(
                (a.file, a.index, a.cycle, a.width) for a in trace.writes
            )
            last_rel[gid] = trace.max_event_cycle

    source = _HEADER.format(
        name=model.name,
        unit_index=unit_index,
        unit_capacity=tuple(model.unit_capacity),
        group_of=group_of,
        group_cycles=tuple(cycles),
        group_acquires=tuple(acquires),
        group_releases=tuple(releases),
        group_reads=tuple(reads),
        group_writes=tuple(writes),
        group_last_rel=tuple(last_rel),
    )
    return source


def compile_machine(model: MachineModel) -> types.ModuleType:
    """Generate, compile, and return the specialized module."""
    source = generate_source(model)
    module = types.ModuleType(f"repro_generated_{model.name}")
    module.__dict__["__source__"] = source
    exec(compile(source, f"<generated {model.name}>", "exec"), module.__dict__)
    return module
