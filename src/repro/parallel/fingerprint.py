"""Content addressing for schedulable regions.

A schedule is a pure function of three inputs: the region's instruction
sequence, the machine model, and the scheduling policy. The cache key
therefore has two parts:

* a **context digest** (:func:`context_digest`) naming the (model,
  policy) pair — model identity is the model's class, name, and a hash
  of its SADL source when available, so a corrupted or merely renamed
  model can never alias a healthy one;
* a **region digest** (:func:`region_digest`) over the instruction
  words after *register-renaming canonicalization*
  (:func:`canonical_region`).

Canonicalization maps work registers to dense indices in first-use
order, separately for the integer and floating-point files, so two
blocks that differ only by a bijective renaming of their registers
share one cache entry. This is sound because every quantity the
scheduler computes — the dependence DAG, pipeline stall counts, issue
cycles — depends on registers only through their *equality structure*
(which operands name the same register), which a bijection preserves.
Three guards keep the bijection argument airtight:

* ``%g0`` is pinned: it is hard-wired zero, never participates in a
  dependence, and renaming it (or onto it) would change the DAG;
* regions containing any double-word memory operation
  (``fp_width == 2``: ``ldd``/``std``/``lddf``/``stdf``) are *not*
  renamed at all — those instructions access ``reg`` and ``reg+1``, an
  adjacency relation an arbitrary bijection does not preserve;
* every other field that can influence scheduling — mnemonic,
  immediate, annul bit, symbolic target, and the provenance ``tag``
  that drives the memory-aliasing policy — is kept verbatim, so two
  regions differing in a single immediate or in instrumentation
  provenance can never collide.

``seq`` is deliberately excluded: the forward pass tie-breaks on the
instruction's *position within the region*, not the global ``seq``
field, so ``seq`` cannot influence the schedule.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from ..core.dependence import SchedulingPolicy
from ..isa.instruction import Instruction
from ..isa.registers import Reg, RegKind
from ..spawn.model import MachineModel

#: Register kinds eligible for renaming. Special resources (condition
#: codes, %y, %pc) never appear as explicit operands.
_RENAMABLE = (RegKind.INT, RegKind.FP)


def _renaming_allowed(region: Sequence[Instruction]) -> bool:
    """False when any instruction performs a double-word access —
    renaming must then be skipped to preserve ``reg``/``reg+1``
    adjacency."""
    return all(inst.info.fp_width != 2 for inst in region)


def canonical_region(region: Sequence[Instruction]) -> tuple:
    """The canonical (renaming-invariant) form of a straight-line region.

    This runs three times per unique region in a parallel build
    (collect-time dedup, the worker's self-authenticating digest, the
    layout pass's cache probe), so the operand loop is written flat —
    local-variable lookups and an explicit renaming dict — rather than
    through a per-operand closure.
    """
    rename = _renaming_allowed(region)
    # Keyed by the *canonical per-register pair*; maps to its renamed
    # pair. %g0 keeps index 0; other integer registers number from 1.
    mapping: dict[tuple, tuple] = {}
    next_index = {RegKind.INT.value: 1, RegKind.FP.value: 0}
    renamable = frozenset(kind.value for kind in _RENAMABLE)
    out = []
    for inst in region:
        row = [inst.mnemonic, None, None, None]
        for slot, reg in ((1, inst.rd), (2, inst.rs1), (3, inst.rs2)):
            if reg is None:
                continue
            kind = reg.kind.value
            concrete = (kind, reg.index)
            if not rename or kind not in renamable or reg.is_zero:
                row[slot] = concrete
                continue
            canonical = mapping.get(concrete)
            if canonical is None:
                index = next_index[kind]
                next_index[kind] = index + 1
                canonical = (kind, index)
                mapping[concrete] = canonical
            row[slot] = canonical
        row += (inst.imm, inst.annul, inst.target, inst.tag)
        out.append(tuple(row))
    return tuple(out)


def region_digest(region: Sequence[Instruction]) -> str:
    """Hex digest of the canonical region — the content address."""
    return hashlib.sha256(repr(canonical_region(region)).encode()).hexdigest()


def model_identity(model) -> str:
    """A string naming a machine model for cache keying.

    Includes the model's concrete class (a
    :class:`~repro.robust.faults.CorruptedModel` must never alias its
    base), its name, its unit inventory, and — when the model records
    the SADL source it was compiled from — a digest of that source, so
    two models built from different descriptions never share entries
    even if they share a name.
    """
    parts = [type(model).__qualname__, getattr(model, "name", "?")]
    units = getattr(model, "units", None)
    if units:
        parts.append(",".join(f"{u}={c}" for u, c in sorted(units.items())))
    source = None
    if type(model) is MachineModel:
        # Only trust `source` on a plain MachineModel: proxy models
        # (CorruptedModel) delegate attribute access to their base, and
        # inheriting the base's source would let a corrupted model alias
        # the healthy one.
        source = getattr(model, "source", None)
    if source is not None:
        parts.append(hashlib.sha256(source.encode()).hexdigest()[:16])
    else:
        # No verifiable content: key on object identity so distinct
        # instances never share entries.
        parts.append(f"id{id(model):x}")
    return ":".join(parts)


def policy_identity(policy: SchedulingPolicy | None) -> str:
    return repr(policy or SchedulingPolicy())


def model_digest(model) -> str:
    """Short hex digest of :func:`model_identity` — what ledger records
    store (the identity string itself can be long and, for sourceless
    models, embeds a process-local object id)."""
    return hashlib.sha256(model_identity(model).encode()).hexdigest()[:16]


def policy_digest(policy: SchedulingPolicy | None) -> str:
    """Short hex digest of :func:`policy_identity`, for ledger records."""
    return hashlib.sha256(policy_identity(policy).encode()).hexdigest()[:16]


def context_digest(model, policy: SchedulingPolicy | None) -> str:
    """Digest of the (machine model, scheduler options) pair."""
    text = model_identity(model) + "|" + policy_identity(policy)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def apply_order(
    region: Sequence[Instruction], order: Iterable[int]
) -> list[Instruction]:
    """Replay a cached permutation against concrete instructions."""
    return [region[i] for i in order]


def schedule_checksum(
    subject: str,
    order: Sequence[int],
    original_cycles: int,
    scheduled_cycles: int,
    verified: bool = False,
) -> str:
    """Integrity checksum binding a schedule result to its subject.

    ``subject`` names what the result is *for* (a region digest, or
    ``context:region`` for a cache entry); ``verified`` is a cache
    entry's proof bit (worker results carry none). Anything that mutates the
    payload after the checksum was computed — a bit flip in a persisted
    cache entry, a corrupted IPC message from a worker process — makes
    the stored checksum stale, so recomputation at the consumer side
    detects the tamper. This is an integrity check against accidental
    corruption, not an authentication scheme.
    """
    payload = (
        subject,
        tuple(int(i) for i in order),
        int(original_cycles),
        int(scheduled_cycles),
        bool(verified),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _concrete(inst: Instruction | None) -> tuple | None:
    if inst is None:
        return None
    return (
        inst.mnemonic,
        None if inst.rd is None else (inst.rd.kind.value, inst.rd.index),
        None if inst.rs1 is None else (inst.rs1.kind.value, inst.rs1.index),
        None if inst.rs2 is None else (inst.rs2.kind.value, inst.rs2.index),
        inst.imm,
        inst.annul,
        inst.target,
        inst.tag,
    )


def superblock_digest(
    bodies: Sequence[Sequence[Instruction]],
    terminators: Sequence[Instruction | None],
    delays: Sequence[Instruction | None],
    *,
    extra: tuple = (),
) -> str:
    """Content address of a whole superblock region family.

    Unlike :func:`region_digest` this uses the **concrete** instruction
    operands, with no register renaming: a superblock plan's legality
    depends on register identity *across* block boundaries (terminator
    and delay-slot reads, side-exit liveness), which a per-body renaming
    does not preserve. ``extra`` folds in anything else the plan
    depended on — the profile counts of the member blocks and the
    formation config — so a different profile never replays a plan
    whose commit decision it would have changed.
    """
    payload = (
        tuple(tuple(_concrete(i) for i in body) for body in bodies),
        tuple(_concrete(t) for t in terminators),
        tuple(_concrete(d) for d in delays),
        tuple(extra),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()
