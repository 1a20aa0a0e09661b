"""Symbolic translation validation: prove schedules correct without
running them.

:func:`symbolic_verify_schedule` sits between the dependence-DAG
pre-verifier (:func:`~repro.analyze.static_verify.static_verify_schedule`)
and the randomized differential battery
(:func:`~repro.core.verify.verify_schedule`) in the guard's gate chain.
Both sides of the reordering are executed symbolically
(:mod:`repro.analyze.symex`); if every register, condition code, ``%y``,
and the canonical memory snapshot normalize to identical terms, the two
orders are architecturally equivalent *on all inputs* and the dynamic
battery is skipped.

Verdict discipline — the asymmetry is deliberate:

* ``proven`` requires identity of every architectural term (or a
  definite identical trap on both sides). A proof subsumes the dynamic
  battery outright.
* ``refuted`` is only issued for structural violations (non-permutation,
  DAG violation — final for the same reason they are in the static
  pre-verifier) or when a **concrete witness** confirms a symbolic
  mismatch: the mismatching region is re-executed on seeded random
  states and actually diverges. The witness is packaged as a
  :class:`Counterexample` carrying both symbolic terms and the trial
  that exposed them.
* everything else — unsupported instructions, possible traps, term
  mismatches with no confirming witness (e.g. two renderings of the
  same value the simplifier cannot reconcile) — is ``inconclusive``
  and escalates to the dynamic battery. A correct schedule is never
  quarantined on symbolic evidence alone, so guarded output stays
  byte-identical to the unguarded scheduler's.

Delay-slot glue is handled the same way the scheduler pipeline handles
it: the sequences are split at control transfers
(:func:`~repro.core.regions.split_regions`), the CTI/delay skeleton must
match string-for-string, and each straight-line region is validated
independently. :func:`symbolic_masked_verify` is the superblock variant:
it compares only the registers live at a side-exit target (plus all of
memory and the condition state), mirroring
:func:`~repro.core.superblock.masked_differential`, and unlike the full
validator it accepts *non*-permutations — compensation code on the exit
path is exactly the case it exists for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.dependence import SchedulingPolicy, build_dependence_graph
from ..core.regions import split_regions
from ..core.verify import DEFAULT_SEED, _random_state, _recover_order
from ..isa.instruction import Instruction
from ..isa.machine_state import MachineState, MemoryFault
from ..isa.registers import RegKind
from ..isa.semantics import SemanticsError, run_straightline

#: Faults a witness run may legitimately raise: both orders faulting
#: identically is agreement (hardware traps either way), a one-sided
#: fault is itself the divergence witness.
_WITNESS_FAULTS = (SemanticsError, MemoryFault)
from .symex import (
    SymbolicState,
    SymbolicTrap,
    SymexUnsupported,
    Term,
    render_term,
    sym_run,
)


@dataclass(frozen=True)
class Counterexample:
    """A confirmed divergence: the symbolic terms that disagreed and the
    concrete trial that witnessed the disagreement."""

    location: str        # architectural slot, e.g. '%r5', 'icc_c', 'memory'
    original_term: str   # rendering of the original order's term
    scheduled_term: str  # rendering of the scheduled order's term
    trial: int           # witness trial index (reproducible from the seed)
    witness: str         # concrete divergence, e.g. 'original=3 scheduled=7'

    def __str__(self) -> str:
        return (
            f"{self.location}: original computes {self.original_term}, "
            f"schedule computes {self.scheduled_term} "
            f"(witness trial {self.trial}: {self.witness})"
        )


@dataclass(frozen=True)
class SymbolicVerdict:
    """Outcome of a symbolic equivalence proof."""

    status: str  # 'proven' | 'refuted' | 'inconclusive'
    reasons: tuple[str, ...] = ()
    counterexample: Counterexample | None = None

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


def _inconclusive(reason: str) -> SymbolicVerdict:
    return SymbolicVerdict("inconclusive", (reason,))


#: Condition-state slots compared between symbolic states.
_CC_SLOTS = ("icc_n", "icc_z", "icc_v", "icc_c", "fcc", "y")


def _compare_states(
    a: SymbolicState,
    b: SymbolicState,
    *,
    live_ints=None,
    live_fps=None,
) -> list[tuple[str, Term, Term]]:
    """(location, term_a, term_b) for every architectural slot whose
    terms differ. ``live_ints``/``live_fps`` restrict the register
    comparison (masked mode); memory and condition state always count."""
    mismatches: list[tuple[str, Term, Term]] = []
    for index in range(1, 32):
        if live_ints is not None and index not in live_ints:
            continue
        if a.regs[index] is not b.regs[index]:
            mismatches.append((f"%r{index}", a.regs[index], b.regs[index]))
    for index in range(32):
        if live_fps is not None and index not in live_fps:
            continue
        if a.fregs[index] is not b.fregs[index]:
            mismatches.append((f"%f{index}", a.fregs[index], b.fregs[index]))
    for slot in _CC_SLOTS:
        if getattr(a, slot) is not getattr(b, slot):
            mismatches.append((slot, getattr(a, slot), getattr(b, slot)))
    snap_a, snap_b = a.memory.snapshot(), b.memory.snapshot()
    if snap_a is not snap_b:
        mismatches.append(("memory", snap_a, snap_b))
    return mismatches


def _sym_states(
    body_a: list[Instruction],
    body_b: list[Instruction],
    policy: SchedulingPolicy,
) -> tuple[SymbolicState, SymbolicState] | SymbolicVerdict:
    """Symbolically execute both orders, or the verdict that stops us."""
    restrict = policy.restrict_instrumentation_memory
    traps: list[SymbolicTrap | None] = []
    states: list[SymbolicState] = []
    for body in (body_a, body_b):
        try:
            states.append(sym_run(SymbolicState(restrict_memory=restrict), body))
            traps.append(None)
        except SymbolicTrap as trap:
            states.append(None)
            traps.append(trap)
        except SymexUnsupported as exc:
            return _inconclusive(f"symbolic execution unsupported: {exc}")
    trap_a, trap_b = traps
    if trap_a is not None or trap_b is not None:
        # Two definite divide traps mirror the dynamic battery's
        # both-orders-trap outcome (which passes every trial); anything
        # else — a misalignment, a one-sided trap — escalates.
        if (
            trap_a is not None
            and trap_b is not None
            and trap_a.kind == "div-zero"
            and trap_b.kind == "div-zero"
        ):
            return SymbolicVerdict("proven")
        return _inconclusive(f"definite trap: {trap_a or trap_b}")
    return states[0], states[1]


def _concrete_witness(state: MachineState, location: str) -> str:
    """Render the concrete value at ``location`` after a witness run."""
    if location.startswith("%r"):
        return str(state.get_reg(int(location[2:])))
    if location.startswith("%f"):
        return hex(state.get_freg(int(location[2:])))
    if location == "memory":
        return "memory contents"
    return str(getattr(state, location))


def _witness_refutation(
    body_a: list[Instruction],
    body_b: list[Instruction],
    mismatches: list[tuple[str, Term, Term]],
    *,
    trials: int,
    seed: int,
    orig_base: int,
    instr_base: int,
) -> SymbolicVerdict | None:
    """Hunt for a concrete input confirming the symbolic mismatch; a
    refutation is only issued when one is found."""
    rng = random.Random(seed)
    location, term_a, term_b = mismatches[0]
    for trial in range(trials):
        state_a = _random_state(rng, orig_base=orig_base, instr_base=instr_base)
        state_b = state_a.copy()
        error_a = error_b = None
        try:
            run_straightline(state_a, body_a)
        except _WITNESS_FAULTS as exc:
            error_a = str(exc)
        try:
            run_straightline(state_b, body_b)
        except _WITNESS_FAULTS as exc:
            error_b = str(exc)
        if (error_a is None) != (error_b is None):
            counterexample = Counterexample(
                location=location,
                original_term=render_term(term_a),
                scheduled_term=render_term(term_b),
                trial=trial,
                witness=f"one order traps ({error_a or error_b}), the other does not",
            )
            return SymbolicVerdict(
                "refuted",
                (f"symbolic mismatch at {location}, confirmed by execution",),
                counterexample,
            )
        if error_a is not None:
            continue
        if not state_a.architectural_equal(state_b):
            # Report the divergence at the first symbolically-mismatched
            # slot whose concrete values actually differ this trial.
            for where, t_a, t_b in mismatches:
                value_a = _concrete_witness(state_a, where)
                value_b = _concrete_witness(state_b, where)
                if where == "memory" or value_a != value_b:
                    location, term_a, term_b = where, t_a, t_b
                    break
            else:
                value_a = _concrete_witness(state_a, location)
                value_b = _concrete_witness(state_b, location)
            counterexample = Counterexample(
                location=location,
                original_term=render_term(term_a),
                scheduled_term=render_term(term_b),
                trial=trial,
                witness=f"original={value_a} scheduled={value_b}",
            )
            return SymbolicVerdict(
                "refuted",
                (f"symbolic mismatch at {location}, confirmed by execution",),
                counterexample,
            )
    return None


def symbolic_verify_schedule(
    original: list[Instruction],
    scheduled: list[Instruction],
    *,
    policy: SchedulingPolicy | None = None,
    check_structure: bool = True,
    witness_trials: int = 3,
    seed: int = DEFAULT_SEED,
    orig_base: int = 0x0002_0000,
    instr_base: int = 0x0003_0000,
) -> SymbolicVerdict:
    """Prove (or refute, with a witness) that ``scheduled`` preserves
    ``original``'s architectural semantics.

    ``check_structure=False`` skips the permutation/DAG prechecks when a
    caller — the guard's gate chain — has already run them via
    :func:`~repro.analyze.static_verify.static_verify_schedule`.
    """
    policy = policy or SchedulingPolicy()

    if check_structure:
        # Structural refutations are final — identical to the dynamic
        # verifier's first two checks, same messages.
        order = _recover_order(original, scheduled)
        if order is None:
            return SymbolicVerdict(
                "refuted", ("not a permutation of the original instructions",)
            )
        graph = build_dependence_graph(original, policy)
        if not graph.is_valid_order(order):
            return SymbolicVerdict("refuted", ("violates the dependence DAG",))

    # Delay-slot glue: split both sequences at control transfers. The
    # CTI/delay skeleton must match exactly and instructions must not
    # have crossed a control transfer — the scheduler never moves them,
    # so a mismatch means we are looking at something out of domain.
    regions_a = split_regions(list(original))
    regions_b = split_regions(list(scheduled))
    if len(regions_a) != len(regions_b):
        return _inconclusive("control-transfer skeletons differ")
    for region_a, region_b in zip(regions_a, regions_b):
        if _pin_str(region_a.barrier) != _pin_str(region_b.barrier) or _pin_str(
            region_a.delay
        ) != _pin_str(region_b.delay):
            return _inconclusive("control-transfer skeletons differ")

    for region_a, region_b in zip(regions_a, regions_b):
        body_a = list(region_a.instructions)
        body_b = list(region_b.instructions)
        if [str(i) for i in body_a] == [str(i) for i in body_b]:
            continue  # textually identical: nothing to prove
        # No multiset precondition here: the executor compares *semantics*,
        # so even region bodies with different instruction populations
        # (corrupted input, or instructions moved across the CTI) are
        # judged on the terms they compute — a state difference at a
        # control transfer is architecturally observable.
        outcome = _sym_states(body_a, body_b, policy)
        if isinstance(outcome, SymbolicVerdict):
            if outcome.proven:
                continue
            return outcome
        mismatches = _compare_states(*outcome)
        if not mismatches:
            continue
        refutation = _witness_refutation(
            body_a,
            body_b,
            mismatches,
            trials=witness_trials,
            seed=seed,
            orig_base=orig_base,
            instr_base=instr_base,
        )
        if refutation is not None:
            return refutation
        location, term_a, term_b = mismatches[0]
        return _inconclusive(
            f"terms differ at {location} "
            f"({render_term(term_a, limit=120)} vs "
            f"{render_term(term_b, limit=120)}) with no confirming witness"
        )

    return SymbolicVerdict("proven")


def _pin_str(inst: Instruction | None) -> str | None:
    return None if inst is None else str(inst)


def symbolic_masked_verify(
    original: list[Instruction],
    scheduled: list[Instruction],
    live,
    *,
    policy: SchedulingPolicy | None = None,
    witness_trials: int = 3,
    seed: int = DEFAULT_SEED,
    orig_base: int = 0x0002_0000,
    instr_base: int = 0x0003_0000,
) -> SymbolicVerdict:
    """Masked-equivalence mode for superblock side exits.

    Compares only the integer/FP registers in ``live`` (the registers
    live at the side-exit target) plus all of memory, the condition
    codes, ``%y`` — the contract of
    :func:`~repro.core.superblock.masked_differential`. No permutation
    or DAG check: the scheduled side legitimately carries speculated and
    compensation code the original side lacks.
    """
    policy = policy or SchedulingPolicy()
    if any(i.is_control for i in original) or any(i.is_control for i in scheduled):
        return _inconclusive("masked validation requires straight-line code")
    live_ints = sorted(r.index for r in live if r.kind is RegKind.INT)
    live_fps = sorted(r.index for r in live if r.kind is RegKind.FP)
    outcome = _sym_states(list(original), list(scheduled), policy)
    if isinstance(outcome, SymbolicVerdict):
        return outcome
    mismatches = _compare_states(
        *outcome, live_ints=set(live_ints), live_fps=set(live_fps)
    )
    if not mismatches:
        return SymbolicVerdict("proven")
    # Witness hunt through the established masked differential; its
    # failures double as the refutation evidence.
    from ..core.superblock import masked_differential

    result = masked_differential(
        list(original),
        list(scheduled),
        live,
        trials=witness_trials,
        seed=seed,
        orig_base=orig_base,
        instr_base=instr_base,
    )
    location, term_a, term_b = mismatches[0]
    if not result.ok:
        counterexample = Counterexample(
            location=location,
            original_term=render_term(term_a),
            scheduled_term=render_term(term_b),
            trial=0,
            witness="; ".join(result.failures) or "masked differential diverged",
        )
        return SymbolicVerdict(
            "refuted",
            (f"masked symbolic mismatch at {location}, confirmed by execution",),
            counterexample,
        )
    return _inconclusive(
        f"masked terms differ at {location} with no confirming witness"
    )


__all__ = [
    "Counterexample",
    "SymbolicVerdict",
    "symbolic_masked_verify",
    "symbolic_verify_schedule",
]
