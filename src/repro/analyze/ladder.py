"""The verification ladder: one proof obligation, three gates.

A reordered block may replace its original only when it computes the
same result (the paper's §4 condition for interleaving instrumentation
with the original instructions). :func:`prove_schedule` discharges that
obligation by climbing, cheapest first:

1. **static** — :func:`~repro.analyze.static_verify.static_verify_schedule`
   proves the reorder from the dependence DAG alone, or refutes it
   (not a permutation, or a DAG edge reversed). A static refutation is
   exactly the differential verifier's own structural checks, so it is
   final; a static proof means both orders compute identical states, so
   the differential battery could not fail and is skipped.
2. **symbolic** — :func:`~repro.analyze.sym_verify.symbolic_verify_schedule`
   proves equivalence on all inputs for reorders the DAG cannot decide
   (memory moves across the instrumentation/original boundary), or
   refutes with a witness-confirmed counterexample.
3. **dynamic** — :func:`~repro.core.verify.verify_schedule`, the
   randomized differential battery, for whatever is still inconclusive.

Every schedule the guard emits, every path without speculated code the
superblock pass commits and every block ``qpt verify`` reports is
decided here, so a block's verified bit means the same thing on every
path and at every ``--jobs``.
"""

from __future__ import annotations

from ..core.dependence import SchedulingPolicy
from ..core.verify import DEFAULT_SEED, VerificationResult, verify_schedule
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    ANALYZE_STATIC_ESCALATED,
    ANALYZE_STATIC_PASS,
    ANALYZE_SYMBOLIC_ESCALATED,
    ANALYZE_SYMBOLIC_PASS,
    ANALYZE_SYMBOLIC_REFUTED,
)
from .static_verify import static_verify_schedule
from .sym_verify import symbolic_verify_schedule


def prove_schedule(
    original: list[Instruction],
    scheduled: list[Instruction],
    *,
    policy: SchedulingPolicy | None = None,
    trials: int = 4,
    seed: int = DEFAULT_SEED,
    recorder: Recorder | None = None,
    symbolic: bool = True,
) -> tuple[VerificationResult, str]:
    """Decide whether ``scheduled`` is a safe reordering of ``original``.

    Returns the verdict and the gate that decided it: ``"static"``,
    ``"symbolic"`` or ``"dynamic"``. ``symbolic=False`` skips the
    symbolic gate, so every block the DAG cannot decide goes to the
    differential battery; ``trials`` sizes that battery, and ``seed``
    drives it and the symbolic gate's witness runs. ``recorder``
    receives one ``verify.<gate>`` span per gate tried,
    ``analyze.static_pass`` / ``analyze.static_escalated`` from the
    static gate and ``analyze.symbolic_pass`` /
    ``analyze.symbolic_refuted`` / ``analyze.symbolic_escalated`` from
    the symbolic one.
    """
    rec = recorder if recorder is not None else NULL_RECORDER
    with rec.span("verify.static"):
        static = static_verify_schedule(original, scheduled, policy=policy)
    if static.proven:
        rec.count(ANALYZE_STATIC_PASS)
        return VerificationResult(True), "static"
    if static.refuted:
        return VerificationResult(False, list(static.reasons)), "static"
    rec.count(ANALYZE_STATIC_ESCALATED)
    if symbolic:
        with rec.span("verify.symbolic"):
            verdict = symbolic_verify_schedule(
                original,
                scheduled,
                policy=policy,
                check_structure=False,
                seed=seed,
            )
        if verdict.proven:
            rec.count(ANALYZE_SYMBOLIC_PASS)
            return VerificationResult(True), "symbolic"
        if verdict.refuted:
            rec.count(ANALYZE_SYMBOLIC_REFUTED)
            reasons = list(verdict.reasons)
            if verdict.counterexample is not None:
                reasons.append(f"counterexample: {verdict.counterexample}")
            return VerificationResult(False, reasons), "symbolic"
        rec.count(ANALYZE_SYMBOLIC_ESCALATED)
    with rec.span("verify.dynamic"):
        result = verify_schedule(
            original, scheduled, policy=policy, trials=trials, seed=seed
        )
    return result, "dynamic"


__all__ = ["prove_schedule"]
