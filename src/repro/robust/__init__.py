"""Robustness: guarded scheduling, fault injection, typed errors.

The enforcement layer for the paper's safety claim. An executable
editor that reorders instructions must prove each edit safe or refuse
to make it; this package makes that a *runtime* property of the
production path, not a test-suite-only one:

* :class:`GuardedBlockScheduler` — verify-and-fallback around the block
  scheduler: every scheduled block is proven by the verification
  ladder (:func:`~repro.analyze.ladder.prove_schedule`); failures fall
  back to the original instruction order and are quarantined
  (:class:`QuarantineReport`), with budgets (:class:`GuardBudget`) for
  graceful degradation under instruction-count or wall-clock pressure.
* :mod:`repro.robust.faults` — a fault-injection harness that corrupts
  machine models, instruction encodings, and scheduler decisions, and
  asserts every injected fault is caught.
* :mod:`repro.robust.supervise` — worker supervision for the parallel
  scheduler: per-shard deadlines, crash/hang detection, bounded
  bisecting retry, and guaranteed degradation to the serial path.
* :mod:`repro.robust.chaos` — process-level chaos testing: worker
  crashes, hangs, corrupted IPC, torn ledger writes, and bit-flipped
  cache entries injected into live parallel runs, asserting containment
  and byte-identical output.
* the unified error taxonomy rooted at
  :class:`~repro.errors.ReproError` (re-exported here), so every layer
  fails with a typed, catchable error.

See ``docs/robustness.md``.
"""

from ..errors import BudgetExceeded, ParallelError, ReproError, VerificationError
from .faults import (
    MODEL_FAULTS,
    SCHEDULER_MUTATIONS,
    SYMBOLIC_MUTATIONS,
    ClobberingProfiler,
    CorruptedModel,
    FaultInjectionReport,
    FaultOutcome,
    ModelFault,
    SabotagedScheduler,
    default_workload,
    inject_cache_faults,
    inject_clobber_faults,
    inject_encoding_faults,
    inject_model_faults,
    inject_scheduler_faults,
    inject_superblock_faults,
    inject_symbolic_faults,
    run_fault_injection,
)
from .guard import GuardBudget, GuardedBlockScheduler, QuarantineReport
from .supervise import (
    ShardFailure,
    ShardSupervisor,
    SupervisionOutcome,
    SupervisionPolicy,
)

# Imported last: chaos drives repro.parallel, which imports this
# package's guard — by now both are resolvable from sys.modules.
from .chaos import CHAOS_FAULTS, ChaosOutcome, ChaosReport, run_chaos_suite

__all__ = [
    "BudgetExceeded",
    "CHAOS_FAULTS",
    "ChaosOutcome",
    "ChaosReport",
    "ClobberingProfiler",
    "CorruptedModel",
    "FaultInjectionReport",
    "FaultOutcome",
    "GuardBudget",
    "GuardedBlockScheduler",
    "MODEL_FAULTS",
    "ModelFault",
    "ParallelError",
    "QuarantineReport",
    "ReproError",
    "SCHEDULER_MUTATIONS",
    "SYMBOLIC_MUTATIONS",
    "SabotagedScheduler",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisionOutcome",
    "SupervisionPolicy",
    "VerificationError",
    "default_workload",
    "inject_cache_faults",
    "inject_clobber_faults",
    "inject_encoding_faults",
    "inject_model_faults",
    "inject_scheduler_faults",
    "inject_superblock_faults",
    "inject_symbolic_faults",
    "run_chaos_suite",
    "run_fault_injection",
]
