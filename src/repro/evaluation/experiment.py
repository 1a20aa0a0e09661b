"""The paper's experiment: profile SPEC95 stand-ins, measure overhead
hidden by scheduling.

Three executables are timed per benchmark (§4.2):

* **uninstrumented** — the compiler-optimized program (Table 2 variant:
  after EEL has *rescheduled* it, factoring out schedule-quality
  differences);
* **instrumented** — QPT2 slow profiling inserted, not scheduled;
* **scheduled** — instrumentation and original instructions scheduled
  together by EEL as each block is laid out.

``% hidden = (instrumented − scheduled) / (instrumented −
uninstrumented)`` — the fraction of instrumentation overhead that
scheduling recovered. Time is measured in simulated pipeline issue
cycles. By default (``trace_timing``) a build's cost is its trace
timing (:func:`~repro.pipeline.timing.timed_run`): only the compiled
input runs functionally, and every other build is timed by replaying
its own blocks along the path that run recorded, since scheduling and
instrumentation leave control flow unchanged. A build the replay
cannot place (one whose block map does not chain one for one, such as
a superblock build whose compensation added trampoline blocks) runs
for real, and each such run is counted. With ``trace_timing=False`` the
cost is the frequency-weighted sum of each block's issue cycles on the
machine model (block frequencies are known analytically from the
workload generator).

Every build schedules through the transform ``qpt instrument --jobs 1``
uses (:func:`~repro.parallel.executor.make_transform` with default
options): serial, in this process, with no schedule cache. The cache
paid nothing here (``docs/performance.md``), and parallelism belongs
at the grain of whole experiments.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ..cache.icache import DEFAULT_MISS_RATES, ICacheModel
from ..core.dependence import SchedulingPolicy
from ..core.optimizer import ImprovedScheduler
from ..eel.cfg import build_cfg
from ..eel.editor import Editor
from ..eel.executable import Executable
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.report import (
    TIMING_MEMO_EVICTIONS,
    TIMING_MEMO_HITS,
    TIMING_MEMO_MISSES,
    TIMING_REAL,
    TIMING_RECORDED,
    TIMING_REPLAYED,
)
from ..parallel.executor import make_transform
from ..pipeline.simulator import BlockSimulator
from ..pipeline.timing import timed_run
from ..qpt.profiling import SlowProfiler
from ..robust.guard import GuardBudget
from ..spawn.library import load_machine
from ..spawn.model import MachineModel
from ..workloads.generator import SyntheticProgram
from ..workloads.spec95 import generate_benchmark, is_fp


@dataclass(frozen=True)
class BenchmarkResult:
    """One row of a paper table."""

    benchmark: str
    machine: str
    avg_block_size: float
    uninstrumented_cycles: int
    instrumented_cycles: int
    scheduled_cycles: int
    #: Table 2's Uninst column ratio: rescheduled baseline vs original.
    baseline_ratio: float = 1.0
    text_expansion: float = 1.0
    #: metric snapshot (``MetricsRegistry.snapshot()``) when the
    #: experiment ran with a recorder; benchmarks assert on it.
    metrics: dict | None = field(default=None, compare=False, repr=False)

    @property
    def instrumented_ratio(self) -> float:
        return self.instrumented_cycles / self.uninstrumented_cycles

    @property
    def scheduled_ratio(self) -> float:
        return self.scheduled_cycles / self.uninstrumented_cycles

    @property
    def overhead_cycles(self) -> int:
        return self.instrumented_cycles - self.uninstrumented_cycles

    @property
    def pct_hidden(self) -> float:
        """Fraction of instrumentation overhead hidden by scheduling."""
        overhead = self.overhead_cycles
        if overhead <= 0:
            return 0.0
        return (self.instrumented_cycles - self.scheduled_cycles) / overhead


def program_cycles(
    model: MachineModel,
    executable: Executable,
    frequencies: dict[int, int],
    *,
    icache: ICacheModel | None = None,
    text_expansion: float = 1.0,
) -> int:
    """Frequency-weighted issue cycles of every block of ``executable``.

    ``frequencies`` is keyed by block position; the editor preserves
    block order, so positions map 1:1 between the original and any
    edited executable.
    """
    cfg = build_cfg(executable)
    if len(cfg) != len(frequencies):
        raise ValueError(
            f"block count changed: {len(cfg)} blocks vs "
            f"{len(frequencies)} frequencies"
        )
    simulator = BlockSimulator(model)
    total = 0
    dynamic_instructions = 0
    for block in cfg:
        freq = frequencies[block.index]
        if freq == 0:
            continue
        total += freq * simulator.block_cycles(block.instructions())
        dynamic_instructions += freq * block.instruction_count
    if icache is not None:
        total += icache.penalty_cycles(dynamic_instructions, text_expansion)
    return total


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol options for one table.

    ``machine`` is a shipped machine name, or a :class:`MachineModel`
    instance for synthetic machines (the width-sweep bench).
    """

    machine: str | MachineModel = "ultrasparc"
    reschedule_baseline: bool = False  # Table 2 protocol
    trip_count: int = 60
    policy: SchedulingPolicy = SchedulingPolicy()
    #: apply the Lebeck–Wood i-cache penalty on top of pipeline cycles.
    model_icache: bool = False
    #: random-restart budget for the compiler-quality optimizer.
    optimizer_restarts: int = 12
    #: True: time by executing the binary and driving the pipeline model
    #: in dynamic order (carries stalls across blocks — the default).
    #: False: frequency-weighted per-block issue cycles (fast, analytic).
    trace_timing: bool = True
    max_instructions: int = 5_000_000
    #: schedule through the verify-and-fallback guard
    #: (:class:`~repro.robust.guard.GuardedBlockScheduler`); quarantine
    #: and fallback counters then land in ``BenchmarkResult.metrics``.
    guarded: bool = False
    guard_budget: GuardBudget | None = None
    #: schedule across profile-guided superblocks
    #: (:class:`~repro.core.superblock.SuperblockScheduler`), driven by
    #: the workload's known block frequencies. True for the default
    #: formation knobs, or a
    #: :class:`~repro.core.superblock.SuperblockConfig`. Requires
    #: ``trace_timing``: compensation trampolines add blocks, which the
    #: analytic per-block timing cannot attribute.
    superblock: "bool | object" = False


def run_profiling_experiment(
    benchmark: str,
    config: ExperimentConfig | None = None,
    *,
    program: SyntheticProgram | None = None,
    recorder: Recorder | None = None,
    ledger: str | os.PathLike | None = None,
) -> BenchmarkResult:
    """Run the three-way profiling experiment for one benchmark.

    ``ledger`` appends one ``kind="experiment"`` record to the run
    ledger (:mod:`repro.obs.ledger`): git SHA, timestamp, model/policy
    digests, the headline cycle counts, and — when a recorder is live —
    the hazard-bucket and counter summary.
    """
    started = time.perf_counter()
    config = config or ExperimentConfig()
    if config.superblock and not config.trace_timing:
        raise ValueError(
            "superblock scheduling requires trace_timing=True: side-exit "
            "compensation adds trampoline blocks, which per-block "
            "frequency-weighted timing cannot attribute"
        )
    rec = recorder if recorder is not None else NULL_RECORDER
    if isinstance(config.machine, MachineModel):
        model = config.machine
        calibration_machine = "ultrasparc"
    else:
        model = load_machine(config.machine)
        calibration_machine = config.machine
    if program is None:
        program = generate_benchmark(
            benchmark, machine=calibration_machine, trip_count=config.trip_count
        )
    frequencies = program.frequencies

    icache = None
    if config.model_icache:
        icache = ICacheModel(DEFAULT_MISS_RATES["fp" if is_fp(benchmark) else "int"])

    memo = model.tables.memo
    memo_before = (memo.hits, memo.misses, memo.evictions)
    #: the path the compiled input's functional run executed; every
    #: later build is replayed along it.
    recorded = None

    def cycles(executable: Executable, expansion: float = 1.0) -> int:
        nonlocal recorded
        with rec.span("eval.time", benchmark=benchmark):
            if config.trace_timing:
                run = timed_run(
                    model,
                    executable,
                    max_instructions=config.max_instructions,
                    along=recorded,
                )
                if recorded is None:
                    recorded = run.path
                    rec.count(TIMING_RECORDED)
                elif run.replayed:
                    rec.count(TIMING_REPLAYED)
                else:
                    rec.count(TIMING_REAL[run.fallback])
                total = run.cycles
                if icache is not None:
                    total += icache.penalty_cycles(run.instructions, expansion)
                return total
            return program_cycles(
                model,
                executable,
                frequencies,
                icache=icache,
                text_expansion=expansion,
            )

    def block_scheduler(recorder: Recorder | None = None, *, superblock: bool = False):
        profile = None
        if superblock and config.superblock:
            from ..core.superblock import Profile

            profile = Profile(frequencies)
        return make_transform(
            model,
            config.policy,
            recorder,
            guarded=config.guarded,
            guard_budget=config.guard_budget,
            superblock=config.superblock if superblock else False,
            profile=profile,
        )

    # The "compiled -fast -xO4" input: a stronger-than-EEL scheduler has
    # already ordered every block.
    optimizer = ImprovedScheduler(
        model, restarts=config.optimizer_restarts, seed=program.spec.seed
    )
    with rec.span("eval.compile", benchmark=benchmark):
        compiled = Editor(program.executable, recorder=rec).build(optimizer)
    original_cycles = cycles(compiled)

    baseline = compiled
    uninstrumented = original_cycles
    baseline_ratio = 1.0
    if config.reschedule_baseline:
        with rec.span("eval.reschedule_baseline", benchmark=benchmark):
            baseline = Editor(compiled, recorder=rec).build(block_scheduler())
        uninstrumented = cycles(baseline)
        baseline_ratio = uninstrumented / original_cycles

    with rec.span("eval.instrument", benchmark=benchmark):
        plain = SlowProfiler(baseline, recorder=rec).instrument()
    instrumented = cycles(plain.executable, plain.text_expansion)

    with rec.span("eval.instrument_scheduled", benchmark=benchmark):
        scheduled_program = SlowProfiler(baseline, recorder=rec).instrument(
            block_scheduler(rec, superblock=True)
        )
    scheduled = cycles(scheduled_program.executable, scheduled_program.text_expansion)
    for name, before, after in zip(
        (TIMING_MEMO_HITS, TIMING_MEMO_MISSES, TIMING_MEMO_EVICTIONS),
        memo_before,
        (memo.hits, memo.misses, memo.evictions),
    ):
        if after > before:
            rec.count(name, after - before)

    result = BenchmarkResult(
        benchmark=benchmark,
        machine=model.name,
        avg_block_size=program.avg_dynamic_block_size,
        uninstrumented_cycles=uninstrumented,
        instrumented_cycles=instrumented,
        scheduled_cycles=scheduled,
        baseline_ratio=baseline_ratio,
        text_expansion=plain.text_expansion,
        metrics=rec.metrics.snapshot() if rec.enabled and rec.metrics else None,
    )
    if ledger is not None:
        _append_ledger_record(
            ledger, config, model, result, rec, time.perf_counter() - started
        )
    return result


def _append_ledger_record(
    ledger: str | os.PathLike,
    config: ExperimentConfig,
    model: MachineModel,
    result: BenchmarkResult,
    rec: Recorder,
    wall_s: float,
) -> None:
    """One ``kind="experiment"`` line in the run ledger. The digests
    reuse the schedule cache's content addressing, so a record is
    traceable to the exact (model, policy) that produced it."""
    from ..obs.ledger import append_record, make_record
    from ..parallel.fingerprint import (
        context_digest,
        model_digest,
        policy_digest,
    )

    record = make_record(
        "experiment",
        run={
            "benchmark": result.benchmark,
            "machine": result.machine,
            "guarded": config.guarded,
            "superblock": bool(config.superblock),
            "reschedule_baseline": config.reschedule_baseline,
        },
        digests={
            "model": model_digest(model),
            "policy": policy_digest(config.policy),
            "context": context_digest(model, config.policy),
        },
        wall_s=wall_s,
        metrics=rec.metrics if rec.enabled else None,
        results={
            "uninstrumented_cycles": result.uninstrumented_cycles,
            "instrumented_cycles": result.instrumented_cycles,
            "scheduled_cycles": result.scheduled_cycles,
            "pct_hidden": round(result.pct_hidden, 6),
            "text_expansion": round(result.text_expansion, 6),
            "baseline_ratio": round(result.baseline_ratio, 6),
        },
    )
    append_record(ledger, record)
