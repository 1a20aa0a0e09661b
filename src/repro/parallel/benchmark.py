"""Serial vs parallel vs warm-cache measurement for one workload.

Shared by ``qpt benchmarks`` and ``benchmarks/bench_headline.py``: build
the same instrumented-and-scheduled executable under several (jobs,
cache) configurations, time each build, and cross-check that every
configuration produced byte-identical output — the differential claim,
measured on the way past.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.dependence import SchedulingPolicy
from ..obs.recorder import Recorder
from ..qpt.profiling import SlowProfiler
from ..spawn.model import MachineModel
from ..workloads.generator import SyntheticProgram
from .cache import ScheduleCache
from .executor import ParallelOptions, make_transform
from .pool import warm_pool


@dataclass
class ModeTiming:
    """One configuration's build, timed."""

    mode: str
    jobs: int
    wall_s: float
    cache_hits: int = 0
    cache_misses: int = 0
    text_bytes: bytes = field(repr=False, default=b"")

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class ScalingReport:
    """Every mode's timing plus the byte-equality verdict."""

    benchmark: str
    machine: str
    modes: list[ModeTiming]
    identical: bool
    #: one-time persistent-pool spawn + worker warm cost, paid at
    #: service start rather than per build; reported separately so the
    #: ``parallel`` mode reflects the pool's steady state.
    pool_spawn_s: float = 0.0

    def speedup(self, mode: str) -> float:
        baseline = self.mode("serial").wall_s
        other = self.mode(mode).wall_s
        return baseline / other if other > 0 else float("inf")

    def mode(self, name: str) -> ModeTiming:
        for timing in self.modes:
            if timing.mode == name:
                return timing
        raise KeyError(f"no mode {name!r} in report")


def _build(
    model: MachineModel,
    policy: SchedulingPolicy,
    program: SyntheticProgram,
    *,
    options: ParallelOptions,
    cache: ScheduleCache | None,
    guarded: bool,
    recorder: Recorder | None,
) -> bytes:
    transform = make_transform(
        model,
        policy,
        recorder,
        options=options,
        cache=cache,
        guarded=guarded,
    )
    profiled = SlowProfiler(program.executable, recorder=recorder).instrument(
        transform
    )
    return bytes(profiled.executable.text_section().data)


def measure_modes(
    model: MachineModel,
    program: SyntheticProgram,
    *,
    benchmark: str = "workload",
    policy: SchedulingPolicy | None = None,
    jobs: int = 4,
    guarded: bool = False,
    recorder: Recorder | None = None,
    repeats: int = 1,
) -> ScalingReport:
    """Time serial / parallel / warm-cache builds of the same edit.

    Modes measured: ``serial`` (jobs=1, no cache — the one-shot build),
    ``cached-cold`` (jobs=1, fresh cache), ``parallel`` (jobs=N, fresh
    cache), and ``cached-warm`` (jobs=1 against the cache the parallel
    build populated — the steady state of builds that share a cache).

    The persistent worker pool is warmed *before* the parallel mode is
    timed and its spawn cost reported separately
    (:attr:`ScalingReport.pool_spawn_s`): the pool spawns once per
    process — at daemon start in production — so folding its one-time
    fork/model-build cost into every measured build would misstate the
    steady state the pool exists to provide. ``guarded`` builds never
    use the pool, so they warm none and report a spawn cost of 0; nor
    does a host with one usable CPU, where the ``parallel`` row is the
    serial transform against a fresh cache.

    ``repeats`` re-runs every mode that many times and reports each
    mode's *fastest* wall time — the standard noise floor for
    single-shot wall benchmarks on a shared machine (noise is strictly
    additive). Every repeat of every mode must still emit identical
    bytes; a fresh schedule cache is used per repeat where the mode
    calls for a cold one.
    """
    policy = policy or SchedulingPolicy(fill_delay_slots=True)
    repeats = max(1, int(repeats))
    modes: list[ModeTiming] = []

    divergent = False

    def timed(
        mode: str,
        *,
        options: ParallelOptions,
        cache_factory=None,
        cache: ScheduleCache | None = None,
    ) -> ScheduleCache | None:
        nonlocal divergent
        best = None
        first_text = None
        for _ in range(repeats):
            run_cache = cache_factory() if cache_factory is not None else cache
            hits0 = run_cache.hits if run_cache is not None else 0
            misses0 = run_cache.misses if run_cache is not None else 0
            start = time.perf_counter()
            text = _build(
                model,
                policy,
                program,
                options=options,
                cache=run_cache,
                guarded=guarded,
                recorder=recorder,
            )
            wall = time.perf_counter() - start
            if first_text is None:
                first_text = text
            elif text != first_text:
                divergent = True
            timing = ModeTiming(
                mode=mode,
                jobs=options.jobs,
                wall_s=wall,
                cache_hits=(run_cache.hits - hits0) if run_cache is not None else 0,
                cache_misses=(
                    (run_cache.misses - misses0) if run_cache is not None else 0
                ),
                text_bytes=text,
            )
            if best is None or timing.wall_s < best.wall_s:
                best = timing
        modes.append(best)
        return run_cache

    timed("serial", options=ParallelOptions(jobs=1))
    timed(
        "cached-cold",
        options=ParallelOptions(jobs=1),
        cache_factory=ScheduleCache,
    )
    pool_spawn_s = 0.0
    if not guarded:
        # A guarded build never leases the pool: it proves every block
        # in this process at any ``jobs``, so its ``parallel`` row is
        # the serial guard against a fresh cache.
        spawn_start = time.perf_counter()
        warm_pool(model, jobs=jobs, recorder=recorder)
        # One untimed build through the pool (throwaway schedule cache):
        # the first build in a fresh process additionally pays one-time
        # lazy transition-table learning, which it persists back to the
        # disk cache when done. Production pays both at daemon start, so
        # the timed ``parallel`` mode below — against a *fresh* cache —
        # is the pool's steady state on a cold schedule cache, which is
        # the number the mode exists to report. The one-time cost is not
        # hidden: it is part of ``pool_spawn_s``.
        _build(
            model,
            policy,
            program,
            options=ParallelOptions(jobs=jobs),
            cache=ScheduleCache(),
            guarded=False,
            recorder=None,
        )
        pool_spawn_s = time.perf_counter() - spawn_start
    warm = timed(
        "parallel",
        options=ParallelOptions(jobs=jobs),
        cache_factory=ScheduleCache,
    )
    timed("cached-warm", options=ParallelOptions(jobs=1), cache=warm)

    reference = modes[0].text_bytes
    identical = (
        all(mode.text_bytes == reference for mode in modes) and not divergent
    )
    return ScalingReport(
        benchmark=benchmark,
        machine=model.name,
        modes=modes,
        identical=identical,
        pool_spawn_s=pool_spawn_s,
    )


def render_report(report: ScalingReport) -> str:
    lines = [
        f"{report.benchmark} on {report.machine}: "
        + ("all modes byte-identical" if report.identical else "OUTPUT DIVERGED")
        + (
            f"  (pool spawn {report.pool_spawn_s * 1e3:.0f} ms, once per process)"
            if report.pool_spawn_s
            else ""
        ),
        f"  {'mode':<12} {'jobs':>4} {'wall ms':>9} {'hits':>6} {'misses':>7} {'hit rate':>9} {'speedup':>8}",
    ]
    for timing in report.modes:
        lines.append(
            f"  {timing.mode:<12} {timing.jobs:>4} {timing.wall_s * 1e3:>9.1f}"
            f" {timing.cache_hits:>6} {timing.cache_misses:>7}"
            f" {timing.hit_rate:>9.1%}"
            f" {report.speedup(timing.mode):>7.2f}x"
        )
    return "\n".join(lines)
