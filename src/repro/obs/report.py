"""Canonical metric names and human-readable rendering.

The instrumented layers agree on these names so the reporter (and
benchmark assertions) can find them. ``pipeline.stall_cycles`` is the
*attribution*: each committed stall cycle counted exactly once, under
its primary (first-failing) hazard — so its grand total equals the sum
of ``WalkResult.stalls`` over every issued instruction.
``pipeline.hazards`` counts every failing condition, including the
overlapping ones behind the primary, and therefore may exceed it.
"""

from __future__ import annotations

from .metrics import LabelKey, MetricsRegistry

#: One count per committed stall cycle, labeled with the primary hazard:
#: ``kind=structural, unit=<unit>`` or ``kind=raw|waw|war,
#: regclass=<register file>``.
STALL_CYCLES = "pipeline.stall_cycles"

#: Every failing hazard condition observed during stalled cycles (a
#: cycle blocked by both a RAW and a structural hazard counts in both).
HAZARDS = "pipeline.hazards"

#: Committed instruction issues (one per ``pipeline.stalls.issue``).
ISSUES = "pipeline.issues"

#: Issues whose stall walk was served from the model's compiled
#: transition tables (``repro.pipeline.tables``), vs. issues that fell
#: back to the interpreted walker (state tracking lost past the
#: enumeration budget, or a machine the tables cannot encode).
TABLE_HITS = "pipeline.table_hits"
TABLE_FALLBACKS = "pipeline.table_fallbacks"

#: Trace timing in the paper's experiment (``repro.evaluation``): the
#: one functional run per experiment whose path is recorded, builds
#: timed by replaying their blocks along it, and builds that ran for
#: real instead, by reason — a build whose block map does not chain one
#: for one to the recorded program, or a replay the compiled tables
#: could not carry.
TIMING_RECORDED = "timing.recorded"
TIMING_REPLAYED = "timing.replayed"
TIMING_REAL = {
    reason: f"timing.real.{reason}" for reason in ("unchained", "table_miss")
}
#: Trace timing's segment memo (``repro.pipeline.tables.SegmentMemo``):
#: segments advanced from a memoized entry, segments issued through the
#: lean stream and stored, and entries evicted to keep it bounded.
TIMING_MEMO_HITS = "timing.memo_hits"
TIMING_MEMO_MISSES = "timing.memo_misses"
TIMING_MEMO_EVICTIONS = "timing.memo_evictions"

#: One per forward-pass scheduling decision.
SCHED_DECISIONS = "scheduler.decisions"
#: Histogram of the candidate (ready) set size at each decision.
SCHED_READY_SET = "scheduler.ready_set_size"
#: Histogram of the chosen instruction's stall count.
SCHED_CHOSEN_STALLS = "scheduler.chosen_stalls"
#: Which priority component decided: reason=stalls|chain|program_order.
SCHED_TIE_BREAK = "scheduler.tie_break"
#: Blocks handed to the block scheduler / delay slots it refilled.
SCHED_BLOCKS = "scheduler.blocks"
SCHED_DELAY_SLOTS = "scheduler.delay_slots_filled"

#: Superblock pass (``repro.core.superblock``): committed superblocks,
#: a histogram of their lengths in blocks, compensation copies emitted
#: on side exits, and instructions moved across block boundaries.
SB_FORMED = "superblock.formed"
SB_LEN = "superblock.len_histogram"
SB_COMPENSATION = "superblock.compensation_copies"
SB_CROSS_MOVES = "superblock.cross_block_moves"

#: Blocks that passed post-schedule verification in the guarded path.
GUARD_BLOCKS_VERIFIED = "guard.blocks_verified"
#: Quarantined blocks, labeled ``kind=verification|scheduler-error|budget|model``.
GUARD_QUARANTINED = "guard.quarantined"
#: Blocks emitted in their original order instead of the schedule.
GUARD_FALLBACKS = "guard.fallbacks"
#: Guarded blocks served wholesale from verified schedule-cache entries.
GUARD_CACHE_SERVED = "guard.cache_served"

#: Schedule-cache traffic (see ``repro.parallel.cache``).
CACHE_HITS = "schedule_cache.hits"
CACHE_MISSES = "schedule_cache.misses"
CACHE_INSERTS = "schedule_cache.inserts"
CACHE_EVICTIONS = "schedule_cache.evictions"
#: Entries whose integrity checksum failed at lookup: dropped and
#: treated as a miss (the region is simply re-scheduled).
CACHE_CORRUPT = "schedule_cache.corrupt_dropped"

#: Parallel executor: routine shards dispatched, regions scheduled in
#: workers, and builds that fell back to the serial path.
PARALLEL_SHARDS = "parallel.shards"
PARALLEL_REGIONS = "parallel.regions_scheduled"
PARALLEL_FALLBACKS = "parallel.serial_fallbacks"
#: Worker supervision (see ``repro.robust.supervise``): dead worker
#: pools, shard deadlines that fired, retried/bisected shard units,
#: worker results rejected by parent-side integrity checks, and builds
#: where some work degraded to the serial path after retries ran out.
PARALLEL_WORKER_CRASHES = "parallel.worker_crashes"
PARALLEL_WORKER_HANGS = "parallel.worker_hangs"
PARALLEL_SHARD_RETRIES = "parallel.shard_retries"
PARALLEL_IPC_REJECTED = "parallel.ipc_rejected"
PARALLEL_DEGRADED = "parallel.degraded_serial"

#: Persistent worker pools (``repro.parallel.pool``): pools spawned,
#: builds served by an already-warm pool, and pools retired after a
#: crash/hang teardown (the next build respawns fresh workers).
POOL_SPAWNS = "pool.spawns"
POOL_REUSES = "pool.reuses"
POOL_RETIRES = "pool.retires"

#: Scheduling daemon (``repro.serve``): requests answered, requests
#: refused by admission control, batches executed through the shared
#: service, requests that failed with an error response, and requests
#: answered from the result memo without a build.
SERVE_REQUESTS = "serve.requests"
SERVE_REJECTED = "serve.rejected"
SERVE_BATCHES = "serve.batches"
SERVE_ERRORS = "serve.errors"
SERVE_MEMO_HITS = "serve.memo_hits"

#: Static pre-verifier (``repro.analyze``): blocks proven legal from the
#: dependence DAG alone (differential execution skipped) vs. escalated
#: to the full dynamic battery; and lint findings, labeled by severity.
ANALYZE_STATIC_PASS = "analyze.static_pass"
ANALYZE_STATIC_ESCALATED = "analyze.static_escalated"
ANALYZE_SYMBOLIC_PASS = "analyze.symbolic_pass"
ANALYZE_SYMBOLIC_REFUTED = "analyze.symbolic_refuted"
ANALYZE_SYMBOLIC_ESCALATED = "analyze.symbolic_escalated"
ANALYZE_FINDINGS = "analyze.findings"

#: The four hazard buckets, in reporting order.
HAZARD_KINDS = ("structural", "raw", "waw", "war")


def _fmt_labels(key: LabelKey, drop: frozenset[str] = frozenset()) -> str:
    parts = [f"{k}={v}" for k, v in key if k not in drop]
    return " ".join(parts) if parts else "-"


def _label(key: LabelKey, name: str) -> str | None:
    for k, v in key:
        if k == name:
            return v
    return None


def stall_attribution_table(metrics: MetricsRegistry) -> str:
    """The structural/RAW/WAW/WAR cycle totals by unit / register class."""
    series = metrics.counter_series(STALL_CYCLES)
    lines = ["stall attribution (cycles, by primary hazard):"]
    if series:
        width = max(len(_fmt_labels(key, frozenset(("kind",)))) for key in series)
        rows = sorted(series.items(), key=lambda kv: (-kv[1], kv[0]))
        for key, value in rows:
            kind = _label(key, "kind") or "?"
            where = _fmt_labels(key, frozenset(("kind",)))
            lines.append(f"  {kind:<11} {where:<{width}}  {int(value):>8}")
    totals = "  ".join(
        f"{kind}={int(metrics.counter_total(STALL_CYCLES, kind=kind))}"
        for kind in HAZARD_KINDS
    )
    total = int(metrics.counter_total(STALL_CYCLES))
    lines.append(f"  total {total} stall cycles  ({totals})")
    overlapping = int(metrics.counter_total(HAZARDS)) - total
    if overlapping > 0:
        lines.append(
            f"  (+{overlapping} overlapping hazard conditions beyond the primary)"
        )
    return "\n".join(lines)


def phase_timing_table(metrics: MetricsRegistry) -> str:
    """Phase spans, aggregated: calls, total and mean milliseconds."""
    lines = ["phase timings:"]
    rows = []
    for name, series in metrics.timers.items():
        for key, cell in series.items():
            label = name if not key else f"{name}[{_fmt_labels(key)}]"
            rows.append((cell.total, label, cell))
    if not rows:
        lines.append("  (no phases recorded)")
        return "\n".join(lines)
    width = max(len(label) for _, label, _ in rows)
    lines.append(f"  {'phase':<{width}}  {'calls':>7}  {'total ms':>10}  {'mean ms':>9}")
    for total, label, cell in sorted(rows, key=lambda row: -row[0]):
        lines.append(
            f"  {label:<{width}}  {cell.count:>7}  {total * 1e3:>10.3f}"
            f"  {cell.mean * 1e3:>9.4f}"
        )
    return "\n".join(lines)


def scheduler_table(metrics: MetricsRegistry) -> str:
    """Forward-pass decision telemetry, when a scheduler ran."""
    decisions = int(metrics.counter_total(SCHED_DECISIONS))
    if decisions == 0:
        return ""
    lines = [f"scheduler decisions: {decisions}"]
    ready = metrics.histograms.get(SCHED_READY_SET, {})
    for key, cell in sorted(ready.items()):
        lines.append(
            f"  ready-set size: mean {cell.mean:.2f}, max {int(cell.max)}"
        )
    chosen = metrics.histograms.get(SCHED_CHOSEN_STALLS, {})
    for key, cell in sorted(chosen.items()):
        lines.append(
            f"  chosen stalls:  mean {cell.mean:.2f}, max {int(cell.max)}"
        )
    ties = metrics.counter_series(SCHED_TIE_BREAK)
    if ties:
        breakdown = ", ".join(
            f"{_label(key, 'reason')}={int(value)}"
            for key, value in sorted(ties.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"  decided by:     {breakdown}")
    blocks = int(metrics.counter_total(SCHED_BLOCKS))
    slots = int(metrics.counter_total(SCHED_DELAY_SLOTS))
    if blocks:
        lines.append(f"  blocks scheduled: {blocks} (delay slots refilled: {slots})")
    return "\n".join(lines)


def superblock_table(metrics: MetricsRegistry) -> str:
    """Superblock-pass telemetry, when the pass committed anything."""
    formed = int(metrics.counter_total(SB_FORMED))
    if formed == 0:
        return ""
    moves = int(metrics.counter_total(SB_CROSS_MOVES))
    copies = int(metrics.counter_total(SB_COMPENSATION))
    lines = [
        f"superblocks: {formed} formed "
        f"({moves} cross-block moves, {copies} compensation copies)"
    ]
    lengths = metrics.histograms.get(SB_LEN, {})
    for _key, cell in sorted(lengths.items()):
        lines.append(
            f"  length (blocks): mean {cell.mean:.2f}, max {int(cell.max)}"
        )
    return "\n".join(lines)


def guard_table(metrics: MetricsRegistry) -> str:
    """Verify-and-fallback telemetry, when guarded scheduling ran."""
    verified = int(metrics.counter_total(GUARD_BLOCKS_VERIFIED))
    quarantined = int(metrics.counter_total(GUARD_QUARANTINED))
    if verified == 0 and quarantined == 0:
        return ""
    fallbacks = int(metrics.counter_total(GUARD_FALLBACKS))
    lines = [
        f"guarded scheduling: {verified} blocks verified, "
        f"{quarantined} quarantined (fallbacks: {fallbacks})"
    ]
    series = metrics.counter_series(GUARD_QUARANTINED)
    for key, value in sorted(series.items(), key=lambda kv: -kv[1]):
        kind = _label(key, "kind") or "?"
        lines.append(f"  {kind:<16} {int(value):>8}")
    return "\n".join(lines)


def timing_table(metrics: MetricsRegistry) -> str:
    """Trace-timing telemetry, when an experiment timed builds."""
    recorded = int(metrics.counter_total(TIMING_RECORDED))
    replayed = int(metrics.counter_total(TIMING_REPLAYED))
    real = {
        reason: int(metrics.counter_total(name)) for reason, name in TIMING_REAL.items()
    }
    if not (recorded or replayed or any(real.values())):
        return ""
    reasons = ", ".join(f"{reason} {count}" for reason, count in real.items())
    hits = int(metrics.counter_total(TIMING_MEMO_HITS))
    misses = int(metrics.counter_total(TIMING_MEMO_MISSES))
    evictions = int(metrics.counter_total(TIMING_MEMO_EVICTIONS))
    segments = hits + misses
    rate = hits / segments if segments else 0.0
    return "\n".join(
        [
            f"trace timing: {recorded} recorded runs, {replayed} replayed builds, "
            f"{sum(real.values())} real runs ({reasons})",
            f"  segment memo: {hits} hits / {misses} misses ({rate:.1%} hit rate), "
            f"{evictions} evictions",
        ]
    )


def cache_table(metrics: MetricsRegistry) -> str:
    """Schedule-cache and parallel-executor telemetry, when either ran."""
    hits = int(metrics.counter_total(CACHE_HITS))
    misses = int(metrics.counter_total(CACHE_MISSES))
    shards = int(metrics.counter_total(PARALLEL_SHARDS))
    crashes = int(metrics.counter_total(PARALLEL_WORKER_CRASHES))
    hangs = int(metrics.counter_total(PARALLEL_WORKER_HANGS))
    retries = int(metrics.counter_total(PARALLEL_SHARD_RETRIES))
    rejected = int(metrics.counter_total(PARALLEL_IPC_REJECTED))
    degraded = int(metrics.counter_total(PARALLEL_DEGRADED))
    supervision = crashes or hangs or retries or rejected or degraded
    if hits == 0 and misses == 0 and shards == 0 and not supervision:
        return ""
    total = hits + misses
    rate = hits / total if total else 0.0
    lines = [
        f"schedule cache: {hits} hits / {misses} misses "
        f"({rate:.1%} hit rate)"
    ]
    inserts = int(metrics.counter_total(CACHE_INSERTS))
    evictions = int(metrics.counter_total(CACHE_EVICTIONS))
    served = int(metrics.counter_total(GUARD_CACHE_SERVED))
    corrupt = int(metrics.counter_total(CACHE_CORRUPT))
    lines.append(f"  inserts {inserts}, evictions {evictions}")
    if corrupt:
        lines.append(f"  corrupt entries dropped at lookup: {corrupt}")
    if served:
        lines.append(f"  guarded blocks served from verified entries: {served}")
    if shards or supervision:
        regions = int(metrics.counter_total(PARALLEL_REGIONS))
        fallbacks = int(metrics.counter_total(PARALLEL_FALLBACKS))
        lines.append(
            f"  parallel executor: {shards} routine shards, "
            f"{regions} regions scheduled in workers"
            + (f", {fallbacks} serial fallbacks" if fallbacks else "")
        )
    if supervision:
        lines.append(
            f"  supervision: {crashes} worker crashes, {hangs} hangs, "
            f"{retries} shard retries, {rejected} IPC results rejected"
            + (", degraded to serial" if degraded else "")
        )
    spawns = int(metrics.counter_total(POOL_SPAWNS))
    reuses = int(metrics.counter_total(POOL_REUSES))
    if spawns or reuses:
        pool_retires = int(metrics.counter_total(POOL_RETIRES))
        lines.append(
            f"  worker pool: {spawns} spawned, {reuses} builds served warm"
            + (f", {pool_retires} retired" if pool_retires else "")
        )
    return "\n".join(lines)


def analyze_table(metrics: MetricsRegistry) -> str:
    """Static-analyzer telemetry: the pre-verifier gate and lint tallies."""
    lines = []
    proven = int(metrics.counter_total(ANALYZE_STATIC_PASS))
    escalated = int(metrics.counter_total(ANALYZE_STATIC_ESCALATED))
    if proven or escalated:
        total = proven + escalated
        lines.append(
            f"static pre-verifier: {proven}/{total} blocks proven statically "
            f"({escalated} escalated to differential execution)"
        )
    sym_pass = int(metrics.counter_total(ANALYZE_SYMBOLIC_PASS))
    sym_refuted = int(metrics.counter_total(ANALYZE_SYMBOLIC_REFUTED))
    sym_escalated = int(metrics.counter_total(ANALYZE_SYMBOLIC_ESCALATED))
    if sym_pass or sym_refuted or sym_escalated:
        lines.append(
            f"symbolic validator: {sym_pass} proven, {sym_refuted} refuted "
            f"({sym_escalated} escalated to differential execution)"
        )
    findings = int(metrics.counter_total(ANALYZE_FINDINGS))
    if findings:
        series = metrics.counter_series(ANALYZE_FINDINGS)
        by_severity = ", ".join(
            f"{int(value)} {_label(key, 'severity') or '?'}"
            for key, value in sorted(series.items())
        )
        lines.append(f"lint findings: {by_severity}")
    return "\n".join(lines)


#: Counter series summarized (as plain totals) by :func:`stats_payload`
#: — one canonical key per counter the ``--stats`` panel renders, so
#: the run ledger and external tooling consume the same numbers.
SUMMARY_COUNTERS = {
    "stall_cycles": STALL_CYCLES,
    "hazard_conditions": HAZARDS,
    "issues": ISSUES,
    "table_hits": TABLE_HITS,
    "table_fallbacks": TABLE_FALLBACKS,
    "timing_recorded": TIMING_RECORDED,
    "timing_replayed": TIMING_REPLAYED,
    **{f"timing_real_{reason}": name for reason, name in TIMING_REAL.items()},
    "timing_memo_hits": TIMING_MEMO_HITS,
    "timing_memo_misses": TIMING_MEMO_MISSES,
    "timing_memo_evictions": TIMING_MEMO_EVICTIONS,
    "sched_decisions": SCHED_DECISIONS,
    "sched_blocks": SCHED_BLOCKS,
    "sched_delay_slots": SCHED_DELAY_SLOTS,
    "superblocks_formed": SB_FORMED,
    "superblock_cross_moves": SB_CROSS_MOVES,
    "superblock_compensation": SB_COMPENSATION,
    "guard_blocks_verified": GUARD_BLOCKS_VERIFIED,
    "guard_quarantined": GUARD_QUARANTINED,
    "guard_fallbacks": GUARD_FALLBACKS,
    "guard_cache_served": GUARD_CACHE_SERVED,
    "cache_hits": CACHE_HITS,
    "cache_misses": CACHE_MISSES,
    "cache_inserts": CACHE_INSERTS,
    "cache_evictions": CACHE_EVICTIONS,
    "cache_corrupt_dropped": CACHE_CORRUPT,
    "parallel_shards": PARALLEL_SHARDS,
    "parallel_regions": PARALLEL_REGIONS,
    "parallel_fallbacks": PARALLEL_FALLBACKS,
    "parallel_worker_crashes": PARALLEL_WORKER_CRASHES,
    "parallel_worker_hangs": PARALLEL_WORKER_HANGS,
    "parallel_shard_retries": PARALLEL_SHARD_RETRIES,
    "parallel_ipc_rejected": PARALLEL_IPC_REJECTED,
    "parallel_degraded_serial": PARALLEL_DEGRADED,
    "pool_spawns": POOL_SPAWNS,
    "pool_reuses": POOL_REUSES,
    "pool_retires": POOL_RETIRES,
    "serve_requests": SERVE_REQUESTS,
    "serve_rejected": SERVE_REJECTED,
    "serve_batches": SERVE_BATCHES,
    "serve_errors": SERVE_ERRORS,
    "serve_memo_hits": SERVE_MEMO_HITS,
    "analyze_static_pass": ANALYZE_STATIC_PASS,
    "analyze_static_escalated": ANALYZE_STATIC_ESCALATED,
    "analyze_symbolic_pass": ANALYZE_SYMBOLIC_PASS,
    "analyze_symbolic_refuted": ANALYZE_SYMBOLIC_REFUTED,
    "analyze_symbolic_escalated": ANALYZE_SYMBOLIC_ESCALATED,
    "analyze_findings": ANALYZE_FINDINGS,
}


def stats_payload(metrics: MetricsRegistry, *, snapshot: bool = False) -> dict:
    """The ``--stats`` panel as a machine-readable dict.

    The same numbers :func:`render_stats` prints, in a stable shape:
    ``hazards`` holds the four attribution buckets, ``counters`` the
    totals of every canonical counter (see :data:`SUMMARY_COUNTERS`;
    zero-valued counters are omitted), and ``cache_hit_rate`` is
    derived. ``snapshot=True`` additionally attaches the full labeled
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`. This is what
    ``qpt --stats-format json`` prints and what the run ledger stores,
    so external tooling and ledger history always agree.
    """
    payload: dict = {
        "hazards": {
            kind: int(metrics.counter_total(STALL_CYCLES, kind=kind))
            for kind in HAZARD_KINDS
        },
        "counters": {},
    }
    for key, name in SUMMARY_COUNTERS.items():
        total = metrics.counter_total(name)
        if total:
            payload["counters"][key] = (
                int(total) if float(total).is_integer() else total
            )
    hits = metrics.counter_total(CACHE_HITS)
    lookups = hits + metrics.counter_total(CACHE_MISSES)
    if lookups:
        payload["cache_hit_rate"] = round(hits / lookups, 4)
    if snapshot:
        payload["snapshot"] = metrics.snapshot()
    return payload


def render_stats(metrics: MetricsRegistry) -> str:
    """The full ``--stats`` panel: attribution, decisions, timings."""
    sections = [stall_attribution_table(metrics)]
    scheduler = scheduler_table(metrics)
    if scheduler:
        sections.append(scheduler)
    superblock = superblock_table(metrics)
    if superblock:
        sections.append(superblock)
    guard = guard_table(metrics)
    if guard:
        sections.append(guard)
    timing = timing_table(metrics)
    if timing:
        sections.append(timing)
    cache = cache_table(metrics)
    if cache:
        sections.append(cache)
    analyze = analyze_table(metrics)
    if analyze:
        sections.append(analyze)
    served = int(metrics.counter_total(SERVE_REQUESTS))
    if served:
        memo_hits = int(metrics.counter_total(SERVE_MEMO_HITS))
        sections.append(
            f"serve: {served} requests answered, {memo_hits} from the result memo"
        )
    sections.append(phase_timing_table(metrics))
    issues = int(metrics.counter_total(ISSUES))
    if issues:
        line = f"instructions issued: {issues}"
        hits = int(metrics.counter_total(TABLE_HITS))
        fallbacks = int(metrics.counter_total(TABLE_FALLBACKS))
        if hits or fallbacks:
            line += (
                f"\n  pipeline tables: {hits} issues via transition table, "
                f"{fallbacks} interpreted fallbacks"
            )
        sections.append(line)
    return "\n\n".join(sections)
