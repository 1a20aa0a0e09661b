"""Parallel routine scheduling by cache warming.

Scheduling dominates an edit's cost, and it is embarrassingly parallel:
each straight-line region schedules independently of every other. But
the *editor* pass is inherently serial — layout assigns addresses block
by block, and branch retargeting depends on every address before it.

The resolution is to split the work, not the pass.
:class:`ParallelScheduler` hooks the editor's ``prepare`` step: before
layout begins it walks every routine (:func:`~repro.eel.routine.split_routines`),
collects each block's would-be body (instrumentation already merged, via
:meth:`~repro.eel.editor.Editor.block_body`), dedupes regions by
fingerprint, and ships the misses to worker processes in routine-order
shards. Workers schedule each region; the parent drains shard results
**in submission order** and inserts them into the shared
:class:`~repro.parallel.cache.ScheduleCache`. The ordinary serial
layout pass then runs unchanged — every region is a cache hit
replaying the same permutation a serial run would compute.

Only unguarded builds shard. A guarded build proves every block it
emits with the verification ladder
(:func:`~repro.analyze.ladder.prove_schedule`), which runs in the
build's own process at every ``jobs``: :func:`make_transform` returns
the serial guard, so a block's verified bit means the same thing at
``--jobs 1`` and ``--jobs 8``.

Determinism is therefore structural, not coincidental: parallel and
serial runs execute the *same* final code path over the same cache
state, and the scheduler itself is a pure function of (region, model,
policy), so worker count and completion order cannot leak into the
output bytes or the schedule statistics.

Workers cannot receive a :class:`~repro.spawn.model.MachineModel`
directly (its compiled evaluators do not pickle); they rebuild it from
the SADL source the model carries. Models without source (synthetic or
fault-injected ones) degrade to the serial path, counted under
``parallel.serial_fallbacks``.

Worker processes are *persistent* (:mod:`repro.parallel.pool`): the
optimistic round leases a shared spawn-once pool whose workers hold
hot models with their pipeline tables compiled at startup, so
repeated builds pay IPC and scheduling — not fork, model rebuild, and
table compilation — and shards are sized adaptively to amortize that
IPC over larger region batches. Cautious retry rounds, and every round
of an injected worker function, run in fresh pools for exact crash
attribution, and a pool the supervisor kills is retired so the next
build respawns clean workers. On a host whose OS offers only one CPU
a build does not shard at all (:func:`make_transform`), because
fan-out that time-slices a single core is pure overhead.

Workers are supervised (:mod:`repro.robust.supervise`): each shard gets
a wall-clock deadline, a dead or hung worker costs a bounded, bisecting
retry rather than the build, and whatever the supervisor quarantines is
simply left for the serial pass to schedule — output bytes are
unchanged by any worker failure, and the damage is visible under the
``parallel.worker_crashes`` / ``parallel.worker_hangs`` /
``parallel.shard_retries`` / ``parallel.degraded_serial`` counters.
Worker results are untrusted IPC: each carries the region digest it was
computed for and an integrity checksum
(:func:`~repro.parallel.fingerprint.schedule_checksum`); the parent
revalidates digest, permutation, and checksum before inserting, and a
corrupt result is dropped (``parallel.ipc_rejected``) so the serial
pass re-schedules that region from scratch.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from ..core.block_scheduler import BlockScheduler, SchedulerStats
from ..core.dependence import SchedulingPolicy
from ..core.list_scheduler import ListScheduler, ScheduleResult
from ..core.regions import split_regions
from ..core.superblock import SuperblockConfig, SuperblockScheduler
from ..core.verify import DEFAULT_SEED
from ..eel.routine import split_routines
from ..isa.instruction import Instruction
from ..obs.recorder import NULL_RECORDER, MetricsRecorder, Recorder
from ..obs.report import (
    PARALLEL_DEGRADED,
    PARALLEL_FALLBACKS,
    PARALLEL_IPC_REJECTED,
    PARALLEL_REGIONS,
    PARALLEL_SHARDS,
)
from ..robust.guard import GuardBudget, GuardedBlockScheduler
from ..robust.supervise import (
    DEFAULT_MAX_SHARD_RETRIES,
    DEFAULT_SHARD_DEADLINE_S,
    ShardSupervisor,
    SupervisionOutcome,
    SupervisionPolicy,
)
from ..spawn.model import MachineModel
from .cache import ScheduleCache
from .fingerprint import region_digest, schedule_checksum
from .pool import acquire_pool, effective_workers, warm_worker_model


#: Smallest shard the adaptive chunker will cut: below this, the pickle
#: round-trip costs more than the regions' scheduling is worth.
MIN_SHARD_REGIONS = 16


@dataclass(frozen=True)
class ParallelOptions:
    """How an edit's scheduling work is executed.

    ``jobs=1`` is the ordinary serial path; an unguarded build with
    ``jobs > 1`` shards its regions across the shared worker pool
    (:func:`make_transform`).

    ``start_method`` picks the multiprocessing start method explicitly
    (``fork``/``spawn``/``forkserver``); None keeps the historical
    preference for ``fork`` where the platform offers it, falling back
    to the platform default elsewhere. ``shard_deadline_s`` and
    ``max_shard_retries`` parameterize worker supervision
    (:class:`~repro.robust.supervise.SupervisionPolicy`).
    """

    jobs: int = 1
    start_method: str | None = None
    shard_deadline_s: float = DEFAULT_SHARD_DEADLINE_S
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.start_method is not None:
            methods = multiprocessing.get_all_start_methods()
            if self.start_method not in methods:
                raise ValueError(
                    f"start_method {self.start_method!r} not available here "
                    f"(choose from {', '.join(methods)})"
                )
        if self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries cannot be negative")


# -- worker side -----------------------------------------------------------------


def _schedule_shard(payload):
    """Schedule one shard's regions; runs in a worker process.

    ``payload`` is (model name, SADL source, policy, regions,
    telemetry?). Returns ``(results, snapshot)``: one ``(digest, order,
    original_cycles, scheduled_cycles, checksum)`` tuple per region in
    input order, plus — when ``telemetry`` is set — a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the private
    registry the shard's scheduler recorded into (None otherwise). The
    parent merges the snapshot, so forward-pass decision telemetry is
    not silently dropped on the floor of the worker process.

    ``digest`` and ``checksum`` make the result self-authenticating:
    the parent recomputes both from the region it shipped and rejects
    the result (``parallel.ipc_rejected``) on any mismatch, so a
    corrupted IPC message can cost a re-schedule but never an edit.
    """
    name, source, policy, regions, telemetry = payload
    # Tables compile on a worker's *first* contact with a model and
    # stay for the process lifetime — in a persistent pool that is
    # effectively "at startup". The eager prefix is loaded from the
    # disk cache keyed by the model's content digest — compiled once
    # (usually by the parent), read by every worker — and tables cannot
    # change schedules, only their cost, so a worker that misses the
    # cache and recompiles still returns identical results.
    model = warm_worker_model(name, source)
    recorder = MetricsRecorder() if telemetry else None
    scheduler = ListScheduler(model, policy, recorder)
    out = []
    for region in regions:
        region = list(region)
        result = scheduler.schedule_region(region)
        digest = region_digest(region)
        out.append(
            (
                digest,
                tuple(result.order),
                result.original_cycles,
                result.scheduled_cycles,
                schedule_checksum(
                    digest,
                    result.order,
                    result.original_cycles,
                    result.scheduled_cycles,
                ),
            )
        )
    # Give back what this shard learned: states interned beyond the
    # eager prefix go to the disk cache (size-guarded, so steady state
    # writes nothing) and the next fresh process skips the first-pass
    # learning cost entirely.
    from ..pipeline.tables import persist_learned

    persist_learned(model)
    snapshot = recorder.metrics.snapshot() if recorder is not None else None
    return out, snapshot


def _model_spec(model) -> tuple[str, str] | None:
    """(name, SADL source) when the model can be rebuilt in a worker.

    Only an exact :class:`MachineModel` is trusted: a wrapper (e.g. a
    fault-injection ``CorruptedModel``) delegating attribute access
    would hand over its *healthy* base's source and silently launder the
    corruption away in the workers.
    """
    if type(model) is MachineModel and model.source is not None:
        return model.name, model.source
    return None


def _mp_context(start_method: str | None = None):
    """The multiprocessing context for worker pools.

    An explicit ``start_method`` wins; otherwise prefer ``fork`` where
    the platform offers it (cheapest, and the historical behavior) and
    fall back to the platform default — ``spawn`` on macOS/Windows.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# -- the transform wrapper -------------------------------------------------------


class ParallelScheduler:
    """A :data:`~repro.eel.editor.BlockTransform` that pre-schedules
    across worker processes, then delegates the serial pass to ``inner``
    (a plain :class:`BlockScheduler` wired to the same cache)."""

    def __init__(
        self,
        inner: BlockScheduler,
        cache: ScheduleCache,
        *,
        jobs: int,
        recorder: Recorder | None = None,
        start_method: str | None = None,
        shard_deadline_s: float = DEFAULT_SHARD_DEADLINE_S,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker_fn=None,
    ) -> None:
        if getattr(inner, "cache", None) is not cache:
            raise ValueError(
                "the inner transform must be wired to the same cache the "
                "parallel scheduler warms"
            )
        self.inner = inner
        self.cache = cache
        self.jobs = jobs
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.model = inner.model
        self.policy = inner.policy
        self.start_method = start_method
        self.supervision_policy = SupervisionPolicy(
            shard_deadline_s=shard_deadline_s, max_retries=max_shard_retries
        )
        #: The worker entry point; injectable so the chaos harness can
        #: wrap :func:`_schedule_shard` with fault injectors.
        self.worker_fn = worker_fn if worker_fn is not None else _schedule_shard
        self._context = cache.context_for(self.model, self.policy)
        #: regions scheduled in workers during the last ``prepare``.
        self.warmed_regions = 0
        #: the last ``prepare``'s :class:`SupervisionOutcome` (None
        #: before the first parallel warm).
        self.supervision: SupervisionOutcome | None = None
        #: worker results rejected by parent-side integrity validation
        #: during the last ``prepare``.
        self.ipc_rejected = 0
        #: id(region) -> region digest, computed once in
        #: ``_collect_shards`` and reused by merge/validate/insert —
        #: canonicalization is the expensive half of a cache probe, and
        #: without this each region paid it up to four times per build.
        self._digests: dict[int, str] = {}
        #: block index -> digest of each non-empty region in split
        #: order, for *every* block walked at collect time (hits and
        #: duplicates included). Handed to the inner scheduler as
        #: ``digest_hints`` so the layout pass skips re-canonicalizing
        #: regions collect just digested.
        self._block_digests: dict[int, list[str]] = {}

    @property
    def stats(self) -> SchedulerStats:
        return self.inner.stats

    def __call__(self, block, body):
        return self.inner(block, body)

    # -- the editor prepare hook --------------------------------------------------

    def prepare(self, editor, *, skip_blocks: frozenset[int] = frozenset()) -> None:
        """Warm the cache for every region ``editor`` will lay out.

        ``skip_blocks`` excludes blocks another transform already owns —
        the superblock pass passes its planned blocks here, since their
        bodies are served from the plan, never from per-region entries.
        """
        if self.jobs <= 1:
            return
        spec = _model_spec(self.model)
        if spec is None:
            self.recorder.count(PARALLEL_FALLBACKS)
            return
        shards = self._collect_shards(editor, skip_blocks)
        # Hand the layout pass the digests collect just computed.
        self.inner.digest_hints = self._block_digests
        if not shards:
            return
        name, source = spec
        with self.recorder.span("parallel.warm", shards=len(shards)):
            self._run_shards(name, source, shards)

    def _collect_shards(
        self, editor, skip_blocks: frozenset[int] = frozenset()
    ) -> list[list[list[Instruction]]]:
        """Unique unscheduled regions (deduped under this context's
        fingerprint), walked in routine order and chunked into several
        shards per worker so a program with few routines still spreads
        across the pool. Chunking cannot affect the result: each region
        schedules independently and the parent inserts shard results in
        submission order.

        Shards are sized adaptively: at most two shards per worker
        (enough slack for stragglers without drowning the build in
        round-trips) and never smaller than
        :data:`MIN_SHARD_REGIONS` regions, so each IPC round-trip
        carries enough scheduling work to amortize its pickling cost —
        a persistent pool makes dispatch cheap, not free."""
        seen: set[str] = set()
        work: list[list[Instruction]] = []
        self._digests = {}
        self._block_digests = {}
        for routine in split_routines(editor.executable, editor.cfg):
            for block in routine.blocks:
                if block.index in skip_blocks:
                    continue
                body = editor.block_body(block)
                block_digests = self._block_digests.setdefault(block.index, [])
                for region in split_regions(body):
                    instructions = list(region.instructions)
                    if not instructions:
                        continue
                    digest = region_digest(instructions)
                    block_digests.append(digest)
                    if digest in seen:
                        continue
                    seen.add(digest)
                    if self.cache.contains(self._context, instructions, digest=digest):
                        continue
                    work.append(instructions)
                    self._digests[id(instructions)] = digest
        if not work:
            return []
        shards = max(1, min(self.jobs * 2, -(-len(work) // MIN_SHARD_REGIONS)))
        chunk = -(-len(work) // shards)
        return [work[i : i + chunk] for i in range(0, len(work), chunk)]

    def _run_shards(
        self, name: str, source: str, shards: list[list[list[Instruction]]]
    ) -> None:
        def make_payload(regions):
            return (name, source, self.policy, regions, self.recorder.telemetry)

        context = _mp_context(self.start_method)
        leased = False

        def pool_factory(queued: int):
            # The supervisor's first call is the optimistic round over
            # the shared warm pool; every later call is a cautious
            # single-unit retry, which gets a fresh ephemeral pool so
            # crash attribution stays exact and killing it cannot cost
            # the warm workers. Only the stock entry point may lease
            # the shared pool at all: an injected worker function
            # (chaos fault injectors) depends on ambient process state
            # — environment variables set *after* a shared pool forked
            # are invisible to its workers — and must get fresh
            # processes it can kill.
            nonlocal leased
            if not leased and self.worker_fn is _schedule_shard:
                leased = True
                return acquire_pool(
                    jobs=self.jobs,
                    context=context,
                    warm=(name, source),
                    recorder=self.recorder,
                )
            return ProcessPoolExecutor(
                max_workers=max(1, min(self.jobs, queued)), mp_context=context
            )

        supervisor = ShardSupervisor(
            self.worker_fn,
            make_payload,
            pool_factory,
            policy=self.supervision_policy,
            recorder=self.recorder,
        )
        outcome = supervisor.run(shards)
        self.supervision = outcome
        # Merge in hierarchical key order: cache state after warming is
        # independent of worker completion and retry interleaving.
        for _key, shard, (results, snapshot) in outcome.completed_in_order():
            self.recorder.count(PARALLEL_SHARDS)
            self._merge_shard(shard, results)
            self._merge_telemetry(snapshot)
        if outcome.degraded:
            # Whatever was quarantined is scheduled by the serial layout
            # pass — output bytes are unchanged, only wall clock paid.
            self.recorder.count(PARALLEL_DEGRADED)
        if outcome.quarantined and not outcome.completed:
            # Nothing parallel survived at all: the historical
            # whole-build fallback signal.
            self.recorder.count(PARALLEL_FALLBACKS)

    def _merge_shard(self, shard, results) -> None:
        if not isinstance(results, (list, tuple)) or len(results) != len(shard):
            # A worker that lost or invented regions is not trusted for
            # any of them.
            self.ipc_rejected += 1
            self.recorder.count(PARALLEL_IPC_REJECTED)
            return
        for region, result in zip(shard, results):
            digest = self._digests.get(id(region))
            unpacked = self._validate_result(region, result, digest)
            if unpacked is None:
                self.ipc_rejected += 1
                self.recorder.count(PARALLEL_IPC_REJECTED)
                continue
            order, original_cycles, scheduled_cycles = unpacked
            scheduled = [region[i] for i in order]
            self.cache.insert(
                self._context,
                region,
                ScheduleResult(
                    instructions=scheduled,
                    order=list(order),
                    original_cycles=original_cycles,
                    scheduled_cycles=scheduled_cycles,
                ),
                digest=digest,
            )
            self.warmed_regions += 1
            self.recorder.count(PARALLEL_REGIONS)

    def _validate_result(self, region, result, expected_digest: str | None = None):
        """Integrity-check one worker result against the region the
        parent shipped; None when it must be rejected.

        Three independent checks: the digest binds the result to *this*
        region's content (``expected_digest`` is the parent-side digest
        computed at collect time, recomputed here only if the caller
        has none); the order must be a permutation of the region's
        indices (a corrupted permutation could otherwise drop or
        duplicate instructions); the checksum binds the cycle counts to
        the digest, catching tampering between the worker computing and
        the parent consuming.
        """
        try:
            digest, order, original_cycles, scheduled_cycles, checksum = result
            order = tuple(int(i) for i in order)
        except (TypeError, ValueError):
            return None
        if expected_digest is None:
            expected_digest = region_digest(region)
        if digest != expected_digest:
            return None
        if sorted(order) != list(range(len(region))):
            return None
        if checksum != schedule_checksum(
            digest, order, original_cycles, scheduled_cycles
        ):
            return None
        return order, int(original_cycles), int(scheduled_cycles)

    def _merge_telemetry(self, snapshot) -> None:
        """Fold a worker's metrics snapshot into the parent recorder.

        ``pipeline.*`` is excluded: the layout pass replays hazard
        attribution on every cache hit (once per *occurrence*, exactly
        as a serial run attributes), while the worker issued each unique
        region once — merging both would double-count. Everything else
        (``scheduler.*`` decisions, ``core.*`` phase timers) happens
        once per unique region in a cached serial run too, so the merge
        makes ``--jobs N --stats`` match ``--jobs 1 --stats``.
        """
        if snapshot is None:
            return
        registry = getattr(self.recorder, "metrics", None)
        if registry is None or not hasattr(registry, "merge_snapshot"):
            return
        registry.merge_snapshot(snapshot, skip_prefixes=("pipeline.",))


# -- the one-stop factory --------------------------------------------------------


def make_transform(
    model: MachineModel,
    policy: SchedulingPolicy | None = None,
    recorder: Recorder | None = None,
    *,
    options: ParallelOptions | None = None,
    cache: ScheduleCache | None = None,
    guarded: bool = False,
    guard_budget: GuardBudget | None = None,
    strict: bool = False,
    verify_trials: int = 4,
    verify_seed: int = DEFAULT_SEED,
    superblock: bool | SuperblockConfig = False,
    profile=None,
):
    """The editor transform for a ``jobs`` configuration.

    Unguarded, returns a :class:`ParallelScheduler` wrapping a plain
    :class:`BlockScheduler` when the build shards — ``jobs > 1`` on a
    host with more than one usable CPU
    (:func:`~repro.parallel.pool.effective_workers`) — and the plain
    scheduler otherwise. Guarded, returns a
    :class:`GuardedBlockScheduler` at every ``jobs``: the guard proves
    each block in this process with the verification ladder, so its
    output, quarantine and gate counters do not depend on ``jobs``.

    Pass ``cache`` to share one :class:`ScheduleCache` across builds
    (serve's first-seen builds, warm runs). Without one, only a sharded
    build gets a cache: a private transport that carries worker results
    into its own layout pass. Every other build schedules each region
    afresh, which is cheaper than probing a cache nothing else reads.

    ``superblock`` (True, or a
    :class:`~repro.core.superblock.SuperblockConfig`) wraps the result
    in a :class:`~repro.core.superblock.SuperblockScheduler` as the
    outermost layer: it plans profile-guided cross-block regions first
    and forwards everything else — including the parallel prepare hook,
    minus the blocks it claimed — to the transform described above.
    ``profile`` supplies its block execution frequencies.
    """
    options = options or ParallelOptions()
    sharded = not guarded and effective_workers(options.jobs) > 1
    if sharded and cache is None:
        cache = ScheduleCache(recorder=recorder)
    if guarded:
        transform = GuardedBlockScheduler(
            model,
            policy,
            recorder,
            budget=guard_budget,
            strict=strict,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
            cache=cache,
        )
    else:
        transform = BlockScheduler(model, policy, recorder, cache=cache)
    if sharded:
        transform = ParallelScheduler(
            transform,
            cache,
            jobs=options.jobs,
            recorder=recorder,
            start_method=options.start_method,
            shard_deadline_s=options.shard_deadline_s,
            max_shard_retries=options.max_shard_retries,
        )
    if superblock:
        config = superblock if isinstance(superblock, SuperblockConfig) else None
        transform = SuperblockScheduler(
            model,
            policy,
            recorder,
            inner=transform,
            config=config,
            profile=profile,
            guarded=guarded,
            verify_trials=verify_trials,
            verify_seed=verify_seed,
            cache=cache,
        )
    return transform
