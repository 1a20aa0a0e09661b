"""Parallel routine scheduling with a content-addressed schedule cache.

Two cooperating pieces (see ``docs/performance.md``):

* :class:`ScheduleCache` — a bounded LRU memo of schedule *outcomes*
  (permutation + cycle accounting) keyed by a canonical fingerprint of
  the region (:mod:`repro.parallel.fingerprint`: register-renamed
  instruction words) under a (machine model, policy) context digest.
  It exists only where builds share it: ``qpt serve`` keeps one per
  (machine, filling) pair across requests, and a sharded build uses a
  private one as the transport that carries worker results into its
  layout pass. A one-shot serial build has none.
* :class:`ParallelScheduler` — pre-schedules every region an editor
  pass will touch across worker processes, warming the cache so the
  inherently serial layout pass runs entirely on hits. Serial,
  parallel, and warm-cache runs emit byte-identical executables; the
  differential suite in ``tests/parallel/`` holds that equivalence.

Worker processes come from the persistent spawn-once pool in
:mod:`repro.parallel.pool`, where models and their compiled pipeline
tables stay hot across builds. On a host with one usable CPU no build
shards and no pool spawns (:func:`make_transform`, :func:`warm_pool`).

The cache composes with guarded scheduling: the guard serves only
*verified* entries and inserts only after a block's proof passes, so
memoization never weakens the safety contract. Sharding does not:
guarded builds prove every block in their own process at every
``jobs`` (:func:`make_transform`).
"""

from .benchmark import ModeTiming, ScalingReport, measure_modes, render_report
from .cache import (
    DEFAULT_CACHE_ENTRIES,
    CachedSchedule,
    CachedSuperblockPlan,
    ScheduleCache,
)
from .executor import (
    ParallelOptions,
    ParallelScheduler,
    make_transform,
)
from .fingerprint import (
    canonical_region,
    context_digest,
    model_digest,
    model_identity,
    policy_digest,
    policy_identity,
    region_digest,
    superblock_digest,
)
from .pool import (
    PoolLease,
    PoolManager,
    acquire_pool,
    effective_workers,
    pool_stats,
    shutdown_pools,
    warm_pool,
)

__all__ = [
    "CachedSchedule",
    "CachedSuperblockPlan",
    "DEFAULT_CACHE_ENTRIES",
    "ModeTiming",
    "ParallelOptions",
    "ParallelScheduler",
    "PoolLease",
    "PoolManager",
    "ScalingReport",
    "ScheduleCache",
    "acquire_pool",
    "canonical_region",
    "context_digest",
    "effective_workers",
    "make_transform",
    "measure_modes",
    "model_digest",
    "model_identity",
    "policy_digest",
    "policy_identity",
    "pool_stats",
    "region_digest",
    "render_report",
    "shutdown_pools",
    "superblock_digest",
    "warm_pool",
]
