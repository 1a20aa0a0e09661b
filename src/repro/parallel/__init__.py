"""Parallel routine scheduling with a content-addressed schedule cache.

Two cooperating pieces (see ``docs/performance.md``):

* :class:`ScheduleCache` — a bounded LRU memo of schedule *outcomes*
  (permutation + cycle accounting) keyed by a canonical fingerprint of
  the region (:mod:`repro.parallel.fingerprint`: register-renamed
  instruction words) under a (machine model, policy) context digest.
* :class:`ParallelScheduler` — pre-schedules every region an editor
  pass will touch across worker processes, warming the cache so the
  inherently serial layout pass runs entirely on hits. Serial,
  parallel, and warm-cache runs emit byte-identical executables; the
  differential suite in ``tests/parallel/`` holds that equivalence.

Worker processes come from the persistent spawn-once pool in
:mod:`repro.parallel.pool` — models and their compiled pipeline tables
stay hot across builds, which is what makes parallel-cold
faster than serial instead of slower (see ``docs/performance.md``).

Both compose with guarded scheduling: the guard serves only *verified*
entries and inserts only after a block's proof passes, so memoization
never weakens the safety contract.
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
    InlineLease,
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
    "InlineLease",
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
