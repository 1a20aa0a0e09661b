"""Process-level chaos testing for the parallel pipeline.

:mod:`repro.robust.faults` corrupts *in-process* components (models,
encodings, scheduler decisions). This module attacks the places where
the system leaves a single process: worker pools, IPC, and persisted
state. Five fault classes, each injected into a live build of a
generated workload running with ``jobs > 1``:

* ``crash-worker`` — a worker calls ``os._exit`` whenever its shard
  contains a chosen *poison region* (persistent across retries, so
  bisection must isolate it). Contained when supervision degrades the
  poisoned region to the serial path and the edit completes.
* ``hang-worker`` — one worker (first to claim the one-shot token)
  sleeps far past the shard deadline. Contained when the deadline
  fires, the wedged pool is torn down, and the shard retries clean.
* ``corrupt-ipc`` — one worker tampers with a result tuple *without*
  fixing its integrity checksum. Contained when the parent rejects the
  result (``parallel.ipc_rejected``) instead of caching it.
* ``torn-ledger`` — a ledger append is cut mid-record, the torn-write
  signature of a crash. Contained when the tolerant reader recovers
  every complete record, flags the torn tail, and the gate still runs.
* ``bitflip-cache`` — a bit flips in a stored cache entry. Contained
  when lookup drops the entry on checksum mismatch
  (``schedule_cache.corrupt_dropped``) and re-schedules.

Every class additionally asserts the **byte-identity invariant**: the
final text bytes equal a clean serial build's. Chaos may cost wall
clock; it may never cost an edit.

Workers and the parent share no memory, so injection is coordinated
through the filesystem: :data:`CHAOS_DIR_ENV` names a directory where
one-shot faults are claimed via ``O_CREAT | O_EXCL`` token files
(exactly-once across any start method) and the crash fault's poison
digest is persisted. The chaos worker functions are module-level (and
therefore picklable) wrappers around the real
:func:`~repro.parallel.executor._schedule_shard`.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

from ..core.block_scheduler import BlockScheduler
from ..core.dependence import SchedulingPolicy
from ..core.regions import split_regions
from ..eel.cfg import build_cfg
from ..eel.editor import Editor
from ..eel.executable import Executable
from ..obs.ledger import append_record, make_record, read_ledger, read_ledger_tolerant
from ..obs.recorder import MetricsRecorder
from ..obs.report import (
    CACHE_CORRUPT,
    PARALLEL_DEGRADED,
    PARALLEL_IPC_REJECTED,
    PARALLEL_WORKER_CRASHES,
    PARALLEL_WORKER_HANGS,
)
from ..spawn.model import MachineModel
from ..workloads.generator import WorkloadSpec, generate

# repro.parallel imports this package (guard, supervise) at module
# level, so importing it back here at import time would deadlock the
# partially-initialized module — everything from repro.parallel is
# imported lazily inside the functions below.

#: Directory workers look in for chaos tokens; unset means no chaos.
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"

#: Exit status a chaos-crashed worker dies with — distinctive in core
#: dumps and CI logs.
CRASH_EXIT_STATUS = 17

#: The five fault classes, in run order. ``storage`` classes do not
#: need worker processes and run fast; ``worker`` classes drive pools.
CHAOS_FAULTS = (
    "crash-worker",
    "hang-worker",
    "corrupt-ipc",
    "torn-ledger",
    "bitflip-cache",
)

_POISON_FILE = "poison.digest"
_HANG_SLEEP_S = 600.0


# -- worker-side injectors (must stay module-level: they are pickled) ------------


def _chaos_dir() -> str | None:
    return os.environ.get(CHAOS_DIR_ENV) or None


def _claim_token(name: str) -> bool:
    """Claim a one-shot fault token; True exactly once per directory."""
    directory = _chaos_dir()
    if directory is None:
        return False
    try:
        fd = os.open(
            os.path.join(directory, f"{name}.token"),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except (FileExistsError, OSError):
        return False
    os.close(fd)
    return True


def _poison_digest() -> str | None:
    directory = _chaos_dir()
    if directory is None:
        return None
    try:
        with open(os.path.join(directory, _POISON_FILE), encoding="ascii") as handle:
            return handle.read().strip() or None
    except OSError:
        return None


def chaos_crash_worker(payload):
    """Die without cleanup whenever the shard holds the poison region.

    Persistent (no token): every retry containing the poison crashes
    again, so only bisection down to the poisoned singleton — which
    then quarantines — makes progress. That is exactly the supervision
    property under test.
    """
    from ..parallel.executor import _schedule_shard
    from ..parallel.fingerprint import region_digest

    poison = _poison_digest()
    if poison is not None:
        regions = payload[3]
        if any(region_digest(list(region)) == poison for region in regions):
            os._exit(CRASH_EXIT_STATUS)
    return _schedule_shard(payload)


def chaos_hang_worker(payload):
    """Wedge (sleep far past any deadline) once, then behave."""
    from ..parallel.executor import _schedule_shard

    if _claim_token("hang"):
        time.sleep(_HANG_SLEEP_S)
    return _schedule_shard(payload)


def chaos_corrupt_ipc_worker(payload):
    """Return one tampered result without updating its checksum."""
    from ..parallel.executor import _schedule_shard

    results, snapshot = _schedule_shard(payload)
    if results and _claim_token("corrupt-ipc"):
        digest, order, original, scheduled, checksum = results[0]
        results = [(digest, order, original, scheduled + 1, checksum)] + list(
            results[1:]
        )
    return results, snapshot


# -- outcomes --------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosOutcome:
    """One fault class's verdict."""

    fault: str
    #: ``worker`` (pool faults), ``ipc``, or ``storage``.
    layer: str
    #: how many faults were provoked (crashes observed, lines torn, ...).
    injected: int
    #: how many of them the system demonstrably contained.
    contained: int
    #: did the faulted build produce the clean serial bytes?
    byte_identical: bool
    details: tuple[str, ...] = ()

    @property
    def escaped(self) -> bool:
        return self.contained < self.injected or not self.byte_identical


@dataclass
class ChaosReport:
    """Aggregate chaos-suite verdict for one machine model."""

    machine: str
    jobs: int
    outcomes: list[ChaosOutcome] = field(default_factory=list)

    @property
    def injected(self) -> int:
        return sum(outcome.injected for outcome in self.outcomes)

    @property
    def contained(self) -> int:
        return sum(outcome.contained for outcome in self.outcomes)

    @property
    def escaped(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.escaped)

    @property
    def clean(self) -> bool:
        return all(
            not outcome.escaped and outcome.injected > 0
            for outcome in self.outcomes
        ) and bool(self.outcomes)

    def render(self) -> str:
        lines = [f"chaos suite against {self.machine} (jobs={self.jobs}):"]
        for outcome in self.outcomes:
            verdict = "ESCAPED" if outcome.escaped else "contained"
            bytes_note = "" if outcome.byte_identical else ", BYTES DIVERGED"
            lines.append(
                f"  [{outcome.layer:7}] {outcome.fault:14} "
                f"{outcome.contained}/{outcome.injected} {verdict}{bytes_note}"
            )
            for detail in outcome.details:
                lines.append(f"      - {detail}")
        lines.append(
            f"  => {self.contained}/{self.injected} fault(s) contained; "
            + ("clean" if self.clean else f"{self.escaped} class(es) escaped")
        )
        return "\n".join(lines)


# -- the suite -------------------------------------------------------------------


def default_chaos_workload() -> Executable:
    """A generated multi-routine workload big enough to shard."""
    return generate(
        WorkloadSpec(name="chaos", seed=7, kind="int", avg_block_size=8.0)
    ).executable


def _text(executable: Executable) -> bytes:
    return bytes(executable.text_section().data)


def _first_region_digest(executable: Executable) -> str | None:
    from ..parallel.fingerprint import region_digest

    for block in build_cfg(executable):
        for region in split_regions(list(block.body)):
            instructions = list(region.instructions)
            if len(instructions) >= 2:
                return region_digest(instructions)
    return None


class _ChaosArena:
    """A private token directory, exported to workers via the env."""

    def __init__(self, workdir: str | None) -> None:
        self._workdir = workdir
        self._dir: str | None = None
        self._saved: str | None = None

    def __enter__(self) -> str:
        self._dir = tempfile.mkdtemp(prefix="chaos-", dir=self._workdir)
        self._saved = os.environ.get(CHAOS_DIR_ENV)
        os.environ[CHAOS_DIR_ENV] = self._dir
        return self._dir

    def __exit__(self, *exc_info) -> None:
        if self._saved is None:
            os.environ.pop(CHAOS_DIR_ENV, None)
        else:
            os.environ[CHAOS_DIR_ENV] = self._saved


def run_chaos_suite(
    model: MachineModel,
    *,
    executable: Executable | None = None,
    policy: SchedulingPolicy | None = None,
    jobs: int = 2,
    shard_deadline_s: float = 5.0,
    only: tuple[str, ...] | None = None,
    workdir: str | None = None,
) -> ChaosReport:
    """Run the chaos catalog against ``model``; see the module docstring.

    ``only`` restricts to a subset of :data:`CHAOS_FAULTS` (the storage
    classes run without worker pools and are cheap). ``workdir`` hosts
    the token directory and the scratch ledger (a temp dir otherwise).
    ``shard_deadline_s`` is deliberately short — the hang class waits
    it out once.
    """
    from ..parallel.cache import ScheduleCache
    from ..parallel.executor import ParallelScheduler, make_transform

    if only is not None:
        unknown = set(only) - set(CHAOS_FAULTS)
        if unknown:
            raise ValueError(
                f"unknown chaos fault(s): {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(CHAOS_FAULTS)})"
            )
    policy = policy or SchedulingPolicy()
    if executable is None:
        executable = default_chaos_workload()
    report = ChaosReport(machine=model.name, jobs=jobs)

    def wanted(fault: str) -> bool:
        return only is None or fault in only

    # The ground truth every class is judged against.
    reference = _text(Editor(executable).build(make_transform(model, policy)))

    def parallel_build(worker_fn, *, deadline=shard_deadline_s, retries=2):
        """One jobs>1 build with a chaos worker; returns (bytes, transform,
        recorder metrics). Built directly rather than through
        :func:`make_transform`, which does not shard on a one-CPU host:
        the injected worker must run in real processes on any host."""
        recorder = MetricsRecorder()
        cache = ScheduleCache(recorder=recorder)
        transform = ParallelScheduler(
            BlockScheduler(model, policy, recorder, cache=cache),
            cache,
            jobs=jobs,
            recorder=recorder,
            shard_deadline_s=deadline,
            max_shard_retries=retries,
            worker_fn=worker_fn,
        )
        edited = Editor(executable, recorder=recorder).build(transform)
        return _text(edited), transform, recorder.metrics

    if wanted("crash-worker"):
        report.outcomes.append(
            _run_crash_class(executable, reference, parallel_build, workdir)
        )
    if wanted("hang-worker"):
        report.outcomes.append(
            _run_hang_class(reference, parallel_build, workdir)
        )
    if wanted("corrupt-ipc"):
        report.outcomes.append(
            _run_corrupt_ipc_class(reference, parallel_build, workdir)
        )
    if wanted("torn-ledger"):
        report.outcomes.append(_run_torn_ledger_class(model, workdir))
    if wanted("bitflip-cache"):
        report.outcomes.append(
            _run_bitflip_cache_class(model, executable, policy, reference)
        )
    return report


def _run_crash_class(executable, reference, parallel_build, workdir) -> ChaosOutcome:
    details: list[str] = []
    with _ChaosArena(workdir) as arena:
        poison = _first_region_digest(executable)
        if poison is None:
            return ChaosOutcome(
                fault="crash-worker",
                layer="worker",
                injected=0,
                contained=0,
                byte_identical=True,
                details=("workload has no schedulable region to poison",),
            )
        with open(
            os.path.join(arena, _POISON_FILE), "w", encoding="ascii"
        ) as handle:
            handle.write(poison)
        text, transform, metrics = parallel_build(chaos_crash_worker)
    crashes = int(metrics.counter_total(PARALLEL_WORKER_CRASHES))
    degraded = int(metrics.counter_total(PARALLEL_DEGRADED))
    supervision = transform.supervision
    quarantined = len(supervision.quarantined) if supervision else 0
    contained = crashes if (degraded >= 1 and quarantined >= 1) else 0
    if crashes == 0:
        details.append("poisoned worker never crashed — injection failed")
    if degraded < 1:
        details.append("parallel.degraded_serial never counted")
    if quarantined != 1:
        details.append(
            f"{quarantined} unit(s) quarantined; the poison region "
            "should quarantine exactly alone"
        )
        contained = 0
    return ChaosOutcome(
        fault="crash-worker",
        layer="worker",
        injected=crashes,
        contained=contained,
        byte_identical=text == reference,
        details=tuple(details),
    )


def _run_hang_class(reference, parallel_build, workdir) -> ChaosOutcome:
    details: list[str] = []
    with _ChaosArena(workdir):
        text, transform, metrics = parallel_build(chaos_hang_worker)
    hangs = int(metrics.counter_total(PARALLEL_WORKER_HANGS))
    if hangs == 0:
        details.append("shard deadline never fired — injection failed")
    return ChaosOutcome(
        fault="hang-worker",
        layer="worker",
        injected=max(hangs, 1) if hangs else 0,
        contained=hangs,
        byte_identical=text == reference,
        details=tuple(details),
    )


def _run_corrupt_ipc_class(reference, parallel_build, workdir) -> ChaosOutcome:
    details: list[str] = []
    with _ChaosArena(workdir):
        text, transform, metrics = parallel_build(chaos_corrupt_ipc_worker)
    rejected = int(metrics.counter_total(PARALLEL_IPC_REJECTED))
    if rejected == 0:
        details.append(
            "tampered worker result was accepted — checksum validation failed"
        )
    return ChaosOutcome(
        fault="corrupt-ipc",
        layer="ipc",
        injected=1,
        contained=min(rejected, 1),
        byte_identical=text == reference,
        details=tuple(details),
    )


def _run_torn_ledger_class(model, workdir) -> ChaosOutcome:
    details: list[str] = []
    with tempfile.TemporaryDirectory(prefix="chaos-ledger-", dir=workdir) as tmp:
        path = os.path.join(tmp, "ledger.jsonl")
        for index in range(3):
            append_record(
                path,
                make_record(
                    "chaos",
                    run={"workload": "chaos", "machine": model.name, "n": index},
                    results={"value": index},
                    sha="",
                ),
                fsync=True,
            )
        # Tear the final record exactly as a mid-append crash would:
        # truncate inside the line, leaving no trailing newline.
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size - 25)
        strict_raised = False
        try:
            read_ledger(path)
        except ValueError:
            strict_raised = True
        recovery = read_ledger_tolerant(path)
        contained = int(
            strict_raised
            and recovery.truncated_tail
            and len(recovery.records) == 2
            and recovery.quarantine_path is not None
            and os.path.exists(recovery.quarantine_path)
        )
        if not contained:
            details.append(
                f"recovered {len(recovery.records)}/2 records, "
                f"truncated_tail={recovery.truncated_tail}, "
                f"strict_raised={strict_raised}"
            )
    return ChaosOutcome(
        fault="torn-ledger",
        layer="storage",
        injected=1,
        contained=contained,
        byte_identical=True,
        details=tuple(details),
    )


def _run_bitflip_cache_class(model, executable, policy, reference) -> ChaosOutcome:
    from dataclasses import replace

    from ..parallel.cache import ScheduleCache
    from ..parallel.executor import make_transform

    details: list[str] = []
    recorder = MetricsRecorder()
    cache = ScheduleCache(recorder=recorder)
    Editor(executable, recorder=recorder).build(
        make_transform(model, policy, recorder, cache=cache)
    )
    flipped = 0
    for key, entry in list(cache._entries.items()):
        # Flip one bit in the stored cycle count, leaving the stored
        # checksum stale — memory corruption in miniature.
        cache._entries[key] = replace(
            entry, scheduled_cycles=entry.scheduled_cycles ^ 1
        )
        flipped += 1
        if flipped >= 4:
            break
    rebuilt = _text(
        Editor(executable, recorder=recorder).build(
            make_transform(model, policy, recorder, cache=cache)
        )
    )
    dropped = cache.corruption_dropped
    if dropped < flipped:
        details.append(
            f"only {dropped}/{flipped} bit-flipped entries were dropped"
        )
    if int(recorder.metrics.counter_total(CACHE_CORRUPT)) < flipped:
        details.append("schedule_cache.corrupt_dropped undercounted")
    return ChaosOutcome(
        fault="bitflip-cache",
        layer="storage",
        injected=flipped,
        contained=min(dropped, flipped),
        byte_identical=rebuilt == reference,
        details=tuple(details),
    )
