"""Differential battery: trace timing's replay vs each build's own run.

``run_profiling_experiment`` runs only the compiled program
functionally and replays every other build along its recorded path
(:func:`repro.pipeline.timing.timed_run` with ``along=``). The exact
oracle stays ``timed_run`` on the build itself. Over every SPEC95
stand-in, on every shipped machine, for the builds the experiment
replays along the compiled program's path — rescheduled, instrumented,
instrumented-and-scheduled, and scheduled across superblocks — with
delay-slot filling off and on, the replay must report the build's own
cycles and instruction count. The first three must actually replay; a
superblock build may fall back to its own run (compensation
trampolines), but must then say why.

A divergence is reported with the recorded path shrunk by the tables'
delta-debugging shrinker to a short run of segments on which the
segment memo and the interpreted walker disagree, when the divergence
lies in segment timing rather than in laying out the build.
"""

import pytest

from repro.core import Profile, SchedulingPolicy
from repro.core.optimizer import ImprovedScheduler
from repro.eel.editor import Editor
from repro.isa.simulator import SimulationLimit
from repro.parallel.executor import make_transform
from repro.pipeline import timing
from repro.pipeline.state import PipelineState
from repro.pipeline.stalls import issue
from repro.pipeline.tables import SegmentMemo, attach_tables
from repro.pipeline.timing import UNCHAINED, timed_run
from repro.qpt import SlowProfiler
from repro.spawn.library import MACHINES, description_text, load_machine_from_source
from repro.workloads.spec95 import CFP95, CINT95, generate_benchmark
from tests.pipeline.test_table_differential import BATTERY_TRIPS
from tests.pipeline.test_table_properties import _shrink

#: Optimizer effort for the battery's compiled inputs: the replay only
#: needs a compiled program whose blocks differ from the generator's.
OPTIMIZER_RESTARTS = 2

#: Builds whose block maps always chain one for one to the compiled
#: program, so the replay must place them. A superblock build runs for
#: real when side-exit compensation added trampoline blocks.
REPLAYED = ("rescheduled", "instrumented", "scheduled")

#: Instruction budget of the battery's runs, as a multiple of the
#: compiled program's: an instrumented build runs a few times more,
#: and a build that loops hits it quickly.
BUDGET_FACTOR = 8


def _model(machine):
    model = load_machine_from_source(description_text(machine), machine)
    attach_tables(model, use_disk_cache=False)
    return model


def _builds(model, benchmark, fill_delay_slots):
    program = generate_benchmark(
        benchmark, machine=model.name, trip_count=BATTERY_TRIPS
    )
    policy = SchedulingPolicy(fill_delay_slots=fill_delay_slots)
    compiled = Editor(program.executable).build(
        ImprovedScheduler(model, restarts=OPTIMIZER_RESTARTS, seed=program.spec.seed)
    )
    rescheduled = Editor(compiled).build(make_transform(model, policy))
    superblock = make_transform(
        model, policy, superblock=True, profile=Profile(program.frequencies)
    )
    return {
        "compiled": compiled,
        "rescheduled": rescheduled,
        "instrumented": SlowProfiler(rescheduled).instrument().executable,
        "scheduled": SlowProfiler(rescheduled)
        .instrument(make_transform(model, policy))
        .executable,
        "superblock": SlowProfiler(rescheduled).instrument(superblock).executable,
    }


def _outcome(model, build, **timing_options):
    """``(cycles, instructions, run)``, or the message of the
    ``SimulationLimit`` the timing raised."""
    try:
        run = timed_run(model, build, **timing_options)
    except SimulationLimit as exc:
        return str(exc)
    return run.cycles, run.instructions, run


def _walker_cycles(model, layout, visits):
    """The interpreted walker over ``visits``, one instruction at a time."""
    state = PipelineState(model)
    last_issue = -1
    for visit in visits:
        for inst in layout[visit]:
            last_issue = issue(max(last_issue, 0), state, inst).issue_cycle
    return last_issue + 1


def _memo_cycles(model, layout, visits):
    """``visits`` through a fresh segment memo."""
    tables = model.tables
    kept, tables.memo = tables.memo, SegmentMemo()
    try:
        return timing._memo_walk(model, tables, visits, layout)
    finally:
        tables.memo = kept


def _explain(model, build, path):
    """A shrunk reproducer for a replay that diverged from the real run."""
    layout = timing._replay_layout(build, path)
    if layout is None:
        return "the build's block maps do not place the path"

    def diverges(visits):
        return _memo_cycles(model, layout, visits) != _walker_cycles(
            model, layout, visits
        )

    if not diverges(path.segments):
        return "segment timing agrees; the layout or the count differs"
    shrunk = _shrink(path.segments, diverges)
    return "memo and walker disagree on segments " + ", ".join(
        f"{visit >> 2:#x}/{visit & 3}" for visit in shrunk
    )


@pytest.mark.parametrize("fill", (False, True), ids=("no-fill", "fill"))
@pytest.mark.parametrize("machine", MACHINES)
def test_replay_matches_every_builds_own_run(machine, fill):
    model = _model(machine)
    failures = []
    #: builds whose own run never finishes, which the replay must refuse:
    #: the delay-slot refill rule moves a reader of a call's %o7 into its
    #: slot (a known defect), so some builds scheduled with filling loop.
    broken = []
    for benchmark in CINT95 + CFP95:
        builds = _builds(model, benchmark, fill)
        recorded = timed_run(model, builds["compiled"])
        budget = BUDGET_FACTOR * recorded.instructions
        for label in (*REPLAYED, "superblock"):
            build = builds[label]
            want = _outcome(model, build, max_instructions=budget)
            replay = _outcome(model, build, max_instructions=budget, along=recorded.path)
            got = replay if isinstance(replay, str) else replay[:2]
            if isinstance(want, str) or isinstance(replay, str):
                if got != want:
                    failures.append(f"{benchmark} {label}: replay {got} != real {want}")
                elif label in REPLAYED and not fill:
                    failures.append(f"{benchmark} {label}: {want}")
                else:
                    broken.append(f"{benchmark} {label}")
                continue
            replay = replay[2]
            want = want[:2]
            if got != want:
                failures.append(
                    f"{benchmark} {label}: replay {got} != real {want}; "
                    + _explain(model, build, recorded.path)
                )
            elif label in REPLAYED and not replay.replayed:
                failures.append(f"{benchmark} {label}: ran for real ({replay.fallback})")
            elif not replay.replayed and replay.fallback != UNCHAINED:
                failures.append(f"{benchmark} {label}: fallback {replay.fallback}")
    assert not failures, "\n".join(failures)
    if not fill:
        assert not broken
    assert model.tables.misses == 0
    assert model.tables.memo.hits > model.tables.memo.misses


def test_shrinker_reduces_a_diverging_memo_to_a_short_reproducer():
    """The reproducer path works: a memo that replays one segment's
    entry wrongly is caught and shrunk to a handful of segments."""
    model = _model("ultrasparc")
    builds = _builds(model, "126.gcc", False)
    path = timed_run(model, builds["compiled"]).path
    layout = timing._replay_layout(builds["scheduled"], path)
    assert _memo_cycles(model, layout, path.segments) == _walker_cycles(
        model, layout, path.segments
    )
    original = SegmentMemo.store

    def corrupt(memo, key, value):
        advance, sid, overwrites, maxima = value
        original(memo, key, (advance + 1, sid, overwrites, maxima))

    SegmentMemo.store = corrupt
    try:
        message = _explain(model, builds["scheduled"], path)
    finally:
        SegmentMemo.store = original
    assert message.startswith("memo and walker disagree on segments ")
    assert len(message.split(", ")) <= 3
