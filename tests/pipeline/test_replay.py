"""Trace once, time many: replaying a build along a recorded path.

``timed_run(model, build, along=path)`` times ``build`` by laying its
own blocks along the path a functional run of the program it was
edited from recorded. On hand-built programs whose control flow makes
the path's details matter — annulled delay slots taken and untaken, a
branch whose target is its own fall-through block, ``ba,a``, a filled
delay slot, a control transfer in a delay slot — the replay must give
the cycles and instruction count of the build's own run, and of the
reference: the interpreted walker fed from the simulator's per-
instruction hook. A build the block maps cannot place, a model whose
tables never answer, and a build that exceeds the instruction budget
only after instrumentation must each behave like the build's own run.
"""

import pytest

from repro.core import BlockScheduler, SchedulingPolicy
from repro.eel.editor import Editor
from repro.eel.executable import TEXT_BASE, Executable
from repro.isa import TAG_INSTRUMENTATION, Instruction, r
from repro.isa.asm import Assembler
from repro.isa.simulator import LONE, SimulationLimit, segment_instructions
from repro.pipeline.state import PipelineState
from repro.pipeline.stalls import issue
from repro.pipeline.tables import SegmentMemo, attach_tables
from repro.pipeline.timing import TABLE_MISS, UNCHAINED, timed_run
from repro.qpt import SlowProfiler
from repro.spawn.library import description_text, load_machine_from_source
from tests.walker_tables import use_walker

#: Odd iterations take the annulled branch (its delay slot runs, and the
#: fall-through block is skipped); even ones fall through with the
#: delay slot annulled.
ANNULLED = """
        set 0, %o0
        set 0, %o1
    loop:
        andcc %o0, 1, %g0
        bne,a skip
        smul %o1, 3, %o1
        add %o1, 1, %o1
    skip:
        add %o1, %o0, %o2
        add %o0, 1, %o0
        subcc %o0, 7, %g0
        bl loop
        nop
        retl
        nop
"""

#: The annulled branch's target is its own fall-through block: taken or
#: not, control reaches ``next``, and only the recorded path says
#: whether the ``smul`` in the delay slot ran.
SELF_TARGET = """
        set 0, %o0
        set 0, %o1
    loop:
        andcc %o0, 1, %g0
        bne,a next
        smul %o1, 3, %o1
    next:
        add %o1, 1, %o2
        add %o0, 1, %o0
        subcc %o0, 7, %g0
        bl loop
        nop
        retl
        nop
"""

#: ``ba,a``: always taken, delay slot never executed.
BA_ANNULLED = """
        set 0, %o0
        set 0, %o1
    loop:
        add %o0, 1, %o0
        ba,a check
        smul %o1, 5, %o1
    check:
        subcc %o0, 5, %g0
        bl loop
        nop
        retl
        nop
"""

#: A non-annulled ``ba`` with a ``nop`` in its slot, after
#: instructions the scheduler can move into it.
FILLABLE = """
        set 0, %o0
        set 0, %o1
        set 0, %o3
    loop:
        smul %o3, 3, %o3
        add %o1, %o0, %o1
        add %o0, 1, %o0
        ba check
        nop
    check:
        subcc %o0, 6, %g0
        bl loop
        nop
        retl
        nop
"""

#: A ``ba`` whose delay slot holds another ``ba``: the first target's
#: instruction runs alone, as the second transfer's delay slot.
DCTI = """
        set 0, %o0
        ba first
        ba second
        nop
    first:
        add %o0, 1, %o0
        add %o0, 2, %o0
    second:
        add %o0, 4, %o0
        retl
        nop
"""

PROGRAMS = {
    "annulled": ANNULLED,
    "self-target": SELF_TARGET,
    "ba,a": BA_ANNULLED,
    "fillable": FILLABLE,
}


def build(source: str) -> Executable:
    program = Assembler(base_address=TEXT_BASE).assemble(source)
    return Executable.from_instructions(program, text_base=TEXT_BASE)


@pytest.fixture
def model():
    """A private model with fresh tables (and so a fresh segment memo)."""
    fresh = load_machine_from_source(description_text("ultrasparc"), "ultrasparc")
    attach_tables(fresh, use_disk_cache=False)
    return fresh


def reference(model, executable, **run):
    """(cycles, instructions) from the walker, fed one instruction at a
    time from the simulator's hook: the timing before paths existed."""
    state = PipelineState(use_walker(_twin(model)))
    last_issue = -1

    def hook(address, inst):
        nonlocal last_issue
        last_issue = issue(max(last_issue, 0), state, inst).issue_cycle

    result = executable.run(on_execute=hook, **run)
    return last_issue + 1, result.instructions_executed


def _twin(model):
    return load_machine_from_source(description_text(model.name), model.name)


def builds(model, executable, *, fill_delay_slots=False):
    """The experiment's builds of ``executable``: rescheduled,
    instrumented and instrumented-and-scheduled."""
    policy = SchedulingPolicy(fill_delay_slots=fill_delay_slots)
    rescheduled = Editor(executable).build(BlockScheduler(model, policy))
    return {
        "rescheduled": rescheduled,
        "instrumented": SlowProfiler(rescheduled).instrument().executable,
        "scheduled": SlowProfiler(rescheduled)
        .instrument(BlockScheduler(model, policy))
        .executable,
    }


def outcome(run):
    return run.cycles, run.instructions


@pytest.mark.parametrize("name", PROGRAMS)
@pytest.mark.parametrize("fill", (False, True), ids=("no-fill", "fill"))
def test_replay_matches_the_builds_own_run(model, name, fill):
    executable = build(PROGRAMS[name])
    recorded = timed_run(model, executable)
    assert outcome(recorded) == reference(model, executable)
    for label, variant in builds(model, executable, fill_delay_slots=fill).items():
        replay = timed_run(model, variant, along=recorded.path)
        assert replay.replayed and replay.fallback is None, label
        assert replay.result is None
        assert outcome(replay) == outcome(timed_run(model, variant)), label
        assert outcome(replay) == reference(model, variant), label


def test_annulled_branches_run_both_ways(model):
    """The programs exercise what they claim: the annulled branches are
    both taken (delay slot executed) and untaken (annulled)."""
    for source in (ANNULLED, SELF_TARGET):
        path = timed_run(model, build(source)).path
        code = path.executable.code_map()
        kinds = {
            segment & 3
            for segment in path.segments
            if segment_instructions(code, segment)[-1 - (segment & 1)].annul
        }
        assert kinds == {0, 1}
    path = timed_run(model, build(BA_ANNULLED)).path
    code = path.executable.code_map()
    annulled = [
        segment
        for segment in path.segments
        if segment_instructions(code, segment)[-1].mnemonic == "ba"
    ]
    assert annulled and all(segment & 1 == 0 for segment in annulled)


def test_filled_delay_slot_is_replayed(model):
    executable = build(FILLABLE)
    policy = SchedulingPolicy(fill_delay_slots=True)
    scheduler = BlockScheduler(model, policy)
    filled = Editor(executable).build(scheduler)
    assert scheduler.stats.delay_slots_filled > 0
    recorded = timed_run(model, executable)
    replay = timed_run(model, filled, along=recorded.path)
    assert replay.replayed
    assert outcome(replay) == outcome(timed_run(model, filled))


def test_replay_raises_where_the_instrumented_run_would(model):
    """The compiled program fits the budget; its instrumented build
    crosses it. The replay raises exactly when the build's own run
    does, at the same boundary."""
    executable = build(ANNULLED)
    compiled = timed_run(model, executable)
    instrumented = SlowProfiler(executable).instrument().executable
    needed = timed_run(model, instrumented).instructions
    assert needed > compiled.instructions
    for budget in (compiled.instructions, needed - 1):
        with pytest.raises(SimulationLimit) as real:
            timed_run(model, instrumented, max_instructions=budget)
        with pytest.raises(SimulationLimit) as replayed:
            timed_run(model, instrumented, max_instructions=budget, along=compiled.path)
        assert str(replayed.value) == str(real.value)
    replay = timed_run(model, instrumented, max_instructions=needed, along=compiled.path)
    assert replay.replayed and replay.instructions == needed


def test_taken_edge_trampoline_runs_for_real(model):
    """``Editor.instrument_edge`` routes a taken edge through a new
    block, which no recorded block maps to: the build runs for real,
    counted as unchained."""
    executable = build(ANNULLED)
    editor = Editor(executable)
    edge = next(
        edge for block in editor.cfg for edge in block.succs if edge.kind == "taken"
    )
    counter = Instruction("add", rd=r(5), rs1=r(5), imm=1, tag=TAG_INSTRUMENTATION)
    editor.instrument_edge(edge, [counter])
    edged = editor.build()
    assert not edged.block_map.one_to_one
    recorded = timed_run(model, executable)
    run = timed_run(model, edged, along=recorded.path)
    assert not run.replayed and run.fallback == UNCHAINED
    assert outcome(run) == outcome(timed_run(model, edged))
    assert outcome(run) == reference(model, edged)


def test_walker_tables_take_a_counted_real_run(model):
    """Tables that never answer cannot carry a replay: it runs the
    build for real on the walker, counted as a table miss."""
    walker = use_walker(_twin(model))
    executable = build(ANNULLED)
    recorded = timed_run(walker, executable)
    variant = builds(model, executable)["scheduled"]
    misses = walker.tables.misses
    run = timed_run(walker, variant, along=recorded.path)
    assert not run.replayed and run.fallback == TABLE_MISS
    assert run.result is not None
    assert walker.tables.misses == misses + 1
    assert outcome(run) == reference(model, variant)
    assert outcome(run) == outcome(timed_run(model, variant))
    assert not walker.tables.memo.entries


def test_the_recorded_executable_runs_for_real(model):
    """No edit maps the recorded program to itself: timing it along
    its own path runs it, counted as unchained."""
    executable = build(ANNULLED)
    recorded = timed_run(model, executable)
    run = timed_run(model, executable, along=recorded.path)
    assert run.fallback == UNCHAINED and outcome(run) == outcome(recorded)


def test_an_unrelated_executable_runs_for_real(model):
    recorded = timed_run(model, build(ANNULLED))
    other = build(SELF_TARGET)
    run = timed_run(model, other, along=recorded.path)
    assert run.fallback == UNCHAINED
    assert outcome(run) == reference(model, other)


def test_control_transfer_in_a_delay_slot(model):
    """The second ``ba`` runs as the first one's delay slot and sends
    the first target's instruction out alone: the path records it as a
    lone segment, and timing matches the per-instruction reference."""
    executable = build(DCTI)
    run = timed_run(model, executable)
    assert any(segment & 3 == LONE for segment in run.path.segments)
    assert outcome(run) == reference(model, executable)
    assert run.result.state.get_reg(8) == 5  # %o0: first + second, not +2


def test_recorded_path_is_the_executed_stream(model):
    """Laid end to end, the recorded segments are exactly the
    instructions the simulator's per-instruction hook reports."""
    from repro.isa.simulator import Simulator

    for source in (*PROGRAMS.values(), DCTI):
        executable = build(source)
        code = executable.code_map()
        hooked, segments = [], []
        Simulator(code).run(
            executable.entry,
            on_execute=lambda address, inst: hooked.append(inst),
            path=segments,
        )
        laid = [
            inst for segment in segments for inst in segment_instructions(code, segment)
        ]
        assert [id(inst) for inst in laid] == [id(inst) for inst in hooked]


def test_a_tiny_memo_evicts_and_stays_exact(model, monkeypatch):
    """The memo is bounded: at a few entries it evicts continually, and
    the cycles do not change."""
    executable = build(ANNULLED)
    want = reference(model, executable)
    monkeypatch.setattr("repro.pipeline.tables.SEGMENT_MEMO_LIMIT", 4)
    model.tables.memo = SegmentMemo()
    assert outcome(timed_run(model, executable)) == want
    memo = model.tables.memo
    assert memo.evictions > 0 and len(memo.entries) <= 4
    assert memo.hits + memo.misses > 0


def test_memo_hits_on_repeated_segments(model):
    executable = build(FILLABLE)
    timed_run(model, executable)
    memo = model.tables.memo
    assert memo.hits > 0 and memo.misses > 0
    misses = memo.misses
    timed_run(model, executable)
    assert memo.misses == misses, "a second run of one program missed"


def test_replay_of_counted_executions_is_refused(model):
    executable = build(ANNULLED)
    recorded = timed_run(model, executable)
    with pytest.raises(ValueError):
        timed_run(model, executable, along=recorded.path, count_executions=True)


# -- the segment memo on random streams -------------------------------------------

MEMO_SEEDS = tuple(range(10))


@pytest.fixture(scope="module", params=("hypersparc", "supersparc", "ultrasparc"))
def shipped(request):
    """One private model per shipped machine, shared by the seeds."""
    fresh = load_machine_from_source(description_text(request.param), request.param)
    attach_tables(fresh, use_disk_cache=False)
    return fresh


@pytest.mark.parametrize("seed", MEMO_SEEDS)
def test_memo_walk_matches_the_lean_stream_on_random_walks(shipped, seed):
    """Random segments of the property battery's instruction samples,
    visited in a random order with repeats, so memo hits meet many
    entry histories: the memo walk issues exactly like one lean stream
    over the laid-out instructions, whatever a segment's key clamps."""
    import random

    from repro.pipeline import timing
    from repro.pipeline.tables import LeanPipeline
    from tests.pipeline.test_table_properties import _SAMPLES

    model = shipped
    model.tables.memo = SegmentMemo()
    rng = random.Random(seed)
    layout = {
        code: [_SAMPLES[rng.randrange(len(_SAMPLES))] for _ in range(rng.randint(1, 6))]
        for code in range(0, 4 * 8, 4)
    }
    visits = [rng.choice(list(layout)) for _ in range(300)]
    lean = LeanPipeline(model.tables)
    cycle = 0
    for visit in visits:
        for inst in layout[visit]:
            cycle = lean.issue(cycle, model.timing(inst))
    got = timing._memo_walk(model, model.tables, visits, layout)
    assert got == cycle + 1
    assert model.tables.memo.hits > 0


def test_memo_key_reads_each_slot_at_its_smallest_offset():
    """A history slot read by several bounds is keyed at the smallest
    offset any of them subtracts, and a register's ready slot stops
    counting once the segment has written it."""
    memo = SegmentMemo()
    # (group, bounds, reads, writes): slot 7 is bounded at offsets 3 and
    # 1; slot 9 is written by the first record, so the second record's
    # bound on it reads the segment's own write.
    records = (
        (0, ((7, 3), (9, 2)), (), ((9, 4),)),
        (0, ((7, 1), (9, 0)), (), ()),
    )
    _, floors = memo.segment(records)
    assert dict(floors) == {7: 1, 9: 2}
