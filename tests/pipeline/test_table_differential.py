"""Differential battery: a model's compiled stall-transition tables vs
the interpreted pipeline walker.

Tables are an acceleration, not a semantics change. The walker is a
model whose tables never answer (:mod:`tests.walker_tables`), so every
query takes the exact fallback path. Over the shipped machine
descriptions and generated workloads, the model's own tables must give
identical schedules (order and cycle counts), identical stall counts
and hazard-attribution buckets, verified-safe reorderings under every
verify seed, and — end to end — byte-identical output from ``qpt
instrument --schedule``. Transitions are *learned from* the interpreted
walker (:meth:`~repro.pipeline.tables.PipelineTables._learn`), so
agreement is by construction; this battery pins it empirically.

The timing battery holds block timing (``BlockSimulator.block_cycles``,
the optimizer's doubled-block score) and trace timing (``timed_run``)
to the same standard over every SPEC95 stand-in, with and without slow
profiling: a walker model and a table model must report the same
cycles, also when a tiny interning budget forces the lean table stream
to miss mid-run and redo its work on the interpreted path.
"""

import json
from array import array

import pytest

from repro.core.list_scheduler import ListScheduler
from repro.core.regions import split_regions
from repro.core.verify import verify_schedule
from repro.eel.cfg import build_cfg
from repro.isa import Instruction, r
from repro.obs.recorder import MetricsRecorder
from repro.obs.report import STALL_CYCLES, TABLE_FALLBACKS, TABLE_HITS
from repro.pipeline.simulator import BlockSimulator, issue_cycles
from repro.pipeline.tables import PipelineTables, attach_tables
from repro.pipeline.timing import timed_run
from repro.qpt.profiling import SlowProfiler
from repro.spawn import ModelError, load_superscalar
from repro.spawn.library import (
    MACHINES,
    description_text,
    load_machine,
    load_machine_from_source,
)
from repro.tools.qpt_cli import main
from repro.workloads import WorkloadSpec, generate, sum_loop
from repro.workloads.spec95 import CFP95, CINT95, generate_benchmark
from tests.walker_tables import WalkerTables, use_walker

VERIFY_SEEDS = (101, 202, 303)

#: Loop trip count of the timing battery's SPEC95 stand-ins: every loop
#: still runs more than once, and a machine's battery takes seconds.
BATTERY_TRIPS = 3

#: An interning budget below what one stand-in visits, so lean streams
#: run out of table states part-way through.
TINY_BUDGET = 64

_WORKLOADS = (
    WorkloadSpec(
        name="tbl-int", seed=11, kind="int", avg_block_size=11.0, loops=6
    ),
    WorkloadSpec(
        name="tbl-fp", seed=12, kind="fp", avg_block_size=16.0, loops=6
    ),
)


def _fresh_model(machine):
    # A private model instance: tables set here must not leak into the
    # process-wide ``load_machine`` cache other tests share.
    return load_machine_from_source(description_text(machine), machine)


def _regions():
    regions = []
    for spec in _WORKLOADS:
        program = generate(spec)
        for block in program.cfg.blocks:
            for region in split_regions(list(block.body)):
                if len(region.instructions) >= 2:
                    regions.append(list(region.instructions))
    return regions


@pytest.fixture(scope="module")
def regions():
    return _regions()


def _comparable(snapshot):
    """Counters and histograms, minus the two counters that say the
    tables were used. Timers measure wall clock — the thing tables are
    supposed to change — so they are excluded."""
    counters = {
        name: cells
        for name, cells in snapshot["counters"].items()
        if name not in (TABLE_HITS, TABLE_FALLBACKS)
    }
    return {"counters": counters, "histograms": snapshot["histograms"]}


@pytest.mark.parametrize("machine", MACHINES)
def test_schedules_and_hazard_buckets_identical(machine, regions):
    """Order, cycle counts, stall totals, and per-bucket hazard
    attribution must not depend on whether tables answered."""
    walker, model = _walker_and_table_models(machine)

    recorder = MetricsRecorder()
    interp = ListScheduler(walker, recorder=recorder)
    baseline = [interp.schedule_region(region) for region in regions]
    baseline_stats = recorder.metrics.snapshot()

    recorder = MetricsRecorder()
    fast = ListScheduler(model, recorder=recorder)
    accelerated = [fast.schedule_region(region) for region in regions]
    table_stats = recorder.metrics.snapshot()

    for before, after in zip(baseline, accelerated):
        assert after.order == before.order
        assert after.original_cycles == before.original_cycles
        assert after.scheduled_cycles == before.scheduled_cycles

    # Identical hazard attribution, stall totals, and decision
    # telemetry — the only difference tables may make is the pair of
    # counters that say the tables were used.
    assert _comparable(table_stats) == _comparable(baseline_stats)
    hits = sum(c["value"] for c in table_stats["counters"].get(TABLE_HITS, ()))
    assert hits > 0, "the tables never answered a query"
    assert not baseline_stats["counters"].get(TABLE_HITS), "the walker used tables"


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_table_schedules_verify(machine, seed, regions):
    """Table-answered schedules pass differential verification under
    every verify seed (semantic equivalence, not just same permutation)."""
    _, model = _walker_and_table_models(machine)
    scheduler = ListScheduler(model)
    for region in regions[:8]:
        result = scheduler.schedule_region(region)
        assert verify_schedule(region, result.instructions, seed=seed)


def test_cli_output_bytes_identical(tmp_path, monkeypatch):
    """``qpt instrument --schedule`` writes the same executable and
    sidecar with the machine's tables and with the walker."""
    kernel = sum_loop(9)
    source = tmp_path / "prog.rxe"
    source.write_bytes(kernel.executable.to_bytes())

    with_tables = tmp_path / "with.rxe"
    without = tmp_path / "without.rxe"
    assert (
        main(["instrument", str(source), "-o", str(with_tables), "--schedule"])
        == 0
    )
    walker = WalkerTables()
    monkeypatch.setattr(load_machine("ultrasparc"), "tables", walker)
    assert (
        main(["instrument", str(source), "-o", str(without), "--schedule"])
        == 0
    )
    assert walker.misses > 0, "the walker run never reached the tables"
    assert with_tables.read_bytes() == without.read_bytes()
    assert json.loads((tmp_path / "with.rxe.json").read_text()) == json.loads(
        (tmp_path / "without.rxe.json").read_text()
    )


# -- timing battery: block and trace timing, walker vs tables -------------------


@pytest.fixture(scope="module")
def spec95():
    """(name, executable) for every SPEC95 stand-in and its slow-profiled
    version."""
    executables = []
    for name in CINT95 + CFP95:
        executable = generate_benchmark(name, trip_count=BATTERY_TRIPS).executable
        executables.append((name, executable))
        profiled = SlowProfiler(executable).instrument().executable
        executables.append((f"{name} (profiled)", profiled))
    return executables


@pytest.fixture(scope="module")
def spec95_regions(spec95):
    return [
        list(region.instructions)
        for _, executable in spec95
        for block in build_cfg(executable)
        for region in split_regions(list(block.body))
        if region.instructions
    ]


def _walker_and_table_models(machine, **attach):
    walker = use_walker(_fresh_model(machine))
    tabled = _fresh_model(machine)
    attach_tables(tabled, use_disk_cache=False, **attach)
    return walker, tabled


def _timed(model, executable):
    run = timed_run(model, executable)
    return run.cycles, run.instructions


@pytest.mark.parametrize("machine", MACHINES)
def test_timed_run_identical_on_spec95(machine, spec95):
    walker, tabled = _walker_and_table_models(machine)
    for name, executable in spec95:
        assert _timed(tabled, executable) == _timed(walker, executable), name
    assert tabled.tables.misses == 0


@pytest.mark.parametrize("machine", MACHINES)
def test_block_cycles_identical_on_every_region_and_its_double(
    machine, spec95_regions
):
    """Block timing and the optimizer's score, which issues a region
    twice in one stream, against the walker's fresh-pipeline timing of
    the region and of its doubled copy."""
    walker, tabled = _walker_and_table_models(machine)
    reference = BlockSimulator(walker)
    block_cycles = BlockSimulator(tabled).block_cycles
    for region in spec95_regions:
        once = reference.time_block(region).issue_cycles
        twice = reference.time_block(region + region).issue_cycles
        assert block_cycles(region) == once
        assert block_cycles(region + region) == twice
        assert issue_cycles(tabled, region, copies=2) == [once, twice]
    assert tabled.tables.misses == 0


@pytest.mark.parametrize("machine", MACHINES)
def test_tiny_budget_misses_mid_run_and_stays_exact(
    machine, spec95, spec95_regions
):
    walker, tabled = _walker_and_table_models(machine, budget=TINY_BUDGET)
    for name, executable in spec95[:4]:
        assert _timed(tabled, executable) == _timed(walker, executable), name
    run_misses = tabled.tables.misses
    assert run_misses > 0
    reference = BlockSimulator(walker)
    for region in spec95_regions[:400]:
        double = region + region
        assert issue_cycles(tabled, region, copies=2) == [
            reference.time_block(region).issue_cycles,
            reference.time_block(double).issue_cycles,
        ]
    assert tabled.tables.misses > run_misses


@pytest.mark.parametrize("machine", MACHINES)
def test_recorded_timed_run_hazard_buckets_identical(machine, spec95):
    """With a live recorder ``timed_run`` attributes every stall; the
    buckets must not depend on whether tables answered."""
    walker, tabled = _walker_and_table_models(machine)
    snapshots = []
    for model in (walker, tabled):
        recorder = MetricsRecorder()
        for _, executable in spec95[:4]:
            timed_run(model, executable, recorder=recorder)
        snapshots.append(recorder.metrics.snapshot())
    walker_stats, table_stats = snapshots
    assert _comparable(table_stats) == _comparable(walker_stats)
    assert walker_stats["counters"][STALL_CYCLES], "no stall was attributed"
    hits = sum(c["value"] for c in table_stats["counters"].get(TABLE_HITS, ()))
    assert hits > 0, "the tables never answered a query"


def _rows(tables, sid):
    """State ``sid``'s free-unit rows, one tuple per cycle: the compact
    key decoded independently of the store."""
    key = tables.keys[sid]
    width = len(tables.capacity) or 1
    return tuple(tuple(key[at : at + width]) for at in range(0, len(key), width))


def _unpack(packed_keys, packed_values, states, sid_bits, fit_bits):
    """Per state, ``{group: (fit, next_sid)}`` of packed transitions."""
    out = [{} for _ in range(states)]
    for key, packed in zip(packed_keys, packed_values):
        successor = packed >> fit_bits
        out[key & ((1 << sid_bits) - 1)][key >> sid_bits] = (
            packed & ((1 << fit_bits) - 1),
            successor - 1 if successor else None,
        )
    return out


def _state_transitions(tables):
    """Per state, ``{group: (fit, next_sid)}``, decoded from the packed
    transition map independently of :meth:`PipelineTables.lookup`."""
    return _unpack(
        tables.transitions.keys(),
        tables.transitions.values(),
        tables.states,
        tables._sid_bits,
        tables._fit_bits,
    )


def _store_contents(path):
    """``(header, rows per state, advance, transitions per state)`` of
    the store at ``path``, decoded from nothing but its documented
    layout: a header line, then offsets, key bytes, ``advance`` and the
    packed transition keys and values."""
    with open(path, "rb") as handle:
        data = handle.read()
    end = data.index(b"\n")
    header = json.loads(data[:end].partition(b" ")[2])
    states, count = header["states"], header["transitions"]
    at = end + 1

    def take(code, items):
        nonlocal at
        values = array(code)
        values.frombytes(data[at : at + items * values.itemsize])
        at += items * values.itemsize
        return values

    offsets = take("I", states + 1)
    keys = data[at : at + header["key_bytes"]]
    at += header["key_bytes"]
    advance = [None if sid < 0 else sid for sid in take("i", states)]
    packed_keys, packed_values = take("Q", count), take("Q", count)
    assert at == len(data)
    width = len(header["capacity"]) or 1
    rows = [
        tuple(tuple(keys[row : row + width]) for row in range(start, stop, width))
        for start, stop in zip(offsets, offsets[1:])
    ]
    transitions = _unpack(
        packed_keys, packed_values, states, header["sid_bits"], header["fit_bits"]
    )
    return header, rows, advance, transitions


@pytest.mark.parametrize("machine", MACHINES)
def test_store_holds_the_compact_tables_and_round_trips(machine, spec95, tmp_path):
    """The disk store lists every state's rows, ``advance`` entry and
    transition exactly as :func:`_rows`, :func:`_state_transitions` and
    :meth:`lookup` decode them, for eager and lazily learned states;
    reloading it reproduces the tables, transitions in learning order,
    and writing them again gives the same bytes."""
    _, tabled = _walker_and_table_models(machine)
    tables = tabled.tables
    eager = tables.states
    for _, executable in spec95[:2]:
        timed_run(tabled, executable)
    assert tables.states > eager, "timing learned no state beyond the prefix"
    path = str(tmp_path / "store.bin")
    tables.write_store(path)
    header, rows, advance, transitions = _store_contents(path)
    by_state = _state_transitions(tables)
    assert header["states"] == len(rows) == len(by_state) == tables.states
    assert header["transitions"] == len(tables.transitions)
    assert advance == tables.advance
    for sid, (state_rows, table) in enumerate(zip(rows, by_state)):
        assert state_rows == _rows(tables, sid)
        assert transitions[sid] == table
        for group, transition in table.items():
            assert tables.lookup(sid, group) == transition
    reloaded = PipelineTables(tabled, budget=tables.budget)
    assert reloaded.read_store(path)
    assert reloaded.keys == tables.keys
    assert reloaded.advance == tables.advance
    assert list(reloaded.transitions.items()) == list(tables.transitions.items())
    again = str(tmp_path / "again.bin")
    reloaded.write_store(again)
    with open(path, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()


# -- models the state encoding cannot hold -----------------------------------------

#: Wider than the one-byte-per-unit state encoding: its ``Group`` and
#: ``ALUr`` units have 300 copies.
UNENCODABLE_WIDTH = 300


@pytest.fixture(scope="module")
def unencodable():
    """(model, walker twin, regions of a generated workload) for a
    machine the tables cannot encode."""
    spec = WorkloadSpec(name="wide", seed=7, kind="int", avg_block_size=8.0, loops=4)
    regions = [
        list(region.instructions)
        for block in generate(spec).cfg.blocks
        for region in split_regions(list(block.body))
        if len(region.instructions) >= 2
    ]
    return (
        load_superscalar(UNENCODABLE_WIDTH),
        use_walker(load_superscalar(UNENCODABLE_WIDTH)),
        regions,
    )


def test_unencodable_block_cycles_run_on_the_walker(unencodable):
    model, walker, regions = unencodable
    reference = BlockSimulator(walker)
    block_cycles = BlockSimulator(model).block_cycles
    for region in regions:
        assert block_cycles(region) == reference.time_block(region).issue_cycles
    assert not model.tables.encodable
    assert model.tables.misses > 0


def test_unencodable_schedules_run_on_the_walker(unencodable):
    model, walker, regions = unencodable
    misses = model.tables.misses
    fast = ListScheduler(model)
    reference = ListScheduler(walker)
    for region in regions:
        got, want = fast.schedule_region(region), reference.schedule_region(region)
        assert got.order == want.order
        assert got.original_cycles == want.original_cycles
        assert got.scheduled_cycles == want.scheduled_cycles
    assert model.tables.misses > misses


def test_unencodable_timed_run_runs_on_the_walker(unencodable):
    model, walker, _ = unencodable
    misses = model.tables.misses
    executable = sum_loop(12).executable
    assert _timed(model, executable) == _timed(walker, executable)
    assert model.tables.misses > misses


def test_tables_skip_a_variant_the_description_cannot_time():
    """Compiling a model's tables forms every timing group the ISA can
    produce. A variant that acquires more units than the machine has
    can never issue; it must not stop the rest of the model from
    timing, as it did not before the tables compiled on first use."""
    model = load_machine_from_source(
        "unit Group 2\nsem [ add ] is AR Group, D 1\nsem [ sub ] is AR Group 3, D 1",
        "lopsided",
    )
    add = Instruction("add", rd=r(1), rs1=r(2), rs2=r(3))
    simulator = BlockSimulator(model)
    assert simulator.time_block([add] * 3).issue_times == [0, 0, 1]
    assert simulator.block_cycles([add] * 3) == 2
    assert model.tables.misses == 0
    with pytest.raises(ModelError):
        model.timing(Instruction("sub", rd=r(1), rs1=r(2), rs2=r(3)))
