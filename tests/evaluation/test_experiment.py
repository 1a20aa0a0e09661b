"""Evaluation-harness tests: result arithmetic, protocol wiring, and the
qualitative shape the paper reports (small trip counts keep this fast;
the full tables live in benchmarks/)."""

from dataclasses import replace

import pytest

from repro.cache import ICacheModel
from repro.evaluation import (
    BenchmarkResult,
    EXPERIMENTS,
    ExperimentConfig,
    TABLE_CONFIGS,
    TableResult,
    run_profiling_experiment,
    run_table,
)


def result(uninst, inst, sched, **kw):
    return BenchmarkResult(
        benchmark="x",
        machine="ultrasparc",
        avg_block_size=3.0,
        uninstrumented_cycles=uninst,
        instrumented_cycles=inst,
        scheduled_cycles=sched,
        **kw,
    )


def test_pct_hidden_arithmetic():
    r = result(100, 200, 150)
    assert r.pct_hidden == pytest.approx(0.5)
    assert r.instrumented_ratio == pytest.approx(2.0)
    assert r.scheduled_ratio == pytest.approx(1.5)
    assert r.overhead_cycles == 100


def test_pct_hidden_can_be_negative():
    # De-scheduling: the scheduled binary is slower than unscheduled.
    r = result(100, 200, 220)
    assert r.pct_hidden == pytest.approx(-0.2)


def test_pct_hidden_zero_overhead_guard():
    r = result(100, 100, 90)
    assert r.pct_hidden == 0.0


def test_table_configs_match_paper_protocols():
    assert TABLE_CONFIGS[1].machine == "ultrasparc"
    assert not TABLE_CONFIGS[1].reschedule_baseline
    assert TABLE_CONFIGS[2].machine == "ultrasparc"
    assert TABLE_CONFIGS[2].reschedule_baseline
    assert TABLE_CONFIGS[3].machine == "supersparc"
    assert not TABLE_CONFIGS[3].reschedule_baseline


def test_experiment_registry_covers_all_artifacts():
    assert set(EXPERIMENTS) == {
        "table1",
        "table2",
        "table3",
        "figure1",
        "figure2",
        "figure3",
    }


@pytest.mark.parametrize("bench_name", ["130.li", "101.tomcatv"])
def test_experiment_basic_shape(bench_name):
    r = run_profiling_experiment(
        bench_name, ExperimentConfig(trip_count=12)
    )
    # Instrumentation always costs; scheduling never exceeds plain
    # instrumentation.
    assert r.instrumented_cycles > r.uninstrumented_cycles
    assert r.scheduled_cycles <= r.instrumented_cycles
    assert r.text_expansion > 1.0


def test_int_overhead_ratio_exceeds_fp():
    """The paper's clearest contrast: profiling costs ~2.3x on integer
    codes but only ~1.2x on FP codes (small vs large blocks)."""
    li = run_profiling_experiment("130.li", ExperimentConfig(trip_count=12))
    swim = run_profiling_experiment("102.swim", ExperimentConfig(trip_count=12))
    assert li.instrumented_ratio > 1.8
    assert swim.instrumented_ratio < 1.4
    assert li.instrumented_ratio > swim.instrumented_ratio


def test_fp_hides_more_than_int():
    go = run_profiling_experiment("099.go", ExperimentConfig(trip_count=12))
    tomcatv = run_profiling_experiment("101.tomcatv", ExperimentConfig(trip_count=12))
    assert tomcatv.pct_hidden > go.pct_hidden


def test_icache_model_reduces_hiding():
    with_cache = run_profiling_experiment(
        "126.gcc", ExperimentConfig(trip_count=12, model_icache=True)
    )
    without = run_profiling_experiment(
        "126.gcc", ExperimentConfig(trip_count=12, model_icache=False)
    )
    # The i-cache penalty is not hideable, so it can only dilute the
    # hidden fraction (and inflate the overhead ratio).
    assert with_cache.instrumented_ratio >= without.instrumented_ratio
    assert with_cache.pct_hidden <= without.pct_hidden + 1e-9


def test_run_table_renders(capsys):
    table = run_table(1, benchmarks=("130.li", "101.tomcatv"), trip_count=10)
    text = table.render()
    assert "Table 1" in text
    assert "130.li" in text
    assert "101.tomcatv" in text
    assert "%" in text


def test_run_table_trip_count_keeps_every_other_config_field(monkeypatch):
    """A trip-count override replaces that one field; non-default
    fields of the table's protocol reach the experiments unchanged."""
    config = replace(
        TABLE_CONFIGS[1],
        trace_timing=False,
        max_instructions=400_000,
        optimizer_restarts=2,
    )
    monkeypatch.setitem(TABLE_CONFIGS, 1, config)
    table = run_table(1, benchmarks=("130.li",), trip_count=6)
    assert table.config == replace(config, trip_count=6)
    assert [row.benchmark for row in table.rows] == ["130.li"]


def test_table_averages():
    table = TableResult(table=1, config=TABLE_CONFIGS[1])
    table.rows = [
        result(100, 200, 150),  # would need real names to count
    ]
    # Rows with unknown names fall outside both suites.
    assert table.average_hidden("int") == 0.0


def test_icache_model_validation():
    with pytest.raises(ValueError):
        ICacheModel(base_miss_rate=2.0)
    with pytest.raises(ValueError):
        ICacheModel(base_miss_rate=0.01, miss_penalty=-1)
    model = ICacheModel(base_miss_rate=0.01)
    assert model.miss_rate(2.0) == pytest.approx(0.04)
    with pytest.raises(ValueError):
        model.miss_rate(0.5)
    assert model.penalty_cycles(1000, 2.0) == 400


def test_experiment_attaches_metric_summary():
    """With a recorder, the result carries a metrics snapshot the
    benchmarks can assert on; without one, nothing is attached and the
    headline numbers are unchanged."""
    from repro.obs import MetricsRecorder

    recorder = MetricsRecorder()
    observed = run_profiling_experiment(
        "130.li", ExperimentConfig(trip_count=8), recorder=recorder
    )
    plain = run_profiling_experiment("130.li", ExperimentConfig(trip_count=8))

    assert plain.metrics is None
    assert observed.metrics is not None
    assert observed.uninstrumented_cycles == plain.uninstrumented_cycles
    assert observed.instrumented_cycles == plain.instrumented_cycles
    assert observed.scheduled_cycles == plain.scheduled_cycles

    snapshot = observed.metrics
    assert "scheduler.decisions" in snapshot["counters"]
    phase_names = set(snapshot["timers"])
    assert {"eval.compile", "eval.instrument", "eval.time"} <= phase_names
    assert "core.forward_pass" in phase_names


def test_guarded_experiment_matches_unguarded():
    """The verify-and-fallback guard must be a pure observer: with no
    faults injected it changes neither the schedules nor the cycle
    counts, and its counters land in the metrics snapshot."""
    from repro.obs import GUARD_BLOCKS_VERIFIED, GUARD_QUARANTINED, MetricsRecorder

    recorder = MetricsRecorder()
    guarded = run_profiling_experiment(
        "130.li", ExperimentConfig(trip_count=8, guarded=True), recorder=recorder
    )
    plain = run_profiling_experiment("130.li", ExperimentConfig(trip_count=8))

    assert guarded.uninstrumented_cycles == plain.uninstrumented_cycles
    assert guarded.instrumented_cycles == plain.instrumented_cycles
    assert guarded.scheduled_cycles == plain.scheduled_cycles

    counters = guarded.metrics["counters"]
    assert GUARD_BLOCKS_VERIFIED in counters
    assert GUARD_QUARANTINED not in counters  # nothing quarantined
    assert recorder.metrics.counter_total(GUARD_BLOCKS_VERIFIED) > 0


def test_cycles_to_seconds_scaling():
    from repro.evaluation import cycles_to_seconds, speedup

    assert cycles_to_seconds(50_000_000, "supersparc") == pytest.approx(1.0)
    assert cycles_to_seconds(167_000_000, "ultrasparc") == pytest.approx(1.0)
    assert speedup("ultrasparc", "supersparc") == pytest.approx(3.34)
    with pytest.raises(KeyError):
        cycles_to_seconds(1, "pentium")


def test_experiment_times_one_run_and_replays_the_rest(tmp_path):
    """Only the compiled input runs functionally; the rescheduled,
    instrumented and scheduled builds are replayed along its path, and
    the counters say so in the metrics, the ``--stats`` panel and the
    ledger record. The cycles equal timing every build by its own run."""
    import json

    from repro.core.optimizer import ImprovedScheduler
    from repro.eel.editor import Editor
    from repro.obs import MetricsRecorder, render_stats, stats_payload
    from repro.parallel.executor import make_transform
    from repro.pipeline.timing import timed_run
    from repro.qpt import SlowProfiler
    from repro.spawn import load_machine
    from repro.workloads.spec95 import generate_benchmark

    config = ExperimentConfig(trip_count=8, reschedule_baseline=True)
    recorder = MetricsRecorder()
    ledger = tmp_path / "ledger.jsonl"
    observed = run_profiling_experiment(
        "126.gcc", config, recorder=recorder, ledger=ledger
    )
    counters = recorder.metrics
    assert counters.counter_total("timing.recorded") == 1
    assert counters.counter_total("timing.replayed") == 3
    assert counters.counter_total("timing.real.unchained") == 0
    assert counters.counter_total("timing.real.table_miss") == 0
    # The model's memo outlives the experiment, so earlier timings in
    # this process may have stored every segment already.
    assert counters.counter_total("timing.memo_hits") > 0
    assert "timing.replayed" in observed.metrics["counters"]
    panel = render_stats(counters)
    assert "trace timing: 1 recorded runs, 3 replayed builds, 0 real runs" in panel
    assert "segment memo:" in panel
    assert stats_payload(counters)["counters"]["timing_replayed"] == 3
    record = json.loads(ledger.read_text().splitlines()[-1])
    assert record["metrics"]["counters"]["timing_replayed"] == 3
    assert record["metrics"]["counters"]["timing_memo_hits"] > 0

    # The oracle: every build timed by its own functional run.
    model = load_machine("ultrasparc")
    program = generate_benchmark("126.gcc", trip_count=8)
    compiled = Editor(program.executable).build(
        ImprovedScheduler(model, restarts=config.optimizer_restarts, seed=program.spec.seed)
    )
    baseline = Editor(compiled).build(make_transform(model, config.policy))
    plain = SlowProfiler(baseline).instrument().executable
    scheduled = SlowProfiler(baseline).instrument(make_transform(model, config.policy))
    assert observed.uninstrumented_cycles == timed_run(model, baseline).cycles
    assert observed.instrumented_cycles == timed_run(model, plain).cycles
    assert observed.scheduled_cycles == timed_run(model, scheduled.executable).cycles


def test_superblock_builds_replay_unless_compensation_adds_blocks():
    """A superblock build is replayed like any other when its block map
    chains one for one (126.gcc); when side-exit compensation added
    trampoline blocks (130.li) it runs for real, counted as unchained."""
    from repro.obs import MetricsRecorder

    config = ExperimentConfig(trip_count=8, superblock=True)
    for benchmark, replayed, unchained in (("126.gcc", 2, 0), ("130.li", 1, 1)):
        recorder = MetricsRecorder()
        run_profiling_experiment(benchmark, config, recorder=recorder)
        counters = recorder.metrics
        assert counters.counter_total("timing.recorded") == 1, benchmark
        assert counters.counter_total("timing.replayed") == replayed, benchmark
        assert counters.counter_total("timing.real.unchained") == unchained, benchmark
        assert counters.counter_total("timing.real.table_miss") == 0, benchmark
