"""Scheduler throughput with compiled stall-transition tables.

The tentpole claim for ``repro.pipeline.tables``: answering stall
queries from the compiled ``(state, group) -> (stalls, next state)``
tables makes the list scheduler at least ~5x faster on the bench
matrix than the interpreted walker, while producing byte-identical
schedules. The walker is a twin model whose tables never answer
(``tests/walker_tables.py``). This bench measures both halves — the
speedup lands in ``BENCH_headline.json`` as the ``table_speedup``
column, and one ledger record per machine feeds the ``qpt benchmarks
gate`` noise bands.
"""

import sys
import time

from conftest import REPO_ROOT, save_result

from repro.core.list_scheduler import ListScheduler
from repro.core.regions import split_regions
from repro.obs import append_record, make_record
from repro.obs.ledger import DEFAULT_LEDGER_NAME
from repro.pipeline.tables import attach_tables
from repro.spawn.library import MACHINES, description_text, load_machine_from_source
from repro.workloads.generator import WorkloadSpec, generate

sys.path.insert(0, str(REPO_ROOT))
from tests.walker_tables import use_walker  # noqa: E402

#: The bench matrix: mixed int/fp workloads at the paper's block sizes.
_SEEDS = (11, 12, 13)
_AVG_BLOCK_SIZE = 14.0


def _corpus():
    regions = []
    for seed in _SEEDS:
        program = generate(
            WorkloadSpec(
                name=f"tables-{seed}",
                seed=seed,
                kind="fp" if seed % 2 else "int",
                avg_block_size=_AVG_BLOCK_SIZE,
                loops=24,
                diamond_prob=0.7,
            )
        )
        for block in program.cfg.blocks:
            for region in split_regions(list(block.body)):
                if len(region.instructions) >= 2:
                    regions.append(list(region.instructions))
    return regions


def _timed_pass(scheduler, regions, repeats=3):
    """Schedule the corpus ``repeats`` times; the results plus the
    fastest wall time (min-of-N rejects scheduler-external noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        results = [scheduler.schedule_region(region) for region in regions]
        best = min(best, time.perf_counter() - start)
    return results, best


def _measure(machine, regions):
    """(interp seconds, table seconds, compile seconds, states,
    mismatches) for scheduling the whole corpus both ways."""
    # Private models: tables set here must not perturb the shared
    # load_machine() instances other benches time.
    walker = use_walker(load_machine_from_source(description_text(machine), machine))
    scheduler = ListScheduler(walker)
    scheduler.schedule_region(regions[0])  # warm the model caches
    baseline, interp_s = _timed_pass(scheduler, regions)

    model = load_machine_from_source(description_text(machine), machine)
    start = time.perf_counter()
    tables = attach_tables(model, use_disk_cache=False)
    compile_s = time.perf_counter() - start
    accelerated, table_s = _timed_pass(ListScheduler(model), regions)

    mismatches = sum(
        1
        for before, after in zip(baseline, accelerated)
        if before.order != after.order
        or before.original_cycles != after.original_cycles
        or before.scheduled_cycles != after.scheduled_cycles
    )
    return interp_s, table_s, compile_s, tables.states, mismatches


def test_table_speedup(once):
    regions = _corpus()
    rows = []
    speedups = {}

    def run():
        for machine in MACHINES:
            interp_s, table_s, compile_s, states, mismatches = _measure(
                machine, regions
            )
            speedup = interp_s / table_s if table_s else float("inf")
            speedups[machine] = speedup
            rows.append(
                f"{machine:12s} interp {interp_s * 1e3:7.1f}ms  "
                f"tables {table_s * 1e3:7.1f}ms  speedup {speedup:5.2f}x  "
                f"compile {compile_s * 1e3:6.1f}ms  states {states:5d}  "
                f"mismatches {mismatches}"
            )
            assert mismatches == 0, f"{machine}: schedules diverged"
        return speedups

    once(run)
    text = (
        f"scheduler throughput, {len(regions)} regions "
        f"(seeds {_SEEDS}, avg block size {_AVG_BLOCK_SIZE}):\n"
        + "\n".join(rows)
        + "\n"
    )
    save_result("tables.txt", text)
    print("\n" + text)

    mean_speedup = sum(speedups.values()) / len(speedups)
    once.extra_info.update(
        {
            "table_speedup": round(mean_speedup, 2),
            **{
                f"table_speedup_{machine}": round(value, 2)
                for machine, value in speedups.items()
            },
        }
    )
    for machine, value in speedups.items():
        record = make_record(
            "benchmarks",
            run={"benchmark": f"tables-{machine}", "machine": machine},
            results={"table_speedup": round(value, 4)},
        )
        append_record(REPO_ROOT / DEFAULT_LEDGER_NAME, record)

    # The acceptance bar: >=5x on the matrix average (per-machine runs
    # are allowed scheduler-noise wiggle; the ledger gate bands those).
    assert mean_speedup >= 5.0, text
