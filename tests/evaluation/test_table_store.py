"""``run_table`` leaves what its rows learned for the next process.

One process regenerates two rows of Table 1 and persists the states its
stall tables learned. A fresh process then starts from that store —
refusing nothing, holding every persisted state — and regenerates the
same rows, and the interpreted walker agrees with the loaded tables on
every block of those rows.
"""

import json
import os
import pathlib
import subprocess
import sys

from repro.core.regions import split_regions
from repro.eel.cfg import build_cfg
from repro.evaluation.tables import TABLE_CONFIGS
from repro.pipeline.simulator import BlockSimulator, issue_cycles
from repro.pipeline.tables import CACHE_DIR_ENV, EAGER_STATES
from repro.qpt.profiling import SlowProfiler
from repro.spawn.library import description_text, load_machine_from_source
from repro.workloads.spec95 import generate_benchmark
from tests.walker_tables import use_walker

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ROWS = ("126.gcc", "102.swim")
TRIPS = 3

#: Regenerates the rows in a fresh interpreter and prints, as JSON, the
#: rows and the UltraSPARC tables' counts before and after.
SCRIPT = f"""
import json
from repro.evaluation import run_table
from repro.spawn.library import load_machine

tables = load_machine("ultrasparc").tables
loaded, rejected = tables.states, tables.rejected
result = run_table(1, benchmarks={ROWS!r}, trip_count={TRIPS})
tables = load_machine("ultrasparc").tables
print(json.dumps({{
    "rows": [
        [row.benchmark, row.uninstrumented_cycles, row.instrumented_cycles,
         row.scheduled_cycles]
        for row in result.rows
    ],
    "loaded": loaded,
    "rejected": rejected,
    "states": tables.states,
    "persisted": tables.persisted_states,
}}))
"""


def _run(store):
    env = {**os.environ, CACHE_DIR_ENV: str(store)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def test_a_fresh_process_starts_from_what_run_table_learned(tmp_path, monkeypatch):
    first = _run(tmp_path)
    assert (first["loaded"], first["rejected"]) == (EAGER_STATES, 0)
    assert first["states"] > EAGER_STATES
    assert first["persisted"] == first["states"]  # written back after the rows

    second = _run(tmp_path)
    assert second["rejected"] == 0
    assert second["loaded"] == first["states"]
    assert second["rows"] == first["rows"]

    # The loaded tables answer every block of those rows as the walker.
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    model = load_machine_from_source(description_text("ultrasparc"), "ultrasparc")
    tables = model.tables
    assert (tables.rejected, tables.states) == (0, first["states"])
    source = description_text("ultrasparc")
    walker = BlockSimulator(use_walker(load_machine_from_source(source)))
    for name in ROWS:
        executable = generate_benchmark(
            name, machine=TABLE_CONFIGS[1].machine, trip_count=TRIPS
        ).executable
        for image in (executable, SlowProfiler(executable).instrument().executable):
            for block in build_cfg(image):
                for region in split_regions(list(block.body)):
                    body = list(region.instructions)
                    if not body:
                        continue
                    want = [
                        walker.time_block(body).issue_cycles,
                        walker.time_block(body + body).issue_cycles,
                    ]
                    assert issue_cycles(model, body, copies=2) == want
    assert tables.misses == 0
