"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one second (paper-tables and instrument-safe
still finish one whole pass / cycle), untraced and traced, and checks
that every metric ``BENCHMARK.json`` names is printed with its unit,
that outputs match the references, and that a wrong reference and a
refused serve batch are both counted as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: The metrics each workload prints under the names the paper-facing
#: documentation uses, besides the generic end-to-end set.
NAMED = {
    "paper-tables": [("tables_wall_s", "s")],
    "instrument-safe": [("instrument_p50_ms", "ms"), ("instrument_p90_ms", "ms")],
    "serve-mixed": [("serve_p50_ms", "ms"), ("serve_p90_ms", "ms"), ("serve_rps", "req/s")],
}


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(proc, lines) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, lines: list[str], workload: str, declared: list[dict]):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(
            line.startswith(f"{workload}: {metric['name']} = ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc, lines = run(workload)
    result = result_of(proc, lines)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, lines, workload, BENCHMARK["end_to_end"])
    for name, unit in NAMED[workload] + [("output_mismatches", "count")]:
        assert any(
            line.startswith(f"{workload}: {name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name
    assert f"{workload}: output_mismatches = 0 count" in lines
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    proc, lines = run(workload, trace=1)
    result = result_of(proc, lines)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, lines, workload, BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert 0.0 <= metrics["unattributed_share"] < 1.0
    if workload == "paper-tables":
        assert metrics["core.optimizer.s"] > 0 and metrics["pipeline.timed_run.s"] > 0
        assert metrics["verify.static.s"] == metrics["verify.symbolic.s"] == 0
    else:
        assert metrics["core.optimizer.s"] == metrics["pipeline.timed_run.s"] == 0
    if workload == "instrument-safe":
        assert metrics["verify.proven_ratio"] > 0
    assert (metrics["parallel.pool.spawns"] > 0) == (workload == "serve-mixed")


def copy_benchmark(into: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    shutil.copytree(HERE, into / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def tampered(value):
    """A reference no correct output matches."""
    if isinstance(value, list):
        return [value[0] + 1, *value[1:]]
    return "sha256:tampered"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_is_a_mismatch(workload, tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    refs_path = tmp_path / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text(encoding="utf-8"))
    refs = {
        section: {key: tampered(value) for key, value in entries.items()}
        for section, entries in refs.items()
    }
    refs_path.write_text(json.dumps(refs), encoding="utf-8")
    proc, lines = run(workload, cwd=tmp_path)
    result = result_of(proc, lines)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert f"{workload}: output_mismatches = 0 count" not in lines


def test_refused_serve_batch_counts_as_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # Set-up points the table cache into the run's directory.
    monkeypatch.setenv("REPRO_TABLE_CACHE_DIR", str(tmp_path))
    import workloads
    from repro.serve import ServeClient

    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    workload = workloads.ServeMixed(0, str(tmp_path), refs)
    workload.setup()
    try:
        request = workload.stream[0]
        job = workload._job(request)
        client = ServeClient(port=workload.port)
        oversized = [job] * (workload.service.config.max_batch_jobs + 1)
        refused = workload.exchange(client, oversized, request, 0)
        accepted = workload.exchange(client, [job], request, 1)
    finally:
        workload.teardown()
    assert refused.failed and not refused.mismatch
    assert "-> 429" in capsys.readouterr().out
    assert not accepted.failed


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc, lines = run("instrument-safe", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
