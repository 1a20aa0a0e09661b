"""Shared helpers for the benchmark harness.

Each table/figure bench regenerates a paper artifact, asserts its
qualitative shape, attaches the headline numbers to the pytest-benchmark
record (``--benchmark-only`` prints them), and writes the rendered
output under ``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Default target of ``--bench-json``: the machine-readable perf
#: trajectory at the repo root, one aggregate record per bench.
BENCH_JSON_DEFAULT = REPO_ROOT / "BENCH_headline.json"

#: Trip count used by the table benches: large enough for stable
#: weighting, small enough that a full table of 18 rows runs in about
#: five seconds (block scoring and trace timing issue through the
#: compiled stall tables).
TABLE_TRIPS = 40


def save_result(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text, encoding="utf-8")
    return path


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        nargs="?",
        const=str(BENCH_JSON_DEFAULT),
        default=None,
        metavar="PATH",
        help="write aggregate bench results (name, cycles, %%hidden, wall "
        f"time) as JSON; default path {BENCH_JSON_DEFAULT}",
    )


def _aggregate_record(bench) -> dict:
    """One JSON record per pytest-benchmark entry: the headline numbers
    promoted to top-level keys, everything else under ``extra``."""
    extra = dict(getattr(bench, "extra_info", {}) or {})
    stats = getattr(bench, "stats", None)
    inner = getattr(stats, "stats", stats)
    record = {
        "name": bench.name,
        "wall_time_s": getattr(inner, "mean", None),
        "cycles": None,
        "pct_hidden": None,
        "extra": extra,
    }
    for key, value in extra.items():
        lowered = key.lower()
        if record["cycles"] is None and "cycles" in lowered:
            record["cycles"] = value
        if record["pct_hidden"] is None and "hidden" in lowered:
            record["pct_hidden"] = value
    # The headline bench reports the paper's two suite averages.
    if record["pct_hidden"] is None and {"int", "fp"} <= extra.keys():
        record["pct_hidden"] = {"int": extra["int"], "fp": extra["fp"]}
    return record


def _headline_header(now: float) -> dict:
    """Provenance header for ``BENCH_headline.json``: when, what commit,
    and content digests of the machine models and policy the benches
    measured — so two snapshots are comparable (or provably not)."""
    from repro.core.dependence import SchedulingPolicy
    from repro.obs.ledger import git_sha, iso_now
    from repro.parallel.fingerprint import context_digest, policy_digest
    from repro.spawn.library import load_machine

    policy = SchedulingPolicy(fill_delay_slots=True)
    return {
        "generated_unix": now,
        "generated_iso": iso_now(now),
        "git_sha": git_sha(str(REPO_ROOT)),
        "policy_digest": policy_digest(policy),
        "machine_digests": {
            name: context_digest(load_machine(name), policy)
            for name in ("ultrasparc", "supersparc", "hypersparc")
        },
    }


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json", default=None)
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    benchmarks = getattr(bench_session, "benchmarks", None) or []
    payload = {
        **_headline_header(time.time()),
        "results": [_aggregate_record(bench) for bench in benchmarks],
    }
    out = pathlib.Path(path)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out} ({len(payload['results'])} bench records)")


@pytest.fixture
def once(benchmark):
    """Run an expensive experiment exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    runner.extra_info = benchmark.extra_info
    return runner
