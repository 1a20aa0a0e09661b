"""Where a region cache exists: only where builds share one.

A one-shot build — ``qpt instrument --jobs 1``, a paper-table
experiment — schedules every region afresh and constructs no
:class:`ScheduleCache`. A sharded build constructs exactly one, the
transport that carries worker results into its layout pass, and the
daemon constructs one per (machine, filling) pair however many
first-seen requests it answers.
"""

import pytest

from repro.evaluation import ExperimentConfig, run_profiling_experiment
from repro.parallel import ScheduleCache
from repro.serve import SchedulingService, ServiceConfig, encode_batch, encode_job
from repro.tools import qpt_cli
from repro.workloads import sum_loop


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one per ScheduleCache construction."""
    made = []
    init = ScheduleCache.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScheduleCache, "__init__", counting_init)
    return made


@pytest.fixture
def image(tmp_path):
    path = tmp_path / "sum.rxe"
    path.write_bytes(sum_loop(12).executable.to_bytes())
    return path


def instrument(image, *flags):
    out = image.with_suffix(".q.rxe")
    argv = ["instrument", str(image), "-o", str(out), "--schedule", *flags]
    assert qpt_cli.main(argv) == 0


def test_guarded_one_shot_build_has_no_cache(constructions, image, capsys):
    instrument(image, "--safe", "--jobs", "1")
    assert constructions == []
    assert "schedule cache" not in capsys.readouterr().out


def test_experiment_has_no_cache(constructions):
    run_profiling_experiment(
        "130.li", ExperimentConfig(trip_count=6, reschedule_baseline=True)
    )
    assert constructions == []


def test_sharded_build_has_one_transport_cache(constructions, image, capsys):
    instrument(image, "--jobs", "2")
    assert len(constructions) == 1
    assert "schedule cache" in capsys.readouterr().out


def test_service_shares_one_cache_per_machine_and_filling(constructions):
    service = SchedulingService(ServiceConfig(jobs=1))
    jobs = [
        encode_job(
            "instrument",
            workload={"name": f"placement-{seed}", "seed": seed, "kind": "int",
                      "avg_block_size": 8.0},
            id=str(seed),
        )
        for seed in (81, 82)
    ]
    for job in jobs:
        (result,) = service.handle_batch(encode_batch([job]))["results"]
        assert result["ok"], result
        assert result["memo"] is False
    assert len(constructions) == 1
