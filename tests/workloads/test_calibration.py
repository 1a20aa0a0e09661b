"""Build-free calibration: :func:`repro.workloads.generate` draws the
data section once, measures each calibration trial on its builder's
resolved instructions and builds only the program it keeps. The
reference here restarts the spec's random stream for every trial,
builds every trial into an executable and measures the CFG recovered
from it; both must keep the same program."""

import random

import pytest

from repro.eel.executable import DATA_BASE
from repro.workloads import WorkloadSpec, generate
from repro.workloads.generator import _DATA_WORDS, SyntheticProgram, _draw
from repro.workloads.spec95 import all_benchmarks, benchmark_spec


def _generate_building_every_trial(spec):
    def trial(mu):
        rng = random.Random(spec.seed)
        data = bytes(rng.randrange(256) for _ in range(4 * _DATA_WORDS))
        builder = _draw(spec, mu, rng, data)
        executable, cfg, frequencies = builder.build(data=data, data_base=DATA_BASE)
        return SyntheticProgram(spec, executable, cfg, frequencies)

    mu = max(0.0, spec.avg_block_size - 3.0)
    program = trial(mu)
    for _ in range(8):
        actual = program.avg_dynamic_block_size
        target = spec.avg_block_size
        if abs(actual - target) <= 0.10 * target:
            break
        mu = max(0.0, mu + (target - actual))
        program = trial(mu)
    return program


def _assert_same_program(spec):
    got = generate(spec)
    want = _generate_building_every_trial(spec)
    assert got.executable.to_bytes() == want.executable.to_bytes(), spec.name
    assert got.frequencies == want.frequencies, spec.name
    assert got.avg_dynamic_block_size == want.avg_dynamic_block_size, spec.name
    assert [b.address for b in got.cfg] == [b.address for b in want.cfg], spec.name


@pytest.mark.parametrize("trips", [3, 40, 60])
@pytest.mark.parametrize("machine", ["ultrasparc", "supersparc"])
def test_every_stand_in_keeps_the_program_a_built_trial_would(machine, trips):
    for name in all_benchmarks():
        _assert_same_program(benchmark_spec(name, machine=machine, trip_count=trips))


def _catalogue_like(kind, seed, scale):
    """Specs shaped like the benchmark's instrument and serve images
    (``scale`` 1 and 3)."""
    if kind == "int":
        return WorkloadSpec(
            name=f"int-{seed}", seed=seed, kind="int", avg_block_size=3.0,
            loops=36 // scale, trip_count=8, diamond_prob=0.9, call_prob=0.4,
            chain_density=0.55, load_fraction=0.32, store_fraction=0.12,
        )
    return WorkloadSpec(
        name=f"fp-{seed}", seed=seed, kind="fp", avg_block_size=24.0,
        loops=10 // scale, trip_count=8, diamond_prob=0.0, call_prob=0.15,
        chain_density=0.10, load_fraction=0.65, store_fraction=0.25,
        fp_fraction=0.42,
    )


@pytest.mark.parametrize("scale", [1, 3])
@pytest.mark.parametrize("kind", ["int", "fp"])
def test_catalogue_shaped_specs_keep_the_same_program(kind, scale):
    for seed in range(7000, 7006):
        _assert_same_program(_catalogue_like(kind, seed, scale))
