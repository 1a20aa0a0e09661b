"""The superblock acceptance proof: for every workload × machine, the
superblock-scheduled instrumented binary executes to the *identical*
architectural state — registers, all of memory (so every QPT counter
word), condition codes — as the locally scheduled one, under the
guarded pipeline with several verification seeds.

Superblock scheduling is a pure performance transform; these tests are
the differential evidence."""

import pytest

from repro.core import Profile
from repro.parallel.executor import make_transform
from repro.qpt import SlowProfiler
from repro.spawn import load_machine
from repro.workloads import sum_loop
from repro.workloads.spec95 import generate_benchmark

MACHINES = ("hypersparc", "supersparc", "ultrasparc")
SEEDS = (0xEE1, 7, 23)


def _programs():
    kernel = sum_loop(9)
    yield "sum_loop", kernel.executable, None
    # Small-block SPEC95 stand-ins — the workloads superblocks target.
    for bench in ("099.go", "130.li"):
        program = generate_benchmark(bench, trip_count=20)
        yield bench, program.executable, program.frequencies


PROGRAMS = list(_programs())


def arch_state(executable):
    state = executable.run().state
    return (
        [state.get_reg(i) for i in range(32)],
        state.memory.snapshot(),
        (state.icc_n, state.icc_z, state.icc_v, state.icc_c, state.y),
    )


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("name,executable,frequencies", PROGRAMS,
                         ids=[p[0] for p in PROGRAMS])
@pytest.mark.parametrize("seed", SEEDS)
def test_superblock_matches_local_scheduling(machine, name, executable,
                                             frequencies, seed):
    model = load_machine(machine)
    local = SlowProfiler(executable).instrument(
        make_transform(model, guarded=True, verify_seed=seed)
    )
    profile = Profile(frequencies) if frequencies is not None else None
    transform = make_transform(
        model, guarded=True, verify_seed=seed, superblock=True, profile=profile
    )
    superblock = SlowProfiler(executable).instrument(transform)

    local_run = local.run()
    superblock_run = superblock.run()
    # Identical QPT counter values, block by block...
    assert superblock.block_counts(superblock_run) == local.block_counts(
        local_run
    )
    # ...and identical architectural state overall.
    assert arch_state(superblock.executable) == arch_state(local.executable)


def test_matrix_actually_exercises_superblocks():
    """At least one cell of the matrix must commit superblock plans —
    otherwise the differential above proves nothing."""
    formed = 0
    for name, executable, frequencies in PROGRAMS:
        for machine in MACHINES:
            model = load_machine(machine)
            profile = Profile(frequencies) if frequencies is not None else None
            transform = make_transform(
                model, guarded=True, superblock=True, profile=profile
            )
            SlowProfiler(executable).instrument(transform)
            formed += transform.formed
    assert formed >= 1


def test_superblock_build_at_two_jobs_is_byte_identical_to_one():
    """The superblock pass times candidate blocks while planning, then
    hands the unclaimed ones to the parallel scheduler's workers; the
    timed instructions must still pickle."""
    from repro.parallel import ParallelOptions, shutdown_pools

    model = load_machine("ultrasparc")
    program = generate_benchmark("130.li", trip_count=20)
    images = []
    try:
        for jobs in (1, 2):
            transform = make_transform(
                model,
                options=ParallelOptions(jobs=jobs),
                superblock=True,
                profile=Profile(program.frequencies),
            )
            built = SlowProfiler(program.executable).instrument(transform)
            images.append(built.executable.to_bytes())
    finally:
        shutdown_pools()
    assert images[0] == images[1]
