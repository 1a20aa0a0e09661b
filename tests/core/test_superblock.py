"""Superblock formation and cross-block scheduling behaviour.

Formation is pure CFG+profile logic and is tested directly; the
scheduler tests drive the full editor pipeline and assert the property
the paper's §4 region enlargement rests on: cross-block motion may
change *where* work executes but never *what* the program computes —
on the fall-through path and on every side exit, even when the profile
that guided the motion was wrong.
"""

import pytest

from repro.core import (
    Profile,
    SchedulingPolicy,
    Superblock,
    SuperblockConfig,
    SuperblockScheduler,
    form_superblocks,
    masked_differential,
)
from repro.eel.cfg import build_cfg
from repro.eel.editor import Editor
from repro.eel.executable import TEXT_BASE, Executable
from repro.isa import assemble, r
from repro.isa.asm import Assembler
from repro.parallel import ScheduleCache
from repro.spawn import load_machine


@pytest.fixture(scope="module")
def ultra():
    return load_machine("ultrasparc")


def build(source: str) -> Executable:
    program = Assembler(base_address=TEXT_BASE).assemble(source)
    return Executable.from_instructions(program, text_base=TEXT_BASE)


#: Three fall-through blocks ending in an unconditional break, each
#: conditional branch exiting to ``exit``.
CHAIN = """
        set 1, %o2
        subcc %o2, 5, %g0
        be exit
        nop
        add %o2, 1, %o2
        subcc %o2, 6, %g0
        be exit
        nop
        add %o2, 2, %o2
        ba exit
        nop
    exit:
        retl
        nop
"""

#: A sinkable instruction (``add %o2, %o4, %o5`` feeds neither the
#: branch condition nor the delay slot) above a side exit that *reads*
#: the downstream result ``%o5`` — the shape that needs a compensation
#: copy when the sink commits.
SINKABLE = """
        set 10, %o0
        set 1, %o2
        set 2, %o4
        add %o2, %o4, %o5
        subcc %o0, 10, %g0
        be side
        nop
        add %o5, 3, %o5
        add %o1, 1, %o1
        retl
        nop
    side:
        add %o5, 7, %o1
        retl
        nop
"""


def uniform_profile(executable: Executable, freq: int = 10) -> Profile:
    cfg = build_cfg(executable)
    return Profile({block.index: freq for block in cfg})


# -- formation --------------------------------------------------------------------


def test_formation_chains_fallthrough_blocks():
    cfg = build_cfg(build(CHAIN))
    sbs = form_superblocks(cfg, uniform_profile(build(CHAIN)))
    assert Superblock((0, 1, 2)) in sbs


def test_formation_respects_max_blocks():
    exe = build(CHAIN)
    cfg = build_cfg(exe)
    sbs = form_superblocks(
        cfg, uniform_profile(exe), SuperblockConfig(max_blocks=2)
    )
    assert all(len(sb) <= 2 for sb in sbs)
    assert Superblock((0, 1)) in sbs


def test_formation_respects_hot_threshold():
    exe = build(CHAIN)
    cfg = build_cfg(exe)
    cold = Profile({block.index: 0 for block in cfg})
    assert form_superblocks(cfg, cold) == []


def test_formation_respects_blocked_edges():
    exe = build(CHAIN)
    cfg = build_cfg(exe)
    sbs = form_superblocks(
        cfg, uniform_profile(exe), blocked_edges=frozenset({(0, 1)})
    )
    assert all((0, 1) != (sb.blocks[0], sb.blocks[1]) for sb in sbs)
    assert Superblock((1, 2)) in sbs


def test_formation_stops_at_unconditional_terminator():
    # Block 2 ends in ``ba``: no chain may continue through it.
    exe = build(CHAIN)
    cfg = build_cfg(exe)
    for sb in form_superblocks(cfg, uniform_profile(exe)):
        assert sb.blocks[-1] <= 2
        assert 3 not in sb.blocks[:-1] or True
        for member in sb.blocks[:-1]:
            assert member != 2 or sb.blocks[-1] == 2


def test_branch_to_next_never_chains():
    # Taken target == fall-through successor: the successor has two
    # in-edges, so it is never absorbed in the first place.
    exe = build(
        """
            subcc %o0, 1, %g0
            be next
            nop
        next:
            add %o0, 1, %o0
            retl
            nop
        """
    )
    cfg = build_cfg(exe)
    assert form_superblocks(cfg, uniform_profile(exe)) == []


# -- masked differential ----------------------------------------------------------


def test_masked_differential_catches_live_clobber():
    original = assemble("add %o0, 1, %o1")
    hoisted = assemble("add %o0, 1, %o1\nadd %o2, 5, %o2")
    result = masked_differential(original, hoisted, {r(10)})
    assert not result.ok


def test_masked_differential_ignores_dead_clobber():
    original = assemble("add %o0, 1, %o1")
    hoisted = assemble("add %o0, 1, %o1\nadd %o2, 5, %o2")
    result = masked_differential(original, hoisted, {r(9)})
    assert result.ok


# -- scheduling: compensation correctness -----------------------------------------


def final_state(executable: Executable):
    state = executable.run().state
    return (
        [state.get_reg(i) for i in range(32)],
        state.memory.snapshot(),
        (state.icc_n, state.icc_z, state.icc_v, state.icc_c),
    )


def test_lying_profile_costs_cycles_never_correctness(ultra):
    """The profile swears the side exit is never taken; at runtime the
    branch is *always* taken. The compensation copy must make the exit
    path compute exactly what the original did."""
    exe = build(SINKABLE)
    cfg = build_cfg(exe)
    side = next(
        e.dst for e in cfg.blocks[0].succs if e.kind == "taken"
    )
    lying = Profile(
        {b.index: (0 if b.index == side else 100) for b in cfg}
    )
    scheduler = SuperblockScheduler(
        ultra,
        profile=lying,
        guarded=True,
        # tolerate modeled regressions so the (tiny) plan commits
        # deterministically; correctness must hold either way.
        config=SuperblockConfig(commit_threshold=2.0),
    )
    edited = Editor(exe).build(scheduler)
    assert scheduler.formed >= 1
    assert scheduler.compensation_copies >= 1
    assert final_state(edited) == final_state(exe)


def test_safe_speculation_preserves_both_paths(ultra):
    exe = build(SINKABLE)
    scheduler = SuperblockScheduler(
        ultra,
        profile=uniform_profile(exe),
        guarded=True,
        config=SuperblockConfig(speculate=True, commit_threshold=2.0),
    )
    edited = Editor(exe).build(scheduler)
    assert scheduler.quarantine == ()
    assert final_state(edited) == final_state(exe)


def test_commit_threshold_zero_commits_nothing(ultra):
    exe = build(SINKABLE)
    scheduler = SuperblockScheduler(
        ultra,
        profile=uniform_profile(exe),
        config=SuperblockConfig(commit_threshold=0.0),
    )
    edited = Editor(exe).build(scheduler)
    assert scheduler.formed == 0
    assert scheduler.compensation_copies == 0
    assert final_state(edited) == final_state(exe)


# -- plan caching -----------------------------------------------------------------


def test_cached_plan_reproduces_the_cold_build(ultra):
    exe = build(SINKABLE)
    cache = ScheduleCache()
    config = SuperblockConfig(commit_threshold=2.0)
    profile = uniform_profile(exe)

    cold = SuperblockScheduler(
        ultra, profile=profile, guarded=True, config=config, cache=cache
    )
    first = Editor(exe).build(cold)
    assert cold.formed >= 1
    assert cache.superblock_entries() >= 1

    hits_before = cache.hits
    warm = SuperblockScheduler(
        ultra, profile=profile, guarded=True, config=config, cache=cache
    )
    second = Editor(exe).build(warm)
    assert cache.hits > hits_before
    assert warm.formed == cold.formed
    assert second.to_bytes() == first.to_bytes()
    # A served plan reports the cycles its fresh plan did.
    assert warm.stats == cold.stats


def test_commit_threshold_is_part_of_the_cache_key(ultra):
    exe = build(SINKABLE)
    cache = ScheduleCache()
    profile = uniform_profile(exe)
    loose = SuperblockScheduler(
        ultra,
        profile=profile,
        config=SuperblockConfig(commit_threshold=2.0),
        cache=cache,
    )
    Editor(exe).build(loose)
    assert loose.formed >= 1
    # A stricter scheduler must not be served the loose plan.
    strict = SuperblockScheduler(
        ultra,
        profile=profile,
        config=SuperblockConfig(commit_threshold=0.0),
        cache=cache,
    )
    Editor(exe).build(strict)
    assert strict.formed == 0


# -- delay-slot glue (regression) -------------------------------------------------


#: SINKABLE with a *working* delay slot: the boundary's delay
#: instruction does real arithmetic on both paths.
DELAY_GLUE = SINKABLE.replace(
    "be side\n            nop",
    "be side\n            add %o3, 9, %o3",
)


def test_delay_slot_stays_glued_through_superblock_formation(ultra):
    """Regression: the delay-slot instruction is pinned to its branch
    (core.regions glue) and must execute on both paths even when the
    superblock planner moves code across that same boundary."""
    exe = build(DELAY_GLUE)
    scheduler = SuperblockScheduler(
        ultra,
        profile=uniform_profile(exe),
        guarded=True,
        config=SuperblockConfig(speculate=True, commit_threshold=2.0),
    )
    edited = Editor(exe).build(scheduler)
    assert scheduler.formed >= 1
    assert final_state(edited) == final_state(exe)
    # The delay instruction never migrates into a scheduled body.
    for plan in scheduler.plans:
        for body in plan.bodies:
            assert all(inst.mnemonic != "be" for inst in body)
            assert all(
                not (inst.mnemonic == "add" and inst.imm == 9) for inst in body
            )
