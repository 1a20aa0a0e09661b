"""Liveness analysis tests."""

from repro.isa import assemble, r
from repro.isa.opcodes import Category
from repro.isa.registers import FCC, ICC, Y, f
from repro.eel import Executable, LivenessAnalysis, TEXT_BASE, build_cfg
from repro.workloads.generator import WorkloadSpec, generate
from repro.workloads.spec95 import all_benchmarks, generate_benchmark


def analyze(source):
    exe = Executable.from_instructions(assemble(source, base_address=TEXT_BASE))
    cfg = build_cfg(exe)
    return cfg, LivenessAnalysis(cfg)


def test_straightline_use_def():
    cfg, live = analyze(
        """
        add %o0, %o1, %o2     ! uses o0, o1
        sub %o2, 1, %o3
        retl
        nop
        """
    )
    block = cfg.blocks[0]
    assert r(8) in live.live_in(block)
    assert r(9) in live.live_in(block)
    # o2 is defined before use, so not live-in.
    assert r(10) not in live.live_in(block)


def test_live_through_loop():
    cfg, live = analyze(
        """
            clr %o1
            mov 10, %o0
        loop:
            add %o1, %o0, %o1
            subcc %o0, 1, %o0
            bne loop
            nop
            retl
            nop
        """
    )
    loop = cfg.blocks[1]
    # Loop-carried: o0 and o1 live around the back edge.
    assert r(8) in live.live_in(loop)
    assert r(9) in live.live_in(loop)
    assert r(8) in live.live_out(loop)


def test_icc_live_between_cmp_and_branch():
    cfg, live = analyze(
        """
            cmp %o0, 1
            ba after
            nop
        after:
            be done
            nop
        done:
            retl
            nop
        """
    )
    # The branch block uses %icc without defining it, so %icc is live-in
    # there and live-out of the compare's block.
    branch_block = next(b for b in cfg if b.has_conditional_exit)
    assert ICC in live.live_in(branch_block)
    assert ICC in live.live_out(cfg.blocks[0])
    assert ICC not in live.live_in(cfg.blocks[0])


def test_dead_register_discovery():
    cfg, live = analyze(
        """
        add %o0, %o1, %o0
        retl
        nop
        """
    )
    # jmpl exit treats everything as live-out, so within the block no
    # integer register is dead.
    dead = live.dead_integer_registers(cfg.blocks[0], count=2)
    assert dead == []


def test_return_makes_everything_live():
    # A block ending in jmpl (return) must conservatively keep all
    # registers live, so almost nothing is dead near a return.
    cfg, live = analyze(
        """
        add %o0, %o1, %o0
        retl
        nop
        """
    )
    dead = live.dead_integer_registers(cfg.blocks[0], count=2)
    assert dead == []


def test_dead_registers_in_internal_block():
    # %l6/%l7 are redefined in the successor before the return, so they
    # are dead throughout the first block.
    cfg, live = analyze(
        """
            clr %l0
            ba next
            nop
        next:
            clr %l6
            clr %l7
            retl
            nop
        """
    )
    first = cfg.blocks[0]
    dead = live.dead_integer_registers(first, count=2)
    assert sorted(reg.name for reg in dead) == ["%l6", "%l7"]
    for reg in dead:
        assert reg not in live.live_in(first)


def test_avoid_set_respected():
    cfg, live = analyze(
        """
            clr %l0
            ba next
            nop
        next:
            clr %l6
            clr %l7
            retl
            nop
        """
    )
    first = cfg.blocks[0]
    without = live.dead_integer_registers(first, count=1)
    avoided = live.dead_integer_registers(first, count=1, avoid=frozenset(without))
    assert avoided and avoided != without


def test_block_boundary_fallthrough_vs_taken():
    # %o4 is read only on the fallthrough path (which redefines %o5),
    # %o5 only on the taken path (which redefines %o4): both are
    # live-out of the branching block — the union over both edges — but
    # each successor's live-in keeps only its own use.
    cfg, live = analyze(
        """
            cmp %o0, 1
            be taken
            nop
            add %o4, 1, %o3
            clr %o5
            retl
            nop
        taken:
            add %o5, 1, %o3
            clr %o4
            retl
            nop
        """
    )
    branch = next(b for b in cfg if b.has_conditional_exit)
    assert r(12) in live.live_out(branch)  # %o4 via fallthrough
    assert r(13) in live.live_out(branch)  # %o5 via taken edge
    fallthrough = next(
        b for b in cfg if any(r(12) in i.regs_read() for i in b.body)
    )
    taken = next(b for b in cfg if any(r(13) in i.regs_read() for i in b.body))
    assert r(12) in live.live_in(fallthrough)
    assert r(13) not in live.live_in(fallthrough)
    assert r(13) in live.live_in(taken)
    assert r(12) not in live.live_in(taken)


def test_delay_slot_use_is_live_in():
    # The delay slot executes with its branch: its read of %o3 makes
    # %o3 live-in of the branching block, but nothing downstream reads
    # it, so it is dead across the boundary.
    cfg, live = analyze(
        """
            ba target
            mov %o3, %o1
        target:
            clr %o3
            retl
            nop
        """
    )
    first = cfg.blocks[0]
    assert r(11) in live.live_in(first)
    assert r(11) not in live.live_out(first)


def test_delay_slot_def_satisfies_successor_use():
    # The delay slot writes %o2 before control reaches the target, so
    # the target's read is covered: live-out yes, live-in no.
    cfg, live = analyze(
        """
            ba target
            clr %o2
        target:
            add %o2, 1, %o3
            retl
            nop
        """
    )
    first = cfg.blocks[0]
    assert r(10) in live.live_out(first)
    assert r(10) not in live.live_in(first)


# -- the mask solver against the frozenset solver it replaced ----------------------

_EVERYTHING = frozenset(
    [r(i) for i in range(1, 32)] + [f(i) for i in range(32)] + [ICC, FCC, Y]
)


def reference_liveness(cfg):
    """Liveness solved over frozensets of registers, as before the
    solver moved to bitmasks: ``({block: live_in}, {block: live_out})``."""
    use, defs = {}, {}
    for block in cfg:
        uses, written = set(), set()
        for inst in block.instructions():
            for reg in inst.regs_read():
                if reg not in written:
                    uses.add(reg)
            written.update(inst.regs_written())
        use[block.index], defs[block.index] = frozenset(uses), frozenset(written)

    def boundary(block):
        term = block.terminator
        if term is None:
            return frozenset()
        if term.category in (Category.JMPL, Category.CALL) or not block.succs:
            return _EVERYTHING
        return frozenset()

    live_in = {b.index: frozenset() for b in cfg}
    live_out = {b.index: frozenset() for b in cfg}
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            out = set(boundary(block))
            for succ in cfg.successors(block):
                out |= live_in[succ.index]
            new_out = frozenset(out)
            new_in = frozenset(use[block.index] | (new_out - defs[block.index]))
            if new_out != live_out[block.index] or new_in != live_in[block.index]:
                changed = True
                live_out[block.index] = new_out
                live_in[block.index] = new_in
    return live_in, live_out


def reference_dead_integer_registers(block, live_in, *, count, avoid):
    busy = set(live_in) | set(avoid)
    for inst in block.instructions():
        busy |= inst.regs_read() | inst.regs_written()
    return [reg for reg in (r(i) for i in range(23, 0, -1)) if reg not in busy][:count]


def catalogue_shaped(index):
    """A catalogue-shaped image: even indexes integer small-block
    programs, odd indexes floating-point long-block ones."""
    if index % 2 == 0:
        spec = WorkloadSpec(
            name=f"int-{index}", seed=9100 + index, kind="int",
            avg_block_size=3.0, loops=36, trip_count=8, diamond_prob=0.9,
            call_prob=0.4, chain_density=0.55, load_fraction=0.32,
            store_fraction=0.12,
        )
    else:
        spec = WorkloadSpec(
            name=f"fp-{index}", seed=9100 + index, kind="fp",
            avg_block_size=24.0, loops=10, trip_count=8, diamond_prob=0.0,
            call_prob=0.15, chain_density=0.10, load_fraction=0.65,
            store_fraction=0.25, fp_fraction=0.42,
        )
    return generate(spec).executable


def test_mask_solver_matches_the_frozenset_solver():
    executables = [
        generate_benchmark(name, trip_count=4).executable
        for name in all_benchmarks()
    ] + [catalogue_shaped(index) for index in range(16)]
    blocks = 0
    for executable in executables:
        cfg = build_cfg(executable)
        live = LivenessAnalysis(cfg)
        live_in, live_out = reference_liveness(cfg)
        for block in cfg:
            assert live.live_in(block) == live_in[block.index]
            assert live.live_out(block.index) == live_out[block.index]
            for count, avoid in ((2, frozenset({r(6), r(7)})), (23, frozenset())):
                assert live.dead_integer_registers(
                    block, count=count, avoid=avoid
                ) == reference_dead_integer_registers(
                    block, live_in[block.index], count=count, avoid=avoid
                )
            blocks += 1
    assert blocks > 2000
