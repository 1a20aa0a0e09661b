"""QPT2 slow profiling: the instrumentation the paper schedules (§4.2).

Each instrumented block receives the classic four-instruction counter
increment — set immediate, load, add, store:

.. code-block:: asm

    sethi %hi(counter), %rA
    ld    [%rA + %lo(counter)], %rB
    add   %rB, 1, %rB
    st    %rB, [%rA + %lo(counter)]

Scratch registers come from EEL's liveness analysis when two integer
registers are dead across the block; otherwise QPT falls back to the
reserved registers (``%g6``/``%g7``, which SPARC ABIs set aside for
system software and compilers do not allocate).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..eel.cfg import CFG, build_cfg
from ..eel.editor import BlockTransform, Editor
from ..eel.executable import Executable
from ..eel.liveness import LivenessAnalysis
from ..isa.instruction import TAG_INSTRUMENTATION, Instruction
from ..isa.registers import Reg, r
from ..isa.simulator import RunResult
from ..isa import synth
from ..obs.recorder import NULL_RECORDER, Recorder
from .counters import COUNTER_BASE, CounterSegment
from .placement import PlacementPlan, plan_placement

#: SPARC ABI-reserved registers, QPT's fallback scratch pair.
RESERVED_SCRATCH = (r(6), r(7))  # %g6, %g7


def counter_snippet(counter_address: int, addr_reg: Reg, value_reg: Reg) -> list[Instruction]:
    """The 4-instruction slow-profiling sequence for one counter."""
    hi = synth.hi22(counter_address)
    lo = synth.lo10(counter_address)
    tag = TAG_INSTRUMENTATION
    return [
        Instruction("sethi", rd=addr_reg, imm=hi, tag=tag),
        Instruction("ld", rd=value_reg, rs1=addr_reg, imm=lo, tag=tag),
        Instruction("add", rd=value_reg, rs1=value_reg, imm=1, tag=tag),
        Instruction("st", rd=value_reg, rs1=addr_reg, imm=lo, tag=tag),
    ]


@dataclass
class ProfiledProgram:
    """The output of instrumenting a program for block profiling."""

    original: Executable
    executable: Executable
    cfg: CFG
    plan: PlacementPlan
    counters: CounterSegment
    #: scratch registers chosen per instrumented block.
    scratch: dict[int, tuple[Reg, Reg]] = field(default_factory=dict)
    #: quarantine reports from a guarded transform
    #: (:class:`~repro.robust.guard.GuardedBlockScheduler`); empty when
    #: the transform was unguarded or every block verified.
    quarantine: tuple = ()
    #: the editor that produced ``executable``, kept so post-build
    #: analyses (:func:`repro.analyze.lint_profiled`) can see the merged
    #: block bodies with instrumentation tags intact.
    editor: object | None = None

    @property
    def added_instructions(self) -> int:
        return 4 * len(self.plan.instrumented)

    @property
    def text_expansion(self) -> float:
        """Text-size growth factor E (drives the Lebeck–Wood model)."""
        return self.executable.text_size / self.original.text_size

    def run(self, **kwargs) -> RunResult:
        return self.executable.run(**kwargs)

    def block_counts(self, result: RunResult) -> dict[int, int]:
        """Per-block execution counts (original block indexes), with
        skipped blocks reconstructed from their derivation source."""
        raw = self.counters.read(result.state.memory)
        return self.plan.all_counts(raw, self.cfg)


class SlowProfiler:
    """The QPT2 slow-profiling tool built on EEL (Figure 3)."""

    def __init__(
        self,
        executable: Executable,
        *,
        counter_base: int = COUNTER_BASE,
        skip_redundant: bool = True,
        use_liveness: bool = True,
        recorder: Recorder | None = None,
    ) -> None:
        self.executable = executable
        self.counter_base = counter_base
        self.skip_redundant = skip_redundant
        self.use_liveness = use_liveness
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    def instrument(self, transform: BlockTransform | None = None) -> ProfiledProgram:
        """Insert counters into every planned block and build the new
        executable; ``transform`` (typically a
        :class:`~repro.core.block_scheduler.BlockScheduler`) schedules
        each block as it is laid out."""
        rec = self.recorder
        editor = Editor(self.executable, recorder=rec)
        cfg = editor.cfg
        with rec.span("qpt.placement"):
            plan = plan_placement(cfg, skip_redundant=self.skip_redundant)
        counters = CounterSegment(base=self.counter_base)
        liveness = None
        if self.use_liveness:
            with rec.span("qpt.liveness"):
                liveness = LivenessAnalysis(cfg)
        scratch: dict[int, tuple[Reg, Reg]] = {}

        with rec.span("qpt.insert_counters"):
            for index in sorted(plan.instrumented):
                block = cfg.blocks[index]
                address = counters.allocate(index)
                regs = self._pick_scratch(liveness, block)
                scratch[index] = regs
                editor.insert_before(block, counter_snippet(address, *regs))

        editor.add_data_section(counters.section())
        edited = editor.build(transform)
        return ProfiledProgram(
            original=self.executable,
            executable=edited,
            cfg=cfg,
            plan=plan,
            counters=counters,
            scratch=scratch,
            quarantine=tuple(getattr(transform, "quarantine", ())),
            editor=editor,
        )

    def _pick_scratch(self, liveness: LivenessAnalysis | None, block) -> tuple[Reg, Reg]:
        # Neighbouring blocks alternate between the reserved pair and a
        # liveness-chosen pair disjoint from it: when the superblock
        # scheduler merges adjacent blocks, their counter chains then
        # share no registers, so (with the static counter-address
        # disambiguation in repro.core.dependence) the two chains can
        # overlap instead of serializing on a false WAR/WAW dependence.
        if block.index % 2 or liveness is None:
            return RESERVED_SCRATCH
        avoid = frozenset(RESERVED_SCRATCH)
        dead = liveness.dead_integer_registers(block, count=2, avoid=avoid)
        if len(dead) == 2:
            return (dead[0], dead[1])
        return RESERVED_SCRATCH
