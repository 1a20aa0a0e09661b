"""Synthetic SPEC95-shaped workload generation.

The paper's per-benchmark results are driven by three properties of the
input programs (§4.1–4.2): the *dynamic basic-block size*, the
*instruction mix* (integer codes hit the 2-wide integer issue limit;
floating-point codes have long, latency-rich blocks), and how well the
*compiler already scheduled* the code. The generator parameterizes
exactly those axes and is calibrated per benchmark to the ``Avg. BB
Size`` column of the paper's tables (see :mod:`repro.workloads.spec95`).

Programs are real SPARC V8 executables: sequential counted loops whose
bodies contain straight-line work and, for small-block integer codes,
parity if-diamonds. Block execution frequencies follow analytically from
trip counts and parity splits, and the functional simulator confirms
them exactly in the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..eel.cfg import CFG
from ..eel.executable import DATA_BASE, Executable
from ..isa.instruction import Instruction
from ..isa.registers import Reg, f, r
from ..isa import synth
from .builder import ProgramBuilder

#: Integer work registers. %g6/%g7 are left for QPT, %i0/%i2 are the
#: data base and loop counter, %o6/%o7/%i6/%i7 have ABI roles.
INT_WORK = [r(i) for i in (1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 21)]
#: Even-numbered FP registers (double-precision pairs).
FP_WORK = [f(i) for i in range(0, 30, 2)]

DATA_REG = r(24)  # %i0 — base of the data section
COUNTER_REG = r(26)  # %i2 — loop counter
LINK_SAVE = r(23)  # %l7 — return-address save around helper calls
LINK_SAVE_SRC = r(15)  # %o7 — the link register itself

_DATA_WORDS = 512


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs for one synthetic benchmark."""

    name: str
    seed: int
    kind: str  # 'int' | 'fp'
    avg_block_size: float
    loops: int = 6
    trip_count: int = 64
    #: probability a loop body is broken up by a parity if-diamond.
    diamond_prob: float = 0.8
    #: probability a loop body calls a small leaf helper routine. Calls
    #: split blocks at the return point, which is where QPT's
    #: redundant-counter rule fires.
    call_prob: float = 0.0
    #: probability an ALU/FP operand is the most recent definition.
    chain_density: float = 0.45
    load_fraction: float = 0.25
    store_fraction: float = 0.12
    #: for fp kind: fraction of body operations that are FP arithmetic.
    fp_fraction: float = 0.55

    def __post_init__(self) -> None:
        if self.kind not in ("int", "fp"):
            raise ValueError(f"kind must be 'int' or 'fp', not {self.kind!r}")


@dataclass
class SyntheticProgram:
    """A generated workload plus its analytic execution profile."""

    spec: WorkloadSpec
    executable: Executable
    cfg: CFG
    frequencies: dict[int, int]

    @property
    def total_block_executions(self) -> int:
        return sum(self.frequencies.values())

    @property
    def total_dynamic_instructions(self) -> int:
        return sum(
            self.frequencies[block.index] * block.instruction_count
            for block in self.cfg
        )

    @property
    def avg_dynamic_block_size(self) -> float:
        return _avg_block_size(self.cfg, self.frequencies)


def _avg_block_size(cfg: CFG, frequencies: dict[int, int]) -> float:
    """Dynamic instructions per executed block."""
    executions = sum(frequencies.values())
    if executions == 0:
        return 0.0
    instructions = sum(
        frequencies[block.index] * block.instruction_count for block in cfg
    )
    return instructions / executions


class _BodyGenerator:
    """Draws straight-line instruction sequences with a controlled mix."""

    def __init__(self, spec: WorkloadSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._last_int: Reg | None = None
        self._last_fp: Reg | None = None

    def _int_operand(self) -> Reg:
        if self._last_int is not None and self.rng.random() < self.spec.chain_density:
            return self._last_int
        return self.rng.choice(INT_WORK)

    def _fp_operand(self) -> Reg:
        if self._last_fp is not None and self.rng.random() < self.spec.chain_density:
            return self._last_fp
        return self.rng.choice(FP_WORK)

    def _word_offset(self) -> int:
        return 4 * self.rng.randrange(_DATA_WORDS)

    def _dword_offset(self) -> int:
        return 8 * self.rng.randrange(_DATA_WORDS // 2)

    # Stores stay in the lower half of the data section; the upper half
    # is read-only so the branch-direction bytes tested by diamonds are
    # never overwritten at run time.
    def _store_word_offset(self) -> int:
        return 4 * self.rng.randrange(_DATA_WORDS // 2)

    def _store_dword_offset(self) -> int:
        return 8 * self.rng.randrange(_DATA_WORDS // 4)

    def instructions(self, count: int) -> list[Instruction]:
        return [self._one() for _ in range(count)]

    def _one(self) -> Instruction:
        rng = self.rng
        spec = self.spec
        roll = rng.random()
        if spec.kind == "fp" and roll < spec.fp_fraction:
            return self._fp_op()
        roll = rng.random()
        if roll < spec.load_fraction:
            return self._load()
        if roll < spec.load_fraction + spec.store_fraction:
            return self._store()
        return self._alu()

    def _load(self) -> Instruction:
        if self.spec.kind == "fp" and self.rng.random() < 0.7:
            rd = self.rng.choice(FP_WORK)
            self._last_fp = rd
            return Instruction("lddf", rd=rd, rs1=DATA_REG, imm=self._dword_offset())
        rd = self.rng.choice(INT_WORK)
        self._last_int = rd
        return Instruction("ld", rd=rd, rs1=DATA_REG, imm=self._word_offset())

    def _store(self) -> Instruction:
        if self.spec.kind == "fp" and self.rng.random() < 0.7:
            return Instruction(
                "stdf",
                rd=self._fp_operand(),
                rs1=DATA_REG,
                imm=self._store_dword_offset(),
            )
        return Instruction(
            "st", rd=self._int_operand(), rs1=DATA_REG, imm=self._store_word_offset()
        )

    def _alu(self) -> Instruction:
        mnemonic = self.rng.choice(
            ["add", "add", "sub", "and", "or", "xor", "sll", "srl", "sra"]
        )
        rd = self.rng.choice(INT_WORK)
        rs1 = self._int_operand()
        self._last_int = rd
        if self.rng.random() < 0.45:
            imm = self.rng.randrange(0, 32 if mnemonic in ("sll", "srl", "sra") else 1024)
            return Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm)
        return Instruction(mnemonic, rd=rd, rs1=rs1, rs2=self._int_operand())

    def _fp_op(self) -> Instruction:
        roll = self.rng.random()
        rd = self.rng.choice(FP_WORK)
        a, b = self._fp_operand(), self._fp_operand()
        self._last_fp = rd
        if roll < 0.45:
            return Instruction("faddd", rd=rd, rs1=a, rs2=b)
        if roll < 0.82:
            return Instruction("fmuld", rd=rd, rs1=a, rs2=b)
        if roll < 0.97:
            return Instruction("fsubd", rd=rd, rs1=a, rs2=b)
        if roll < 0.995:
            return Instruction("fdtos", rd=self.rng.choice(FP_WORK), rs2=a)
        return Instruction("fdivd", rd=rd, rs1=a, rs2=b)


def _parity_split(trip_count: int, mask: int) -> tuple[int, int]:
    """(untaken, taken) counts for ``andcc counter, mask; be …`` over
    counter values trip_count..1."""
    taken = sum(1 for i in range(1, trip_count + 1) if (i & mask) == 0)
    return trip_count - taken, taken


def _draw_size(rng: random.Random, mu: float) -> int:
    if mu <= 0:
        return 0
    return max(0, round(rng.gauss(mu, 0.4 * mu)))


def generate(spec: WorkloadSpec) -> SyntheticProgram:
    """Generate a workload, calibrating body sizes so the dynamic
    average block size lands near ``spec.avg_block_size``.

    Each calibration trial is measured on its builder's resolved
    instructions (:meth:`ProgramBuilder.profile`); only the kept trial
    is encoded into an executable and its CFG recovered from that. The
    data section opens the spec's random stream and is the same in
    every trial, so it is drawn once, and each trial draws its code
    from the stream as it stands after the data."""
    rng = random.Random(spec.seed)
    data = bytes(rng.randrange(256) for _ in range(4 * _DATA_WORDS))
    after_data = rng.getstate()

    def trial(mu: float) -> ProgramBuilder:
        rng.setstate(after_data)
        return _draw(spec, mu, rng, data)

    mu = max(0.0, spec.avg_block_size - 3.0)
    builder = trial(mu)
    for _ in range(8):
        actual = _avg_block_size(*builder.profile())
        target = spec.avg_block_size
        if abs(actual - target) <= 0.10 * target:
            break
        # Body sizes move the average roughly linearly.
        mu = max(0.0, mu + (target - actual))
        builder = trial(mu)
    executable, cfg, frequencies = builder.build(data=data, data_base=DATA_BASE)
    return SyntheticProgram(
        spec=spec, executable=executable, cfg=cfg, frequencies=frequencies
    )


def _draw(
    spec: WorkloadSpec, mu: float, rng: random.Random, data: bytes
) -> ProgramBuilder:
    """The code of one program over ``data``, drawn from ``rng`` with
    mean body size ``mu``."""
    bodies = _BodyGenerator(spec, rng)
    builder = ProgramBuilder()

    # Entry: establish the data base pointer.
    builder.emit_all(synth.set_constant(DATA_BASE, DATA_REG), freq=1)

    helper_calls: list[tuple[int, int]] = []  # (helper id, call frequency)
    for loop_index in range(spec.loops):
        trips = max(1, round(spec.trip_count * rng.uniform(0.5, 1.5)))
        if spec.call_prob > 0 and rng.random() < spec.call_prob:
            helper_calls.append((loop_index, trips))
            helper = f"helper{loop_index}"
        else:
            helper = None
        _emit_loop(builder, bodies, rng, spec, loop_index, trips, mu, data, helper)

    builder.emit(synth.retl(), freq=1)
    builder.emit(Instruction("nop", imm=0), freq=1)

    # Leaf helper routines, after the main code.
    for loop_index, freq in helper_calls:
        builder.label(f"helper{loop_index}")
        builder.emit_all(bodies.instructions(max(1, _draw_size(rng, mu))), freq=freq)
        builder.emit(synth.retl(), freq=freq)
        builder.emit(Instruction("nop", imm=0), freq=freq)

    return builder


def _emit_loop(
    builder: ProgramBuilder,
    bodies: _BodyGenerator,
    rng: random.Random,
    spec: WorkloadSpec,
    loop_index: int,
    trips: int,
    mu: float,
    data: bytes,
    helper: str | None = None,
) -> None:
    head = f"loop{loop_index}"
    builder.emit_all(synth.set_constant(trips, COUNTER_REG), freq=1)
    builder.label(head)

    # Tiny-block benchmarks (li, gcc, vortex at ~2 instructions/block)
    # are branch-dense: chain two diamonds per iteration.
    diamonds = 2 if (spec.kind == "int" and spec.avg_block_size <= 2.4) else 1
    for k in range(diamonds):
        if rng.random() < spec.diamond_prob:
            _emit_diamond(
                builder, bodies, rng, spec, f"{loop_index}_{k}", trips, mu, data
            )

    if helper is not None:
        # Leaf call: save/restore the return address in %l7 (reserved —
        # the body generator never allocates it).
        builder.emit(synth.mov(LINK_SAVE_SRC, LINK_SAVE), freq=trips)
        builder.emit(Instruction("call", target=helper), freq=trips)
        builder.emit(Instruction("nop", imm=0), freq=trips)
        builder.emit(synth.mov(LINK_SAVE, LINK_SAVE_SRC), freq=trips)

    # Tail body + loop control (subcc / bne / delay nop).
    builder.emit_all(bodies.instructions(_draw_size(rng, mu)), freq=trips)
    builder.emit(
        Instruction("subcc", rd=COUNTER_REG, rs1=COUNTER_REG, imm=1), freq=trips
    )
    builder.emit(Instruction("bne", target=head), freq=trips)
    builder.emit(Instruction("nop", imm=0), freq=trips)


def _emit_diamond(
    builder: ProgramBuilder,
    bodies: _BodyGenerator,
    rng: random.Random,
    spec: WorkloadSpec,
    tag: str,
    trips: int,
    mu: float,
    data: bytes,
) -> None:
    else_label = f"else{tag}"
    join_label = f"join{tag}"

    # Header: optional work, then the test ending the block. Integer
    # codes mostly branch on loaded data (the load -> compare -> branch
    # chain that dominates SPECINT); parity tests on the loop counter
    # supply dynamic two-way splits. Very-small-block calibration
    # (li/gcc-sized) needs the lighter parity form more often: the
    # ldub+subcc pair adds two instructions per header.
    builder.emit_all(bodies.instructions(_draw_size(rng, mu)), freq=trips)
    data_dep_prob = 0.6 if mu >= 0.75 else 0.35
    data_dependent = spec.kind == "int" and rng.random() < data_dep_prob
    if data_dependent:
        offset = rng.randrange(len(data) // 2, len(data))
        value = data[offset]
        taken = rng.random() < 0.5  # generator chooses the direction
        test_reg = rng.choice(INT_WORK)
        constant = value if taken else (value + 1) & 0xFF
        builder.emit(
            Instruction("ldub", rd=test_reg, rs1=DATA_REG, imm=offset), freq=trips
        )
        builder.emit(
            Instruction("subcc", rd=r(0), rs1=test_reg, imm=constant), freq=trips
        )
        then_freq, else_freq = (0, trips) if taken else (trips, 0)
    else:
        mask = rng.choice([1, 1, 2, 3])
        then_freq, else_freq = _parity_split(trips, mask)
        builder.emit(
            Instruction("andcc", rd=r(0), rs1=COUNTER_REG, imm=mask), freq=trips
        )
    else_size = _draw_size(rng, mu) if mu >= 0.5 else rng.choice([0, 1])
    target = join_label if else_size == 0 else else_label
    builder.emit(Instruction("be", target=target), freq=trips)
    builder.emit(Instruction("nop", imm=0), freq=trips)

    # Then arm.
    builder.emit_all(bodies.instructions(_draw_size(rng, mu)), freq=then_freq)
    builder.emit(Instruction("ba", target=join_label), freq=then_freq)
    builder.emit(Instruction("nop", imm=0), freq=then_freq)

    # Else arm (possibly empty: the branch then targets the join
    # directly — an if-then rather than if-then-else).
    if else_size > 0:
        builder.label(else_label)
        builder.emit_all(bodies.instructions(else_size), freq=else_freq)
    builder.label(join_label)
