"""Property tests for the compiled stall-transition tables.

Seeded random instruction sequences stream through a model's own
tables and through the interpreted walker (a twin model whose tables
never answer, :mod:`tests.walker_tables`) on synthetic superscalar
machines of several widths. The properties:

* **prefix agreement** — at every prefix of the stream, stalls and
  issue cycles agree, and whenever the table-backed state is still
  tracked its state id names exactly the live occupancy window the
  interpreted rows hold;
* **lean agreement** — the :class:`~repro.pipeline.tables.LeanPipeline`
  stream (no occupancy timeline at all) issues at the same cycles;
* **shrinking** — a divergence does not just fail the test: the
  harness first shrinks the offending sequence to a minimal
  reproducer, so the assertion message carries the seed and the
  shortest subsequence that still diverges.
"""

import random

import pytest

from repro.isa import Instruction, f, r
from repro.pipeline import PipelineState, issue, pipeline_stalls
from repro.pipeline.tables import LeanPipeline, TableMiss, attach_tables
from repro.spawn import load_superscalar
from tests.walker_tables import use_walker

WIDTHS = (1, 2, 4)
SEQUENCE_SEEDS = tuple(range(20))

_SAMPLES = (
    Instruction("add", rd=r(3), rs1=r(1), rs2=r(2)),
    Instruction("add", rd=r(3), rs1=r(1), imm=4),
    Instruction("subcc", rd=r(0), rs1=r(3), imm=0),
    Instruction("sethi", rd=r(1), imm=0x40),
    Instruction("ld", rd=r(4), rs1=r(30), imm=8),
    Instruction("st", rd=r(4), rs1=r(30), imm=8),
    Instruction("faddd", rd=f(0), rs1=f(2), rs2=f(4)),
    Instruction("fmuld", rd=f(6), rs1=f(0), rs2=f(8)),
    Instruction("fdivd", rd=f(10), rs1=f(12), rs2=f(14)),
    Instruction("smul", rd=r(5), rs1=r(1), rs2=r(2)),
    Instruction("sll", rd=r(6), rs1=r(5), imm=2),
    Instruction("nop", imm=0),
)


@pytest.fixture(scope="module", params=WIDTHS)
def machine(request):
    """(model, its tables, the walker twin) for one width."""
    model = load_superscalar(request.param)
    tables = attach_tables(model, use_disk_cache=False)
    return model, tables, use_walker(load_superscalar(request.param))


def _sequence(seed, length=16):
    rng = random.Random(seed)
    return [_SAMPLES[rng.randrange(len(_SAMPLES))] for _ in range(length)]


def _issue_cycles(model, sequence):
    """The sequential issue cycles of ``sequence`` on ``model``."""
    state = PipelineState(model)
    cycle, out = 0, []
    for inst in sequence:
        cycle = issue(cycle, state, inst).issue_cycle
        out.append(cycle)
    return out


def _diverges(walker, model, sequence):
    """Do the walker (ground truth) and the model's tables disagree?"""
    return _issue_cycles(walker, sequence) != _issue_cycles(model, sequence)


def _shrink(sequence, diverges):
    """Greedily remove instructions while ``diverges`` still holds —
    the classic delta-debugging reduction to a minimal reproducer."""
    current = list(sequence)
    shrunk = True
    while shrunk:
        shrunk = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1 :]
            if candidate and diverges(candidate):
                current = candidate
                shrunk = True
                break
    return current


@pytest.mark.parametrize("seed", SEQUENCE_SEEDS)
def test_prefix_agreement(machine, seed):
    """Stalls and issue cycles agree at every prefix; when tracking is
    live, the table state id names the interpreted occupancy window."""
    model, tables, walker = machine
    sequence = _sequence(seed)

    plain = PipelineState(walker)
    tabled = PipelineState(model)
    cycle_p = cycle_t = 0
    trace = []
    for inst in sequence:
        stalls_p = pipeline_stalls(cycle_p, plain, inst)
        stalls_t = pipeline_stalls(cycle_t, tabled, inst)
        if stalls_p != stalls_t:
            minimal = _shrink(sequence, lambda s: _diverges(walker, model, s))
            pytest.fail(
                f"stall divergence (seed {seed}); minimal repro: "
                f"{[str(i) for i in minimal]}"
            )
        cycle_p = issue(cycle_p, plain, inst).issue_cycle
        cycle_t = issue(cycle_t, tabled, inst).issue_cycle
        trace.append((str(inst), cycle_p, cycle_t))
        assert cycle_p == cycle_t, (seed, trace)
        if tabled.sid is not None:
            # The tracked id must be *the* id of the live rows.
            assert tables.intern_from_state(tabled, tabled.origin) == tabled.sid


@pytest.mark.parametrize("seed", SEQUENCE_SEEDS)
def test_lean_stream_agreement(machine, seed):
    """The lean stream — state id plus register history, no occupancy
    rows at all — issues every instruction at the interpreted cycle."""
    model, tables, walker = machine
    sequence = _sequence(seed)
    expected = _issue_cycles(walker, sequence)

    lean = LeanPipeline(tables)
    cycle = 0
    for inst, want in zip(sequence, expected):
        try:
            issue_cycle, next_sid = lean.query(cycle, model.timing(inst))
            lean.commit(model.timing(inst), issue_cycle, next_sid)
        except TableMiss:
            pytest.skip("sequence left the interning budget")
        assert issue_cycle == want, (seed, str(inst))
        cycle = issue_cycle


def test_divergence_shrinks_to_minimal_repro(machine):
    """The shrinker itself: given a synthetic divergence predicate, the
    reduction returns a minimal sequence — every further removal makes
    the predicate false."""
    sequence = _sequence(99, length=12)

    def pseudo_diverges(seq):
        return sum(1 for inst in seq if inst.mnemonic == "fdivd") >= 2

    if not pseudo_diverges(sequence):
        sequence = sequence + [_SAMPLES[8], _SAMPLES[8]]
    minimal = _shrink(sequence, pseudo_diverges)
    assert pseudo_diverges(minimal)
    assert len(minimal) == 2
    for index in range(len(minimal)):
        assert not pseudo_diverges(minimal[:index] + minimal[index + 1 :])


def test_real_streams_never_diverge(machine):
    """The headline property over a wider seed sweep: table-backed and
    interpreted streams agree, or the test hands back a shrunk repro."""
    model, _tables, walker = machine
    for seed in range(40):
        sequence = _sequence(seed, length=24)
        if _diverges(walker, model, sequence):
            minimal = _shrink(sequence, lambda s: _diverges(walker, model, s))
            pytest.fail(
                f"divergence at seed {seed}; minimal repro: "
                f"{[str(i) for i in minimal]}"
            )
