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
  stream (no occupancy timeline at all) issues at the same cycles,
  through ``query``/``commit`` and through its straight-line
  ``issue`` loop alike, and both raise
  :class:`~repro.pipeline.tables.TableMiss` at the same point;
* **shrinking** — a divergence does not just fail the test: the
  harness first shrinks the offending sequence to a minimal
  reproducer, so the assertion message carries the seed and the
  shortest subsequence that still diverges.
"""

import random

import pytest

from repro.isa import Instruction, f, r
from repro.pipeline import PipelineState, issue, pipeline_stalls
from repro.pipeline.simulator import issue_cycles
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


def _query_commit(tables, timings):
    """The lean stream's issue cycles through ``query``/``commit``, or
    None when it raises :class:`TableMiss`."""
    lean = LeanPipeline(tables)
    cycle, out = 0, []
    try:
        for timing in timings:
            cycle, next_sid = lean.query(cycle, timing)
            lean.commit(timing, cycle, next_sid)
            out.append(cycle)
    except TableMiss:
        return None
    return out


def _issue_loop(tables, timings, *, stepped):
    """The lean stream through the straight-line loop
    :meth:`LeanPipeline.issue`: one timing per call (every issue cycle)
    or the whole sequence in one call (its last issue cycle); None on
    :class:`TableMiss`."""
    lean = LeanPipeline(tables)
    try:
        if stepped:
            cycle, out = 0, []
            for timing in timings:
                cycle = lean.issue(cycle, (timing,))
                out.append(cycle)
            return out
        return lean.issue(0, timings)
    except TableMiss:
        return None


def _diverges(walker, model, sequence):
    """Do the walker (ground truth) and the model's tables disagree?

    Compared: issue through a :class:`PipelineState`; the lean stream
    through ``query``/``commit`` and through the straight-line loop,
    stepped and whole, which must miss together or agree; and two
    back-to-back copies through :func:`issue_cycles`."""
    expected = _issue_cycles(walker, sequence)
    if _issue_cycles(model, sequence) != expected:
        return True
    if issue_cycles(model, sequence, copies=2) != issue_cycles(
        walker, sequence, copies=2
    ):
        return True
    timings = [model.timing(inst) for inst in sequence]
    lean = _query_commit(model.tables, timings)
    if lean is not None and lean != expected:
        return True
    if _issue_loop(model.tables, timings, stepped=True) != lean:
        return True
    whole = _issue_loop(model.tables, timings, stepped=False)
    return whole != (None if lean is None else lean[-1])


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


class _LosesTracking:
    """A model's tables whose ``at``-th transition has a None successor
    (the next state past the interning budget)."""

    def __init__(self, tables, at):
        self._tables = tables
        self._at = at
        self.lookups = 0
        self.misses = 0

    def __getattr__(self, name):
        return getattr(self._tables, name)

    def lookup(self, sid, group):
        transition = self._tables.lookup(sid, group)
        self.lookups += 1
        if self.lookups == self._at:
            return transition[0], None
        return transition


@pytest.mark.parametrize("width", WIDTHS)
def test_a_small_budget_misses_mid_stream_and_redoes_on_the_walker(width):
    """Tables of 64 states cannot carry these streams to the end: every
    lean way misses at the same instruction, after issuing some, and
    :func:`issue_cycles` redoes the stream on the walker, counting one
    miss per redone stream."""
    small = load_superscalar(width)
    tables = attach_tables(small, budget=64, use_disk_cache=False)
    walker = use_walker(load_superscalar(width))
    for seed in SEQUENCE_SEEDS:
        sequence = _sequence(seed, length=24)
        lean = LeanPipeline(tables)
        cycle = issued = 0
        with pytest.raises(TableMiss):
            for inst in sequence:
                cycle, next_sid = lean.query(cycle, small.timing(inst))
                lean.commit(small.timing(inst), cycle, next_sid)
                issued += 1
        assert issued > 0, seed
        assert not _diverges(walker, small, sequence), seed
        for copies in (1, 2):
            before = tables.misses
            got = issue_cycles(small, sequence, copies)
            assert got == issue_cycles(walker, sequence, copies), seed
            assert tables.misses == before + 1, seed


@pytest.mark.parametrize("width", WIDTHS)
def test_lost_tracking_then_a_run_misses(width):
    """A None successor, then more instructions: the straight-line loop
    raises :class:`TableMiss` where ``query`` does, and the stream is
    redone on the walker with one counted miss. The instruction after
    the lost state waits on the one before it, so the stream must
    advance a state it no longer has."""
    lossy = load_superscalar(width)
    lossy.tables = _LosesTracking(attach_tables(lossy, use_disk_cache=False), at=3)
    walker = use_walker(load_superscalar(width))
    sequence = [_SAMPLES[i] for i in (0, 3, 9, 10, 1, 11)]  # smul, then sll of it
    timings = [lossy.timing(inst) for inst in sequence]

    lean = LeanPipeline(lossy.tables)
    with pytest.raises(TableMiss):
        lean.issue(0, timings)
    assert lossy.tables.lookups == 3
    lossy.tables.lookups = 0
    assert _query_commit(lossy.tables, timings) is None

    lossy.tables.lookups = 0
    assert issue_cycles(lossy, sequence) == issue_cycles(walker, sequence)
    assert lossy.tables.misses == 1


def test_a_start_cycle_before_the_origin_misses(machine):
    """A stream's state is relative to its last issue; asking for an
    earlier cycle is a :class:`TableMiss` for ``query`` and the loop."""
    model, tables, _ = machine
    chain = [model.timing(_SAMPLES[9]), model.timing(_SAMPLES[10])]  # smul; sll uses it
    lean = LeanPipeline(tables)
    last = lean.issue(0, chain)
    assert last > 0 and lean.origin == last
    with pytest.raises(TableMiss):
        lean.query(last - 1, chain[0])
    with pytest.raises(TableMiss):
        lean.issue(last - 1, chain[:1])
