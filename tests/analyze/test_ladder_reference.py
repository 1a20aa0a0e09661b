"""The ladder's verdicts against a reference that renders text afresh.

The gates compare instructions by their assembly text, and each
instruction renders its text once (``Instruction.__str__`` memoizes
:func:`~repro.isa.instruction.format_instruction`). The permutation
check and the order recovery are one pass
(:func:`repro.core.verify._recover_order`). The reference below is the
ladder as it was before either change: every comparison renders afresh
through ``format_instruction``, the permutation check compares sorted
renderings, and order recovery takes the first remaining original of
equal text. Every verdict, deciding gate and failure message must
match it.

The CI ``symex`` job's fuzz shard imports :func:`static_disagrees`,
:func:`text_mutations` and the fuzz helpers of
``test_symex_differential`` from here.
"""

import contextlib
import random
from dataclasses import replace

import pytest

from repro.analyze import StaticVerdict, prove_schedule, static_verify_schedule
from repro.analyze.static_verify import _flipped_cross_side_memory_pair
from repro.analyze.sym_verify import symbolic_verify_schedule
from repro.core import BlockScheduler, SchedulingPolicy
from repro.core.dependence import build_dependence_graph
from repro.core.verify import VerificationResult, verify_schedule
from repro.isa.instruction import (
    TAG_INSTRUMENTATION,
    TAG_ORIGINAL,
    Instruction,
    format_instruction,
)
from repro.isa.registers import r
from repro.qpt import SlowProfiler
from repro.robust import GuardedBlockScheduler
from repro.spawn import load_machine
from repro.workloads.spec95 import all_benchmarks, generate_benchmark

from .test_symex_differential import _sequence, _shrink

MACHINES = ("hypersparc", "supersparc", "ultrasparc")


# -- the reference ----------------------------------------------------------------


@contextlib.contextmanager
def fresh_text():
    """Inside the block every ``str()`` of an instruction renders it
    afresh, ignoring the per-instance memo."""
    memoized = Instruction.__str__
    Instruction.__str__ = format_instruction
    try:
        yield
    finally:
        Instruction.__str__ = memoized


def reference_static_verify(original, scheduled, *, policy=None):
    """``static_verify_schedule`` with fresh renderings, a sorted-text
    permutation check and first-match order recovery."""
    texts = [format_instruction(inst) for inst in original]
    if sorted(texts) != sorted(format_instruction(inst) for inst in scheduled):
        return StaticVerdict(
            "refuted", ("not a permutation of the original instructions",)
        )
    remaining: dict[str, list[int]] = {}
    for index, text in enumerate(texts):
        remaining.setdefault(text, []).append(index)
    order = [remaining[format_instruction(inst)].pop(0) for inst in scheduled]
    if not build_dependence_graph(original, policy).is_valid_order(order):
        return StaticVerdict("refuted", ("violates the dependence DAG",))
    policy = policy or SchedulingPolicy()
    if not policy.restrict_instrumentation_memory:
        flip = _flipped_cross_side_memory_pair(original, order)
        if flip is not None:
            a, b = flip
            return StaticVerdict(
                "inconclusive",
                (
                    f"reorders {a.mnemonic} across {b.mnemonic} on the "
                    "instrumentation/original memory boundary: disjointness "
                    "is assumed, not proven",
                ),
            )
    return StaticVerdict("proven")


def reference_prove(original, scheduled, *, policy=None, trials=4, seed=0):
    """``prove_schedule`` over the reference static gate, with the
    symbolic gate and the battery rendering every text afresh."""
    static = reference_static_verify(original, scheduled, policy=policy)
    if static.proven:
        return VerificationResult(True), "static"
    if static.refuted:
        return VerificationResult(False, list(static.reasons)), "static"
    with fresh_text():
        verdict = symbolic_verify_schedule(
            original, scheduled, policy=policy, check_structure=False, seed=seed
        )
        if verdict.proven:
            return VerificationResult(True), "symbolic"
        if verdict.refuted:
            reasons = list(verdict.reasons)
            if verdict.counterexample is not None:
                reasons.append(f"counterexample: {verdict.counterexample}")
            return VerificationResult(False, reasons), "symbolic"
        result = verify_schedule(
            original, scheduled, policy=policy, trials=trials, seed=seed
        )
    return result, "dynamic"


def assert_same_verdict(original, scheduled, *, policy=None):
    """The ladder and the reference agree; returns the ladder's verdict."""
    result, gate = prove_schedule(original, scheduled, policy=policy)
    expected, expected_gate = reference_prove(original, scheduled, policy=policy)
    assert (result.ok, gate, result.failures) == (
        expected.ok,
        expected_gate,
        expected.failures,
    ), [str(inst) for inst in scheduled]
    return result, gate


# -- every block of the SPEC95 stand-ins' guarded instrumented builds -------------


def guarded_pairs(model, executable, policy):
    """Every (body, schedule) pair a guarded instrumentation build of
    ``executable`` puts to the ladder, instrumentation tags included."""
    pairs = []

    class Recording(BlockScheduler):
        def schedule_body(self, body):
            scheduled = super().schedule_body(body)
            pairs.append((list(body), scheduled))
            return scheduled

    guard = GuardedBlockScheduler(model, policy, inner=Recording(model, policy))
    SlowProfiler(executable).instrument(guard)
    assert guard.quarantine == []
    return pairs


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("fill", (False, True), ids=("no-fill", "fill"))
def test_spec95_guarded_builds_match_the_reference(machine, fill):
    model = load_machine(machine)
    policy = SchedulingPolicy(fill_delay_slots=fill)
    gates = {"static": 0, "symbolic": 0, "dynamic": 0}
    for name in all_benchmarks():
        executable = generate_benchmark(name, trip_count=4).executable
        for body, scheduled in guarded_pairs(model, executable, policy):
            _result, gate = assert_same_verdict(body, scheduled, policy=policy)
            gates[gate] += 1
    # Counter code reordered across original memory reaches the
    # symbolic gate, so the comparison covers more than one gate.
    assert gates["static"] > 0 and gates["symbolic"] > 0, gates


# -- hand-built cases ---------------------------------------------------------------


def ld(rd=10, seq=-1):
    return Instruction("ld", rd=r(rd), rs1=r(9), imm=0, seq=seq)


def add(dst, src):
    return Instruction("add", rd=r(dst), rs1=r(src), imm=1)


def test_swapped_equal_text_nops_and_loads():
    first, second = Instruction("nop", seq=0), Instruction("nop", seq=1)
    result, gate = assert_same_verdict([first, second], [second, first])
    assert result.ok and gate == "static"
    load_a, load_b = ld(seq=0), ld(seq=2)
    original = [load_a, add(11, 8), load_b]
    result, gate = assert_same_verdict(original, [load_b, add(11, 8), load_a])
    assert result.ok and gate == "static"


def test_orig_and_instr_pair_of_equal_text():
    # Text carries no tag: order recovery maps the scheduled copies back
    # by first match, so the flip is invisible to the structural checks.
    store_orig = Instruction("st", rd=r(11), rs1=r(9), imm=0)
    store_instr = store_orig.retag(TAG_INSTRUMENTATION)
    original = [store_orig, add(12, 8), store_instr]
    result, gate = assert_same_verdict(
        original, [store_instr, add(12, 8), store_orig]
    )
    assert result.ok and gate == "static"


def test_immediate_zero_and_g0_index_load_render_alike():
    with_imm = ld()
    with_g0 = Instruction("ld", rd=r(10), rs1=r(9), rs2=r(0))
    assert str(with_imm) == str(with_g0) and with_imm != with_g0
    original = [with_imm, add(12, 8)]
    result, gate = assert_same_verdict(original, [add(12, 8), with_g0])
    assert result.ok and gate == "static"


@pytest.mark.parametrize(
    "mutate",
    (
        lambda body: body[1:],  # dropped
        lambda body: body + [body[0]],  # duplicated
        lambda body: [body[0], body[0]] + body[2:],  # duplicated in a slot
        lambda body: [add(20, 8)] + body[1:],  # substituted
    ),
    ids=("dropped", "duplicated", "duplicated-in-place", "substituted"),
)
def test_non_permutations_are_refuted_with_the_same_message(mutate):
    original = [ld(seq=0), add(11, 8), add(12, 11), ld(rd=13, seq=3)]
    result, gate = assert_same_verdict(original, mutate(list(original)))
    assert not result.ok and gate == "static"
    assert result.failures == ["not a permutation of the original instructions"]


def test_derived_copies_in_the_schedule():
    original = [ld(seq=0), add(11, 8), add(12, 11)]
    scheduled = [
        original[1].with_seq(40),
        original[0].retag(TAG_ORIGINAL),
        original[2].with_seq(41).retag(TAG_INSTRUMENTATION),
    ]
    result, gate = assert_same_verdict(original, scheduled)
    assert result.ok and gate == "static"
    # A dependence reversed through copies is still a DAG violation.
    reversed_copies = [original[2].with_seq(7), original[1], original[0]]
    result, gate = assert_same_verdict(original, reversed_copies)
    assert result.failures == ["violates the dependence DAG"]


# -- the static gate under text-preserving mutations (also a CI fuzz shard) --------


def equal_text_substitute(inst):
    """A different instruction that renders like ``inst``: the ``%g0``
    index form of a zero-offset memory operation, else the other tag."""
    if inst.memory is not None and inst.rs2 is None and inst.imm == 0:
        return replace(inst, imm=None, rs2=r(0))
    other = TAG_ORIGINAL if inst.is_instrumentation else TAG_INSTRUMENTATION
    return inst.retag(other)


def text_mutations(scheduled, rng):
    """An adjacent swap, a drop, a duplicate and an equal-text
    substitution of ``scheduled``, each at a seeded position."""
    if not scheduled:
        return
    index = rng.randrange(len(scheduled))
    if len(scheduled) > 1:
        swap = rng.randrange(len(scheduled) - 1)
        swapped = list(scheduled)
        swapped[swap], swapped[swap + 1] = swapped[swap + 1], swapped[swap]
        yield swapped
    yield scheduled[:index] + scheduled[index + 1 :]
    yield scheduled[: index + 1] + scheduled[index:]
    yield (
        scheduled[:index]
        + [equal_text_substitute(scheduled[index])]
        + scheduled[index + 1 :]
    )


def static_disagrees(model, body, seed=0):
    """True when ``static_verify_schedule`` and the reference differ on
    the scheduled ``body`` or on any of its seeded text mutations."""
    scheduled = BlockScheduler(model).schedule_body(list(body))
    for candidate in (scheduled, *text_mutations(scheduled, random.Random(seed))):
        if static_verify_schedule(body, candidate) != reference_static_verify(
            body, candidate
        ):
            return True
    return False


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("seed", range(2000, 2020))
def test_static_gate_matches_the_reference_under_mutation(machine, seed):
    model = load_machine(machine)
    body = _sequence(seed, length=random.Random(seed).randrange(4, 20))
    if static_disagrees(model, body, seed):
        minimal = _shrink(body, lambda seq: static_disagrees(model, seq, seed))
        pytest.fail(
            f"static gate differs from the reference (seed {seed}, "
            f"{machine}): {[str(inst) for inst in minimal]}"
        )
