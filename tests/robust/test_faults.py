"""Fault injection: every fault class in the catalog must be caught."""

import pytest

from repro.robust import (
    MODEL_FAULTS,
    CorruptedModel,
    GuardedBlockScheduler,
    default_workload,
    inject_encoding_faults,
    inject_scheduler_faults,
    run_fault_injection,
)
from repro.robust.faults import inject_clobber_faults
from repro.spawn import load_machine, load_superscalar, validate_machine
from repro.spawn.model import ModelError
from repro.workloads.spec95 import all_benchmarks, generate_benchmark

MACHINE = load_machine("ultrasparc")


def test_full_harness_is_clean_on_ultrasparc():
    report = run_fault_injection(MACHINE)
    assert report.injected > 0
    assert report.escaped == 0, report.render()
    assert report.clean
    layers = {o.layer for o in report.outcomes}
    assert layers == {
        "model",
        "encoding",
        "scheduler",
        "analyze",
        "instrumentation",
        "cache",
        "superblock",
    }


def test_full_harness_is_clean_on_synthetic_machine():
    report = run_fault_injection(load_superscalar(2))
    assert report.clean, report.render()


@pytest.mark.parametrize("fault", MODEL_FAULTS, ids=lambda f: f.name)
def test_model_fault_caught_by_validator_and_guard(fault):
    corrupted = CorruptedModel(MACHINE, fault)
    findings = validate_machine(corrupted, require_full_isa=False)
    assert any(f.severity == "error" for f in findings), fault.name
    # Safe mode: the guard quarantines everything instead of scheduling.
    guard = GuardedBlockScheduler(corrupted)
    assert any(q.kind == "model" for q in guard.quarantine)
    # Strict mode: construction refuses outright.
    with pytest.raises(ModelError):
        GuardedBlockScheduler(corrupted, strict=True)


def test_no_silent_misdecodes():
    outcome = inject_encoding_faults(default_workload())
    assert outcome.injected == 32 * (default_workload().text_size // 4)
    assert outcome.escaped == 0, outcome.details


def test_every_scheduler_mutation_quarantined():
    outcomes = inject_scheduler_faults(MACHINE, default_workload())
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert outcome.injected > 0, outcome.fault
        assert outcome.escaped == 0, outcome.fault


def test_report_renders():
    report = run_fault_injection(MACHINE)
    text = report.render()
    assert "all injected faults caught" in text
    assert "bit-flip" in text


def test_superblock_liveness_fault_injected_and_caught():
    from repro.robust import inject_superblock_faults

    outcome = inject_superblock_faults(MACHINE)
    assert outcome.layer == "superblock"
    assert outcome.fault == "corrupt-side-exit-liveness"
    # The corrupted oracle provokes unsafe hoists at both boundaries...
    assert outcome.injected >= 2
    # ...and guarded verification quarantines every one of them.
    assert outcome.escaped == 0, outcome.details


def test_symbolic_validator_faults_all_caught():
    """Every mutated schedule must be refuted, or — when a proof
    survives — confirmed harmless by the differential battery; a false
    proof is the one outcome the validator may never produce."""
    from repro.robust import SYMBOLIC_MUTATIONS, inject_symbolic_faults

    outcomes = inject_symbolic_faults(MACHINE, default_workload())
    assert {o.fault for o in outcomes} == {
        f"false-proof-{name}" for name in SYMBOLIC_MUTATIONS
    }
    for outcome in outcomes:
        assert outcome.layer == "analyze"
        assert outcome.injected > 0, outcome.fault
        assert outcome.escaped == 0, f"{outcome.fault}: {outcome.details}"


@pytest.mark.parametrize("name", all_benchmarks())
def test_clobber_faults_caught_on_every_stand_in(name):
    """The clobbering profiler sorts each body instruction's reads; an
    FP load or store reads an integer base and an FP register, so the
    CFP95 stand-ins need registers of two kinds to order."""
    outcome = inject_clobber_faults(MACHINE, generate_benchmark(name).executable)
    assert outcome.injected > 0
    assert outcome.caught == outcome.injected, outcome.details
    assert not any("unexpected quarantine" in d for d in outcome.details)


@pytest.mark.parametrize("machine", ["supersparc", "hypersparc"])
def test_clobber_guard_catch_is_expected_on_every_machine(machine):
    """132.ijpeg's block 12 is quarantined on every machine: a clobbered
    base points an original load at the counter's word. The harness
    counts that as an expected catch, not an unexpected quarantine."""
    outcome = inject_clobber_faults(
        load_machine(machine), generate_benchmark("132.ijpeg").executable
    )
    assert outcome.caught == outcome.injected > 0, outcome.details
    assert any("guard also quarantined" in d for d in outcome.details)
    assert not any("unexpected quarantine" in d for d in outcome.details)


def _counter_then_load(base):
    """A counter update through ``%i0`` (the clobbered scratch) ahead of
    an original load at offset 44 from ``base``. With ``base`` = ``%i0``
    the load reads the counter's own word."""
    from repro.isa.asm import assemble
    from repro.isa.instruction import TAG_INSTRUMENTATION

    counter = assemble(
        "sethi %hi(0xc000000), %i0\n"
        "ld [%i0 + 44], %l2\n"
        "add %l2, 1, %l2\n"
        "st %l2, [%i0 + 44]\n"
    )
    original = assemble(
        f"ld [{base} + 44], %o5\n"
        "srl %l5, %l2, %l2\n"
        f"st %o1, [{base} + 88]\n"
        "sll %l2, 11, %g2\n"
        "sra %g2, %o1, %l4\n"
    )
    return [inst.retag(TAG_INSTRUMENTATION) for inst in counter] + original


@pytest.mark.parametrize("base, quarantined", [("%i0", True), ("%i1", False)])
def test_guard_catches_a_clobbered_base_aliasing_the_counter(base, quarantined):
    from repro.eel.cfg import BasicBlock

    body = _counter_then_load(base)
    guard = GuardedBlockScheduler(MACHINE, verify_trials=2, validate_model=False)
    emitted, _ = guard(BasicBlock(index=0, address=0x10000, body=body), body)
    assert bool(guard.quarantine) == quarantined, guard.quarantine
    if quarantined:
        assert "%r13" in guard.quarantine[0].reason
        assert emitted == body
    else:
        # Proven, though the load moved across the counter's store.
        assert emitted != body
