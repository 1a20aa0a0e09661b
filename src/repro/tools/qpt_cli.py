"""``qpt`` — the profiling tool as a command line, like the original.

Operates on RXE executables:

.. code-block:: console

   $ python -m repro.tools.qpt_cli instrument prog.rxe -o prog.qpt.rxe \\
         --machine ultrasparc --schedule --superblock --safe --jobs 4 --cache
   $ python -m repro.tools.qpt_cli run prog.qpt.rxe --profile prog.qpt.json
   $ python -m repro.tools.qpt_cli faults --machine ultrasparc
   $ python -m repro.tools.qpt_cli chaos --jobs 2 --ledger
   $ python -m repro.tools.qpt_cli time prog.rxe --machine ultrasparc \\
         --stats --trace prog.trace.json
   $ python -m repro.tools.qpt_cli disasm prog.rxe
   $ python -m repro.tools.qpt_cli chart prog.rxe --block 1
   $ python -m repro.tools.qpt_cli explain prog.rxe --block 1
   $ python -m repro.tools.qpt_cli lint prog.rxe --format sarif -o prog.sarif
   $ python -m repro.tools.qpt_cli lint --sadl my_machine.sadl --fail-on warning
   $ python -m repro.tools.qpt_cli lint prog.rxe --baseline known.json \\
         --fail-on warning
   $ python -m repro.tools.qpt_cli verify prog.rxe --machine ultrasparc \\
         --symbolic --min-proven 0.97 --ledger
   $ python -m repro.tools.qpt_cli validate --machine supersparc
   $ python -m repro.tools.qpt_cli benchmarks --machine ultrasparc --jobs 4 \\
         --ledger
   $ python -m repro.tools.qpt_cli benchmarks scaling --jobs 4
   $ python -m repro.tools.qpt_cli benchmarks gate --warn-only
   $ python -m repro.tools.qpt_cli serve --port 0 --jobs 4 --ledger
   $ python -m repro.tools.qpt_cli report --format html -o observatory.html
   $ python -m repro.tools.qpt_cli codegen --machine ultrasparc -o ps.py

``instrument`` writes a JSON sidecar (``<out>.json``) recording counter
addresses and the placement plan so ``run --profile`` can print exact
per-block execution counts after the simulated run. ``--jobs N``
pre-schedules regions across N worker processes and ``--cache``
memoizes schedules in the content-addressed cache (both byte-identical
to a serial, uncached run); ``benchmarks`` times the serial / parallel /
warm-cache modes against each other and cross-checks their outputs.
Every stall query runs through the machine's compiled
stall-transition tables, which answer exactly as the interpreted
pipeline walker does (``docs/performance.md``); ``codegen`` emits
Spawn's standalone interpreted ``pipeline_stalls`` (Appendix A).

``--superblock`` (with ``--schedule``) additionally schedules across
profile-guided superblocks — single-entry fall-through chains formed
from a static ``10^loop_depth`` frequency estimate — sinking
instrumentation past side exits with compensation copies on the taken
edges (see ``docs/scheduling.md``). ``--safe``/``--strict`` turn on
guarded scheduling (verify-and-fallback; see ``docs/robustness.md``);
``faults`` runs the fault-injection harness and exits nonzero if any
injected fault escapes the guards; ``faults --chaos`` folds in the
process-level chaos classes, and ``chaos`` runs just those: worker
crashes, hangs, corrupted IPC results, torn ledger writes, and
bit-flipped cache entries injected into a live ``--jobs N`` build,
asserting every fault is contained and the output bytes still match a
clean serial run (``docs/robustness.md``).
``lint`` runs the static analyzer (``docs/static_analysis.md``) over an
executable image or a SADL machine description and emits text, JSON, or
SARIF findings; ``--fail-on`` picks the severity that makes the exit
code nonzero. ``--baseline known.json`` suppresses previously recorded
findings (``--update-baseline`` rewrites the file from this run), so
the exit code only trips on *new* findings.
``verify`` schedules every block of an image and climbs the guard's
verification ladder on each — dependence-DAG proof, then symbolic
translation validation (``--no-symbolic`` disables the second gate),
then the randomized differential battery — reporting per-gate verdict
counts and wall time; ``--min-proven R`` exits nonzero when the
statically-proven rate (DAG + symbolic combined) falls below R, and
``--ledger`` appends a ``verify`` record the benchmarks gate tracks.

``serve`` runs the scheduling daemon (``docs/serving.md``): a loopback
HTTP server that keeps machine models, compiled pipeline tables, the
persistent worker pool, and a cross-request schedule cache hot, and
answers batched instrument/schedule/verify requests byte-identically
to the one-shot commands above. ``--port 0`` (the default) picks a
free port and prints it; admission control (``--max-batch-jobs``,
``--max-pending``) sheds load with HTTP 429 instead of queueing
without bound, and ``--ledger`` appends a ``kind="serve"`` record
(throughput, latency percentiles) on shutdown.

``explain`` prints one block's decision provenance — for every placed
instruction, the cycle chosen, every rejected ready candidate, and the
hazard pricing each rejection (``docs/observability.md``). ``--stats``
output can be switched to machine-readable form with ``--stats-format
json``. Measured runs append to the run ledger: ``benchmarks --ledger``
and ``faults --ledger`` record one JSONL line per run (git SHA,
timestamp, digests, headline numbers); ``report`` renders the ledger
as a text or HTML dashboard; ``benchmarks gate`` computes per-metric
noise bands over ledger history and exits nonzero on an out-of-band
regression (``--warn-only`` reports without failing). Any typed library
error (:class:`~repro.errors.ReproError`) from a subcommand prints
``error: ...`` and exits 1 instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..core.dependence import SchedulingPolicy
from ..core.verify import DEFAULT_SEED
from ..eel.executable import Executable
from ..errors import ReproError
from ..isa.disasm import disassemble_executable
from ..obs import (
    DEFAULT_LEDGER_NAME,
    NULL_RECORDER,
    MetricsRecorder,
    ProvenanceLog,
    Recorder,
    TraceRecorder,
    append_record,
    check_gate,
    make_record,
    provenance_json,
    read_ledger_tolerant,
    render_dashboard,
    render_provenance,
    render_stats,
    stats_payload,
)
from ..parallel import ParallelOptions, make_transform, measure_modes, render_report
from ..pipeline.timing import timed_run
from ..qpt.profiling import SlowProfiler
from ..robust import run_chaos_suite, run_fault_injection
from ..robust.chaos import CHAOS_FAULTS
from ..spawn.codegen import generate_source
from ..spawn.library import MACHINES, load_machine
from ..spawn.validate import validate_machine


def _load(path: str) -> Executable:
    with open(path, "rb") as handle:
        return Executable.from_bytes(handle.read())


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print stall-attribution buckets and phase timings",
    )
    parser.add_argument(
        "--stats-format",
        choices=("text", "json"),
        default="text",
        help="render --stats as tables or as a JSON summary "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        help="write a Chrome trace-event file (chrome://tracing)",
    )


def _make_recorder(args) -> Recorder:
    if getattr(args, "trace", None):
        return TraceRecorder()
    if getattr(args, "stats", False):
        return MetricsRecorder()
    return NULL_RECORDER


def _finish_obs(args, recorder: Recorder) -> int:
    if getattr(args, "stats", False):
        if getattr(args, "stats_format", "text") == "json":
            print(json.dumps(stats_payload(recorder.metrics), indent=2))
        else:
            print()
            print(render_stats(recorder.metrics))
    trace = getattr(args, "trace", None)
    if trace:
        try:
            recorder.write(trace)
        except OSError as exc:
            print(f"error: cannot write trace {trace!r}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote trace {trace}")
    return 0


def _save(executable: Executable, path: str) -> None:
    with open(path, "wb") as handle:
        handle.write(executable.to_bytes())


def cmd_instrument(args) -> int:
    recorder = _make_recorder(args)
    executable = _load(args.input)
    transform = None
    guarded = args.safe or args.strict
    if guarded and not args.schedule:
        print("error: --safe/--strict require --schedule", file=sys.stderr)
        return 2
    if args.superblock and not args.schedule:
        print("error: --superblock requires --schedule", file=sys.stderr)
        return 2
    if args.schedule:
        policy = SchedulingPolicy(fill_delay_slots=args.fill_delay_slots)
        model = load_machine(args.machine)
        # safe: verify every block, fall back + report on failure.
        # strict: the first quarantine raises a typed error, which the
        # top-level handler turns into exit 1. --jobs pre-schedules (and
        # under --safe, pre-verifies) regions in worker processes; the
        # output is byte-identical to a serial run.
        transform = make_transform(
            model,
            policy,
            recorder,
            options=ParallelOptions(jobs=args.jobs, use_cache=args.cache),
            guarded=guarded,
            strict=args.strict,
            verify_seed=args.verify_seed,
            verify_trials=args.verify_trials,
            superblock=args.superblock,
        )
    profiler = SlowProfiler(
        executable, skip_redundant=not args.no_skip, recorder=recorder
    )
    profiled = profiler.instrument(transform)
    _save(profiled.executable, args.output)

    sidecar = {
        "counters": {
            str(index): profiled.counters.address_of(index)
            for index in profiled.counters.block_indexes
        },
        "derived_from": {
            str(k): v for k, v in profiled.plan.derived_from.items()
        },
        "blocks": {
            str(b.index): b.address for b in profiled.cfg
        },
    }
    with open(args.output + ".json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2)

    print(
        f"instrumented {len(profiled.plan.instrumented)} blocks "
        f"({len(profiled.plan.derived_from)} skipped as redundant); "
        f"text {executable.text_size} -> {profiled.executable.text_size} bytes "
        f"({profiled.text_expansion:.2f}x)"
    )
    if args.schedule:
        stats = transform.stats
        print(
            f"scheduled {stats.blocks} blocks: {stats.original_cycles} -> "
            f"{stats.scheduled_cycles} isolated-block cycles"
        )
        if args.superblock:
            print(
                f"superblocks: {transform.formed} committed, "
                f"{transform.cross_block_moves} cross-block moves, "
                f"{transform.compensation_copies} compensation copies"
            )
        cache = getattr(transform, "cache", None)
        if cache is not None and (cache.hits or cache.misses):
            print(
                f"schedule cache: {cache.hits} hits / {cache.misses} misses "
                f"({cache.hit_rate:.1%}), {len(cache)} entries"
            )
    if guarded:
        reports = transform.quarantine
        print(
            f"guarded scheduling: {len(reports)} quarantined "
            f"(verify seed {args.verify_seed})"
        )
        for report in reports:
            print(f"  {report}")
    print(f"wrote {args.output} and {args.output}.json")
    return _finish_obs(args, recorder)


def cmd_run(args) -> int:
    if args.profile and not os.path.exists(args.profile):
        print(
            f"error: profile sidecar {args.profile!r} does not exist.\n"
            f"'instrument ... -o <out>' writes it next to the executable "
            f"as '<out>.json' (expected here: {args.input + '.json'!r}); "
            f"run instrument first or point --profile at that file.",
            file=sys.stderr,
        )
        return 2
    executable = _load(args.input)
    result = executable.run(max_instructions=args.max_instructions)
    print(f"executed {result.instructions_executed} instructions")
    for reg in (8, 9, 10, 11):  # %o0-%o3, the conventional results
        print(f"  %o{reg - 8} = {result.state.get_reg(reg):#010x}")
    if args.profile:
        with open(args.profile, encoding="utf-8") as handle:
            sidecar = json.load(handle)
        memory = result.state.memory
        raw = {
            int(index): memory.read_word(address)
            for index, address in sidecar["counters"].items()
        }
        derived = {int(k): v for k, v in sidecar["derived_from"].items()}
        print("block execution counts:")
        for index in sorted(int(k) for k in sidecar["blocks"]):
            source = index
            while source not in raw:
                source = derived[source]
            print(f"  block {index}: {raw[source]}")
    return 0


def cmd_time(args) -> int:
    recorder = _make_recorder(args)
    with recorder.span("cli.load", path=args.input):
        executable = _load(args.input)
        model = load_machine(args.machine)
    run = timed_run(executable=executable, model=model, recorder=recorder)
    print(
        f"{args.input}: {run.cycles} cycles on {args.machine} "
        f"({run.instructions} instructions, IPC {run.ipc:.2f})"
    )
    return _finish_obs(args, recorder)


def cmd_disasm(args) -> int:
    print(disassemble_executable(_load(args.input), show_words=not args.no_words))
    return 0


def cmd_validate(args) -> int:
    model = load_machine(args.machine)
    findings = validate_machine(model)
    if not findings:
        print(f"{args.machine}: description is clean")
        return 0
    for finding in findings:
        print(finding)
    return 1 if any(f.severity == "error" for f in findings) else 0


def cmd_lint(args) -> int:
    from ..analyze import (
        lint_description,
        lint_image,
        registered_rules,
        render_text,
        select_rules,
        severity_rank,
        to_json,
        to_sarif,
    )

    if args.list_rules:
        for r in registered_rules():
            print(f"{r.id:<28} {r.severity:<8} [{r.category}] {r.summary}")
        return 0

    recorder = _make_recorder(args)
    disable = tuple(args.disable or ())
    if args.input:
        model = _lint_model(args)
        findings = lint_image(
            _load(args.input),
            model,
            path=args.input,
            disable=disable,
            recorder=recorder,
        )
        category = "image"
    elif args.sadl:
        from ..spawn.library import load_machine_from_source

        with open(args.sadl, encoding="utf-8") as handle:
            source = handle.read()
        name = args.sadl[:-5] if args.sadl.endswith(".sadl") else args.sadl
        model = load_machine_from_source(source, name)
        findings = lint_description(
            model,
            require_full_isa=not args.partial,
            disable=disable,
            recorder=recorder,
        )
        category = "description"
    else:
        findings = lint_description(
            _lint_model(args),
            require_full_isa=not args.partial,
            disable=disable,
            recorder=recorder,
        )
        category = "description"

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        from ..analyze.baseline import write_baseline

        write_baseline(args.baseline, findings)
        print(f"wrote baseline {args.baseline} ({len(findings)} finding(s))")
    suppressed = 0
    if args.baseline and not args.update_baseline:
        from ..analyze.baseline import apply_baseline, load_baseline

        findings, suppressed = apply_baseline(findings, load_baseline(args.baseline))

    rules = select_rules(category, disable=disable)
    if args.format == "json":
        rendered = json.dumps(to_json(findings, rules=rules), indent=2)
    elif args.format == "sarif":
        rendered = json.dumps(to_sarif(findings, rules=rules), indent=2)
    else:
        rendered = render_text(findings)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output} ({len(findings)} finding(s))")
    else:
        print(rendered)
    if suppressed:
        print(f"({suppressed} finding(s) suppressed by baseline {args.baseline})")

    _finish_obs(args, recorder)
    threshold = severity_rank(args.fail_on)
    failing = sum(1 for f in findings if severity_rank(f.severity) >= threshold)
    return 1 if failing else 0


def _lint_model(args):
    if args.synthetic_width:
        from ..spawn import load_superscalar

        return load_superscalar(args.synthetic_width)
    return load_machine(args.machine)


def cmd_verify(args) -> int:
    """Schedule every block and climb the verification ladder on each:
    static DAG proof → symbolic translation validation → randomized
    differential battery — the same chain the guard runs, with per-gate
    tallies and wall time reported (and optionally gated/ledgered)."""
    import time as _time

    from ..analyze import static_verify_schedule, symbolic_verify_schedule
    from ..core.block_scheduler import BlockScheduler
    from ..core.verify import verify_schedule
    from ..eel.cfg import build_cfg

    model = _lint_model(args)
    executable = _load(args.input)
    policy = SchedulingPolicy(fill_delay_slots=args.fill_delay_slots)
    scheduler = BlockScheduler(model, policy)
    cfg = build_cfg(executable)

    counts = {
        "blocks": 0,
        "static_proven": 0,
        "symbolic_proven": 0,
        "dynamic_verified": 0,
        "refuted": 0,
    }
    wall = {"static": 0.0, "symbolic": 0.0, "dynamic": 0.0}
    failures: list[str] = []

    def _fail(block, reasons) -> None:
        counts["refuted"] += 1
        failures.append(
            f"block {block.index} @ {block.address:#x}: " + "; ".join(reasons)
        )

    start = _time.perf_counter()
    for block in cfg:
        body = list(block.body)
        if not body:
            continue
        scheduled = scheduler.schedule_body(body)
        counts["blocks"] += 1
        t0 = _time.perf_counter()
        static = static_verify_schedule(body, scheduled, policy=policy)
        wall["static"] += _time.perf_counter() - t0
        if static.proven:
            counts["static_proven"] += 1
            continue
        if static.refuted:
            _fail(block, static.reasons)
            continue
        if args.symbolic:
            t0 = _time.perf_counter()
            verdict = symbolic_verify_schedule(
                body,
                scheduled,
                policy=policy,
                check_structure=False,
                seed=args.verify_seed,
            )
            wall["symbolic"] += _time.perf_counter() - t0
            if verdict.proven:
                counts["symbolic_proven"] += 1
                continue
            if verdict.refuted:
                reasons = list(verdict.reasons)
                if verdict.counterexample is not None:
                    reasons.append(f"counterexample: {verdict.counterexample}")
                _fail(block, reasons)
                continue
        t0 = _time.perf_counter()
        result = verify_schedule(
            body,
            scheduled,
            policy=policy,
            trials=args.verify_trials,
            seed=args.verify_seed,
        )
        wall["dynamic"] += _time.perf_counter() - t0
        if result.ok:
            counts["dynamic_verified"] += 1
        else:
            _fail(block, result.failures)
    total_wall = _time.perf_counter() - start

    blocks = counts["blocks"]
    proven = counts["static_proven"] + counts["symbolic_proven"]
    proven_rate = proven / blocks if blocks else 1.0
    escalated = blocks - counts["static_proven"]
    symbolic_pass_rate = (
        counts["symbolic_proven"] / escalated if escalated else 1.0
    )

    payload = {
        "machine": model.name,
        "symbolic": bool(args.symbolic),
        **counts,
        "statically_proven_rate": round(proven_rate, 4),
        "symbolic_pass_rate": round(symbolic_pass_rate, 4),
        "wall_static_s": round(wall["static"], 6),
        "wall_symbolic_s": round(wall["symbolic"], 6),
        "wall_dynamic_s": round(wall["dynamic"], 6),
        "failures": failures,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{args.input}: {blocks} blocks scheduled on {model.name}; "
            f"{counts['static_proven']} proven by the dependence DAG, "
            f"{counts['symbolic_proven']} proven symbolically, "
            f"{counts['dynamic_verified']} verified differentially, "
            f"{counts['refuted']} refuted"
        )
        print(
            f"statically-proven rate (DAG + symbolic): {proven_rate:.1%}  "
            f"symbolic pass rate on escalations: {symbolic_pass_rate:.1%}"
        )
        print(
            f"verification wall time: static {wall['static'] * 1e3:.1f} ms, "
            f"symbolic {wall['symbolic'] * 1e3:.1f} ms, "
            f"dynamic {wall['dynamic'] * 1e3:.1f} ms"
        )
        for failure in failures:
            print(f"  refuted: {failure}")
    if args.ledger is not None:
        record = make_record(
            "verify",
            run={
                "workload": args.input,
                "machine": model.name,
                "symbolic": bool(args.symbolic),
            },
            digests=_ledger_digests(model, policy),
            wall_s=total_wall,
            results={
                "blocks": blocks,
                "statically_proven_rate": round(proven_rate, 4),
                "symbolic_pass_rate": round(symbolic_pass_rate, 4),
                "refuted": counts["refuted"],
                "wall_static_s": round(wall["static"], 6),
                "wall_symbolic_s": round(wall["symbolic"], 6),
                "wall_dynamic_s": round(wall["dynamic"], 6),
            },
        )
        append_record(args.ledger, record)
        print(f"appended verify record to {args.ledger}")
    if failures:
        return 1
    if args.min_proven is not None and proven_rate < args.min_proven:
        print(
            f"error: statically-proven rate {proven_rate:.4f} below "
            f"--min-proven {args.min_proven}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chart(args) -> int:
    from ..eel.cfg import build_cfg
    from ..pipeline.viz import schedule_chart, unit_occupancy

    executable = _load(args.input)
    model = load_machine(args.machine)
    cfg = build_cfg(executable)
    if not 0 <= args.block < len(cfg):
        print(f"block {args.block} out of range (program has {len(cfg)} blocks)")
        return 1
    block = cfg.blocks[args.block]
    instructions = block.instructions()
    print(f"block {block.index} @ {block.address:#x} on {args.machine}:")
    print(schedule_chart(model, instructions))
    print()
    print(unit_occupancy(model, instructions))
    return 0


def cmd_explain(args) -> int:
    from ..core.block_scheduler import BlockScheduler
    from ..eel.cfg import build_cfg

    executable = _load(args.input)
    model = load_machine(args.machine)
    policy = SchedulingPolicy(fill_delay_slots=args.fill_delay_slots)
    cfg = build_cfg(executable)
    if not 0 <= args.block < len(cfg):
        print(f"block {args.block} out of range (program has {len(cfg)} blocks)")
        return 1
    block = cfg.blocks[args.block]
    log = ProvenanceLog()
    # No cache: a replayed hit skips the forward pass and would leave
    # holes in the decision log, which is the entire output here.
    scheduler = BlockScheduler(model, policy, provenance=log)
    scheduler(block, list(block.body))
    if args.json:
        print(json.dumps(provenance_json(log), indent=2))
        return 0
    print(f"block {block.index} @ {block.address:#x} on {args.machine}:")
    print(render_provenance(log))
    return 0


def _ledger_digests(model, policy=None) -> dict:
    from ..parallel.fingerprint import (
        context_digest,
        model_digest,
        policy_digest,
    )

    return {
        "model": model_digest(model),
        "policy": policy_digest(policy),
        "context": context_digest(model, policy),
    }


def cmd_report(args) -> int:
    if not os.path.exists(args.ledger):
        print(
            f"error: ledger {args.ledger!r} does not exist; measured runs "
            "append to it ('benchmarks --ledger', 'faults --ledger')",
            file=sys.stderr,
        )
        return 2
    recovery = read_ledger_tolerant(args.ledger)
    if not recovery.clean:
        print(f"warning: {recovery.describe()}", file=sys.stderr)
    records = recovery.records
    rendered = render_dashboard(records, args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output} ({len(records)} ledger record(s))")
    else:
        print(rendered)
    return 0


def cmd_faults(args) -> int:
    import time as _time

    if args.synthetic_width:
        from ..spawn import load_superscalar

        model = load_superscalar(args.synthetic_width)
    else:
        model = load_machine(args.machine)
    executable = _load(args.input) if args.input else None
    start = _time.perf_counter()
    report = run_fault_injection(
        model,
        executable=executable,
        verify_seed=args.verify_seed,
        jobs=args.jobs,
        chaos=args.chaos,
    )
    wall = _time.perf_counter() - start
    print(report.render())
    if args.ledger is not None:
        record = make_record(
            "faults",
            run={
                "workload": "fault-injection",
                "machine": model.name,
                "jobs": args.jobs,
                "chaos": args.chaos,
            },
            digests=_ledger_digests(model),
            wall_s=wall,
            results={
                "injected": report.injected,
                "caught": report.injected - report.escaped,
                "escaped": report.escaped,
                "clean": report.clean,
            },
        )
        append_record(args.ledger, record)
        print(f"appended faults record to {args.ledger}")
    return 0 if report.clean else 1


def cmd_chaos(args) -> int:
    import time as _time

    model = load_machine(args.machine)
    start = _time.perf_counter()
    report = run_chaos_suite(
        model,
        jobs=args.jobs,
        shard_deadline_s=args.deadline,
        verify_seed=args.verify_seed,
        only=tuple(args.only) if args.only else None,
    )
    wall = _time.perf_counter() - start
    print(report.render())
    if args.ledger is not None:
        record = make_record(
            "chaos",
            run={
                "workload": "chaos-suite",
                "machine": model.name,
                "jobs": args.jobs,
            },
            digests=_ledger_digests(model),
            wall_s=wall,
            results={
                "injected": report.injected,
                "caught": report.contained,
                "escaped": report.escaped,
                "clean": report.clean,
            },
        )
        append_record(args.ledger, record)
        print(f"appended chaos record to {args.ledger}")
    return 0 if report.clean else 1


def cmd_benchmarks(args) -> int:
    if args.action == "gate":
        return _benchmarks_gate(args)
    return _benchmarks_run(args)


def _benchmarks_gate(args) -> int:
    if not os.path.exists(args.ledger or DEFAULT_LEDGER_NAME):
        print(
            f"error: ledger {args.ledger or DEFAULT_LEDGER_NAME!r} does "
            "not exist; nothing to gate against",
            file=sys.stderr,
        )
        return 2
    recovery = read_ledger_tolerant(args.ledger or DEFAULT_LEDGER_NAME)
    if not recovery.clean:
        print(f"warning: {recovery.describe()}", file=sys.stderr)
    result = check_gate(
        recovery.records,
        window=args.window,
        min_history=args.min_history,
        sigmas=args.sigmas,
    )
    print(result.render())
    if result.passed:
        return 0
    if args.warn_only:
        print("(--warn-only: regressions reported, exit 0)")
        return 0
    return 1


def _benchmarks_run(args) -> int:
    import time as _time

    from ..workloads.generator import WorkloadSpec, generate

    cpus = os.cpu_count() or 1
    if args.jobs > cpus:
        print(
            f"warning: --jobs {args.jobs} exceeds the {cpus} CPU(s) the OS "
            "reports; extra workers only add scheduling overhead here "
            "(the persistent pool degrades to its in-process fast path)",
            file=sys.stderr,
        )
    model = load_machine(args.machine)
    failures = 0
    for seed in args.seeds:
        program = generate(
            WorkloadSpec(
                name=f"bench-{seed}",
                seed=seed,
                kind=args.kind,
                avg_block_size=args.avg_block_size,
            )
        )
        start = _time.perf_counter()
        report = measure_modes(
            model,
            program,
            benchmark=f"seed {seed}",
            jobs=args.jobs,
            guarded=args.safe,
        )
        wall = _time.perf_counter() - start
        print(render_report(report))
        warm = report.mode("cached-warm")
        print(
            f"  warm-cache speedup over serial: "
            f"{report.speedup('cached-warm'):.2f}x "
            f"(hit rate {warm.hit_rate:.1%})"
        )
        print()
        if not report.identical:
            failures += 1
        if args.ledger is not None:
            record = make_record(
                "benchmarks",
                run={
                    "benchmark": f"seed {seed}",
                    "machine": args.machine,
                    "jobs": args.jobs,
                    "kind": args.kind,
                    "guarded": args.safe,
                },
                digests=_ledger_digests(model),
                wall_s=wall,
                results={
                    "identical": report.identical,
                    "warm_speedup": round(report.speedup("cached-warm"), 4),
                    "warm_hit_rate": round(warm.hit_rate, 4),
                    **{
                        f"wall_{m.mode.replace('-', '_')}_s": round(m.wall_s, 6)
                        for m in report.modes
                    },
                },
            )
            append_record(args.ledger, record)
    if args.ledger is not None:
        print(f"appended {len(args.seeds)} benchmark record(s) to {args.ledger}")
    if failures:
        print(
            f"error: {failures} workload(s) produced divergent output "
            "across modes",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve(args) -> int:
    from ..robust.guard import GuardBudget
    from ..serve import ServiceConfig, run_daemon

    budget = None
    if args.max_block_instructions is not None or args.block_deadline_s is not None:
        budget = GuardBudget(
            max_block_instructions=args.max_block_instructions,
            block_deadline_s=args.block_deadline_s,
        )
    config = ServiceConfig(
        jobs=args.jobs,
        machine=args.machine,
        max_batch_jobs=args.max_batch_jobs,
        max_pending=args.max_pending,
        guard_budget=budget,
        ledger_path=args.ledger or DEFAULT_LEDGER_NAME,
    )
    service = run_daemon(
        config,
        host=args.host,
        port=args.port,
        ledger=args.ledger is not None,
        # The ready line must reach a parent that is polling our pipe
        # before the first request can be sent.
        announce=lambda message: print(message, flush=True),
    )
    stats = service.stats()
    print(
        f"qpt serve: stopped after {stats['requests']} request(s) in "
        f"{stats['batches']} batch(es) "
        f"({stats['rejected']} rejected, {stats['errors']} errored)"
    )
    return 0


def cmd_codegen(args) -> int:
    model = load_machine(args.machine)
    source = generate_source(model)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        print(f"wrote {args.output} ({len(source.splitlines())} lines)")
    else:
        print(source)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument", help="insert profiling counters")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("--schedule", action="store_true",
                   help="schedule instrumentation into unused cycles")
    p.add_argument("--superblock", action="store_true",
                   help="also schedule across profile-guided superblock "
                   "regions (requires --schedule)")
    p.add_argument("--fill-delay-slots", action="store_true")
    p.add_argument("--no-skip", action="store_true",
                   help="instrument every block (disable the skip rule)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--safe", action="store_true",
                      help="verify every scheduled block; fall back to the "
                      "original order and report on any failure")
    mode.add_argument("--strict", action="store_true",
                      help="verify every scheduled block; exit nonzero on "
                      "the first quarantine")
    p.add_argument("--verify-seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed for differential verification runs "
                   "(default %(default)s; fixed for reproducibility)")
    p.add_argument("--verify-trials", type=int, default=4,
                   help="differential trials per block (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="pre-schedule regions across N worker processes "
                   "(default %(default)s; output is byte-identical)")
    p.add_argument("--cache", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="memoize schedules in the content-addressed "
                   "schedule cache (default on)")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_instrument)

    p = sub.add_parser("run", help="execute in the functional simulator")
    p.add_argument("input")
    p.add_argument("--profile", help="counter sidecar from 'instrument'")
    p.add_argument("--max-instructions", type=int, default=5_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("time", help="trace-driven pipeline timing")
    p.add_argument("input")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_time)

    p = sub.add_parser("disasm", help="disassemble the text section")
    p.add_argument("input")
    p.add_argument("--no-words", action="store_true")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("validate", help="lint a machine description")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "lint",
        help="run the static analyzer over an image or a SADL description",
    )
    p.add_argument("input", nargs="?",
                   help="RXE executable to lint (whole-image schedule "
                   "analysis); omit to lint a machine description")
    p.add_argument("--sadl", metavar="FILE",
                   help="lint this SADL description file instead of a "
                   "shipped machine")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc",
                   help="machine model for hazard analysis / description "
                   "lint (default %(default)s)")
    p.add_argument("--synthetic-width", type=int, metavar="N",
                   help="use an N-wide synthetic machine instead of "
                   "--machine")
    p.add_argument("--partial", action="store_true",
                   help="allow descriptions that do not cover the full ISA")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default %(default)s)")
    p.add_argument("--fail-on", choices=("warning", "error"),
                   default="error",
                   help="exit nonzero when a finding at or above this "
                   "severity exists (default %(default)s)")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="disable a rule by id (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="list every registered rule and exit")
    p.add_argument("--baseline", metavar="FILE",
                   help="suppress findings recorded in this JSON baseline "
                   "so --fail-on only trips on new findings")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE from this run's findings")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    _add_obs_flags(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "verify",
        help="schedule every block and prove each schedule correct: "
        "static DAG proof, then symbolic translation validation, then "
        "the randomized differential battery",
    )
    p.add_argument("input", help="RXE executable to schedule and verify")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc",
                   help="machine model to schedule for (default %(default)s)")
    p.add_argument("--synthetic-width", type=int, metavar="N",
                   help="use an N-wide synthetic machine instead of "
                   "--machine")
    p.add_argument("--fill-delay-slots", action="store_true",
                   help="schedule under the delay-slot-refill policy")
    p.add_argument("--symbolic", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="run the symbolic translation validator between "
                   "the static and differential gates (default on)")
    p.add_argument("--verify-seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed for witness and differential runs "
                   "(default %(default)s)")
    p.add_argument("--verify-trials", type=int, default=4,
                   help="differential trials per escalated block "
                   "(default %(default)s)")
    p.add_argument("--min-proven", type=float, metavar="RATE",
                   help="exit nonzero unless the statically-proven rate "
                   "(DAG + symbolic) reaches RATE")
    p.add_argument("--json", action="store_true",
                   help="emit the verification summary as JSON")
    p.add_argument("--ledger", metavar="PATH", nargs="?",
                   const=DEFAULT_LEDGER_NAME, default=None,
                   help="append a verify record to this run ledger "
                   "(default %(const)s when given without a path)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chart", help="render one block's pipeline schedule")
    p.add_argument("input")
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser(
        "explain",
        help="print one block's scheduling decision provenance: chosen "
        "cycles, rejected candidates, and the hazards that priced them",
    )
    p.add_argument("input")
    p.add_argument("--block", type=int, default=0,
                   help="block index to explain (default %(default)s)")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("--fill-delay-slots", action="store_true",
                   help="schedule under the delay-slot-refill policy")
    p.add_argument("--json", action="store_true",
                   help="emit the provenance log as JSON")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "report",
        help="render the run ledger as a regression-observatory dashboard",
    )
    p.add_argument("--ledger", metavar="PATH", default=DEFAULT_LEDGER_NAME,
                   help="ledger JSONL to read (default %(default)s)")
    p.add_argument("--format", choices=("text", "html"), default="text",
                   help="dashboard format (default %(default)s)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the dashboard to FILE instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("faults", help="run the fault-injection harness")
    p.add_argument("input", nargs="?",
                   help="RXE executable for the encoding/scheduler fault "
                   "classes (default: a built-in kernel)")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("--synthetic-width", type=int, metavar="N",
                   help="target an N-wide synthetic machine instead of "
                   "--machine")
    p.add_argument("--verify-seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="also exercise the cached+parallel path with N "
                   "workers in the cache fault class")
    p.add_argument("--chaos", action="store_true",
                   help="append the process-level chaos classes (worker "
                   "crash/hang, corrupt IPC, torn ledger, bit-flipped "
                   "cache) to the run")
    p.add_argument("--ledger", metavar="PATH", nargs="?",
                   const=DEFAULT_LEDGER_NAME, default=None,
                   help="append one faults record to the run ledger "
                   "(default path: %(const)s)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "chaos",
        help="run the process-level chaos suite: crash/hang/corrupt "
        "workers and torn/bit-flipped storage against a live parallel "
        "build, asserting containment and byte-identical output",
    )
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="worker processes for the faulted builds "
                   "(default %(default)s; must be > 1 to shard)")
    p.add_argument("--deadline", type=float, default=5.0, metavar="S",
                   help="per-shard wall-clock deadline in seconds — the "
                   "hang class waits it out once (default %(default)s)")
    p.add_argument("--verify-seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--only", nargs="+", choices=CHAOS_FAULTS,
                   metavar="FAULT",
                   help="run only these fault classes "
                   f"(choices: {', '.join(CHAOS_FAULTS)})")
    p.add_argument("--ledger", metavar="PATH", nargs="?",
                   const=DEFAULT_LEDGER_NAME, default=None,
                   help="append one chaos record to the run ledger "
                   "(default path: %(const)s)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "benchmarks",
        help="time serial vs parallel vs warm-cache scheduling and "
        "cross-check the outputs are byte-identical; 'benchmarks gate' "
        "checks the newest ledger records against their noise bands",
    )
    p.add_argument("action", nargs="?", choices=("run", "scaling", "gate"),
                   default="run",
                   help="'run' (or its alias 'scaling') measures the "
                   "serial/parallel/warm matrix (the default); 'gate' "
                   "regression-checks the ledger instead")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("--jobs", type=int, default=4, metavar="N")
    p.add_argument("--seeds", type=int, nargs="+", default=[11, 12, 13],
                   help="workload generator seeds (default %(default)s)")
    p.add_argument("--kind", choices=("int", "fp"), default="int")
    p.add_argument("--avg-block-size", type=float, default=9.0)
    p.add_argument("--safe", action="store_true",
                   help="measure the guarded (verify-and-fallback) path")
    p.add_argument("--ledger", metavar="PATH", nargs="?",
                   const=DEFAULT_LEDGER_NAME, default=None,
                   help="run: append one record per seed to the ledger; "
                   "gate: the ledger to check (default path: %(const)s)")
    p.add_argument("--window", type=int, default=20, metavar="N",
                   help="gate: history records per noise band "
                   "(default %(default)s)")
    p.add_argument("--min-history", type=int, default=3, metavar="N",
                   help="gate: minimum history before a series is gated "
                   "(default %(default)s)")
    p.add_argument("--sigmas", type=float, default=3.0,
                   help="gate: band half-width in standard deviations "
                   "(default %(default)s)")
    p.add_argument("--warn-only", action="store_true",
                   help="gate: report regressions but exit 0")
    p.set_defaults(func=cmd_benchmarks)

    p = sub.add_parser(
        "serve",
        help="run the scheduling daemon: batched instrument/schedule/"
        "verify requests over loopback HTTP, hot models and a shared "
        "schedule cache across requests",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default %(default)s; keep it local)")
    p.add_argument("--port", type=int, default=0, metavar="N",
                   help="0 (the default) picks a free port, printed on "
                   "the ready line")
    p.add_argument("--jobs", type=int, default=4, metavar="N",
                   help="default worker fan-out per request "
                   "(default %(default)s)")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc",
                   help="default machine for jobs that don't name one")
    p.add_argument("--max-batch-jobs", type=int, default=64, metavar="N",
                   help="admission control: largest admissible batch "
                   "(default %(default)s)")
    p.add_argument("--max-pending", type=int, default=8, metavar="N",
                   help="admission control: batches allowed to queue "
                   "before new arrivals get 429 (default %(default)s)")
    p.add_argument("--max-block-instructions", type=int, default=None,
                   metavar="N",
                   help="guard budget for safe/verify jobs: refuse to "
                   "schedule larger blocks")
    p.add_argument("--block-deadline-s", type=float, default=None,
                   metavar="S",
                   help="guard budget for safe/verify jobs: per-block "
                   "schedule+verify deadline")
    p.add_argument("--ledger", metavar="PATH", nargs="?",
                   const=DEFAULT_LEDGER_NAME, default=None,
                   help="append one kind=\"serve\" record on shutdown "
                   "(default path: %(const)s)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("codegen", help="emit generated pipeline_stalls")
    p.add_argument("--machine", choices=MACHINES, default="ultrasparc")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_codegen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Every library error derives from ReproError (DecodeError,
        # EditError, ModelError, SemanticsError, VerificationError,
        # BudgetExceeded, ...): a typed failure is a diagnostic, not a
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
