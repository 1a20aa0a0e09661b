"""The three benchmark workloads.

Each workload drives the repository through a public entry point:

* ``paper-tables`` calls ``repro.evaluation.run_table`` for Tables 1–3
  over a seeded draw of SPEC95 stand-ins;
* ``instrument-safe`` runs ``qpt instrument --schedule --safe
  --fill-delay-slots --jobs 1`` in process through
  ``repro.tools.qpt_cli.main`` on catalogue images;
* ``serve-mixed`` starts a ``qpt serve --jobs 2`` daemon on loopback
  (``repro.serve.run_daemon``) and drives it with a closed loop of two
  client connections.

``repro`` is imported inside methods only, so that the caller can time
the imports as part of set-up. Every output is checked against the
committed references (``refs.json``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import catalog


@dataclass
class OpResult:
    """One measured operation."""

    latency_s: float
    failed: bool = False
    mismatch: bool = False
    #: latency the server itself reported (serve-mixed only).
    server_ms: float | None = None
    #: an exact repeat of an earlier request (serve-mixed only).
    repeat: bool = False


@dataclass
class Measurement:
    ops: list[OpResult] = field(default_factory=list)
    #: wall time from the first operation's start to the last one's end.
    window_s: float = 0.0
    #: wall time of each complete pass / cycle (paper-tables,
    #: instrument-safe).
    cycles_s: list[float] = field(default_factory=list)
    #: the window's absolute perf_counter bounds.
    start: float = 0.0
    end: float = 0.0


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def op_metrics(m: Measurement) -> dict:
    """The end-to-end latency and throughput metrics of a measurement."""
    latencies = [op.latency_s * 1e3 for op in m.ops]
    return {
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": percentile(latencies, 90),
        "ops_per_s": sum(not op.failed for op in m.ops) / m.window_s,
    }


def import_fresh(modules: tuple[str, ...]) -> None:
    """Import ``modules`` as a new process would: every ``repro`` module
    loaded so far is forgotten first, so the import runs module code
    again (from the byte-code cache)."""
    import importlib

    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    for module in modules:
        importlib.import_module(module)


def clear_machine_cache() -> None:
    """Forget built machine models, so set-up pays ``load_machine``
    again. ``load_machine`` memoizes per process; the probe wrapper of a
    traced run sits in front of the memo."""
    from repro.spawn import library

    fn = library.load_machine
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


class Workload:
    """Set up, measure, tear down. Subclasses fill in the operations."""

    name = ""
    #: modules whose import is part of set-up time.
    entry_modules: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str, refs: dict):
        self.seed = seed
        self.workdir = workdir
        self.refs = refs
        self.generation = 0

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, f"{label}-{self.generation}")
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self) -> None:
        """Build everything the operations need. Called several times
        per run (set-up time is the median); each call starts from a
        fresh table cache directory."""
        from repro.parallel import pool_stats

        self.generation += 1
        os.environ["REPRO_TABLE_CACHE_DIR"] = self.fresh_dir("tables")
        clear_machine_cache()
        self.pool_before = pool_stats()

    def teardown(self) -> None:
        pass

    def measure(self, seconds: float, *, limit: int | None = None, traced: bool = False) -> Measurement:
        raise NotImplementedError

    def counters(self) -> dict:
        """``stats_payload``-shaped counters of the last measurement,
        where the entry point exposes a recorder (traced runs only)."""
        return {}

    def report(self, m: Measurement) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end metrics, by the names README.md uses."""
        return []

    def pool_delta(self) -> dict:
        """Worker-pool spawns and reuses since the last set-up began."""
        from repro.parallel import pool_stats

        after = pool_stats()
        return {k: after[k] - self.pool_before[k] for k in ("spawns", "reuses")}

    # -- whole-cycle measurement (paper-tables, instrument-safe) -------------

    def cycle(self) -> list:
        raise NotImplementedError

    def run_op(self, op, traced: bool) -> OpResult:
        raise NotImplementedError

    def measure_cycles(self, seconds: float, limit: int | None, traced: bool) -> Measurement:
        """Run whole cycles until the run is as close to ``seconds`` as
        whole cycles get: another cycle starts while at most half of it
        is expected to overrun. Every cycle has the same operations, so
        the latency distribution does not depend on where the run stops.
        With ``limit``, run exactly that many operations."""
        m = Measurement(start=time.perf_counter())
        ops = self.cycle()
        while True:
            cycle_start = time.perf_counter()
            for op in ops:
                if limit is not None and len(m.ops) >= limit:
                    break
                m.ops.append(self.run_op(op, traced))
            else:
                m.cycles_s.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - m.start
            if limit is not None:
                if len(m.ops) >= limit:
                    break
                continue
            if elapsed + statistics.mean(m.cycles_s) / 2 > seconds:
                break
        m.end = time.perf_counter()
        m.window_s = m.end - m.start
        return m


class PaperTables(Workload):
    """Tables 1–3 regenerated for a seeded draw of SPEC95 rows. One
    operation is one pass: ``run_table`` for each table over the draw."""

    name = "paper-tables"
    entry_modules = ("repro.evaluation",)

    def setup(self) -> None:
        super().setup()
        from repro.spawn.library import load_machine

        for machine in catalog.MACHINES:
            load_machine(machine)

    def cycle(self) -> list:
        return [catalog.table_draw(self.seed)]

    def run_op(self, draw, traced: bool) -> OpResult:
        from repro.evaluation import run_table

        start = time.perf_counter()
        mismatch = False
        for table in catalog.TABLES:
            try:
                result = run_table(table, benchmarks=draw, trip_count=catalog.TABLE_TRIPS)
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
                print(f"paper-tables: table {table} failed: {exc!r}")
                return OpResult(time.perf_counter() - start, failed=True)
            for row in result.rows:
                got = [row.uninstrumented_cycles, row.instrumented_cycles, row.scheduled_cycles]
                expected = self.refs["tables"][f"{table}/{row.benchmark}"]
                if got != expected:
                    print(
                        f"paper-tables: table {table} {row.benchmark}: "
                        f"cycles {got} != reference {expected}"
                    )
                    mismatch = True
        return OpResult(time.perf_counter() - start, failed=mismatch, mismatch=mismatch)

    def measure(self, seconds, *, limit=None, traced=False):
        return self.measure_cycles(seconds, limit, traced)

    def report(self, m):
        return [("tables_wall_s", statistics.median(op.latency_s for op in m.ops), "s")]


class InstrumentSafe(Workload):
    """``qpt instrument --schedule --safe`` on catalogue images."""

    name = "instrument-safe"
    entry_modules = ("repro.tools.qpt_cli",)

    def setup(self) -> None:
        super().setup()
        from repro.pipeline.tables import attach_tables
        from repro.spawn.library import load_machine
        from repro.workloads.generator import WorkloadSpec, generate

        for machine in catalog.MACHINES:
            attach_tables(load_machine(machine))
        images = self.fresh_dir("images")
        self.paths = {}
        for index in catalog.instrument_draw(self.seed):
            path = os.path.join(images, f"{index:03d}.rxe")
            spec = WorkloadSpec(**catalog.catalog_spec(index))
            with open(path, "wb") as handle:
                handle.write(generate(spec).executable.to_bytes())
            self.paths[index] = path
        self.output = os.path.join(images, "out.rxe")
        self._counters: dict = {}
        # The first build per machine interns table states and fills
        # per-model memos; users pay it once per process, as set-up.
        for index in catalog.instrument_draw(self.seed)[:2]:
            self.run_op(index, traced=False)

    def cycle(self) -> list:
        return catalog.instrument_draw(self.seed)

    def run_op(self, index, traced: bool) -> OpResult:
        from repro.tools import qpt_cli

        argv = [
            "instrument", self.paths[index], "-o", self.output,
            "--machine", catalog.catalog_machine(index),
            "--schedule", "--safe", "--fill-delay-slots", "--jobs", "1",
        ]
        if traced:
            argv += ["--stats", "--stats-format", "json"]
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                status = qpt_cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a failed image is counted
            print(f"instrument-safe: image {index} failed: {exc!r}")
            return OpResult(time.perf_counter() - start, failed=True)
        latency = time.perf_counter() - start
        if status != 0:
            print(f"instrument-safe: image {index} exited {status}")
            return OpResult(latency, failed=True)
        with open(self.output, "rb") as handle:
            digest = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
        expected = self.refs["instrument"][str(index)]
        mismatch = digest != expected
        if mismatch:
            print(f"instrument-safe: image {index}: {digest} != reference {expected}")
        if traced:
            text = captured.getvalue()
            payload = json.loads(text[text.index("\n{") + 1 :])
            for key, value in payload["counters"].items():
                self._counters[key] = self._counters.get(key, 0) + value
        return OpResult(latency, failed=mismatch, mismatch=mismatch)

    def measure(self, seconds, *, limit=None, traced=False):
        self._counters = {}
        return self.measure_cycles(seconds, limit, traced)

    def counters(self):
        return dict(self._counters)

    def report(self, m):
        summary = op_metrics(m)
        return [
            ("instrument_p50_ms", summary["op_p50_ms"], "ms"),
            ("instrument_p90_ms", summary["op_p90_ms"], "ms"),
            ("instrument_samples", len(m.ops), "count"),
        ]


#: First-seen executable payloads generated during set-up; later ones
#: (only a much faster daemon gets that far) are generated on demand.
SERVE_PREGENERATED = 160
SERVE_CLIENTS = 2
SERVE_JOBS = 2


class ServeMixed(Workload):
    """A fresh ``qpt serve --jobs 2`` daemon under a closed loop."""

    name = "serve-mixed"
    entry_modules = ("repro.serve", "repro.parallel")

    def setup(self) -> None:
        super().setup()
        from repro.parallel import warm_pool
        from repro.serve import SchedulingService, ServeClient, ServiceConfig, run_daemon
        from repro.workloads.generator import WorkloadSpec, generate

        config = ServiceConfig(
            jobs=SERVE_JOBS,
            machine="ultrasparc",
            ledger_path=os.path.join(self.fresh_dir("serve"), "ledger.jsonl"),
        )
        self.service = SchedulingService(config)
        ready = threading.Event()
        address: list[str] = []

        def announce(line: str) -> None:
            address.append(line.rsplit(":", 1)[1])
            ready.set()

        self.thread = threading.Thread(
            target=run_daemon,
            kwargs={"config": config, "port": 0, "announce": announce, "service": self.service},
            name="qpt-serve",
        )
        self.thread.start()
        if not ready.wait(60):
            raise RuntimeError("serve daemon did not announce its port")
        self.port = int(address[0])
        ServeClient(port=self.port).wait_ready()
        for machine in catalog.MACHINES:
            self.service.model_for(machine)
        warm_pool(self.service.model_for("ultrasparc"), jobs=SERVE_JOBS)

        self.stream = catalog.serve_stream(self.seed)
        self.payloads: dict[int, bytes] = {}
        fresh = [r for r in self.stream if not r.repeat][:SERVE_PREGENERATED]
        for request in fresh:
            if request.payload == "executable":
                spec = WorkloadSpec(**request.spec)
                self.payloads[request.index] = generate(spec).executable.to_bytes()

    def teardown(self) -> None:
        from repro.parallel import shutdown_pools
        from repro.serve import ServeClient

        ServeClient(port=self.port).shutdown()
        self.thread.join(60)
        shutdown_pools(wait=True)
        if self.thread.is_alive():
            raise RuntimeError("serve daemon did not stop")

    def _job(self, request: catalog.ServeRequest) -> dict:
        from repro.serve import encode_job

        payload = (
            {"workload": request.spec}
            if request.payload == "workload"
            else {"executable": self.payloads[request.index]}
        )
        return encode_job(
            request.kind,
            machine=request.machine,
            # Superblock jobs cannot ship their regions to pool workers
            # (the model does not pickle) and fail at jobs > 1, so they
            # ask for the in-process path.
            jobs=1 if request.superblock else 0,
            fill_delay_slots=True,
            superblock=request.superblock,
            return_executable=False,
            **payload,
        )

    def _send(self, client, request, position: int) -> OpResult:
        if request.payload == "executable" and request.index not in self.payloads:
            from repro.workloads.generator import WorkloadSpec, generate

            spec = WorkloadSpec(**request.spec)
            self.payloads[request.index] = generate(spec).executable.to_bytes()
        return self.exchange(client, [self._job(request)], request, position)

    def exchange(self, client, jobs: list[dict], request, position: int) -> OpResult:
        """Post one batch and check its first result against the
        reference of ``request``. A refusal or an error is a failure."""
        from repro.serve import ServeUnavailable

        start = time.perf_counter()
        try:
            response = client.batch(jobs)
        except ServeUnavailable as exc:
            print(f"serve-mixed: request {position} failed: {exc}")
            return OpResult(time.perf_counter() - start, failed=True, repeat=request.repeat)
        latency = time.perf_counter() - start
        result = response["results"][0]
        if not result.get("ok"):
            print(f"serve-mixed: request {position} errored: {result.get('error')}")
            return OpResult(latency, failed=True, repeat=request.repeat)
        expected = self.refs["serve"][request.ref_key]
        mismatch = result["text_digest"] != expected or (
            request.kind == "verify" and result.get("verified") is not True
        )
        if mismatch:
            print(
                f"serve-mixed: request {position} ({request.ref_key}): "
                f"{result['text_digest']} != reference {expected}"
            )
        return OpResult(
            latency,
            failed=mismatch,
            mismatch=mismatch,
            server_ms=result["wall_ms"],
            repeat=request.repeat,
        )

    def measure(self, seconds, *, limit=None, traced=False):
        from repro.obs.report import stats_payload
        from repro.serve import ServeClient

        self.counters_before = stats_payload(self.service.recorder.metrics)["counters"]
        total = len(self.stream) if limit is None else min(limit, len(self.stream))
        results: list[OpResult | None] = [None] * total
        cursor = [0]
        lock = threading.Lock()
        m = Measurement(start=time.perf_counter())
        deadline = m.start + seconds

        def client_loop() -> None:
            client = ServeClient(port=self.port, timeout=120.0)
            while True:
                with lock:
                    position = cursor[0]
                    if position >= total or (limit is None and time.perf_counter() >= deadline):
                        return
                    cursor[0] += 1
                start = time.perf_counter()
                try:
                    results[position] = self._send(client, self.stream[position], position)
                except Exception:  # noqa: BLE001 - a client must keep going
                    traceback.print_exc(file=sys.stdout)
                    results[position] = OpResult(time.perf_counter() - start, failed=True)

        threads = [
            threading.Thread(target=client_loop, name=f"client-{n}")
            for n in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        m.end = time.perf_counter()
        m.window_s = m.end - m.start
        m.ops = [op for op in results if op is not None]
        return m

    def counters(self):
        from repro.obs.report import stats_payload

        after = stats_payload(self.service.recorder.metrics)["counters"]
        return {
            key: value - self.counters_before.get(key, 0) for key, value in after.items()
        }

    def report(self, m):
        summary = op_metrics(m)
        lines = [
            ("serve_p50_ms", summary["op_p50_ms"], "ms"),
            ("serve_p90_ms", summary["op_p90_ms"], "ms"),
            ("serve_rps", summary["ops_per_s"], "req/s"),
            ("serve_samples", len(m.ops), "count"),
        ]
        # First-seen requests (cache writes) and repeats (cache reads)
        # apart, so that a gain on one is not read as a serve-wide gain.
        for label, repeat in (("first", False), ("repeat", True)):
            latencies = [op.latency_s * 1e3 for op in m.ops if op.repeat == repeat]
            if latencies:
                lines += [
                    (f"serve_{label}_p50_ms", statistics.median(latencies), "ms"),
                    (f"serve_{label}_p90_ms", percentile(latencies, 90), "ms"),
                ]
            lines.append((f"serve_{label}_samples", len(latencies), "count"))
        return lines


WORKLOADS = {cls.name: cls for cls in (PaperTables, InstrumentSafe, ServeMixed)}

