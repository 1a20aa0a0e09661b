"""Seeded inputs for the three workloads, and the catalogue the committed
references cover.

Every input a run uses is drawn from a fixed catalogue, so the
references in ``refs.json`` check the outputs of *every* seed, not only
the seeds they were produced with. The seed decides which catalogue
entries a run uses and in what order. Draws are stratified so that two
seeds give runs of about the same cost, which keeps the run-to-run
spread of the end-to-end metrics small.

This module imports nothing from ``repro``; specs are plain dicts that
both ``WorkloadSpec(**spec)`` and the serve protocol's ``workload``
payload accept.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

#: Images in the catalogue: even indexes are integer small-block
#: programs, odd indexes floating-point long-block programs.
CATALOG_SIZE = 256

#: Trip count the paper-tables workload passes to ``run_table``.
TABLE_TRIPS = 40

#: CINT95 rows with small blocks (2.0–2.2 instructions on the
#: UltraSPARC) and about the same cost; the draw takes one, so every
#: pass costs about the same (within 3%).
TABLE_SMALL_CINT = ("124.m88ksim", "126.gcc", "147.vortex", "130.li")

#: The long-block CFP95 row every draw includes. 145.fpppp rather than
#: 102.swim (three times the cost) or 107.mgrid (a different cost on
#: each machine): a fixed long row keeps the per-row tail steady
#: across seeds.
TABLE_LONG_CFP = "145.fpppp"

TABLES = (1, 2, 3)

#: Machines of the catalogue, alternating in pairs of indexes so that
#: both kinds of program appear on both machines.
MACHINES = ("ultrasparc", "supersparc")

#: Kinds of serve request; every stream block has the same number of
#: each.
SERVE_KINDS = ("instrument", "schedule", "verify")
#: Requests drawn per run; a run that finishes them stops early.
SERVE_STREAM_LENGTH = 5000


def catalog_spec(index: int, *, serve: bool = False) -> dict:
    """``WorkloadSpec`` fields of catalogue image ``index``.

    Sizes are chosen so that both kinds cost about the same to
    instrument and schedule, which keeps per-image latency unimodal.
    Served images are a third the size: a daemon answers many small
    requests, and a 30-second run then collects a few hundred."""
    scale = 3 if serve else 1
    if index % 2 == 0:
        return {
            "name": f"int-{index:03d}",
            "seed": 7000 + index,
            "kind": "int",
            # Lands at 2.8–2.9 on the first calibration pass; a smaller
            # target makes the generator retry eight times for nothing.
            "avg_block_size": 3.0,
            "loops": 36 // scale,
            "trip_count": 8,
            "diamond_prob": 0.9,
            "call_prob": 0.4,
            "chain_density": 0.55,
            "load_fraction": 0.32,
            "store_fraction": 0.12,
        }
    return {
        "name": f"fp-{index:03d}",
        "seed": 7000 + index,
        "kind": "fp",
        "avg_block_size": 24.0,
        "loops": 10 // scale,
        "trip_count": 8,
        "diamond_prob": 0.0,
        "call_prob": 0.15,
        "chain_density": 0.10,
        "load_fraction": 0.65,
        "store_fraction": 0.25,
        "fp_fraction": 0.42,
    }


def catalog_machine(index: int) -> str:
    return MACHINES[(index // 2) % 2]


def table_draw(seed: int) -> tuple[str, ...]:
    """The SPEC95 rows of one paper-tables pass, for all three tables:
    a small-block CINT row and the long-block CFP row."""
    rng = random.Random(f"paper-tables/{seed}")
    return (rng.choice(TABLE_SMALL_CINT), TABLE_LONG_CFP)


#: Images per instrument-safe cycle, a multiple of the four
#: (kind, machine) classes.
INSTRUMENT_DRAW = 32


def instrument_draw(seed: int) -> list[int]:
    """Catalogue indexes of one instrument-safe cycle. The kind and the
    machine alternate from one image to the next."""
    rng = random.Random(f"instrument-safe/{seed}")
    classes = [
        [i for i in range(CATALOG_SIZE) if i % 4 == residue]
        for residue in (0, 3, 2, 1)  # int/U, fp/S, int/S, fp/U
    ]
    per_class = INSTRUMENT_DRAW // len(classes)
    picks = [rng.sample(members, per_class) for members in classes]
    return [picks[c][k] for k in range(per_class) for c in range(len(classes))]


@dataclass(frozen=True)
class ServeRequest:
    """One request of the serve-mixed stream."""

    index: int  # catalogue image
    kind: str
    payload: str  # "executable" | "workload"
    superblock: bool
    repeat: bool

    @property
    def machine(self) -> str:
        return catalog_machine(self.index)

    @property
    def spec(self) -> dict:
        return catalog_spec(self.index, serve=True)

    @property
    def ref_key(self) -> str:
        return serve_ref_key(self.index, self.kind, self.superblock)


def serve_ref_key(index: int, kind: str, superblock: bool) -> str:
    """Key into the serve references. ``verify`` builds the same bytes
    as ``instrument`` (the guard never changes a schedule)."""
    digest_kind = "schedule" if kind == "schedule" else "instrument"
    return f"{index}/{digest_kind}" + ("/superblock" if superblock else "")


def serve_stream(seed: int, length: int = SERVE_STREAM_LENGTH) -> list[ServeRequest]:
    """The seeded request sequence of one serve-mixed run.

    The stream is made of blocks with a fixed make-up, shuffled inside:
    12 first-seen images (3 per (kind of program, machine) class, one
    per request kind; one per class sent as a ``workload`` payload the
    daemon generates, the rest as ``executable`` payloads; one of the 12
    scheduled across superblocks) and 24 exact repeats of requests from
    earlier blocks (8 per request kind), which are schedule-cache reads.
    The first block has no repeats; once the catalogue is used up,
    blocks hold repeats only. Fixed make-up keeps two seeds' runs at
    about the same cost.

    Repeats are two thirds of the stream, so that the median falls among
    the cache reads and the 90th percentile among the builds. At half
    and half the median sat in the gap between the two and swung with
    small shifts in timing."""
    rng = random.Random(f"serve-mixed/{seed}")
    queues = [[i for i in range(CATALOG_SIZE) if i % 4 == residue] for residue in range(4)]
    for queue in queues:
        rng.shuffle(queue)
    seen: dict[str, list[ServeRequest]] = {kind: [] for kind in SERVE_KINDS}
    stream: list[ServeRequest] = []
    block = 0
    while len(stream) < length:
        fresh: list[ServeRequest] = []
        if all(len(queue) >= len(SERVE_KINDS) for queue in queues):
            superblock_at = (block % len(queues), rng.choice(SERVE_KINDS))
            for klass, queue in enumerate(queues):
                workload_kind = rng.choice(SERVE_KINDS)
                for kind in SERVE_KINDS:
                    fresh.append(
                        ServeRequest(
                            queue.pop(),
                            kind,
                            "workload" if kind == workload_kind else "executable",
                            superblock=(klass, kind) == superblock_at,
                            repeat=False,
                        )
                    )
        per_kind = 8 if fresh else 12
        repeats = [
            dataclasses.replace(rng.choice(seen[kind]), repeat=True)
            for kind in SERVE_KINDS
            if seen[kind]
            for _ in range(per_kind)
        ]
        requests = fresh + repeats
        rng.shuffle(requests)
        stream.extend(requests)
        for request in fresh:
            seen[request.kind].append(request)
        block += 1
    return stream[:length]
