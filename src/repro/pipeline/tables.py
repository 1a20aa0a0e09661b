"""Compiled stall-transition tables: the interpreted walker as data.

``pipeline_stalls`` is the inner loop of every scheduling decision and
is re-evaluated per candidate per cycle. Spawn already collapses
instructions with identical resource traces into timing groups
(:class:`~repro.spawn.model.MachineModel`); this module pushes that to
its conclusion: it enumerates the *structural* pipeline states a
machine can reach and compiles a transition table

    ``(state-id, timing-group) -> (fit offset, next-state-id)``

so the scheduler's hot path becomes dictionary lookups with no interval
arithmetic.

Why the table only needs the structural dimension
-------------------------------------------------
Every register hazard in :func:`repro.pipeline.stalls._fits` is a
monotone lower bound on the start cycle: ``RAW`` requires
``start >= value_ready(reg) - rel``, ``WAW`` requires
``start >= value_ready(reg) - rel``, and ``WAR`` requires
``start >= last_read(reg) + 1 - rel``. A check that passes at ``s``
therefore passes at every later cycle, so the earliest legal issue is
the first *structural* fit at or after the register lower bound — and
structural occupancy is a pure function of (current state, timing
group). Register history stays per stream, exactly as in the
interpreted walker.

State encoding and bounds
-------------------------
A state is the sequence of per-cycle free-unit rows relative to the
current cycle, trimmed of trailing idle rows, stored as one byte per
unit per row (block timing interns thousands of states, so the store
is kept compact). No trace event occurs more than ``window - 1``
cycles after issue (``window`` = the largest group's
``max_event_cycle + 1``), so occupancy never extends more than
``window`` cycles past the last issue and every state has at most
``window`` rows — the "issue width × max latency × unit counts" bound.
The *reachable* subset of that space is still far too large to
enumerate eagerly on real machines (the shipped SPARC models blow
through 100k states while a breadth-first frontier is still growing),
so the compiler is demand-driven: a small deterministic breadth-first
prefix is compiled the first time the model's tables are used (and
persisted under the model's content digest so parallel workers and
later processes reuse it), and every state actually visited during
scheduling and timing is interned and its transitions memoized on
first use. Once ``budget`` distinct states have been interned, new
states stop being recorded and queries from unknown states fall back
to the interpreted walker (counted as ``pipeline.table_fallbacks``, or
in ``PipelineTables.misses`` for a lean stream); tracking resumes for
free once the pipeline drains. A machine with more than 255 copies of
a unit does not fit the state encoding: its tables stay empty and
every query falls back the same way.

Transitions are *computed by the interpreted walker itself* — a scratch
:class:`~repro.pipeline.state.Occupancy` is loaded with the state's
rows and searched with the group's trace — so table and interpreter
agree by construction; the differential battery in
``tests/pipeline/test_table_differential.py`` enforces it end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zlib
from itertools import islice
from typing import TYPE_CHECKING

from ..isa.registers import Reg, RegKind
from ..spawn.model import InstructionTiming, MachineModel, ModelError

if TYPE_CHECKING:
    from .state import Occupancy

#: Default cap on distinct interned states per model. Real workloads
#: visit far fewer (hundreds to a few thousand); the cap bounds memory
#: on adversarial inputs.
DEFAULT_BUDGET = 50_000

#: Number of states pre-enumerated breadth-first when a model's tables
#: are compiled. This prefix is deterministic, so it is what the
#: on-disk cache stores and what every worker process starts from.
EAGER_STATES = 256

#: On-disk cache format version (bump on any layout change).
_CACHE_VERSION = 2

#: Environment override for the on-disk table cache directory.
CACHE_DIR_ENV = "REPRO_TABLE_CACHE_DIR"


def _cache_dir() -> str:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-tables-{uid}")


class PipelineTables:
    """Interned structural states + memoized transitions for one model.

    A table run interns thousands of states, so both are stored
    compactly. ``keys[sid]`` is the canonical key of state ``sid``: its
    per-cycle free-unit rows relative to "now", one byte per unit per
    row, trailing idle rows trimmed (state 0, ``b""``, is the empty
    machine). ``transitions`` is one flat map for every state and
    timing group, ``group << sid_bits | sid -> fit | (next_sid + 1) <<
    fit_bits``: one small int per transition rather than a tuple keeps
    the thousands of long-lived entries few and small, and the state
    id in the low key bits spreads the keys over the hash table.
    ``fit`` is the offset of the earliest structural fit from the
    queried cycle and ``next_sid`` the state after committing there
    (None, stored as 0, when the successor was past the budget — the
    stall answer is still valid, only tracking is lost). :meth:`lookup`
    decodes one transition, :meth:`payload` all of them.

    :attr:`memo` is trace timing's :class:`SegmentMemo`. Its keys hold
    these tables' state ids, so it lives and is replaced with them, and
    it is never persisted.
    """

    def __init__(self, model: MachineModel, *, budget: int = DEFAULT_BUDGET) -> None:
        self.model = model
        self.budget = budget
        self.window = self._window(model)
        self.capacity = tuple(model.unit_capacity)
        #: False when a unit has more than 255 copies, which the
        #: one-byte-per-unit state encoding cannot hold: such tables
        #: learn nothing, and every query misses to the walker.
        self.encodable = all(count <= 255 for count in self.capacity)
        self._idle_row = bytes(self.capacity) if self.encodable else b""
        self._width = len(self.capacity)
        #: every state id is below the budget
        self._sid_bits = budget.bit_length()
        #: a fit is at most the window (all occupancy has expired by then)
        self._fit_bits = self.window.bit_length()
        self._fit_mask = (1 << self._fit_bits) - 1
        self.keys: list[bytes] = [b""]
        self.ids: dict[bytes, int] = {b"": 0}
        self.advance: list[int | None] = [0]  # empty advances to itself
        self.transitions: dict[int, int] = {}
        #: True once an intern was refused because of the budget.
        self.exhausted = False
        #: lean-stream walks (:class:`LeanPipeline`) these tables could
        #: not carry to the end (:class:`TableMiss`); each was redone on
        #: the interpreted path.
        self.misses = 0
        #: disk-cache entries refused (failed checksum, not a table of
        #: this model, or malformed); each was recompiled and rewritten.
        self.rejected = 0
        #: how many states the on-disk cache entry held when these
        #: tables were compiled/loaded (0 when no disk cache is in
        #: play); :func:`persist_learned` compares against it.
        self.persisted_states = 0
        #: where :func:`attach_tables` read/wrote the disk entry, so
        #: lazily learned states can be persisted back to the same file.
        self.cache_path: str | None = None
        self.memo = SegmentMemo()

    @staticmethod
    def _window(model: MachineModel) -> int:
        spans = [
            model.group_trace(g).max_event_cycle + 1
            for g in range(model.group_count)
        ]
        return max(spans, default=1)

    @property
    def states(self) -> int:
        return len(self.keys)

    # -- encoding ------------------------------------------------------------

    def _split(self, key: bytes) -> list[bytes]:
        """``key``'s rows, one ``bytes`` slice per cycle."""
        width = self._width or 1  # a unitless machine has only b""
        return [key[start : start + width] for start in range(0, len(key), width)]

    def _unpacked(self):
        """``(sid, group, fit, next_sid)`` per transition, in learning
        order: :meth:`lookup`'s decoding, without a lookup per entry."""
        bits = self._sid_bits
        mask = (1 << bits) - 1
        fit_bits = self._fit_bits
        fit_mask = self._fit_mask
        for key, packed in self.transitions.items():
            successor = packed >> fit_bits
            yield key & mask, key >> bits, packed & fit_mask, (
                successor - 1 if successor else None
            )

    # -- interning -----------------------------------------------------------

    def _intern(self, key: bytes) -> int | None:
        sid = self.ids.get(key)
        if sid is not None:
            return sid
        if len(self.keys) >= self.budget:
            self.exhausted = True
            return None
        sid = len(self.keys)
        self.ids[key] = sid
        self.keys.append(key)
        self.advance.append(None)
        return sid

    def intern_from_state(self, state: Occupancy, origin: int) -> int | None:
        """Intern the live occupancy of ``state`` at/after ``origin``."""
        if not self.encodable:
            return None
        free = state._free
        idle = self._idle_row
        rows = [bytes(row) for row in free[origin : origin + self.window]]
        while rows and rows[-1] == idle:
            rows.pop()
        return self._intern(b"".join(rows))

    def advance_to(self, sid: int, cycles: int) -> int | None:
        """The state ``cycles`` idle cycles after state ``sid``."""
        keys = self.keys
        advance = self.advance
        width = self._width
        while cycles > 0:
            key = keys[sid]
            if not key:
                return sid  # empty stays empty
            if cycles * width >= len(key):
                return 0  # all occupancy expires
            nxt = advance[sid]
            if nxt is None:
                nxt = self._intern(key[width:])
                if nxt is None:
                    return None
                advance[sid] = nxt
            sid = nxt
            cycles -= 1
        return sid

    # -- transitions ---------------------------------------------------------

    def lookup(self, sid: int, group: int) -> tuple[int, int | None] | None:
        """The transition for issuing ``group`` from state ``sid``,
        learning (and memoizing) it on first use. None only when the
        group's trace does not fit the compiled window (cannot happen
        for groups known at compile time) or the machine is not
        :attr:`encodable`."""
        key = group << self._sid_bits | sid
        packed = self.transitions.get(key)
        if packed is not None:
            successor = packed >> self._fit_bits
            return packed & self._fit_mask, successor - 1 if successor else None
        transition = self._learn(sid, group)
        if transition is not None:
            self._store(key, transition)
        return transition

    def _store(self, key: int, transition: tuple[int, int | None]) -> None:
        fit, next_sid = transition
        successor = 0 if next_sid is None else next_sid + 1
        self.transitions[key] = fit | successor << self._fit_bits

    def _learn(self, sid: int, group: int) -> tuple[int, int | None] | None:
        # The scratch is a bare occupancy timeline: a PipelineState
        # would read ``model.tables``, which is what is being compiled.
        from .stalls import _materialize, _prepare, _search
        from .state import Occupancy

        trace = self.model.group_trace(group)
        if not self.encodable or trace.max_event_cycle + 1 > self.window:
            # Rows the encoding cannot hold, or a timing group formed
            # after the tables were compiled with a longer trace than
            # the window bound (its successors would violate the
            # row-count invariant): both stay interpreted.
            return None
        prepared = _prepare(trace)
        scratch = Occupancy(self.model)
        scratch._free = [list(row) for row in self._split(self.keys[sid])]
        fit = _search(0, scratch, prepared)
        for interval in _materialize(fit, 0, prepared).intervals:
            scratch.commit_interval(interval)
        next_sid = self.intern_from_state(scratch, fit)
        return fit, next_sid

    # -- eager enumeration ---------------------------------------------------

    def enumerate(self, max_states: int) -> None:
        """Breadth-first enumeration from the empty machine: intern up
        to ``max_states`` states and memoize every transition among
        them. Deterministic, so the result is safe to persist and share
        under the model's content digest."""
        limit = min(max_states, self.budget)
        groups = list(range(self.model.group_count))
        width = self._width
        frontier = 0
        while frontier < len(self.keys) and len(self.keys) < limit:
            sid = frontier
            key = self.keys[sid]
            if key and self.advance[sid] is None:
                self.advance[sid] = self._intern(key[width:])
            for group in groups:
                key = group << self._sid_bits | sid
                if key not in self.transitions:
                    transition = self._learn(sid, group)
                    if transition is not None:
                        self._store(key, transition)
                if len(self.keys) >= limit:
                    break
            frontier += 1
        # Enumeration stopping at `limit` is not budget exhaustion: the
        # lazy path may still intern states up to `budget`.
        self.exhausted = len(self.keys) >= self.budget

    # -- persistence ---------------------------------------------------------

    def _group_signatures(self) -> list[str]:
        """Per timing group id, a digest of the group's trace signature.
        Group ids are handed out in formation order, so two models of
        one description number the same traces differently when they
        first meet instructions in a different order; a persisted table
        names its groups by these digests, and loading maps them onto
        this model's ids."""
        return [
            hashlib.sha256(
                repr(self.model.group_trace(g).signature()).encode()
            ).hexdigest()[:16]
            for g in range(self.model.group_count)
        ]

    def payload(self) -> dict:
        """The JSON-serializable table content: every interned state and
        memoized transition, eager prefix and lazily learned alike.
        (The eager prefix is deterministic; learned states depend on
        what was scheduled, but every persisted transition was computed
        by the interpreted walker, so any superset is equally valid.)

        Learned states are persisted from inside scheduling requests,
        so the decoding is kept cheap: the few distinct rows are decoded
        once and shared, and transitions are unpacked in one sweep."""
        decoded: dict[bytes, list[int]] = {}
        keys = []
        for key in self.keys:
            rows = []
            for row in self._split(key):
                values = decoded.get(row)
                if values is None:
                    values = decoded[row] = list(row)
                rows.append(values)
            keys.append(rows)
        transitions: list[list[tuple[int, int, int | None]]] = [[] for _ in self.keys]
        for sid, group, fit, next_sid in self._unpacked():
            transitions[sid].append((group, fit, next_sid))
        for table in transitions:
            table.sort()
        return {
            "version": _CACHE_VERSION,
            "window": self.window,
            "capacity": list(self.capacity),
            "groups": self._group_signatures(),
            "keys": keys,
            "advance": self.advance,
            "transitions": transitions,
        }

    def load_payload(self, payload) -> bool:
        """Adopt a persisted table. False, leaving these tables as they
        were, when it is not a table of this model (stale format,
        different group set or unit inventory) or is malformed."""
        if not isinstance(payload, dict) or (
            payload.get("version"),
            payload.get("window"),
            payload.get("capacity"),
        ) != (_CACHE_VERSION, self.window, list(self.capacity)):
            return False
        try:
            ids = {sig: gid for gid, sig in enumerate(self._group_signatures())}
            gids = {
                index: ids.pop(sig, None)
                for index, sig in enumerate(payload["groups"])
            }
            if ids or None in gids.values():
                return False  # a different group set
            keys = [b"".join(bytes(row) for row in key) for key in payload["keys"]]
            advance = payload["advance"]
            transitions = payload["transitions"]
            width = self._width or 1
            if (
                not keys
                or keys[0] != b""
                or len(advance) != len(keys)
                or len(transitions) != len(keys)
                or any(len(key) % width for key in keys)
            ):
                return False
            known = min(len(keys), self.budget)
            window = self.window
            packed = {}
            for sid, table in enumerate(transitions[:known]):
                for group, fit, next_sid in table:
                    if not 0 <= fit <= window:
                        return False
                    successor = (
                        next_sid + 1
                        if next_sid is not None and 0 <= next_sid < known
                        else 0
                    )
                    packed[gids[group] << self._sid_bits | sid] = (
                        fit | successor << self._fit_bits
                    )
            advance = [
                sid if sid is not None and 0 <= sid < known else None
                for sid in advance[:known]
            ]
        except (KeyError, TypeError, ValueError):
            return False
        self.keys = keys[:known]
        self.ids = {key: sid for sid, key in enumerate(self.keys)}
        self.advance = advance
        self.advance[0] = 0
        self.transitions = packed
        self.memo = SegmentMemo()  # its keys named the old state ids
        return True


#: Entries trace timing's segment memo holds; storing past this evicts
#: the oldest quarter. A full Tables 1-3 regeneration stores about 2.3k.
SEGMENT_MEMO_LIMIT = 1 << 15


class SegmentMemo:
    """Trace timing's memo: how a straight-line segment advances a lean
    stream, by the stream's state at the segment's entry.

    A segment's timing depends only on the table state id at its entry
    and on the register history it reads, taken relative to the entry
    cycle (the last issue cycle, which is the state's origin): the
    FastSim observation (Schnarr and Larus, ASPLOS 1998). A history
    entry at or below the segment's smallest offset for it can never
    bind, since issue cycles only grow, so keys clamp there and
    otherwise-distinct stale histories share an entry.

    ``entries`` maps ``(segment id, state id, *clamped offsets)`` to
    ``(cycles advanced, exit state id, overwrites, maxima)``, the last
    two being the history write-back relative to the entry cycle;
    :func:`repro.pipeline.timing.timed_run` builds and applies them.
    ``segments`` interns segment contents (their lean records) to small
    ids that are never reused, so clearing it never aliases a key.
    """

    def __init__(self) -> None:
        self.entries: dict[tuple, tuple] = {}
        #: lean records of a segment -> (segment id, key layout).
        self.segments: dict[tuple, tuple] = {}
        self._next_id = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def segment(self, records: tuple) -> tuple[int, tuple]:
        """``(id, key layout)`` of the segment whose instructions have
        ``records`` (:func:`_lean_record`). The key layout lists, per
        history slot whose entry value the segment can read, ``(slot,
        floor)``: the smallest offset any of its bounds subtracts. A
        register's ready cycle stops mattering once the segment writes
        it; its read cycle never does, because reads only raise it."""
        known = self.segments.get(records)
        if known is not None:
            return known
        floors: dict[int, int] = {}
        written: set[int] = set()
        for _, bounds, _, writes in records:
            for index, rel in bounds:
                if index not in written and rel < floors.get(index, rel + 1):
                    floors[index] = rel
            written.update(index for index, _ in writes)
        if len(self.segments) >= SEGMENT_MEMO_LIMIT:
            self.segments.clear()
        known = self.segments[records] = (self._next_id, tuple(floors.items()))
        self._next_id += 1
        return known

    def store(self, key: tuple, value: tuple) -> None:
        entries = self.entries
        if len(entries) >= SEGMENT_MEMO_LIMIT:
            stale = list(islice(entries, SEGMENT_MEMO_LIMIT // 4))
            for old in stale:
                del entries[old]
            self.evictions += len(stale)
        entries[key] = value


class TableMiss(Exception):
    """A lean table walk hit a state the tables cannot serve; the
    caller must redo the work with the full interpreted machinery."""


#: Dense register codes (:attr:`~repro.isa.registers.Reg.code`) stay
#: below this bound. A lean stream keeps its register history in one
#: flat list: the cycle each register's latest value becomes usable at
#: ``code``, and one past the latest cycle it was read at
#: ``_REG_CODES + code``.
_REG_CODES = len(RegKind) << 5


def _lean_record(timing: InstructionTiming) -> tuple:
    """``(group, bounds, reads, writes)`` for a lean issue of
    ``timing``, memoized on the timing object.

    ``bounds`` lists every register lower bound on the start cycle as
    ``(history index, rel)``: ``start >= history[index] - rel``. A read
    is bounded by its register's write (RAW); a write by the previous
    write (WAW) and by one past the last read (WAR). ``reads`` and
    ``writes`` are the history updates an issue commits. Registers map
    to their dense codes one to one, so the flat history keeps every
    register apart."""
    try:
        return timing._lean_record
    except AttributeError:
        reads = [(reg.code, rel) for reg, rel in timing.reads]
        writes = [(reg.code, rel) for reg, rel in timing.writes]
        bounds = reads + [
            bound
            for code, rel in writes
            for bound in ((code, rel), (_REG_CODES + code, rel))
        ]
        record = (
            timing.group,
            tuple(bounds),
            tuple((_REG_CODES + code, rel + 1) for code, rel in reads),
            tuple(writes),
        )
        object.__setattr__(timing, "_lean_record", record)
        return record


class LeanPipeline:
    """Table-only pipeline stream: state id + register history, no
    occupancy timeline, no interval arithmetic.

    This is the one stall query of the compiled tables — an issue is a
    couple of dictionary lookups plus register-history updates. A bare
    lean stream has no interpreted walker to fall back to mid-stream
    (the occupancy rows were never maintained), so the moment a query
    cannot be served from the tables (:class:`TableMiss`) the caller
    restarts the whole stream on a full
    :class:`~repro.pipeline.state.PipelineState`: the same stream kept
    beside an occupancy timeline, which on a miss answers from the
    interpreted walker instead.
    """

    __slots__ = ("tables", "sid", "origin", "history")

    def __init__(self, tables: PipelineTables) -> None:
        self.tables = tables
        #: table state id of the occupancy at/after ``origin``; None
        #: once tracking is lost (successor past the interning budget).
        self.sid: int | None = 0
        #: absolute cycle ``sid`` is relative to.
        self.origin = 0
        #: register history, laid out as described at ``_REG_CODES``.
        self.history = [0] * (2 * _REG_CODES)

    def query(self, cycle: int, timing: InstructionTiming) -> tuple[int, int | None]:
        """Earliest issue cycle >= ``cycle`` for ``timing``, plus the
        table state after committing there. Raises :class:`TableMiss`
        when the tables cannot answer: tracking was lost, ``cycle`` lies
        before the state's origin, or the state or transition is not in
        the tables.

        Register hazards are monotone lower bounds on the start cycle (a
        check that passes at ``s`` passes at every ``s' > s``), so the
        earliest legal issue is the first *structural* fit at or after
        the register lower bound — which is exactly what the transition
        table stores per (state, timing group)."""
        sid = self.sid
        origin = self.origin
        if sid is None or cycle < origin:
            raise TableMiss
        group, bounds, _, _ = _lean_record(timing)
        history = self.history
        for index, rel in bounds:
            bound = history[index] - rel
            if bound > cycle:
                cycle = bound
        tables = self.tables
        sid = tables.advance_to(sid, cycle - origin)
        if sid is None:
            raise TableMiss
        transition = tables.lookup(sid, group)
        if transition is None:
            raise TableMiss
        return cycle + transition[0], transition[1]

    def commit(
        self, timing: InstructionTiming, issue_cycle: int, next_sid: int | None
    ) -> None:
        """Commit ``timing`` issued at ``issue_cycle``, moving to table
        state ``next_sid`` (None loses tracking: the next query
        misses)."""
        self.sid = next_sid
        self.origin = issue_cycle
        _, _, reads, writes = _lean_record(timing)
        history = self.history
        for index, rel in reads:
            cycle = issue_cycle + rel
            if cycle > history[index]:
                history[index] = cycle
        for index, rel in writes:
            history[index] = issue_cycle + rel

    def issue(self, cycle: int, timings) -> int:
        """Issue ``timings`` in order and commit each, the first at the
        earliest cycle >= ``cycle`` and every later one at the earliest
        cycle >= the issue before it; the last issue cycle. This is
        :meth:`query` then :meth:`commit` per timing, with the state id,
        origin and history kept in locals, for streams that never weigh
        candidates against each other (block timing, the optimizer's
        scores, trace timing). Raises :class:`TableMiss` where
        :meth:`query` would, after which the stream is spent: the
        caller redoes it whole."""
        sid = self.sid
        origin = self.origin
        history = self.history
        advance_to = self.tables.advance_to
        lookup = self.tables.lookup
        for timing in timings:
            if sid is None or cycle < origin:
                raise TableMiss
            group, bounds, reads, writes = _lean_record(timing)
            for index, rel in bounds:
                bound = history[index] - rel
                if bound > cycle:
                    cycle = bound
            at = advance_to(sid, cycle - origin)
            if at is None:
                raise TableMiss
            transition = lookup(at, group)
            if transition is None:
                raise TableMiss
            fit, sid = transition
            cycle += fit
            origin = cycle
            for index, rel in reads:
                rel += cycle
                if rel > history[index]:
                    history[index] = rel
            for index, rel in writes:
                history[index] = cycle + rel
        self.sid = sid
        self.origin = origin
        return cycle

    def value_ready(self, reg: Reg) -> int:
        """First absolute cycle the register's current value is usable
        (0 when never written in this stream)."""
        return self.history[reg.code]

    def last_read(self, reg: Reg) -> int:
        """Last absolute cycle the register was read (-1 when never)."""
        return self.history[_REG_CODES + reg.code] - 1


def _cache_path(digest: str) -> str:
    return os.path.join(_cache_dir(), f"tables-{digest}-v{_CACHE_VERSION}.json")


def _expand_variants(model: MachineModel) -> None:
    """Form every timing group the ISA can produce, so the group set —
    and therefore the compiled table content — is complete and
    deterministic before enumeration. A variant the description cannot
    time (it raises :class:`~repro.spawn.model.ModelError`) never
    issues, so it needs no group."""
    from ..isa.opcodes import all_mnemonics

    for mnemonic in all_mnemonics():
        if not model.evaluator.has_sem(mnemonic):
            continue
        for uses_imm in (False, True):
            try:
                model._variant(mnemonic, uses_imm)
            except ModelError:
                pass


def attach_tables(
    model: MachineModel,
    *,
    budget: int = DEFAULT_BUDGET,
    use_disk_cache: bool = True,
) -> PipelineTables:
    """Compile ``model``'s transition tables and make them the model's.

    This is the one builder: ``model.tables`` calls it on first use, and
    calling it directly builds them at a chosen moment (or with another
    ``budget``), replacing any earlier tables. Every stall query on the
    model answers through them, byte-identically to the interpreted
    walker.

    The eager prefix is persisted under the model's content digest
    (:func:`repro.parallel.fingerprint.model_digest`) when the model
    records its SADL source, in ``$REPRO_TABLE_CACHE_DIR`` or
    ``$TMPDIR/repro-tables-<uid>``, so parallel workers and later
    processes skip recompilation. An entry that fails its checksum or
    is not a table of this model is counted in
    :attr:`PipelineTables.rejected`, recompiled and rewritten.
    """
    from ..parallel.fingerprint import model_digest

    _expand_variants(model)
    tables = PipelineTables(model, budget=budget)
    path = None
    if use_disk_cache and tables.encodable and model.source is not None:
        path = _cache_path(model_digest(model))
    loaded = False
    if path is not None and os.path.exists(path):
        loaded = tables.load_payload(_read_entry(path))
        if not loaded:  # corrupt or stale: recompiled and rewritten below
            tables.rejected += 1
    if not loaded:
        tables.enumerate(EAGER_STATES)
        if path is not None:
            _atomic_write(path, tables.payload())
    if path is not None:
        tables.cache_path = path
        tables.persisted_states = tables.states
    model.tables = tables
    return tables


#: Don't bother persisting fewer than this many newly learned states:
#: re-learning them costs less than a cache write is worth.
PERSIST_MIN_GROWTH = 64


def persist_learned(
    model: MachineModel, *, min_growth: int = PERSIST_MIN_GROWTH
) -> bool:
    """Write states learned lazily *during scheduling* back to the
    disk cache, so the next process to compile this model's tables
    starts with them instead of re-learning.

    The eager BFS prefix covers the structurally common states, but a
    real workload's first pass still interns on the order of a thousand
    additional states (`pipeline.table_fallbacks` territory) — work
    that was previously redone by every fresh worker process. Persisting
    is last-writer-wins with a size guard: if the on-disk entry already
    holds at least as many states (another worker got there first),
    nothing is written. Returns True when a write happened. No-ops
    when the model's tables did not come through the disk cache, and
    after a successful persist until another ``min_growth`` states are
    learned — steady state writes nothing.
    """
    tables = model.tables
    if tables.cache_path is None:
        return False
    if tables.states - tables.persisted_states < min_growth:
        return False
    on_disk = _read_entry(tables.cache_path)
    keys = on_disk.get("keys") if on_disk is not None else None
    if isinstance(keys, list) and len(keys) >= tables.states:
        tables.persisted_states = tables.states
        return False
    _atomic_write(tables.cache_path, tables.payload())
    tables.persisted_states = tables.states
    return True


def _checksum(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def _read_entry(path: str) -> dict | None:
    """The payload a cache file holds, or None when it cannot be read,
    fails its checksum, or holds no JSON object. The file is the
    checksum of the JSON text on the first line, then the text, so
    verifying needs no re-serialization."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            checksum, _, text = handle.read().partition("\n")
        if checksum != _checksum(text):
            return None
        payload = json.loads(text)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _atomic_write(path: str, payload: dict) -> None:
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # One-shot ``dumps`` runs the C encoder; streaming
                # ``dump`` runs the pure-Python one, about 8x slower on
                # thousands of states, and learned states are persisted
                # from inside scheduling requests. Same text either way.
                text = json.dumps(payload, separators=(",", ":"))
                handle.write(f"{_checksum(text)}\n{text}")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        # A read-only or full cache directory only costs recompilation.
        pass
