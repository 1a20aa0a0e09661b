"""Recorders: where the pipeline's telemetry goes.

Three implementations of one tiny protocol:

* :class:`NullRecorder` — the default everywhere. ``enabled`` is False
  and every instrumented call site checks it (or uses the shared no-op
  span), so a disabled run does no classification work and produces
  byte-identical schedules and cycle counts.
* :class:`MetricsRecorder` — aggregates counters/histograms and phase
  timings into a :class:`~repro.obs.metrics.MetricsRegistry`. With
  ``telemetry=False`` it keeps those and skips stall attribution and
  decision telemetry, so the hot paths stay on the compiled tables.
* :class:`TraceRecorder` — everything MetricsRecorder does, plus a
  Chrome trace-event log (load the written file in ``chrome://tracing``
  or https://ui.perfetto.dev). Nested ``span`` calls become nested
  slices on one track.

The package is zero-dependency and imports nothing from the rest of
``repro``, so any layer may depend on it without cycles.
"""

from __future__ import annotations

import json
import time
from typing import Protocol, runtime_checkable

from .metrics import MetricsRegistry


@runtime_checkable
class Recorder(Protocol):
    """What instrumented code expects from a telemetry sink."""

    #: False promises that count/observe/span are no-ops, letting hot
    #: paths skip even the work of building label dicts.
    enabled: bool
    #: True asks for every stall to be attributed to its hazard and
    #: every scheduling decision recorded; hot paths branch on this,
    #: and leave the compiled stall tables for the walker when it is set.
    telemetry: bool
    metrics: MetricsRegistry | None

    def span(self, name: str, **args: object):
        """Context manager timing one phase (nested spans nest)."""

    def count(self, name: str, value: float = 1, **labels: object) -> None: ...

    def observe(self, name: str, value: float, **labels: object) -> None: ...


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Discards everything; the shared default sink."""

    enabled = False
    telemetry = False
    metrics: MetricsRegistry | None = None

    def span(self, name: str, **args: object) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass


#: The process-wide disabled sink. Passing this (or None) to any
#: instrumented API is the "observability off" state.
NULL_RECORDER = NullRecorder()


class _Span:
    """Times one phase; on exit reports to the owning recorder."""

    __slots__ = ("_recorder", "name", "args", "_start")

    def __init__(self, recorder: "MetricsRecorder", name: str, args: dict) -> None:
        self._recorder = recorder
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._recorder._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._recorder._end_span(self.name, self.args, self._start)
        return False


class MetricsRecorder:
    """Aggregating sink: counters, histograms, and phase timers, plus
    stall attribution and decision telemetry unless ``telemetry`` is
    False."""

    enabled = True

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        *,
        clock=time.perf_counter,
        telemetry: bool = True,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self.telemetry = telemetry

    def span(self, name: str, **args: object) -> _Span:
        return _Span(self, name, args)

    def count(self, name: str, value: float = 1, **labels: object) -> None:
        self.metrics.inc(name, value, **labels)

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.metrics.observe(name, value, **labels)

    def _end_span(self, name: str, args: dict, start: float) -> None:
        self.metrics.add_time(name, self._clock() - start)


class TraceRecorder(MetricsRecorder):
    """MetricsRecorder plus a Chrome trace-event JSON log."""

    def __init__(
        self, metrics: MetricsRegistry | None = None, *, clock=time.perf_counter
    ) -> None:
        super().__init__(metrics, clock=clock)
        self.events: list[dict] = []
        self._epoch = self._clock()

    def _end_span(self, name: str, args: dict, start: float) -> None:
        end = self._clock()
        self.metrics.add_time(name, end - start)
        event = {
            "name": name,
            "ph": "X",  # complete event: ts + dur
            "ts": (start - self._epoch) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
        }
        if args:
            event["args"] = {k: _jsonable(v) for k, v in args.items()}
        self.events.append(event)

    def trace_json(self) -> dict:
        """The Chrome trace-event file content (JSON object format)."""
        metadata = {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro scheduling pipeline"},
        }
        return {
            "traceEvents": [metadata] + self.events,
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.trace_json(), handle)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Keys every trace event must carry, per the Chrome trace-event spec.
_TRACE_REQUIRED_KEYS = frozenset({"name", "ph", "pid", "tid"})


def validate_trace(payload: dict) -> list[str]:
    """Schema-check a Chrome trace-event payload; returns problems.

    An empty list means the payload is well-formed: every event carries
    the required keys, duration events have non-negative ``ts``/``dur``,
    ``"B"``/``"E"`` span events balance per (pid, tid) track, and
    complete (``"X"``) events nest properly — a child slice never
    escapes its enclosing parent. Used by the trace tests and available
    to external consumers of ``--trace`` output.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    open_spans: dict[tuple, list[str]] = {}
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {position} is not an object")
            continue
        missing = _TRACE_REQUIRED_KEYS - event.keys()
        if missing:
            problems.append(
                f"event {position} ({event.get('name', '?')!r}) missing "
                f"keys {sorted(missing)}"
            )
            continue
        phase = event["ph"]
        track = (event["pid"], event["tid"])
        if phase in ("X", "B", "E"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(
                    f"event {position} ({event['name']!r}) has bad ts {ts!r}"
                )
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {position} ({event['name']!r}) has bad dur {dur!r}"
                )
        elif phase == "B":
            open_spans.setdefault(track, []).append(event["name"])
        elif phase == "E":
            stack = open_spans.get(track)
            if not stack:
                problems.append(
                    f"event {position}: 'E' for {event['name']!r} with no "
                    f"open 'B' span on track {track}"
                )
            else:
                stack.pop()
    for track, stack in open_spans.items():
        for name in stack:
            problems.append(f"unclosed 'B' span {name!r} on track {track}")
    # Complete events on one track must nest: sorted by start, each
    # event either follows the previous or is contained within it.
    by_track: dict[tuple, list[tuple[float, float, str]]] = {}
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X":
            if isinstance(event.get("ts"), (int, float)) and isinstance(
                event.get("dur"), (int, float)
            ):
                by_track.setdefault((event["pid"], event["tid"]), []).append(
                    (event["ts"], event["ts"] + event["dur"], event["name"])
                )
    for track, slices in by_track.items():
        stack: list[tuple[float, float, str]] = []
        # Longest-first at equal starts, so a parent precedes the child
        # slices that begin on its first instant.
        for start, end, name in sorted(slices, key=lambda s: (s[0], -s[1], s[2])):
            while stack and start >= stack[-1][1]:
                stack.pop()
            if stack and end > stack[-1][1]:
                problems.append(
                    f"slice {name!r} on track {track} overlaps "
                    f"{stack[-1][2]!r} without nesting"
                )
            stack.append((start, end, name))
    return problems
