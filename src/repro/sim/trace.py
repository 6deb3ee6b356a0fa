"""Event tracing: message-sequence records and ASCII sequence charts.

The paper explains its protocols with message-sequence diagrams
(figures 1 and 2).  `TraceLog` records runtime-level events as they
happen so any run can be rendered the same way — the E3 bench and the
`examples/figure2.py` script regenerate figure 2 from a live run
rather than from the model.

Tracing is always on but bounded; the log keeps the most recent
``capacity`` events.  Recording is cheap because a record stays flat:
`TraceLog.emit` appends one plain tuple ``(time, actor, event, detail,
span)`` to a bounded deque, and a causal span rides in it as a flat
tuple in `SPAN_FIELDS` order.  `TraceEvent` objects and span payload
dicts are built only when the log is read (`events`, `select`, `dump`,
`sequence_chart`, `to_jsonl`), and for each attached sink at emit
time, so a run nobody reads pays for no event object.

For offline analysis the log exports to JSON Lines (`to_jsonl`) and
reloads (`from_jsonl`) into a detached log that renders the same
charts; `repro.obs.JsonlTraceWriter` streams events to disk as they
are emitted, escaping the capacity bound.  The record schema is
documented in docs/OBSERVABILITY.md and versioned by
`TRACE_SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
from collections import abc, deque
from dataclasses import dataclass
from itertools import starmap
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

from repro.sim.engine import Engine

#: bumped whenever the exported JSONL record shape changes
TRACE_SCHEMA_VERSION = 2
#: schema versions `from_jsonl` still understands (v1 records are v2
#: records without the optional ``span`` field)
SUPPORTED_TRACE_SCHEMA_VERSIONS = (1, 2)

#: the keys of a span payload, in the order a flat span tuple holds them
#: (`repro.obs.causal.SpanTracker` records spans as such tuples)
SPAN_FIELDS = ("trace", "id", "parent", "layer", "name", "host", "t0", "t1")

#: one stored record: ``(time, actor, event, detail, span)``, where
#: ``span`` is None, a flat tuple in `SPAN_FIELDS` order, or a dict
Record = Tuple[float, str, str, Dict[str, object], object]


def span_payload(span: object) -> Optional[Dict[str, object]]:
    """The payload dict of a stored span.  A flat tuple becomes a dict
    keyed by `SPAN_FIELDS`; a dict (or None) is returned as it is."""
    if type(span) is tuple:
        return dict(zip(SPAN_FIELDS, span))
    return span  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    time: float
    actor: str
    event: str
    #: free-form details (message kind, link, seq, peer, ...)
    detail: Dict[str, object]
    #: optional causal-span payload (schema v2; see repro.obs.causal)
    span: Optional[Dict[str, object]] = None

    def describe(
        self,
        time_width: int = 10,
        actor_width: int = 12,
        event_width: int = 16,
    ) -> str:
        bits = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        stamp = f"{self.time:.3f}"
        return (
            f"[{stamp:>{max(time_width, len(stamp))}}] "
            f"{self.actor:<{max(actor_width, len(self.actor))}} "
            f"{self.event:<{max(event_width, len(self.event))}} {bits}"
        )

    # JSONL record conversion ------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """The stable export shape: ``{"t", "actor", "event", "detail"}``
        plus ``"span"`` when (and only when) the event carries one."""
        rec: Dict[str, object] = {
            "t": self.time,
            "actor": self.actor,
            "event": self.event,
            "detail": dict(self.detail),
        }
        if self.span is not None:
            rec["span"] = dict(self.span)
        return rec

    def to_json(self) -> str:
        # non-JSON detail values (enums, objects) degrade to repr so an
        # export never fails mid-run
        return json.dumps(self.to_record(), sort_keys=True, default=repr)

    @classmethod
    def from_record(cls, rec: Dict[str, object]) -> "TraceEvent":
        return cls(*_parse(rec))


def _parse(rec: Dict[str, object]) -> Record:
    """The stored form of one exported event record."""
    span = rec.get("span")
    return (
        float(rec["t"]),
        str(rec["actor"]),
        str(rec["event"]),
        dict(rec.get("detail", {})),
        dict(span) if span is not None else None,
    )


def _build(
    time: float,
    actor: str,
    event: str,
    detail: Dict[str, object],
    span: object,
) -> TraceEvent:
    """The `TraceEvent` of one stored record."""
    return TraceEvent(time, actor, event, detail, span_payload(span))


class TraceEvents(abc.Sequence):
    """A live, read-only view of a log's records as `TraceEvent`s.

    Each event is built as it is read, so iterating costs one build per
    record and taking the length builds nothing."""

    __slots__ = ("_records",)

    def __init__(self, records: Deque[Record]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(_build, self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_build(*rec) for rec in list(self._records)[index]]
        return _build(*self._records[index])


def trace_header(capacity: Optional[int] = None) -> Dict[str, object]:
    """The JSONL stream header record (first line of every export)."""
    head: Dict[str, object] = {
        "schema": "repro.trace",
        "version": TRACE_SCHEMA_VERSION,
    }
    if capacity is not None:
        head["capacity"] = capacity
    return head


class TraceLog:
    """A bounded, append-only log of simulation events.

    ``engine`` may be None for a *detached* log (one rebuilt by
    `from_jsonl`): it can be queried and rendered but not emitted to.
    """

    def __init__(self, engine: Optional[Engine], capacity: int = 100_000) -> None:
        self.engine = engine
        self.capacity = capacity
        #: the stored records, oldest first (see `Record`)
        self.records: Deque[Record] = deque(maxlen=capacity)
        #: the same records as `TraceEvent`s, built as they are read
        self.events = TraceEvents(self.records)
        self.enabled = True
        #: streaming subscribers, called with each TraceEvent as it is
        #: recorded (see `repro.obs.JsonlTraceWriter`)
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def emit(
        self,
        actor: str,
        event: str,
        span: object = None,
        **detail: object,
    ) -> None:
        """Record one event.  ``span`` is None, a flat tuple in
        `SPAN_FIELDS` order, or a payload dict.  Attached sinks get the
        built `TraceEvent` now; the log keeps only the flat record."""
        if not self.enabled:
            return
        engine = self.engine
        if engine is None:
            raise ValueError("cannot emit into a detached (replayed) TraceLog")
        record = (engine.now, actor, event, detail, span)
        self.records.append(record)
        if self._sinks:
            ev = _build(*record)
            for sink in self._sinks:
                sink(ev)

    # ------------------------------------------------------------------
    # streaming subscription
    # ------------------------------------------------------------------
    def attach(self, sink: Callable[[TraceEvent], None]) -> None:
        """Subscribe ``sink`` to every future event."""
        self._sinks.append(sink)

    def detach(self, sink: Callable[[TraceEvent], None]) -> None:
        self._sinks.remove(sink)

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def to_jsonl(self, header: bool = True) -> str:
        """The whole log as JSON Lines, one event per line, newest last.

        The first line (when ``header`` is true) is a stream header
        carrying the schema version; every other line is an event
        record (`TraceEvent.to_record`).
        """
        lines = []
        if header:
            lines.append(json.dumps(trace_header(self.capacity),
                                    sort_keys=True))
        lines.extend(ev.to_json() for ev in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(
        cls,
        source: Union[str, Iterable[str]],
        capacity: int = 100_000,
    ) -> "TraceLog":
        """Rebuild a detached log from `to_jsonl` output (a string or an
        iterable of lines).  Header lines are recognised and skipped;
        a header with an unknown schema version raises ValueError."""
        if isinstance(source, str):
            source = source.splitlines()
        log = cls(engine=None, capacity=capacity)
        for line in source:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "schema" in rec:
                if rec.get("version") not in SUPPORTED_TRACE_SCHEMA_VERSIONS:
                    raise ValueError(
                        f"unsupported trace schema {rec.get('schema')!r} "
                        f"v{rec.get('version')!r}"
                    )
                continue
            log.records.append(_parse(rec))
        return log

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def select(
        self,
        actor: Optional[str] = None,
        event: Optional[str] = None,
        link: Optional[int] = None,
    ) -> List[TraceEvent]:
        out = []
        for rec in self.records:
            _, who, name, detail, _ = rec
            if actor is not None and who != actor:
                continue
            if event is not None and name != event:
                continue
            if link is not None and detail.get("link") != link:
                continue
            out.append(_build(*rec))
        return out

    def dump(self, limit: int = 200) -> str:
        events = self.events[-limit:]
        if not events:
            return ""
        # columns grow with the data so long actor names or 6+ digit
        # timestamps never shear the layout
        time_width = max(10, *(len(f"{ev.time:.3f}") for ev in events))
        actor_width = max(12, *(len(ev.actor) for ev in events))
        event_width = max(16, *(len(ev.event) for ev in events))
        lines = [
            ev.describe(time_width, actor_width, event_width)
            for ev in events
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # sequence chart (figures 1/2 style)
    # ------------------------------------------------------------------
    def sequence_chart(
        self,
        actors: Sequence[str],
        events: Optional[Iterable[str]] = None,
        link: Optional[int] = None,
        width: int = 24,
    ) -> str:
        """Render send events between ``actors`` as an ASCII sequence
        chart.  Events must carry ``peer`` (destination actor) and
        ``kind`` details to be drawn; others are listed inline.
        """
        wanted = set(events) if events is not None else None
        cols = {a: i for i, a in enumerate(actors)}
        total = width * len(actors)

        def lifelines() -> List[str]:
            row = [" "] * total
            for i in range(len(actors)):
                row[i * width] = "|"
            return row

        lines = ["".join(a.ljust(width) for a in actors),
                 "".join(lifelines())]
        for _, src, name, detail, _ in self.records:
            if wanted is not None and name not in wanted:
                continue
            if link is not None and detail.get("link") != link:
                continue
            dst = detail.get("peer")
            label = str(detail.get("kind", name))
            row = lifelines()
            if src in cols and isinstance(dst, str) and dst in cols \
                    and cols[src] != cols[dst]:
                i, j = cols[src], cols[dst]
                lo, hi = min(i, j), max(i, j)
                start, end = lo * width + 1, hi * width - 1
                body = label.center(end - start - 1, "-")
                if j > i:
                    segment = body + ">"
                else:
                    segment = "<" + body
                row[start:end] = list(segment[: end - start])
            elif src in cols:
                i = cols[src]
                note = f" {label}"
                pos = i * width + 1
                row[pos : pos + len(note)] = list(note[: total - pos])
            else:
                continue
            lines.append("".join(row).rstrip())
        return "\n".join(lines)
