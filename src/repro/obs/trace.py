"""Low-overhead event tracing for the timing models.

Hook sites hold an ``Optional[EventTracer]`` and guard every emission
with ``if tracer is not None`` — tracing *off* therefore costs exactly
one branch per hook, and never allocates.  When a tracer is attached,
each hook records a :class:`TraceEvent` carrying the simulation time,
a dotted event type (``l2.access``, ``run.warmup_end``), and free-form
scalar fields.

Capture modes
-------------

* **full** (``capacity=None``) — every event is kept; right for short
  diagnostic runs.
* **ring buffer** (``capacity=N``) — the newest N events are kept and
  :attr:`EventTracer.dropped` counts what fell off the front; right
  for long runs where only the tail matters.

Per-type filtering (``types={"l2.access"}``) drops non-matching events
at the emission site before they are stored, so a narrow trace of a
long run stays cheap.

Export is JSONL — one ``{"time": ..., "type": ..., <fields>}`` object
per line (the schema is documented in docs/OBSERVABILITY.md) — which
streams, greps, and diffs well.  Tracing is strictly observational:
no simulation state ever depends on whether a tracer is attached,
which `tests/test_obs.py` asserts end to end.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: keys every JSONL trace line carries; everything else is event fields.
RESERVED_KEYS = ("time", "type")


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One traced event: when, what kind, and its scalar payload."""

    time: int
    type: str
    fields: Tuple[Tuple[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """The JSONL encoding of this event."""
        doc: Dict[str, Any] = {"time": self.time, "type": self.type}
        doc.update(self.fields)
        return doc


class EventTracer:
    """Collects :class:`TraceEvent` objects from instrumented hook sites."""

    def __init__(self, capacity: Optional[int] = None,
                 types: Optional[Iterable[str]] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None for full capture)")
        self.capacity = capacity
        self.types = None if types is None else frozenset(types)
        self._events: deque = deque(maxlen=capacity)
        #: events aged out of the ring buffer (always 0 for full capture).
        self.dropped = 0
        #: events rejected by the type filter.
        self.filtered = 0

    def emit(self, event_type: str, time: int, **fields: Any) -> None:
        """Record one event (subject to the type filter / ring capacity).

        ``fields`` must be JSON-serializable scalars; they are stored
        as-is and only encoded at export time.
        """
        if self.types is not None and event_type not in self.types:
            self.filtered += 1
            return
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(
            TraceEvent(time=time, type=event_type,
                       fields=tuple(sorted(fields.items()))))

    # -- inspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def counts_by_type(self) -> Dict[str, int]:
        """Retained event counts per type, sorted by type."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, Any]:
        """The manifest-embeddable description of this trace."""
        return {
            "events": len(self._events),
            "dropped": self.dropped,
            "filtered": self.filtered,
            "capacity": self.capacity,
            "types": None if self.types is None else sorted(self.types),
            "by_type": self.counts_by_type(),
        }

    # -- persistence -------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        """Write the retained events to ``path``, one JSON object per
        line, oldest first.  Returns the number of lines written."""
        with open(path, "w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event.as_dict(), sort_keys=False))
                handle.write("\n")
        return len(self._events)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Read a JSONL trace written by :meth:`EventTracer.write_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                time, event_type = doc["time"], doc["type"]
            except (ValueError, KeyError) as error:
                raise ValueError(f"{path}:{lineno}: not a trace event "
                                 f"({error})") from None
            fields = tuple(sorted(
                (k, v) for k, v in doc.items() if k not in RESERVED_KEYS))
            events.append(TraceEvent(time=time, type=event_type, fields=fields))
    return events
