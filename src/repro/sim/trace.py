"""Structured trace log for simulations.

Protocols emit trace records ("site 2 delivered commit request for T7 at
t=41.2") through a shared :class:`TraceLog`.  Tests assert on traces; the
benchmark harness keeps tracing disabled for speed.

A ``capacity`` bounds the log (long soaks must stay memory-bounded; see
E13): it keeps the *newest* ``capacity`` records in a circular buffer, so
the records nearest the failure being diagnosed survive and memory does
not grow with simulated time.  ``counts`` keeps incrementing past the cap
and ``dropped`` counts exactly the records overwritten, so ``truncated``
flags any incomplete history (the audit checks it).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One structured trace event."""

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time:10.3f}] {self.source:<12} {self.kind:<20} {extras}"


class TraceLog:
    """Append-only trace sink with simple filtering helpers.

    ``enabled=False`` turns :meth:`emit` into a counter-only fast path so
    benchmarks don't pay for record construction.
    """

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.enabled = enabled
        self.capacity = capacity
        self._buffer: list[TraceRecord] = []
        #: Next slot to overwrite once the ring is full.
        self._ring_head = 0
        self.counts: Counter[str] = Counter()
        #: Records overwritten because ``capacity`` was reached.  ``counts``
        #: keeps incrementing past the cap, so a non-zero value here is the
        #: only sign that ``records`` is an incomplete history — consumers
        #: (audit, timeline, tests) must check :attr:`truncated`.
        self.dropped = 0

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Record one event (cheap no-op body when disabled)."""
        self.counts[kind] += 1
        if not self.enabled:
            return
        buffer = self._buffer
        if self.capacity is not None and len(buffer) >= self.capacity:
            self.dropped += 1
            # Ring wraparound: overwrite the oldest slot in place, so the
            # buffer always holds the newest ``capacity`` records.
            head = self._ring_head
            buffer[head] = TraceRecord(time, source, kind, detail)
            self._ring_head = head + 1 if head + 1 < self.capacity else 0
            return
        buffer.append(TraceRecord(time, source, kind, detail))

    @property
    def records(self) -> list[TraceRecord]:
        """Retained records in emission (chronological) order.

        An unbounded or not-yet-wrapped log exposes the underlying list
        itself; a wrapped ring returns a rotated copy so iteration order is
        still oldest-to-newest.
        """
        if self._ring_head:
            head = self._ring_head
            return self._buffer[head:] + self._buffer[:head]
        return self._buffer

    @property
    def truncated(self) -> bool:
        """True when at least one record was dropped at capacity."""
        return self.dropped > 0

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        **detail: Any,
    ) -> list[TraceRecord]:
        """Records matching every given criterion."""
        return list(self.iter_filtered(kind=kind, source=source, **detail))

    def iter_filtered(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        **detail: Any,
    ) -> Iterator[TraceRecord]:
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if source is not None and record.source != source:
                continue
            if any(record.detail.get(k) != v for k, v in detail.items()):
                continue
            yield record

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were emitted (works when disabled)."""
        return self.counts[kind]

    def dump(self, records: Optional[Iterable[TraceRecord]] = None) -> str:
        """Human-readable rendering, mainly for debugging failed tests."""
        return "\n".join(str(r) for r in (records if records is not None else self.records))

    def clear(self) -> None:
        self._buffer.clear()
        self._ring_head = 0
        self.counts.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)
