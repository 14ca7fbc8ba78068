"""Broadcast message envelope and identity.

Every broadcast primitive wraps application payloads in a
:class:`BroadcastMessage`.  Identity is ``(sender, sender_seq)``: globally
unique because each site numbers its own broadcasts.

These headers are allocated once per broadcast and touched on every
delivery.  :class:`MessageId` is a :class:`typing.NamedTuple`, so hashing,
equality and ordering run in C (the reliable layer's duplicate filter
hashes an id per delivery); its hash is ``hash((sender, seq))``, the same
value the frozen dataclass it replaces computed, so set iteration orders are
unchanged.  :class:`BroadcastMessage` is a ``__slots__`` dataclass whose
``kind`` label is interned: the accounting layer compares kinds millions of
times per run, and interning makes those comparisons pointer checks while
deduplicating the strings across every message of a run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.net.sizes import OBJECT_OVERHEAD, estimate_size


class MessageId(NamedTuple):
    """Globally unique broadcast message identity."""

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"m{self.sender}.{self.seq}"

    def __wire_size__(self) -> int:
        # Fixed shape (a pair of ints): byte-identical to the estimator's
        # tuple branch, which is what estimate_size(id) itself takes.
        return OBJECT_OVERHEAD + 16


@dataclass(slots=True)
class BroadcastMessage:
    """A payload travelling through a broadcast primitive.

    ``kind`` labels the payload for message accounting; it defaults to the
    payload's own ``kind`` attribute when present.
    """

    id: MessageId
    payload: Any
    kind: str = field(default="")
    #: Memoized wire size.  An envelope is sent once per group member (and
    #: again by every relay), and its payload may carry an O(n) vector
    #: clock — re-traversing it per destination made a single broadcast
    #: cost O(n^2) in size estimation alone.  Payloads are immutable once
    #: broadcast (the same object is delivered at every site; mutation
    #: would leak state across sites), so the first estimate is final.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.kind:
            payload_kind = getattr(self.payload, "kind", None)
            self.kind = payload_kind if isinstance(payload_kind, str) else type(self.payload).__name__
        self.kind = sys.intern(self.kind)

    @property
    def sender(self) -> int:
        return self.id.sender

    @property
    def seq(self) -> int:
        return self.id.seq

    def __wire_size__(self) -> int:
        # Envelope fast path: the id is fixed-shape and the kind string is
        # interned (so its UTF-8 length memoizes on first sight).  Byte-
        # identical to the generic __slots__ traversal over (id, payload,
        # kind) — the shortcut skips the per-field getattr dispatch only.
        if self._size < 0:
            self._size = (
                OBJECT_OVERHEAD
                + self.id.__wire_size__()
                + estimate_size(self.payload)
                + estimate_size(self.kind)
            )
        return self._size

    def __str__(self) -> str:
        return f"{self.id}[{self.kind}]"
