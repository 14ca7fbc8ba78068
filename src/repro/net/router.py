"""Channel demultiplexer over a site's transport.

A site runs several message-consuming components (broadcast stack, failure
detector, membership, protocol point-to-point traffic).  The router tags
payloads with a channel name at the sender and dispatches by channel at the
receiver, so the components stay decoupled.

The router is also where a site's liveness is observed, because every
payload crosses it: it keeps a per-peer record of the latest send
(:attr:`ChannelRouter.last_sent`) and calls one inbound hook for every
payload a peer delivers, on any channel.  The failure detector uses the
pair to treat all traffic as a heartbeat (see
:mod:`repro.broadcast.failure_detector`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.net.sizes import OBJECT_OVERHEAD, estimate_size, register_payload
from repro.net.transport import ReliableTransport


@dataclass(slots=True)
class Tagged:
    """A channel-tagged payload travelling through the transport."""

    channel: str
    payload: Any
    kind: str
    #: Memoized wire size: a multicast reuses one Tagged across all
    #: destinations, and on ARQ links each destination's frame sizes it
    #: again, so the payload traversal runs once per message instead of
    #: once per send.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.kind:
            payload_kind = getattr(self.payload, "kind", None)
            self.kind = (
                payload_kind if isinstance(payload_kind, str) else type(self.payload).__name__
            )

    def __wire_size__(self) -> int:
        # Byte-identical to the generic traversal over (channel, payload,
        # kind); _size is sender-side bookkeeping, not wire content.
        if self._size < 0:
            self._size = (
                OBJECT_OVERHEAD
                + estimate_size(self.channel)
                + estimate_size(self.payload)
                + estimate_size(self.kind)
            )
        return self._size


class ChannelRouter:
    """Sends and dispatches channel-tagged payloads for one site."""

    def __init__(self, transport: ReliableTransport, batcher: Optional[Any] = None):
        self.transport = transport
        self.site = transport.site
        #: Optional flush-window coalescer (repro.broadcast.batching); when
        #: absent every send goes straight to the transport, keeping the
        #: historical wire traffic bit-identical.
        self.batcher = batcher
        self._sender = batcher if batcher is not None else transport
        self._handlers: dict[str, Callable[[int, Any], None]] = {}
        #: Send sequence, bumped once per send/multicast call; ``last_sent``
        #: maps each peer to its value at the latest call addressed to it.
        #: A logical counter, not a timestamp, so a reader can tell a send
        #: issued after its own at the same simulated instant from one
        #: issued before it.
        self.sends = 0
        self.last_sent: dict[int, int] = {}
        self._inbound: Optional[Callable[[int], None]] = None
        transport.set_receiver(self._dispatch)

    def register(self, channel: str, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src_site, payload)`` for ``channel``."""
        if channel in self._handlers:
            raise ValueError(f"channel {channel!r} already registered")
        self._handlers[channel] = handler

    def set_inbound(self, hook: Callable[[int], None]) -> None:
        """Call ``hook(src_site)`` for every payload ``src_site`` delivers,
        on any channel, before the channel's handler runs."""
        self._inbound = hook

    def send(self, dst: int, channel: str, payload: Any, kind: Optional[str] = None) -> None:
        self.sends += 1
        self.last_sent[dst] = self.sends
        self._sender.send(dst, Tagged(channel, payload, kind or ""), kind)

    def multicast(
        self,
        dsts: list[int],
        channel: str,
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        # One envelope for the whole fan-out, handed down the stack as one
        # call: allocation and sizing amortize across destinations
        # (detcheck S302 audit).
        tagged = Tagged(channel, payload, kind or "")
        if not include_self:
            dsts = [dst for dst in dsts if dst != self.site]
        self.sends += 1
        self.last_sent.update(dict.fromkeys(dsts, self.sends))
        self._sender.multicast(dsts, tagged, kind)

    def _dispatch(self, src: int, payload: Any) -> None:
        if self._inbound is not None:
            self._inbound(src)
        self._route(src, payload)

    def _route(self, src: int, payload: Any) -> None:
        if isinstance(payload, Tagged):
            handler = self._handlers.get(payload.channel)
            if handler is None:
                raise RuntimeError(
                    f"site {self.site}: no handler for channel {payload.channel!r}"
                )
            handler(src, payload.payload)
            return
        if isinstance(payload, BatchEnvelope):
            # Unpack in slot order — the sender's issue order — so batching
            # preserves per-link FIFO payload-for-payload, and batches from
            # different senders dispatch in (sender, seq) arrival order.
            for item in payload.items:
                self._route(src, item)
            return
        raise RuntimeError(f"site {self.site}: untagged payload {payload!r} from {src}")


# Import-time shape check for the size model (detcheck P201/P202).
register_payload(Tagged)

# Imported last: batching lives in repro.broadcast, whose package import
# pulls in the reliable layer, which imports this module — by this point
# every name the cycle needs is defined.
from repro.broadcast.batching import BatchEnvelope  # noqa: E402
