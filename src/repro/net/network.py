"""The datagram fabric: per-link FIFO, latency, loss, partitions, crashes.

:class:`Network` models the physical medium.  Guarantees and non-guarantees:

- **FIFO per link**: two datagrams from site A to site B are delivered in
  send order (the paper assumes FIFO links).  Implemented by clamping each
  link's delivery time to be monotonically non-decreasing.
- **Loss**: each datagram is dropped independently with ``loss_rate``
  probability; recovery from loss is the transport's job.
- **Partitions / crashes**: datagrams to unreachable or crashed sites are
  silently dropped (counted in the stats).

The network also keeps the message accounting used by the paper-style cost
comparisons (experiment E1): physical point-to-point sends per payload kind.

:meth:`Network.send` is a fan-out of one.  A fan-out validates every site
before it touches anything, then labels, sizes and accounts the payload
once, bumping the counters by the destination count.  Only the per-link
work repeats per destination, in destination order: the reachability
check, the loss draw, the latency draw, the FIFO clamp and the schedule.
The RNG draws therefore happen in the same order as a loop of sends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.sizes import estimate_size, wire_size
from repro.net.partition import PartitionManager
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


@dataclass(slots=True)
# Simulator-internal delivery record: the network sizes datagram *payloads*
# (wire_size(payload) below), never the Datagram wrapper itself.
# detcheck: ignore[S302]
class Datagram:
    """One point-to-point message on the wire."""

    src: int
    dst: int
    payload: Any
    kind: str
    send_time: float
    deliver_time: float = 0.0


@dataclass
class NetworkStats:
    """Message accounting, the raw material of experiment E1."""

    sent: int = 0
    delivered: int = 0
    bytes_sent: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_crashed: int = 0
    #: Data frames re-sent by the ARQ transport.  Counted here (alongside
    #: the ``transport.retransmit`` by_kind label) so experiments can report
    #: repair traffic next to the loss/partition drop counters it answers.
    retransmissions: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)

    def snapshot(self) -> dict[str, Any]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "bytes_sent": self.bytes_sent,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_crashed": self.dropped_crashed,
            "retransmissions": self.retransmissions,
            "by_kind": dict(self.by_kind),
        }


class Network:
    """Simulated datagram network connecting numbered sites.

    Sites register a receive callback with :meth:`attach`; crashed sites are
    marked with :meth:`set_site_up`.  The optional ``payload_kind`` function
    extracts an accounting label from payloads (defaults to the payload's
    ``kind`` attribute, or its type name).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        num_sites: int,
        latency: Optional[LatencyModel] = None,
        rng: Optional[RngRegistry] = None,
        loss_rate: float = 0.0,
        bandwidth: Optional[float] = None,
    ):
        if num_sites <= 0:
            raise ValueError("num_sites must be positive")
        if not 0 <= loss_rate < 1:
            raise ValueError("loss_rate must be in [0, 1)")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes per ms)")
        self.engine = engine
        self.num_sites = num_sites
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.loss_rate = loss_rate
        #: Optional per-link bandwidth in bytes/ms: adds size/bandwidth
        #: transmission delay on top of the propagation latency.
        self.bandwidth = bandwidth
        self.partitions = PartitionManager(num_sites)
        self.stats = NetworkStats()
        self._rng = (rng or RngRegistry(0)).stream("network")
        self._handlers: list[Optional[Callable[[Datagram], None]]] = [None] * num_sites
        self._site_up = [True] * num_sites
        # Last scheduled delivery time per link, indexed
        # ``src * num_sites + dst``, for FIFO clamping.
        self._last_delivery: list[float] = [0.0] * (num_sites * num_sites)

    def attach(self, site: int, handler: Callable[[Datagram], None]) -> None:
        """Register the receive callback for ``site``."""
        self._check_site(site)
        self._handlers[site] = handler

    def set_site_up(self, site: int, up: bool) -> None:
        """Mark a site crashed (False) or recovered (True)."""
        self._check_site(site)
        self._site_up[site] = up

    def site_is_up(self, site: int) -> bool:
        self._check_site(site)
        return self._site_up[site]

    def send(self, src: int, dst: int, payload: Any, kind: Optional[str] = None) -> None:
        """Send one datagram; it may be lost, partitioned away, or delivered.

        Loopback (``src == dst``) is delivered with zero loss after a tiny
        scheduling delay so local delivery still goes through the event loop
        (keeping callback ordering uniform).
        """
        self._fanout(src, (dst,), payload, kind)

    def multicast(
        self,
        src: int,
        dsts: list[int],
        payload: Any,
        kind: Optional[str] = None,
        include_self: bool = False,
    ) -> None:
        """Unicast ``payload`` to each destination (the LAN broadcast model).

        The paper's cost model treats a broadcast to ``n`` sites as ``n``
        point-to-point messages in the absence of hardware multicast; this
        method makes that accounting explicit.  It is equivalent to one
        :meth:`send` per destination, in order, except that an unknown site
        raises before anything is counted, drawn or scheduled.
        """
        if not include_self:
            dsts = [dst for dst in dsts if dst != src]
        self._fanout(src, dsts, payload, kind)

    def _fanout(self, src: int, dsts: Sequence[int], payload: Any, kind: Optional[str]) -> None:
        """Send ``payload`` from ``src`` to every site in ``dsts``, in order."""
        self._check_site(src)
        for dst in dsts:
            self._check_site(dst)
        count = len(dsts)
        if not count:
            return
        label = kind if kind is not None else _kind_of(payload)
        size = wire_size(payload)
        stats = self.stats
        stats.sent += count
        stats.bytes_sent += size * count
        if label == _BATCH_KIND:
            # A flush-window batch is one physical datagram but many
            # protocol messages: attribute each constituent's count and
            # bytes to its own kind so the E1/E11 per-kind cost tables are
            # batching-invariant, and only the shared framing residual to
            # the batch label.  (Retransmissions of batch frames keep the
            # opaque ``transport.retransmit`` label, as all repair traffic
            # does.)  ``sent`` keeps counting physical datagrams, so with
            # batching on ``sum(by_kind) > sent`` by design.
            self._account_batch(payload, size, count)
        else:
            stats.by_kind[label] += count
            stats.bytes_by_kind[label] += size * count

        if not self._site_up[src]:
            # A crashed site cannot send; callers normally guard this, but a
            # late timer may race a crash.
            stats.dropped_crashed += count
            return
        connected = self.partitions.connected
        loss_rate = self.loss_rate
        rng = self._rng
        sample = self.latency.sample
        transmission = None if self.bandwidth is None else size / self.bandwidth
        engine = self.engine
        now = engine.now
        last_delivery = self._last_delivery
        link_base = src * self.num_sites
        for dst in dsts:
            if dst != src:
                if not connected(src, dst):
                    stats.dropped_partition += 1
                    continue
                if loss_rate > 0 and rng.random() < loss_rate:
                    stats.dropped_loss += 1
                    continue
                delay = sample(rng, src, dst)
                if transmission is not None:
                    delay += transmission
            else:
                delay = 0.0
            deliver_at = now + delay
            # FIFO clamp: never deliver before an earlier datagram on this link.
            link = link_base + dst
            floor = last_delivery[link]
            if deliver_at < floor:
                deliver_at = floor
            last_delivery[link] = deliver_at
            engine.schedule_at(
                deliver_at, self._deliver, Datagram(src, dst, payload, label, now, deliver_at)
            )

    def _deliver(self, datagram: Datagram) -> None:
        if not self._site_up[datagram.dst]:
            self.stats.dropped_crashed += 1
            return
        if datagram.src != datagram.dst and not self.partitions.connected(
            datagram.src, datagram.dst
        ):
            # Partition struck while in flight.
            self.stats.dropped_partition += 1
            return
        handler = self._handlers[datagram.dst]
        if handler is None:
            raise RuntimeError(f"site {datagram.dst} has no attached handler")
        self.stats.delivered += 1
        handler(datagram)

    def _account_batch(self, payload: Any, size: int, count: int) -> None:
        """Split a batch datagram's accounting across its constituents.

        ``count`` is the number of destinations the datagram fans out to.
        ``payload`` is the BatchEnvelope itself on a passthrough link, or
        the ARQ data frame wrapping one; anything else labeled as a batch
        is accounted opaquely.  The invariant ``sum(bytes_by_kind) ==
        bytes_sent`` is preserved: constituent sizes are the same memoized
        estimates the envelope's own wire size summed over.
        """
        batch = payload if isinstance(payload, BatchEnvelope) else getattr(payload, "payload", None)
        if not isinstance(batch, BatchEnvelope):
            self.stats.by_kind[_BATCH_KIND] += count
            self.stats.bytes_by_kind[_BATCH_KIND] += size * count
            return
        by_kind = self.stats.by_kind
        bytes_by_kind = self.stats.bytes_by_kind
        inner = 0
        for item in batch.items:
            item_size = estimate_size(item)
            item_kind = _kind_of(item)
            by_kind[item_kind] += count
            bytes_by_kind[item_kind] += item_size * count
            inner += item_size
        by_kind[_BATCH_KIND] += count
        bytes_by_kind[_BATCH_KIND] += (size - inner) * count

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.num_sites:
            raise ValueError(f"unknown site {site} (num_sites={self.num_sites})")


def _kind_of(payload: Any) -> str:
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


# Imported last: batching lives in repro.broadcast, whose package import
# reaches this module through the transport — by this point every name the
# cycle needs is defined.
from repro.broadcast.batching import BATCH_KIND as _BATCH_KIND  # noqa: E402
from repro.broadcast.batching import BatchEnvelope  # noqa: E402
