"""Heartbeat failure detector with implicit heartbeats.

Implements an eventually-perfect-style detector (class <>P in practice):
every site suspects peers it has not heard from within a timeout.  Under the
simulation's bounded latencies the detector is accurate after a crash-free
prefix, which is what the membership service needs; deterministic detectors
are impossible in pure asynchrony [CT96, CHTCB96], which is exactly why the
paper's CBP avoids relying on one for commitment.

Liveness rides on the traffic the system already sends, the paper's
implicit-acknowledgment idea applied to failure detection (and the one SWIM
[DGM02] uses):

- **Any inbound payload is a heartbeat.**  The site's
  :class:`~repro.net.router.ChannelRouter` calls :meth:`FailureDetector.refresh`
  for every payload a peer delivers, on any channel, so a vote, a commit
  request, a CBP null message or a join request all stamp the sender's
  last-heard time and clear its suspicion on arrival.
- **Explicit heartbeats only on idle links.**  Each tick multicasts a
  :class:`Heartbeat` only to the peers the router sent nothing to since the
  previous tick.  "Since" is measured on the router's send sequence, not on
  the clock, so a send at the very instant of a tick counts towards exactly
  one tick whichever of the two events fires first (CBP's null-message loop
  and this tick share a grid whenever ``cbp_heartbeat == fd_interval``), and
  the detector's own heartbeat never hides an idle link from the next tick.

**Worst-case silent gap.**  On an idle link a peer hears from us once per
``interval``.  On a live link the gap grows to up to about two intervals: a
payload sent just after a tick keeps the next tick quiet, and the tick after
that heartbeats only if nothing else was sent.  Add the latency jitter and
that gap must stay below ``timeout`` or a live peer is suspected; the
constructor therefore requires ``timeout > 2 * interval`` (every in-repo
configuration uses at least 3.5x).  Crash detection is unaffected: a crashed
site is suspected within ``timeout`` plus one scan interval of the last
payload it sent.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.router import ChannelRouter
from repro.net.sizes import register_payload
from repro.sim.engine import SimulationEngine
from repro.sim.process import Process

CHANNEL = "fd"


class Heartbeat:
    """A heartbeat ping (empty payload, identified by channel)."""

    __slots__ = ()
    kind = "fd.heartbeat"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Heartbeat()"


register_payload(Heartbeat)
_HEARTBEAT = Heartbeat()


class FailureDetector(Process):
    """Per-site heartbeat failure detector.

    ``on_change(suspected)`` fires whenever the suspected set changes.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        router: ChannelRouter,
        site: int,
        num_sites: int,
        interval: float = 50.0,
        timeout: float = 200.0,
        enabled: bool = True,
    ):
        super().__init__(engine, f"fd{site}")
        if timeout <= 2 * interval:
            raise ValueError(
                "timeout must exceed twice the heartbeat interval, the worst-case "
                "silent gap on a live link"
            )
        self.router = router
        self.site = site
        self.num_sites = num_sites
        self.interval = interval
        self.timeout = timeout
        self.enabled = enabled
        self.suspected: set[int] = set()
        self.on_change: Optional[Callable[[set[int]], None]] = None
        self._listeners: list[Callable[[set[int]], None]] = []
        self._last_heard = {peer: 0.0 for peer in range(num_sites) if peer != site}
        # The heartbeat fan-out list never changes; building it afresh on
        # every tick cost an O(n) allocation per site per interval.
        self._peers = tuple(peer for peer in range(num_sites) if peer != site)
        #: Router send sequence at the end of the previous tick: a peer whose
        #: latest send is no later than this was idle for the whole interval.
        self._quiet_since = 0
        router.register(CHANNEL, self._on_heartbeat)
        router.set_inbound(self.refresh)
        if enabled:
            self.schedule(self.interval, self._tick)

    def start(self) -> None:
        """Enable a detector constructed with ``enabled=False``."""
        if not self.enabled:
            self.enabled = True
            self._reset_clocks()
            self.schedule(self.interval, self._tick)

    def _reset_clocks(self) -> None:
        for peer in self._last_heard:
            self._last_heard[peer] = self.now
        self._quiet_since = self.router.sends

    def _on_heartbeat(self, src: int, payload: object) -> None:
        """Nothing left to do: the router's inbound hook already refreshed
        ``src`` for this payload, as for every other."""

    def _tick(self) -> None:
        if not self.enabled:
            return
        last_sent = self.router.last_sent
        quiet_since = self._quiet_since
        idle = [peer for peer in self._peers if last_sent.get(peer, -1) <= quiet_since]
        if idle:
            self.router.multicast(idle, CHANNEL, _HEARTBEAT, "fd.heartbeat")
        self._quiet_since = self.router.sends
        newly = {
            peer
            for peer, heard in self._last_heard.items()
            if self.now - heard > self.timeout
        }
        if newly != self.suspected:
            self.suspected = newly
            self._notify()
        self.schedule(self.interval, self._tick)

    def refresh(self, peer: int) -> None:
        """Proof of life for ``peer``: the router calls this for every
        payload ``peer`` delivers, on any channel, before its handler runs.

        Suspicion clears on arrival, so the handler already sees the peer as
        live.  That ordering matters for a membership join request: were
        the joiner still suspected, the coordinator would re-evict it from
        the very view it is being admitted to, messages multicast during
        that eviction window would never reach it, and the state transfer's
        clock cut does not cover them: a permanent causal gap.
        """
        if peer == self.site or peer not in self._last_heard:
            return
        self._last_heard[peer] = self.now
        if peer in self.suspected:
            self.suspected.discard(peer)
            self._notify()

    def add_listener(self, fn: Callable[[set[int]], None]) -> None:
        """Additional suspicion-change subscriber.

        ``on_change`` is a single slot owned by the membership service;
        listeners are for everything else (e.g. the transport's
        retransmission parking) and fire after it, in registration order.
        """
        self._listeners.append(fn)

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(set(self.suspected))
        for listener in self._listeners:
            listener(set(self.suspected))

    def on_recover(self) -> None:
        self._reset_clocks()
        self.suspected.clear()
        if self.enabled:
            self.schedule(self.interval, self._tick)
