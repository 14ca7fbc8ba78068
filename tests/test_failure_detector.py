"""Unit tests for the heartbeat failure detector."""

import pytest

from repro.broadcast.failure_detector import FailureDetector
from repro.core.cluster import Cluster, ClusterConfig
from repro.net.network import Network
from repro.net.router import ChannelRouter
from repro.net.transport import ReliableTransport
from repro.sim.engine import SimulationEngine


def build(num_sites=3, interval=10.0, timeout=35.0):
    engine = SimulationEngine()
    network = Network(engine, num_sites)
    detectors = []
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site)
        router = ChannelRouter(transport)
        detectors.append(
            FailureDetector(engine, router, site, num_sites, interval=interval, timeout=timeout)
        )
    return engine, network, detectors


def test_no_suspicions_in_healthy_run():
    engine, network, detectors = build()
    engine.run(until=500.0)
    assert all(not d.suspected for d in detectors)


def test_crashed_site_becomes_suspected():
    engine, network, detectors = build()
    engine.schedule(100.0, network.set_site_up, 1, False)
    engine.schedule(100.0, detectors[1].crash)
    engine.run(until=300.0)
    assert 1 in detectors[0].suspected
    assert 1 in detectors[2].suspected


def test_suspicion_change_callback_fires():
    engine, network, detectors = build()
    changes = []
    detectors[0].on_change = changes.append
    engine.schedule(50.0, network.set_site_up, 2, False)
    engine.schedule(50.0, detectors[2].crash)
    engine.run(until=300.0)
    assert changes and changes[-1] == {2}


def test_recovered_site_unsuspected():
    engine, network, detectors = build()
    engine.schedule(50.0, network.set_site_up, 1, False)
    engine.schedule(50.0, detectors[1].crash)
    engine.schedule(200.0, network.set_site_up, 1, True)
    engine.schedule(200.0, detectors[1].recover)
    engine.run(until=500.0)
    assert 1 not in detectors[0].suspected


def test_partitioned_peer_suspected_then_cleared_on_heal():
    engine, network, detectors = build()
    engine.schedule(50.0, network.partitions.split, [[0], [1, 2]])
    engine.run(until=300.0)
    assert detectors[0].suspected == {1, 2}
    assert detectors[1].suspected == {0}
    network.partitions.heal()
    engine.run(until=600.0)
    assert not detectors[0].suspected


def test_timeout_must_exceed_interval():
    engine = SimulationEngine()
    network = Network(engine, 2)
    transport = ReliableTransport(engine, network, 0)
    router = ChannelRouter(transport)
    with pytest.raises(ValueError):
        FailureDetector(engine, router, 0, 2, interval=50.0, timeout=40.0)


def test_refresh_clears_suspicion_like_a_heartbeat():
    """Regression: a JoinRequest (delivered out-of-band of the heartbeat
    channel) must count as proof of life, or the joiner gets re-evicted on
    the next tick before its own heartbeats resume."""
    engine, network, detectors = build()
    engine.schedule(50.0, network.set_site_up, 1, False)
    engine.schedule(50.0, detectors[1].crash)
    engine.run(until=200.0)
    assert 1 in detectors[0].suspected
    changes = []
    detectors[0].on_change = changes.append
    detectors[0].refresh(1)
    assert 1 not in detectors[0].suspected
    assert changes == [set()]  # listener saw the un-suspicion immediately
    # The refresh also resets the silence clock: no re-suspicion within
    # a full timeout even though the peer stays quiet.
    engine.run(until=engine.now + 30.0)  # < timeout (35ms)
    assert 1 not in detectors[0].suspected
    engine.run(until=engine.now + 50.0)  # past the timeout: silence wins again
    assert 1 in detectors[0].suspected


def test_refresh_ignores_self_and_unknown_peers():
    engine, network, detectors = build()
    detectors[0].refresh(0)
    detectors[0].refresh(99)
    assert not detectors[0].suspected


def test_disabled_detector_sends_nothing_until_started():
    engine = SimulationEngine()
    network = Network(engine, 2)
    detectors = []
    for site in range(2):
        transport = ReliableTransport(engine, network, site)
        router = ChannelRouter(transport)
        detectors.append(
            FailureDetector(engine, router, site, 2, interval=10.0, timeout=35.0, enabled=False)
        )
    engine.run(until=100.0)
    assert network.stats.by_kind.get("fd.heartbeat", 0) == 0
    detectors[0].start()
    detectors[1].start()
    engine.run(until=200.0)
    assert network.stats.by_kind["fd.heartbeat"] > 0


# -- implicit heartbeats: any payload is proof of life --------------------------------


def build_with_data(num_sites=2, interval=10.0, timeout=35.0, enabled=True, prelude=None):
    """Detectors plus a ``data`` channel on every router, and a log of the
    (src, dst) pair of every heartbeat handed to a transport.
    ``prelude(engine, routers)`` runs before the detectors are built, so
    what it schedules fires ahead of their same-instant ticks."""
    engine = SimulationEngine()
    network = Network(engine, num_sites)
    routers, detectors, beats, received = [], [], [], []
    for site in range(num_sites):
        transport = ReliableTransport(engine, network, site)
        router = ChannelRouter(transport)
        multicast = transport.multicast

        def spy(dsts, payload, kind=None, _site=site, _multicast=multicast):
            if kind == "fd.heartbeat":
                beats.extend((_site, dst) for dst in dsts)
            _multicast(dsts, payload, kind)

        transport.multicast = spy
        routers.append(router)
    if prelude is not None:
        prelude(engine, routers)
    for site, router in enumerate(routers):
        detectors.append(
            FailureDetector(
                engine, router, site, num_sites, interval=interval, timeout=timeout,
                enabled=enabled,
            )
        )
    for site, router in enumerate(routers):
        router.register(
            "data",
            lambda src, payload, _site=site: received.append(
                (src, _site, src in detectors[_site].suspected)
            ),
        )
    return engine, network, routers, detectors, beats, received


def send_every(engine, router, dst, period, start=0.0):
    """Send a data payload from ``router`` to ``dst`` every ``period`` ms."""

    def loop():
        router.send(dst, "data", "ping")
        engine.schedule(period, loop)

    engine.schedule_at(start, loop)


def test_link_with_traffic_gets_no_heartbeat():
    engine, network, routers, detectors, beats, _ = build_with_data()
    send_every(engine, routers[0], 1, period=7.0)
    engine.run(until=205.0)
    assert (0, 1) not in beats
    assert not detectors[1].suspected


def test_idle_link_gets_one_heartbeat_per_interval():
    engine, network, routers, detectors, beats, _ = build_with_data()
    send_every(engine, routers[0], 1, period=7.0)
    engine.run(until=205.0)
    # Site 1 sends nothing but heartbeats: one per tick, ticks at 10..200.
    assert beats.count((1, 0)) == 20
    assert not detectors[0].suspected


def test_idle_test_ignores_same_instant_ordering():
    """A payload loop on the detector's own grid (CBP's null messages with
    ``cbp_heartbeat == fd_interval``) keeps the link quiet whichever of the
    two same-instant events fires first: only the very first tick, before
    the loop has sent anything, can heartbeat."""

    def grid_loop(engine, routers):
        send_every(engine, routers[0], 1, period=10.0, start=10.0)

    counts = []
    for loop_first in (True, False):
        engine, network, routers, detectors, beats, _ = build_with_data(
            prelude=grid_loop if loop_first else None
        )
        if not loop_first:
            grid_loop(engine, routers)
        engine.run(until=505.0)
        assert not any(d.suspected for d in detectors)
        counts.append(beats.count((0, 1)))
    assert counts[0] == 0
    assert counts[1] <= 1


def test_payload_on_any_channel_clears_suspicion_on_arrival():
    engine, network, routers, detectors, beats, received = build_with_data()
    engine.schedule(20.0, network.set_site_up, 1, False)
    engine.schedule(20.0, detectors[1].crash)
    engine.run(until=200.0)
    assert 1 in detectors[0].suspected
    changes = []
    detectors[0].on_change = changes.append
    # Site 1's links come back but its detector stays down: no heartbeat
    # can refresh it, only the data payload.
    network.set_site_up(1, True)
    routers[1].send(0, "data", "hello")
    engine.run(until=engine.now + 5.0)
    assert received == [(1, 0, False)]  # the handler already saw it live
    assert changes == [set()]
    assert 1 not in detectors[0].suspected


def test_live_link_silent_gap_stays_within_two_intervals():
    """A payload just after each second tick is the worst case: the next
    tick stays quiet and the one after heartbeats.  The receiver's longest
    silence is then about two intervals, below the timeout."""
    engine, network, routers, detectors, beats, _ = build_with_data(timeout=25.0)
    send_every(engine, routers[0], 1, period=20.0, start=0.5)
    heard = []
    hook = detectors[1].refresh
    routers[1].set_inbound(lambda src: (heard.append(engine.now), hook(src)))
    engine.run(until=405.0)
    gaps = [later - earlier for earlier, later in zip(heard, heard[1:])]
    assert max(gaps) <= 2 * 10.0 + 1.0  # two intervals plus latency jitter
    assert max(gaps) > 10.0 + 1.0  # ...and it does exceed one interval
    assert 0 < beats.count((0, 1)) < 40  # every other tick at most
    assert not detectors[1].suspected


def test_crashed_sender_suspected_within_timeout_plus_silent_gap():
    interval, timeout, crash_at = 10.0, 35.0, 153.0
    engine, network, routers, detectors, beats, _ = build_with_data(
        interval=interval, timeout=timeout
    )
    send_every(engine, routers[1], 0, period=20.0, start=0.5)
    suspected_at = []
    detectors[0].on_change = lambda suspected: suspected_at.append(engine.now)
    engine.schedule_at(crash_at, network.set_site_up, 1, False)
    engine.schedule_at(crash_at, detectors[1].crash)
    engine.run(until=400.0)
    assert suspected_at, "crashed sender never suspected"
    assert crash_at < suspected_at[0] <= crash_at + timeout + 2 * interval
    assert 1 in detectors[0].suspected


def test_disabled_detector_adds_no_traffic_to_data():
    engine, network, routers, detectors, beats, _ = build_with_data(enabled=False)
    send_every(engine, routers[0], 1, period=7.0)
    engine.run(until=200.0)
    assert beats == []
    assert dict(network.stats.by_kind) == {"str": 29}  # the data sends alone


def test_timeout_must_exceed_twice_the_interval():
    engine = SimulationEngine()
    network = Network(engine, 2)
    router = ChannelRouter(ReliableTransport(engine, network, 0))
    with pytest.raises(ValueError, match="twice"):
        FailureDetector(engine, router, 0, 2, interval=10.0, timeout=20.0)


def test_cbp_nulls_replace_heartbeats_except_outside_the_view():
    """CBP's null messages share the detector's grid and reach every view
    member, so no explicit heartbeat is needed while they flow.  A crashed
    site leaves the view and stops receiving nulls, yet the live sites must
    keep heartbeating it (so it un-suspects them when it comes back): one
    heartbeat per live site per tick, on that link alone."""
    cluster = Cluster(
        ClusterConfig(
            protocol="cbp",
            num_sites=5,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            cbp_heartbeat=20.0,
        )
    )
    by_kind = cluster.network.stats.by_kind
    cluster.run_for(1000.0)
    assert by_kind["cbp.null"] == 5 * 4 * 50
    assert by_kind.get("fd.heartbeat", 0) == 0
    cluster.crash_site(4)
    cluster.run_for(200.0)  # suspicion and the view change settle
    assert all(m.view.members == (0, 1, 2, 3) for m in cluster.memberships[:4])
    before = by_kind["fd.heartbeat"]
    cluster.run_for(800.0)
    assert by_kind["fd.heartbeat"] - before == 4 * 40  # 4 live sites x 40 ticks, to site 4
