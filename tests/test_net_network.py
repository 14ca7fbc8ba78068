"""Unit tests for the datagram network: FIFO, loss, partitions, crashes."""

from dataclasses import dataclass

import pytest

from repro.net.latency import FixedLatency, UniformLatency
from repro.broadcast.batching import BATCH_KIND, BatchEnvelope
from repro.net.network import Network, NetworkStats
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry


@dataclass
class Ping:
    n: int
    kind: str = "ping"


def build(num_sites=3, **kwargs):
    engine = SimulationEngine()
    network = Network(engine, num_sites, rng=RngRegistry(5), **kwargs)
    inboxes = [[] for _ in range(num_sites)]
    for site in range(num_sites):
        network.attach(site, lambda d, site=site: inboxes[site].append(d))
    return engine, network, inboxes


def test_basic_delivery_with_latency():
    engine, network, inboxes = build(latency=FixedLatency(2.0))
    network.send(0, 1, Ping(1))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == [1]
    assert inboxes[1][0].deliver_time == 2.0


def test_fifo_per_link_despite_latency_jitter():
    engine, network, inboxes = build(latency=UniformLatency(0.1, 5.0))
    for n in range(50):
        network.send(0, 1, Ping(n))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == list(range(50))


def test_loopback_is_delivered():
    engine, network, inboxes = build()
    network.send(2, 2, Ping(7))
    engine.run()
    assert [d.payload.n for d in inboxes[2]] == [7]


def test_messages_to_crashed_site_dropped():
    engine, network, inboxes = build()
    network.set_site_up(1, False)
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []
    assert network.stats.dropped_crashed == 1


def test_crashed_sender_cannot_send():
    engine, network, inboxes = build()
    network.set_site_up(0, False)
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []


def test_crash_while_in_flight_drops():
    engine, network, inboxes = build(latency=FixedLatency(5.0))
    network.send(0, 1, Ping(1))
    engine.schedule(1.0, network.set_site_up, 1, False)
    engine.run()
    assert inboxes[1] == []


def test_partition_blocks_and_heal_restores():
    engine, network, inboxes = build()
    network.partitions.split([[0], [1, 2]])
    network.send(0, 1, Ping(1))
    engine.run()
    assert inboxes[1] == []
    assert network.stats.dropped_partition == 1
    network.partitions.heal()
    network.send(0, 1, Ping(2))
    engine.run()
    assert [d.payload.n for d in inboxes[1]] == [2]


def test_loss_rate_drops_roughly_that_fraction():
    engine, network, inboxes = build(loss_rate=0.3)
    for n in range(1000):
        network.send(0, 1, Ping(n))
    engine.run()
    received = len(inboxes[1])
    assert 600 < received < 800
    assert network.stats.dropped_loss == 1000 - received


def test_message_accounting_by_kind():
    engine, network, inboxes = build()
    network.send(0, 1, Ping(1))
    network.send(0, 2, Ping(2))
    network.multicast(0, [0, 1, 2], Ping(3))
    engine.run()
    assert network.stats.by_kind["ping"] == 4  # multicast skips self
    assert network.stats.sent == 4
    assert network.stats.delivered == 4


def test_multicast_include_self():
    engine, network, inboxes = build()
    network.multicast(0, [0, 1], Ping(1), include_self=True)
    engine.run()
    assert len(inboxes[0]) == 1 and len(inboxes[1]) == 1


def test_unknown_site_rejected():
    engine, network, _ = build()
    with pytest.raises(ValueError):
        network.send(0, 9, Ping(1))


def test_multicast_to_unknown_site_has_no_side_effects():
    """The unknown site is rejected before anything is counted, drawn from
    the RNG or scheduled: the network then behaves like an untouched twin."""
    engine, network, inboxes = build(latency=UniformLatency(0.5, 1.5))
    twin_engine, twin, twin_inboxes = build(latency=UniformLatency(0.5, 1.5))
    with pytest.raises(ValueError):
        network.multicast(0, [1, 2, 7], "x", "k")
    assert network.stats.snapshot() == NetworkStats().snapshot()
    assert engine.pending_count() == 0
    network.send(0, 1, Ping(1))
    twin.send(0, 1, Ping(1))
    engine.run()
    twin_engine.run()
    assert [d.deliver_time for d in inboxes[1]] == [d.deliver_time for d in twin_inboxes[1]]


@pytest.mark.parametrize(
    "setup, include_self",
    [
        pytest.param({}, False, id="plain"),
        pytest.param({"loss_rate": 0.3}, False, id="loss"),
        pytest.param({"partition": [[0, 1], [2, 3, 4]]}, False, id="partition"),
        pytest.param({"crashed": 0}, False, id="crashed-sender"),
        pytest.param({"bandwidth": 20.0}, False, id="bandwidth"),
        pytest.param({}, True, id="include-self"),
        pytest.param({"batch": True}, False, id="batch"),
    ],
)
def test_multicast_matches_a_loop_of_sends(setup, include_self):
    """A fan-out accounts once but must count, draw and schedule exactly
    like one send per destination in order (same RNG draw order)."""
    setup = dict(setup)
    partition = setup.pop("partition", None)
    crashed = setup.pop("crashed", None)
    batch = setup.pop("batch", False)

    def twin():
        engine = SimulationEngine()
        network = Network(engine, 5, latency=UniformLatency(0.5, 1.5), rng=RngRegistry(5), **setup)
        arrivals = []
        for site in range(5):
            network.attach(site, lambda d, site=site: arrivals.append((site, d.deliver_time)))
        if partition is not None:
            network.partitions.split(partition)
        if crashed is not None:
            network.set_site_up(crashed, False)
        return engine, network, arrivals

    dsts = [0, 1, 2, 3, 4]
    fanned_engine, fanned, fanned_arrivals = twin()
    looped_engine, looped, looped_arrivals = twin()
    for n in range(30):
        payload = BatchEnvelope(n, (Ping(n), Ping(-n))) if batch else Ping(n)
        kind = BATCH_KIND if batch else None
        fanned.multicast(0, dsts, payload, kind, include_self=include_self)
        for dst in dsts:
            if dst != 0 or include_self:
                looped.send(0, dst, payload, kind)
    fanned_engine.run()
    looped_engine.run()
    assert fanned.stats.snapshot() == looped.stats.snapshot()
    assert fanned.stats.bytes_by_kind == looped.stats.bytes_by_kind
    assert fanned_arrivals == looped_arrivals


def test_kind_defaults_to_type_name():
    engine, network, inboxes = build()
    network.send(0, 1, {"raw": True})
    engine.run()
    assert network.stats.by_kind["dict"] == 1
