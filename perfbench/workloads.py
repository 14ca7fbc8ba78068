"""The benchmark's own workloads: seeded transaction streams and fault plans.

Each workload is a closed loop: a fixed number of clients, each with one
transaction outstanding, because a caller waits for the commit reply before
sending its next request.  Everything a run feeds the cluster -- the spec
stream, the fault plan and the cluster seed -- is a pure function of the
workload name and the ``--seed`` argument, so the same seed gives the same
inputs.  Link delay is the cluster default, ``UniformLatency(0.5, 1.5)``
ms.  Every opt-in cluster knob (batching, relay, pipelined writes,
per-op CBP, tracing) stays at its default: a later change that deletes a
knob need not edit the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.transaction import TransactionSpec

#: The seed runs are calibrated on, and a second seed kept out of
#: calibration on which a later change confirms a claim.
CALIBRATION_SEED = 1
HELD_OUT_SEED = 1009

@dataclass(frozen=True)
class Fault:
    """One fault-plan entry, applied through ``engine.schedule_at``."""

    at: float
    action: str  # "crash", "recover", "partition" or "heal"
    args: tuple = ()


@dataclass(frozen=True)
class Plan:
    """Everything one run of a workload feeds the cluster."""

    config: dict[str, Any]
    specs: tuple[TransactionSpec, ...]
    faults: tuple[Fault, ...]
    clients: int
    think_ms: float
    #: Simulated time after which clients submit nothing new (None: the
    #: run ends when the whole spec stream is final).
    horizon_ms: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Percentile reported as ``commit_tail_ms``: the highest of p99/p95/p90
    #: with at least ten committed updates beyond it.
    tail_pct: int
    #: Independent simulations (seeded from ``--seed`` and the shard index)
    #: whose outcomes one run pools, so that seed-to-seed variation of the
    #: tail and stall metrics stays inside the benchmark's bounds.
    shards: int
    make: Callable[[int, int], Plan] = field(repr=False)


def _rng(workload: str, stream: str, seed: int, shard: int) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # interpreter runs (unlike hash()).
    return random.Random(f"perfbench/{workload}/{stream}/{seed}/{shard}")


def cluster_seed(seed: int, shard: int) -> int:
    return seed * 1000 + shard


def _spec(
    name: str, home: int, read_keys: list[str], write_keys: list[str], rng: random.Random
) -> TransactionSpec:
    writes = {key: rng.randrange(1_000_000) for key in write_keys}
    return TransactionSpec.make(name, home=home, read_keys=read_keys, writes=writes)


# -- lan_rbp ------------------------------------------------------------------------


def _lan_rbp(seed: int, shard: int) -> Plan:
    sites, keys, count = 12, 256, 800
    rng = _rng("lan_rbp", "specs", seed, shard)
    specs = []
    for i in range(count):
        chosen = [f"x{k}" for k in rng.sample(range(keys), 2)]
        specs.append(_spec(f"T{i}", rng.randrange(sites), chosen, chosen, rng))
    return Plan(
        config=dict(
            protocol="rbp", num_sites=sites, num_objects=keys, seed=cluster_seed(seed, shard)
        ),
        specs=tuple(specs),
        faults=(),
        clients=8,
        think_ms=0.0,
    )


# -- lossy_abp ----------------------------------------------------------------------

#: A 50 ms partition isolates one site every 400 ms.  Each round of eight
#: isolates the sequencer (site 0; there is no view change) first, so every
#: shard sees one cluster-wide stall, then the other sites in a seeded
#: order.  A partition starts just after a tick of the failure detector's
#: 20 ms heartbeat grid, so the ARQ repair after each heal follows the same
#: backoff schedule.  Both keep the stall and tail steady from seed to seed.
LOSSY_PARTITION_MS = 50.0
LOSSY_PARTITION_PERIOD_MS = 400.0
LOSSY_PLAN_HORIZON_MS = 10_000.0
LOSSY_FD_INTERVAL_MS = 20.0
#: Far above the partition length, so no partition leads to a view change.
#: With 150 ms a heal left the ARQ backoff at 64 ms, one or two further
#: losses opened heartbeat gaps past the timeout, and the false suspicions
#: broke runs (one-copy serializability violations, unanswered clients);
#: that defect is recorded in README.md, not exercised here.
LOSSY_FD_TIMEOUT_MS = 500.0


def _lossy_abp(seed: int, shard: int) -> Plan:
    sites, keys, count = 8, 64, 2400
    rng = _rng("lossy_abp", "specs", seed, shard)
    specs = []
    for i in range(count):
        home = rng.randrange(sites)
        if rng.random() < 0.5:
            reads = [f"x{k}" for k in rng.sample(range(keys), 4)]
            specs.append(_spec(f"T{i}", home, reads, [], rng))
        else:
            chosen = [f"x{k}" for k in rng.sample(range(keys), 2)]
            specs.append(_spec(f"T{i}", home, chosen, chosen, rng))
    frng = _rng("lossy_abp", "faults", seed, shard)
    faults = []
    islands: list[int] = []
    start = LOSSY_PARTITION_PERIOD_MS / 2
    while start < LOSSY_PLAN_HORIZON_MS:
        at = start + LOSSY_FD_INTERVAL_MS * frng.randrange(3) + 1.0
        if not islands:
            islands = frng.sample(range(1, sites), sites - 1) + [0]
        island = islands.pop()
        rest = [s for s in range(sites) if s != island]
        faults.append(Fault(at, "partition", ([[island], rest],)))
        faults.append(Fault(at + LOSSY_PARTITION_MS, "heal"))
        start += LOSSY_PARTITION_PERIOD_MS
    return Plan(
        config=dict(
            protocol="abp",
            num_sites=sites,
            num_objects=keys,
            seed=cluster_seed(seed, shard),
            loss_rate=0.05,
            enable_failure_detector=True,
            fd_interval=LOSSY_FD_INTERVAL_MS,
            fd_timeout=LOSSY_FD_TIMEOUT_MS,
        ),
        specs=tuple(specs),
        faults=tuple(faults),
        clients=8,
        think_ms=0.0,
    )


# -- churn_cbp ----------------------------------------------------------------------

CHURN_SITES = 50
#: Clients submit only at these sites; the rolling crash picks among the
#: others, so no transaction is lost with its home site and every operation
#: of the workload reaches a final outcome.
CHURN_HOME_SITES = tuple(range(10))
CHURN_FD_INTERVAL_MS = 500.0
CHURN_FD_TIMEOUT_MS = 2000.0
CHURN_HORIZON_MS = 15_000.0
#: One crash per 6 s slot, 1.25 s into it or one heartbeat interval later:
#: every crash sits at the same phase of the heartbeat grid, so the
#: view-change delay after it, hence the stall, is alike from seed to seed.
#: The last site is back by 11.75 s, which leaves its state transfer time to
#: finish before the horizon, so every run ends with the stores converged.
CHURN_CRASHES = 2
CHURN_SLOT_MS = 6000.0


def _churn_cbp(seed: int, shard: int) -> Plan:
    keys, clients, think = 256, 8, 200.0
    rng = _rng("churn_cbp", "specs", seed, shard)
    # Upper bound on what the clients can submit before the horizon.
    count = clients * int(CHURN_HORIZON_MS / think + 1)
    specs = []
    for i in range(count):
        reads = [f"x{k}" for k in rng.sample(range(keys), 2)]
        specs.append(_spec(f"T{i}", rng.choice(CHURN_HOME_SITES), reads, reads[:1], rng))
    frng = _rng("churn_cbp", "faults", seed, shard)
    crashable = [s for s in range(CHURN_SITES) if s not in CHURN_HOME_SITES]
    faults = []
    for slot in range(CHURN_CRASHES):
        at = 1250.0 + slot * CHURN_SLOT_MS + CHURN_FD_INTERVAL_MS * frng.randrange(2)
        down = frng.uniform(1.25, 2.0) * CHURN_FD_TIMEOUT_MS
        victim = frng.choice(crashable)
        faults.append(Fault(at, "crash", (victim,)))
        faults.append(Fault(at + down, "recover", (victim,)))
    return Plan(
        config=dict(
            protocol="cbp",
            num_sites=CHURN_SITES,
            num_objects=keys,
            seed=cluster_seed(seed, shard),
            enable_failure_detector=True,
            fd_interval=CHURN_FD_INTERVAL_MS,
            fd_timeout=CHURN_FD_TIMEOUT_MS,
            cbp_heartbeat=500.0,
        ),
        specs=tuple(specs),
        faults=tuple(faults),
        clients=clients,
        think_ms=think,
        horizon_ms=CHURN_HORIZON_MS,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lan_rbp",
            "RBP, 12 sites, 256 keys, 8 clients, 0.5-1.5 ms links, no loss or faults: the "
            "vote storm loads engine, network, sizes and RBP handlers; 5x800 txns, tail p99",
            tail_pct=99,
            shards=5,
            make=_lan_rbp,
        ),
        Workload(
            "lossy_abp",
            "ABP, 8 sites, 64 keys, 8 clients, 0.5-1.5 ms links, 5% loss, a 50 ms partition "
            "isolating one site every 400 ms: ARQ, causal holdback, sequencing; 9x2400 txns, "
            "tail p99",
            tail_pct=99,
            shards=9,
            make=_lossy_abp,
        ),
        Workload(
            "churn_cbp",
            "CBP, 50 sites, FD and membership, 8 clients with 200 ms think time, 0.5-1.5 ms "
            "links, 2 rolling crash/recover per 15 s: liveness traffic, view changes; 5x15 s, p95",
            tail_pct=95,
            shards=5,
            make=_churn_cbp,
        ),
    )
}
