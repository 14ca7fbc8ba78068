"""One simulation of a workload shard: set up, drive, check, measure.

The cluster is driven through its public API only: ``Cluster`` /
``ClusterConfig``, ``Cluster.submit``, ``add_spec_listener``,
``crash_site`` / ``recover_site`` and ``partition`` / ``heal_partition``
scheduled with ``engine.schedule_at``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cluster import Cluster, ClusterConfig, SpecStatus

from workloads import Plan, Workload

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Simulated-time cap on a run, far beyond any workload's length (churn_cbp
#: runs about 16 s); reaching it leaves clients unanswered, which fails the
#: correctness check instead of hanging the benchmark.
MAX_SIM_MS = 60_000.0


@dataclass
class Record:
    """One logical transaction as its client saw it."""

    submitted: float
    final: Optional[float]  # None: never answered
    committed: bool
    read_only: bool


class ClosedLoop:
    """Feeds the plan's spec stream to ``plan.clients`` clients, each with
    one transaction outstanding; a client sends its next spec ``think_ms``
    after the previous one reached its final outcome, and retires when the
    stream or the plan's horizon runs out."""

    def __init__(self, cluster: Cluster, plan: Plan):
        self.cluster = cluster
        self.plan = plan
        self.next_spec = 0
        self.outstanding = 0
        self.records: dict[str, Record] = {}
        #: When the first client ran out of work (None: none has yet).
        self.first_retired: Optional[float] = None
        cluster.add_spec_listener(self._on_final)

    def start(self) -> None:
        for _ in range(self.plan.clients):
            self._submit(0.0)

    def done(self) -> bool:
        return self.outstanding == 0

    def _submit(self, at: float) -> None:
        plan = self.plan
        exhausted = self.next_spec >= len(plan.specs)
        if exhausted or (plan.horizon_ms is not None and at >= plan.horizon_ms):
            if self.first_retired is None:
                self.first_retired = self.cluster.engine.now
            return
        spec = plan.specs[self.next_spec]
        self.next_spec += 1
        self.outstanding += 1
        self.records[spec.name] = Record(at, None, False, spec.read_only)
        self.cluster.submit(spec, at=at)

    def _on_final(self, status: SpecStatus) -> None:
        now = self.cluster.engine.now
        record = self.records[status.spec.name]
        record.final = now
        record.committed = status.committed
        self.outstanding -= 1
        self._submit(now + self.plan.think_ms)


def max_stall(records: list[Record], end: float) -> float:
    """Longest simulated interval up to ``end`` during which submitted work
    was outstanding and no transaction reached a final outcome.  Work still
    outstanding at ``end`` counts as stalled until then."""
    events = []
    for record in records:
        if record.submitted > end:
            continue
        events.append((record.submitted, 1))
        final = record.final
        events.append((end if final is None or final > end else final, -1))
    # At equal times an outcome sorts first: it ends the stall before a
    # new submission could start one.
    events.sort()
    outstanding = 0
    since = 0.0
    longest = 0.0
    for at, delta in events:
        if delta > 0:
            if outstanding == 0:
                since = at
            outstanding += 1
        else:
            longest = max(longest, at - since)
            since = at
            outstanding -= 1
    return longest


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Shard:
    """What one simulation measured and which checks it failed.

    Host times are CPU seconds of this process: the simulator is
    single-threaded and does no I/O, so on an idle host they equal wall
    time, while on a shared one they leave out the time other processes
    held the CPU.  (On a shared two-CPU Linux host, 26 back-to-back runs of
    one lossy_abp shard took 2.3-3.5 s of wall time but 2.2-2.5 s of CPU
    time.)
    """

    setup_s: float
    cpu_s: float
    records: list[Record]
    duration_ms: float
    #: End of the window ``max_stall_ms`` looks at: when the first client
    #: ran out of work, or the end of the run.  The drain after it, where
    #: one or two retrying transactions are all that is left, is not a
    #: stall of the system.
    stall_window_ms: float
    events: int
    datagrams: int
    bytes_sent: int
    digest: str
    problems: list[str] = field(default_factory=list)
    cluster: Optional[Cluster] = field(default=None, repr=False)

    @property
    def committed(self) -> int:
        return sum(1 for r in self.records if r.committed)

    @property
    def failed(self) -> int:
        """Final but not committed, plus never answered."""
        return len(self.records) - self.committed

    def latencies(self) -> list[float]:
        """First submit -> commit of every committed update transaction."""
        return [r.final - r.submitted for r in self.records if r.committed and not r.read_only]

    def fingerprint(self) -> tuple:
        """Every deterministic outcome: equal on each run of one seed."""
        return (
            self.duration_ms,
            self.events,
            self.datagrams,
            self.bytes_sent,
            self.digest,
            tuple((r.submitted, r.final, r.committed) for r in self.records),
        )


def build(plan: Plan) -> tuple[Cluster, ClosedLoop]:
    """Build the cluster a plan runs on and arm its fault plan."""
    cluster = Cluster(ClusterConfig(**plan.config))
    actions = {
        "crash": cluster.crash_site,
        "recover": cluster.recover_site,
        "partition": cluster.partition,
        "heal": cluster.heal_partition,
    }
    for fault in plan.faults:
        cluster.engine.schedule_at(fault.at, actions[fault.action], *fault.args)
    return cluster, ClosedLoop(cluster, plan)


def simulate(workload: Workload, seed: int, shard: int, keep_cluster: bool = False) -> Shard:
    """Set up and run one shard of ``workload``; check its outcome."""
    gc.collect()
    started = time.process_time()
    cluster, loop = build(workload.make(seed, shard))
    setup_s = time.process_time() - started

    started = time.process_time()
    loop.start()
    result = cluster.run(max_time=MAX_SIM_MS, stop_when=loop.done)
    cpu_s = time.process_time() - started

    records = list(loop.records.values())
    problems = []
    if not result.serialization.ok:
        problems.append(f"not one-copy serializable: {result.serialization.explain()}")
    if not result.converged:
        problems.append("live replicas did not converge")
    unanswered = sum(1 for r in records if r.final is None)
    if unanswered or result.incomplete_specs:
        problems.append(f"{max(unanswered, result.incomplete_specs)} transactions never answered")
    stores = repr([replica.store.digest() for replica in cluster.replicas])
    return Shard(
        setup_s=setup_s,
        cpu_s=cpu_s,
        records=records,
        duration_ms=result.duration,
        stall_window_ms=result.duration if loop.first_retired is None else loop.first_retired,
        events=cluster.engine.events_processed,
        datagrams=result.network_stats["sent"],
        bytes_sent=result.network_stats["bytes_sent"],
        digest=hashlib.sha256(stores.encode()).hexdigest()[:16],
        problems=[f"shard {shard}: {p}" for p in problems],
        cluster=cluster if keep_cluster else None,
    )


def simulated_metrics(
    workload: Workload, shards: list[Shard]
) -> tuple[dict[str, float], list[str]]:
    """The deterministic end-to-end metrics of one pass over the shards.

    Counts, latencies and durations are pooled across shards; the stall is
    the median of the shards' longest stalls.  Also returns the problems
    found (a tail percentile with too few samples beyond it).
    """
    problems = []
    committed = sum(s.committed for s in shards)
    submitted = sum(len(s.records) for s in shards)
    latencies = [lat for s in shards for lat in s.latencies()]
    if not latencies:
        # Every client waited the whole run: report that as the latency.
        problems.append("no update transaction committed")
        latencies = [max(s.duration_ms for s in shards)]
    tail, beyond = percentile(latencies, workload.tail_pct)
    if beyond < TAIL_MIN_BEYOND:
        problems.append(
            f"p{workload.tail_pct} has {beyond} samples beyond it, fewer than {TAIL_MIN_BEYOND}"
        )
    per_commit = max(committed, 1)
    metrics = {
        "committed_per_sim_s": committed / (sum(s.duration_ms for s in shards) / 1000.0),
        "commit_p50_ms": percentile(latencies, 50)[0],
        "commit_tail_ms": tail,
        "msgs_per_commit": sum(s.datagrams for s in shards) / per_commit,
        "bytes_per_commit": sum(s.bytes_sent for s in shards) / per_commit,
        "committed_frac": committed / submitted,
        "max_stall_ms": statistics.median(
            max_stall(s.records, s.stall_window_ms) for s in shards
        ),
    }
    return metrics, problems
