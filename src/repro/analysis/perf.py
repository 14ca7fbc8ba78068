"""Performance-regression harness: timed benchmarks + JSON trajectory.

The experiments in ``benchmarks/`` regenerate the paper's *comparative*
claims; this module makes the harness's own *speed* a tracked artifact.  It
times

- two **macro** configurations representative of E1 (message cost, 8 sites,
  CBP) and E5 (throughput, ABP at MPL 8) and reports simulated events/sec,
  wall-clock, and the run's simulated commit-latency p50/p95;
- two **micro** benchmarks isolating the kernel hot paths this repo's
  optimisation PRs target: engine schedule/cancel timer churn and
  vector-clock comparisons;
- a **sweep-scaling** entry (one cell, many seeds) that times the
  seed-sharded parallel scheduler against its serial run, asserts the two
  are byte-identical, and reports the speedup at ``--jobs`` workers.

``scripts/bench_report.py`` runs the suite, writes the next ``BENCH_N.json``
at the repository root and compares against the previous one with a
configurable tolerance, so a kernel regression fails loudly instead of
silently eating every later experiment's wall-clock budget.

Wall-clock numbers are hardware-dependent; the JSON embeds enough context
(python version, quick/full mode) that comparisons only happen between
like-for-like reports.
"""

# detcheck: file-ignore[D102] — wall-clock timing is this module's purpose;
# nothing here feeds back into simulated behavior.

from __future__ import annotations

import json
import pathlib
import platform
import re
import time
from dataclasses import dataclass, field
from typing import Any

SCHEMA_VERSION = 1

BENCH_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass
class BenchResult:
    """One timed benchmark."""

    name: str
    wall_s: float
    ops: int  #: work units done: simulation events (macro) or operations (micro)
    unit: str  #: what ``ops`` counts, e.g. "events", "compares"
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else float("inf")

    def to_json(self) -> dict[str, Any]:
        return {
            "wall_s": round(self.wall_s, 6),
            "ops": self.ops,
            "unit": self.unit,
            "ops_per_sec": round(self.ops_per_sec, 3),
            "metrics": {k: round(v, 6) for k, v in sorted(self.metrics.items())},
        }


# -- micro benchmarks ---------------------------------------------------------


def bench_engine_churn(timers: int = 100_000, quick: bool = False) -> BenchResult:
    """ARQ-style schedule/cancel churn through the event loop.

    Mimics what a lossy-network run does to the kernel: arm a timer, cancel
    most of them before they fire, keep going.  Exercises the lazy-compaction
    path; ``metrics`` reports the final heap size so a compaction regression
    (heap pinned by cancelled entries) is visible, not just slow.
    """
    from repro.sim.engine import SimulationEngine

    if quick:
        timers //= 10
    engine = SimulationEngine()
    pending: list = []

    def churn(round_no: int) -> None:
        # Cancel what the previous round armed (acks arrived)...
        for handle in pending:
            handle.cancel()
        pending.clear()
        if round_no <= 0:
            return
        # ...and arm a fresh burst of retransmit timers.
        for i in range(10):
            pending.append(engine.schedule(5.0 + i, lambda: None))
        engine.schedule(1.0, churn, round_no - 1)

    started = time.perf_counter()
    engine.schedule(0.0, churn, timers // 10)
    engine.run()
    wall = time.perf_counter() - started
    return BenchResult(
        name="engine_churn",
        wall_s=wall,
        ops=engine.events_processed,
        unit="events",
        metrics={
            "timers_armed": float(timers),
            "final_heap": float(engine.heap_size()),
            "compactions": float(engine.compactions),
        },
    )


def bench_vector_clock(sites: int = 8, iterations: int = 60_000, quick: bool = False) -> BenchResult:
    """Fused vs chained comparison throughput on CBP-shaped clocks."""
    from repro.sim.rng import RngRegistry
    from repro.broadcast.vector_clock import VectorClock

    if quick:
        iterations //= 10
    rng = RngRegistry(4242).stream("perf.vclock")
    clocks = [
        VectorClock([rng.randrange(0, 50) for _ in range(sites)]) for _ in range(256)
    ]
    pairs = [
        (clocks[rng.randrange(len(clocks))], clocks[rng.randrange(len(clocks))])
        for _ in range(512)
    ]
    started = time.perf_counter()
    sink = 0
    for i in range(iterations):
        a, b = pairs[i % len(pairs)]
        sink += a.compare(b)
        if a.concurrent_with(b):
            sink += 1
    wall = time.perf_counter() - started
    return BenchResult(
        name="vector_clock_compare",
        wall_s=wall,
        ops=iterations * 2,  # one compare() + one concurrent_with() per loop
        unit="compares",
        metrics={"sites": float(sites), "checksum": float(sink)},
    )


# -- macro benchmarks (representative experiment configs) ----------------------


def _run_macro(name: str, protocol: str, quick: bool, **knobs: Any) -> BenchResult:
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    cluster_kw = dict(knobs)
    workload_kw: dict[str, Any] = cluster_kw.pop("workload")
    transactions = cluster_kw.pop("transactions")
    mpl = cluster_kw.pop("mpl")
    if quick:
        transactions = max(8, transactions // 4)
    cluster = Cluster(ClusterConfig(protocol=protocol, **cluster_kw))
    runner = ClosedLoopRunner(
        cluster, WorkloadConfig(**workload_kw), mpl=mpl, transactions=transactions
    )
    started = time.perf_counter()
    runner.start()
    result = cluster.run(max_time=5_000_000.0)
    wall = time.perf_counter() - started
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged, "replicas diverged"
    latency = result.metrics.commit_latency(read_only=False)
    metrics = {
        "committed": float(result.committed_specs),
        "sim_duration_ms": result.duration,
        "messages": float(result.network_stats["sent"]),
    }
    if latency.count:
        metrics["latency_p50_ms"] = latency.p50
        metrics["latency_p95_ms"] = latency.p95
    return BenchResult(
        name=name,
        wall_s=wall,
        ops=cluster.engine.events_processed,
        unit="events",
        metrics=metrics,
    )


def bench_e1_representative(quick: bool = False) -> BenchResult:
    """E1's shape: message cost under CBP, 8 sites, 4 writes/txn."""
    return _run_macro(
        "e1_message_cost_cbp",
        "cbp",
        quick,
        num_sites=8,
        num_objects=256,
        seed=42,
        cbp_heartbeat=25.0,
        transactions=48,
        mpl=4,
        workload=dict(
            num_objects=256, num_sites=8, read_ops=4, write_ops=4, zipf_theta=0.0
        ),
    )


def bench_e5_representative(quick: bool = False) -> BenchResult:
    """E5's pytest-benchmark cell: ABP throughput at MPL 8, theta 0.4."""
    return _run_macro(
        "e5_throughput_abp",
        "abp",
        quick,
        num_sites=4,
        num_objects=48,
        seed=21,
        cbp_heartbeat=15.0,
        max_attempts=80,
        retry_backoff=4.0,
        transactions=60,
        mpl=8,
        workload=dict(
            num_objects=48, num_sites=4, read_ops=2, write_ops=2, zipf_theta=0.4
        ),
    )


def bench_e9_representative(quick: bool = False) -> BenchResult:
    """E9's shape: RBP riding through a crash/recover and a partition/heal
    under a closed-loop workload, with the failure detector driving view
    changes and decision queries terminating the in-doubt cohorts.

    Beyond events/sec, the report embeds the termination counters and the
    update commit-latency tail: a blocked-transaction tail (a cohort pinned
    on an outcome it cannot learn) would surface as unanswered clients —
    asserted to be zero — or a latency-p95 cliff in the trajectory.
    """
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.sim.faults import FaultSchedule
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    transactions = 24 if quick else 96
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=5,
            num_objects=64,
            seed=97,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=40,
            retry_backoff=5.0,
        )
    )
    # The think time stretches the workload across the fault timeline: a
    # crash/recover of site 4 early on, then a transient partition aimed
    # into an active 2PC window, with the home crashing inside the split.
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=64, num_sites=5, read_ops=2, write_ops=2, zipf_theta=0.2
        ),
        mpl=4,
        transactions=transactions,
        think_time=60.0,
    )
    # The cut at t=1108 lands between a site-4-homed transaction's commit
    # request and its votes (under seed 97): the cohort caught on the home's
    # side prepares but its vote reaches nobody, and the home then crashes
    # undecided — so the full-mode run exercises in-doubt entry, decision
    # queries, and the presumed-abort fallback, not just clean failover.
    # The heal at t=1148 is shorter than fd_timeout, which also strands a
    # few mid-write-round acks: the write-phase watchdog must retire those
    # retryably (rbp_write_timeouts below) or clients block forever.
    FaultSchedule(cluster).crash(4, at=300.0).recover(4, at=900.0).partition(
        [[2, 4], [0, 1, 3]], at=1108.0
    ).heal(at=1148.0).crash(4, at=1111.0).recover(4, at=1600.0)
    started = time.perf_counter()
    runner.start()
    # Think time opens all-final lulls between submissions; stop only once
    # every planned transaction has been submitted and answered.
    result = cluster.run(
        max_time=5_000_000.0, stop_when=cluster.await_specs(transactions)
    )
    wall = time.perf_counter() - started
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged, "replicas diverged"
    assert result.incomplete_specs == 0, "blocked-transaction tail: unanswered clients"
    latency = result.metrics.commit_latency(read_only=False)
    m = result.metrics
    metrics = {
        "committed": float(result.committed_specs),
        "failed": float(result.failed_specs),
        "sim_duration_ms": result.duration,
        "messages": float(result.network_stats["sent"]),
        "rbp_in_doubt": float(m.rbp_in_doubt),
        "rbp_decision_queries": float(m.rbp_decision_queries),
        "rbp_resolved_by_query_commit": float(m.rbp_resolved_by_query_commit),
        "rbp_resolved_by_presumption": float(m.rbp_resolved_by_presumption),
        "rbp_write_timeouts": float(m.rbp_write_timeouts),
    }
    if latency.count:
        metrics["latency_p50_ms"] = latency.p50
        metrics["latency_p95_ms"] = latency.p95
    return BenchResult(
        name="e9_failover_rbp",
        wall_s=wall,
        ops=cluster.engine.events_processed,
        unit="events",
        metrics=metrics,
    )


def bench_e12_loss_sweep(quick: bool = False) -> BenchResult:
    """E12's shape: every protocol committing *through* 5% datagram loss and
    partition flaps, with the ARQ transport (epochs, bounded window,
    backed-off retransmission) doing the repairs.

    The report embeds the repair counters: ``retransmissions`` is the
    transport's bill for the loss, and ``rbp_write_timeouts`` — asserted
    zero — is the proof the repairs land before the write-grace watchdog
    would have retired the stalled rounds retryably.
    """
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.sim.faults import FaultSchedule
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    protocols = ("rbp",) if quick else ("rbp", "cbp", "abp", "p2p")
    transactions = 12 if quick else 24
    started = time.perf_counter()
    events = 0
    committed = 0
    retransmissions = 0.0
    write_timeouts = 0.0
    sim_ms = 0.0
    for protocol in protocols:
        cluster = Cluster(
            ClusterConfig(
                protocol=protocol,
                num_sites=4,
                num_objects=96,
                seed=97,
                loss_rate=0.05,
                reliable_links=True,
                enable_failure_detector=True,
                fd_interval=20.0,
                fd_timeout=150.0,
                relay=True,
                max_attempts=40,
                retry_backoff=5.0,
            )
        )
        # Flaps shorter than the detector timeout: no view change, so every
        # dropped datagram is the transport's to repair.  The cadence puts
        # every split inside the closed-loop workload's active window.
        FaultSchedule(cluster).flap(
            [[0, 1, 2], [3]], at=80.0, hold=50.0, gap=120.0, cycles=3
        )
        runner = ClosedLoopRunner(
            cluster,
            WorkloadConfig(num_objects=96, num_sites=4, read_ops=2, write_ops=1),
            mpl=4,
            transactions=transactions,
            think_time=20.0,
        )
        runner.start()
        result = cluster.run(
            max_time=5_000_000.0, stop_when=cluster.await_specs(transactions)
        )
        assert result.serialization.ok, result.serialization.explain()
        assert result.converged, "replicas diverged"
        assert result.incomplete_specs == 0, "unanswered clients under loss"
        events += cluster.engine.events_processed
        committed += result.committed_specs
        retransmissions += result.network_stats["retransmissions"]
        write_timeouts += result.metrics.rbp_write_timeouts
        sim_ms += result.duration
    wall = time.perf_counter() - started
    assert write_timeouts == 0, "ARQ failed to repair a write round in time"
    return BenchResult(
        name="e12_loss_sweep",
        wall_s=wall,
        ops=events,
        unit="events",
        metrics={
            "protocols": float(len(protocols)),
            "committed": float(committed),
            "retransmissions": retransmissions,
            "rbp_write_timeouts": write_timeouts,
            "sim_duration_ms": sim_ms,
        },
    )


def bench_e13_churn_soak(quick: bool = False) -> BenchResult:
    """E13's shape: rolling-restart churn soaks with the oracles armed,
    probed along the size axis.

    Each probe is a complete :func:`repro.workload.soak.run_churn_soak`
    cell — scaled failure-detector cadence, seeded churn plan, closed-loop
    clients, ring-buffer tracing — so the wall-clock covers everything a
    real E13 sweep pays per cell, state transfers included.  The headline
    metric is ``max_sites_at_interactive_speed``: the largest probed
    cluster whose soak advances simulated time at least as fast as wall
    time, for RBP (the suite's slowest protocol at scale — its per-write
    vote rounds are O(n) messages each).  Later PRs push this number up.
    """
    from repro.workload.soak import SoakConfig, run_churn_soak

    sizes = (12, 24) if quick else (50, 100, 200)
    duration = 8_000.0 if quick else 20_000.0
    started = time.perf_counter()
    events = 0
    metrics: dict[str, float] = {}
    max_interactive = 0.0
    for sites in sizes:
        cell_started = time.perf_counter()
        cell = run_churn_soak(
            "rbp",
            SoakConfig(sites=sites, duration=duration, trace=True, trace_capacity=5_000),
            seed=1,
        )
        cell_wall = time.perf_counter() - cell_started
        speed = (cell["duration_ms"] / 1_000.0) / cell_wall if cell_wall > 0 else 0.0
        events += int(cell["events"])
        metrics[f"speed_x_{sites}_sites"] = speed
        metrics[f"committed_{sites}_sites"] = cell["committed"]
        metrics[f"max_stall_ms_{sites}_sites"] = cell["max_stall_ms"]
        if speed >= 1.0:
            max_interactive = float(sites)
    metrics["max_sites_at_interactive_speed"] = max_interactive
    metrics["sim_duration_ms_per_cell"] = duration
    return BenchResult(
        name="e13_churn_soak",
        wall_s=time.perf_counter() - started,
        ops=events,
        unit="events",
        metrics=metrics,
    )


def bench_e14_batching(quick: bool = False) -> BenchResult:
    """E14's shape: broadcast batching against passthrough on lossy links.

    Two before/after pairs, both at 5% datagram loss (the regime the
    batching layer exists for — every coalesced datagram is a loss trial
    that never happens):

    - an **E1-shaped byte-cost pair** (CBP, 8 sites, 4 writes/txn): the
      report's ``e1_bytes_drop_frac`` is the fractional drop in wire bytes
      per committed update from shared headers and delta vector clocks —
      the saving E14 finds at every seed;
    - an **E5-shaped throughput pair** (ABP, MPL 8, conflict-free): the
      report's ``e5_speedup_x`` is the batched run's committed txn/s over
      the passthrough run's at the single seed 21.  It is a regression
      tracker, not a claim: in the E14 sweep cell the same ABP ratio has
      a median of 0.92 (0.43–1.68) over seeds 21–30, i.e. batching does
      not reliably raise throughput (see EXPERIMENTS.md, E14).

    Both pairs assert the batched run commits exactly the transactions the
    passthrough run does; the numbers are meaningless otherwise.
    """
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    def run_pair(protocol, sites, mpl, transactions, workload_kw, **cluster_kw):
        cells = []
        for batching in (None, 2.0):
            cluster = Cluster(
                ClusterConfig(
                    protocol=protocol,
                    num_sites=sites,
                    loss_rate=0.05,
                    batching=batching,
                    **cluster_kw,
                )
            )
            runner = ClosedLoopRunner(
                cluster,
                WorkloadConfig(**workload_kw),
                mpl=mpl,
                transactions=transactions,
            )
            runner.start()
            result = cluster.run(max_time=5_000_000.0)
            assert result.serialization.ok, result.serialization.explain()
            assert result.converged, "replicas diverged"
            cells.append((cluster, result))
        assert {n for n, s in cells[0][0]._specs.items() if s.committed} == {
            n for n, s in cells[1][0]._specs.items() if s.committed
        }, "batching changed the committed set"
        return cells

    started = time.perf_counter()
    e5_tx = 24 if quick else 100
    e5_cells = run_pair(
        "abp",
        4,
        8,
        e5_tx,
        dict(num_objects=256, num_sites=4, read_ops=2, write_ops=2, zipf_theta=0.0),
        num_objects=256,
        seed=21,
    )
    e1_tx = 12 if quick else 48
    e1_cells = run_pair(
        "cbp",
        8,
        4,
        e1_tx,
        dict(num_objects=256, num_sites=8, read_ops=4, write_ops=4, zipf_theta=0.0),
        num_objects=256,
        seed=42,
        cbp_heartbeat=25.0,
    )
    wall = time.perf_counter() - started

    def txn_s(result):
        return result.metrics.throughput(result.duration) * 1000.0

    def bytes_per_update(result):
        return result.network_stats["bytes_sent"] / max(
            result.metrics.committed_update_count(), 1
        )

    (_, e5_base), (_, e5_batched) = e5_cells
    (_, e1_base), (_, e1_batched) = e1_cells
    events = sum(cluster.engine.events_processed for cluster, _ in e5_cells + e1_cells)
    e1_drop = 1.0 - bytes_per_update(e1_batched) / bytes_per_update(e1_base)
    return BenchResult(
        name="e14_batching",
        wall_s=wall,
        ops=events,
        unit="events",
        metrics={
            "e5_txn_s_passthrough": txn_s(e5_base),
            "e5_txn_s_batched": txn_s(e5_batched),
            "e5_speedup_x": txn_s(e5_batched) / txn_s(e5_base),
            "e5_datagrams_passthrough": float(e5_base.network_stats["sent"]),
            "e5_datagrams_batched": float(e5_batched.network_stats["sent"]),
            "e1_bytes_per_update_passthrough": bytes_per_update(e1_base),
            "e1_bytes_per_update_batched": bytes_per_update(e1_batched),
            "e1_bytes_drop_frac": e1_drop,
        },
    )


# -- sweep scaling (seed-sharded parallel sweeps) ------------------------------


def _sweep_scaling_cell(protocol: str, mpl: int, seed: int) -> dict:
    """One seed of the scaling sweep's single cell (picklable, module-level
    so the worker pool can ship it).  Reports the commit-latency
    distribution as a mergeable accumulator, so the sweep's percentiles are
    pooled across seeds through the order-canonical merge layer."""
    from repro.analysis.metrics import QuantileAccumulator
    from repro.core.cluster import Cluster, ClusterConfig
    from repro.workload.generator import WorkloadConfig
    from repro.workload.runner import ClosedLoopRunner

    cluster = Cluster(
        ClusterConfig(protocol=protocol, num_sites=4, num_objects=48, seed=seed)
    )
    runner = ClosedLoopRunner(
        cluster,
        WorkloadConfig(
            num_objects=48, num_sites=4, read_ops=2, write_ops=2, zipf_theta=0.3
        ),
        mpl=mpl,
        transactions=24,
    )
    runner.start()
    result = cluster.run(max_time=5_000_000.0)
    assert result.ok, "scaling sweep cell violated invariants"
    latency = QuantileAccumulator()
    for outcome in result.metrics.committed:
        if not outcome.read_only:
            latency.observe(outcome.latency)
    return {
        "events": float(cluster.engine.events_processed),
        "commits": float(result.committed_specs),
        "latency (ms)": latency,
    }


def bench_sweep_scaling(jobs: int = 4, quick: bool = False) -> BenchResult:
    """Seed-sharded sweep throughput: one cell, many seeds, serial vs pool.

    The regime the two-level scheduler exists for — a single large cell
    that the old cells-only fan-out would bind to one core.  Times the
    same sweep at ``jobs=1`` and ``jobs=N``, asserts the outcome digests
    are byte-identical (the determinism contract, not just a test-suite
    property), and reports the wall-clock speedup.  On a single-core
    container the speedup hovers around 1x (process scheduling overhead
    included); the metric exists so multi-core trajectories show scaling
    and regressions in either mode fail the gate.
    """
    from repro.analysis.experiment import run_sweep

    seeds = tuple(range(6 if quick else 16))
    sweep_kwargs = dict(
        name="sweep_scaling",
        scenario=_sweep_scaling_cell,
        parameters=(8,),
        protocols=("rbp",),
        seeds=seeds,
    )
    started = time.perf_counter()
    serial = run_sweep(**sweep_kwargs, jobs=1)
    serial_wall = time.perf_counter() - started
    started = time.perf_counter()
    parallel = run_sweep(**sweep_kwargs, jobs=jobs)
    parallel_wall = time.perf_counter() - started
    assert parallel.digest() == serial.digest(), (
        "parallel sweep output diverged from serial"
    )
    events_per_seed = serial.value(8, "rbp", "events")
    total_events = int(events_per_seed * len(seeds))
    return BenchResult(
        name="sweep_scaling_rbp",
        wall_s=parallel_wall,
        ops=total_events,
        unit="events",
        metrics={
            "seeds": float(len(seeds)),
            "jobs": float(jobs),
            "serial_wall_s": serial_wall,
            "parallel_wall_s": parallel_wall,
            "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
            "latency_p95_ms": serial.value(8, "rbp", "latency (ms) p95"),
        },
    )


# -- suite / report -----------------------------------------------------------


def run_suite(quick: bool = False, jobs: int = 4) -> list[BenchResult]:
    """Run every benchmark, micro first (they warm nothing up; order is
    cosmetic but stable so reports diff cleanly)."""
    return [
        bench_engine_churn(quick=quick),
        bench_vector_clock(quick=quick),
        bench_e1_representative(quick=quick),
        bench_e5_representative(quick=quick),
        bench_e9_representative(quick=quick),
        bench_e12_loss_sweep(quick=quick),
        bench_e13_churn_soak(quick=quick),
        bench_e14_batching(quick=quick),
        bench_sweep_scaling(jobs=jobs, quick=quick),
    ]


def to_report(results: list[BenchResult], quick: bool = False) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "python": platform.python_version(),
        "benchmarks": {r.name: r.to_json() for r in results},
    }


def write_report(path: pathlib.Path, report: dict[str, Any]) -> None:
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: pathlib.Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def bench_paths(root: pathlib.Path) -> list[pathlib.Path]:
    """Every BENCH_N.json under ``root``, sorted by N."""
    found = []
    for path in root.iterdir():
        match = BENCH_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def next_bench_path(root: pathlib.Path) -> pathlib.Path:
    existing = bench_paths(root)
    if not existing:
        return root / "BENCH_1.json"
    last = int(BENCH_PATTERN.match(existing[-1].name).group(1))
    return root / f"BENCH_{last + 1}.json"


def compare_reports(
    baseline: dict[str, Any], current: dict[str, Any], tolerance: float = 0.35
) -> list[str]:
    """Regressions of ``current`` against ``baseline``.

    A benchmark regresses when its ops/sec fell by more than ``tolerance``
    (fractional).  Reports from different modes (quick vs full) are never
    compared — wall-clock simply isn't comparable across workload sizes —
    and that mismatch is reported as a note, not a regression.
    """
    if baseline.get("quick") != current.get("quick"):
        return []
    regressions = []
    base_benches = baseline.get("benchmarks", {})
    for name, entry in sorted(current.get("benchmarks", {}).items()):
        base = base_benches.get(name)
        if base is None:
            continue
        old = base.get("ops_per_sec", 0.0)
        new = entry.get("ops_per_sec", 0.0)
        if old > 0 and new < old * (1.0 - tolerance):
            regressions.append(
                f"{name}: {new:,.0f} {entry.get('unit', 'ops')}/s vs baseline "
                f"{old:,.0f} ({new / old - 1.0:+.1%}, tolerance -{tolerance:.0%})"
            )
    return regressions


def render_results(results: list[BenchResult]) -> str:
    """Human-readable summary table for the console."""
    from repro.analysis.report import Table

    table = Table(
        ["benchmark", "wall (s)", "ops", "ops/sec", "unit"],
        title="perf suite",
    )
    for r in results:
        table.add_row(r.name, r.wall_s, r.ops, r.ops_per_sec, r.unit)
    return table.render()
