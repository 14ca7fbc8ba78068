"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lan_rbp --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every shard of the workload once, tracing off, then
repeats shards in turn until about ``--seconds`` seconds have passed, and
reports the end-to-end metrics.
``--trace 1`` runs shard 0 untraced a few times and then once with the
layer spans of ``tracing.py`` installed, and reports the per-layer metrics
(span aggregates are also written to ``perfbench/out/``).  Every
simulation is checked for one-copy serializability, convergence and
unanswered clients, and every repeat of a simulation must reproduce the
first one exactly.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Untraced runs of shard 0 a traced run waits for (its baseline).
MIN_PLAIN = 2

#: The end-to-end metrics and their units.
UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "committed_per_sim_s": "txn/sim_s",
    "commit_p50_ms": "sim_ms",
    "commit_tail_ms": "sim_ms",
    "msgs_per_commit": "datagrams",
    "bytes_per_commit": "bytes",
    "committed_frac": "fraction",
    "max_stall_ms": "sim_ms",
}


def untraced(workload, seed: int, seconds: float) -> dict:
    from measure import simulate, simulated_metrics

    started = time.perf_counter()
    first = [simulate(workload, seed, k) for k in range(workload.shards)]
    # Repeat shards in turn while the time lasts (at least one): every
    # repeat must reproduce its first run exactly.
    repeats = []
    while True:
        elapsed = time.perf_counter() - started
        if repeats and elapsed * (1 + 1 / (len(first) + len(repeats))) > seconds:
            break
        repeats.append(simulate(workload, seed, len(repeats) % workload.shards))
    metrics, problems = simulated_metrics(workload, first)
    for shard in first:
        problems.extend(shard.problems)
    for k, again in enumerate(repeats):
        if again.fingerprint() != first[k % workload.shards].fingerprint():
            problems.append(f"determinism: shard {k % workload.shards} differs on repeat")
    every = first + repeats
    metrics.update(
        cpu_s=statistics.median(s.cpu_s for s in every),
        setup_s=statistics.median(s.setup_s for s in every),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return _result(every, problems, {name: (metrics[name], unit) for name, unit in UNITS.items()})


def traced(workload, seed: int, seconds: float) -> dict:
    from measure import simulate
    from tracing import CLIENT, LAYERS, Tracer, installed

    started = time.perf_counter()
    plain = []
    while True:
        plain.append(simulate(workload, seed, 0))
        elapsed = time.perf_counter() - started
        # Leave room for the traced run, about three untraced runs long.
        if len(plain) >= MIN_PLAIN and elapsed * (len(plain) + 4) / len(plain) > seconds:
            break
    tracer = Tracer()
    with installed(tracer):
        shard = simulate(workload, seed, 0, keep_cluster=True)
    problems = list(shard.problems)
    for repeat in plain:
        if repeat.fingerprint() != plain[0].fingerprint():
            problems.append("determinism: untraced repeats differ")
    if shard.fingerprint() != plain[0].fingerprint():
        problems.append("tracing changed the simulation's outcome")

    cluster = shard.cluster
    stats = cluster.network.stats
    by_kind = stats.by_kind
    counts = tracer.counts
    self_s = tracer.self_s
    sent = max(stats.sent, 1)
    untraced_cpu = statistics.median(s.cpu_s for s in plain)
    metrics = {
        "sim.events": (shard.events, "count"),
        "sim.events_per_s": (shard.events / untraced_cpu, "1/s"),
        "sim.scheduled": (counts["sim.scheduled"], "count"),
        "sim.cancelled": (counts["sim.cancelled"], "count"),
        "net.datagrams": (stats.sent, "count"),
        "net.bytes": (stats.bytes_sent, "bytes"),
        "net.dropped": (
            stats.dropped_loss + stats.dropped_partition + stats.dropped_crashed,
            "count",
        ),
        "net.retransmissions": (stats.retransmissions, "count"),
        "net.payload_frac": (
            (stats.sent - by_kind["transport.ack"] - by_kind["transport.retransmit"]) / sent,
            "fraction",
        ),
        "broadcast.broadcasts": (counts["broadcast.broadcasts"], "count"),
        "broadcast.deliveries": (counts["broadcast.deliveries"], "count"),
        "broadcast.liveness_frac": (
            (by_kind["fd.heartbeat"] + by_kind["cbp.null"]) / sent,
            "fraction",
        ),
        "broadcast.view_changes": (counts["broadcast.view_changes"], "count"),
        "core.attempts": (counts["core.attempts"], "count"),
        "core.attempts_per_commit": (counts["core.attempts"] / max(shard.committed, 1), "ratio"),
        "core.state_transfers": (
            sum(agent.transfers_completed for agent in cluster.recovery_agents),
            "count",
        ),
        "db.lock_acquires": (counts["db.lock_acquires"], "count"),
        "db.installs": (counts["db.installs"], "count"),
        "db.wal_records": (counts["db.wal_records"], "count"),
        "db.check_s": (self_s["db.check"], "s"),
        "trace.overhead": (shard.cpu_s / untraced_cpu, "ratio"),
    }
    for layer in LAYERS:
        if layer not in ("db.check", CLIENT):
            metrics[f"{layer}.self_s"] = (self_s[layer], "s")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = {
        "workload": workload.name,
        "seed": seed,
        "shard": 0,
        "traced_cpu_s": shard.cpu_s,
        "untraced_cpu_s": untraced_cpu,
        **tracer.summary(),
    }
    (out / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(spans, indent=1))
    return _result(plain + [shard], problems, metrics)


def _result(shards, problems, metrics) -> dict:
    for problem in problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(s.records) for s in shards),
        "failed": sum(s.failed for s in shards),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    run = traced if args.trace else untraced
    print(json.dumps(run(workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
