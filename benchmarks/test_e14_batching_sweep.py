"""E14 (extension) — Broadcast batching: flush-window sweep.

The paper's protocols pay a fixed per-datagram price — framing bytes on
the wire, one loss trial per datagram on a lossy link.  E14 measures what
batched mode (a flush window's traffic coalesced into shared envelopes per
link, ABP order assignments coalesced per instant, delta vector clocks)
buys, sweeping the flush window for all four protocols on lossy links:

- **physical datagrams per committed update** fall for every protocol at
  every seed (the headline: each datagram that never exists is a loss
  trial that never happens and a header never paid);
- **wire bytes per committed update** fall likewise, from shared headers
  and delta clocks;
- **throughput** (committed txns per simulated second) does *not* reliably
  improve: across seeds 21–30 at a 2 ms window the batched/passthrough
  ratio's median is below 1 for every protocol, with a seed-to-seed spread
  of roughly 0.4–1.7×.  The sweep table still prints it; nothing asserts a
  throughput win.

The sweep tables use seed 21; the asserted claims hold per seed over
``SEEDS``.  Passthrough (``batching=None``) runs bit-identically to the
historical wire traffic — asserted by
tests/integration/test_batching_equivalence.py, so this file only
measures the enabled configurations against it.
"""

from benchmarks.common import (
    PROTOCOLS,
    bench_once,
    make_cluster,
    print_experiment_table,
    run_mix,
    standard_workload,
)
from repro.analysis.report import Table

#: None = passthrough; numbers are flush windows in simulated ms.
WINDOWS = (None, 0.0, 2.0, 5.0)
LOSS = 0.05
TX_PER_POINT = 60
#: Seeds over which the datagram and byte savings are asserted one by one.
SEEDS = (21, 22, 23, 24, 25)


def batching_run(protocol: str, window, seed: int = 21):
    cluster = make_cluster(
        protocol,
        num_objects=256,
        seed=seed,
        loss_rate=LOSS,
        batching=window,
    )
    workload = standard_workload(num_objects=256, zipf_theta=0.0)
    result = run_mix(cluster, workload, transactions=TX_PER_POINT, mpl=8)
    assert result.committed_specs == TX_PER_POINT
    updates = result.metrics.committed_update_count()
    return {
        "txn_s": result.metrics.throughput(result.duration) * 1000.0,
        "datagrams_per_update": result.network_stats["sent"] / updates,
        "bytes_per_update": result.network_stats["bytes_sent"] / updates,
    }


def test_e14_batching_sweep(benchmark):
    measured = {}
    for protocol in PROTOCOLS:
        for window in WINDOWS:
            measured[(protocol, window)] = batching_run(protocol, window)

    for title, metric in (
        ("E14a: committed txn/s vs flush window (5% loss, seed 21)", "txn_s"),
        ("E14b: physical datagrams per committed update", "datagrams_per_update"),
        ("E14c: wire bytes per committed update", "bytes_per_update"),
    ):
        table = Table(["window (ms)"] + list(PROTOCOLS), title=title)
        for window in WINDOWS:
            table.add_row(
                "off" if window is None else window,
                *(measured[(p, window)][metric] for p in PROTOCOLS),
            )
        print_experiment_table(table)

    table = Table(
        ["protocol", "seed", "datagrams x", "bytes x", "txn/s x"],
        title="E14d: batched (2 ms) over passthrough, per seed",
    )
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            base = batching_run(protocol, None, seed)
            swept = batching_run(protocol, 2.0, seed)
            ratios = {metric: swept[metric] / base[metric] for metric in swept}
            table.add_row(
                protocol,
                seed,
                ratios["datagrams_per_update"],
                ratios["bytes_per_update"],
                ratios["txn_s"],
            )
            # Coalescing really coalesces, at every seed: fewer physical
            # datagrams and fewer wire bytes per committed update.
            assert ratios["datagrams_per_update"] < 1.0, (protocol, seed, ratios)
            assert ratios["bytes_per_update"] < 1.0, (protocol, seed, ratios)
    print_experiment_table(table)

    bench_once(benchmark, batching_run, "abp", 2.0)
