"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from measure import Record, Shard, build, max_stall, percentile, simulated_metrics  # noqa: E402
from workloads import CALIBRATION_SEED, HELD_OUT_SEED, WORKLOADS, Fault, Plan  # noqa: E402

from repro.core.transaction import TransactionSpec  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, specs: int = 80):
    """``name`` cut down to one shard and the first ``specs`` transactions."""
    base = WORKLOADS[name]

    def make(seed: int, shard: int) -> Plan:
        plan = base.make(seed, shard)
        return dataclasses.replace(plan, specs=plan.specs[:specs])

    return dataclasses.replace(base, shards=1, make=make)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_given_the_seed(name):
    make = WORKLOADS[name].make
    assert make(CALIBRATION_SEED, 0) == make(CALIBRATION_SEED, 0)
    assert make(CALIBRATION_SEED, 1) == make(CALIBRATION_SEED, 1)
    assert make(CALIBRATION_SEED, 0).specs != make(HELD_OUT_SEED, 0).specs
    assert make(CALIBRATION_SEED, 0).specs != make(CALIBRATION_SEED, 1).specs


def test_fault_plans_differ_by_seed_and_stay_in_bounds():
    for name in ("lossy_abp", "churn_cbp"):
        make = WORKLOADS[name].make
        assert make(CALIBRATION_SEED, 0).faults == make(CALIBRATION_SEED, 0).faults
        assert make(CALIBRATION_SEED, 0).faults != make(HELD_OUT_SEED, 0).faults
    churn = WORKLOADS["churn_cbp"].make(HELD_OUT_SEED, 0)
    homes = {spec.home for spec in churn.specs}
    crashed = {f.args[0] for f in churn.faults if f.action == "crash"}
    assert crashed and not homes & crashed
    assert max(f.at for f in churn.faults) < churn.horizon_ms


def test_workloads_match_benchmark_json():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(trace, section):
    workload = tiny("lossy_abp")
    result = (run.traced if trace else run.untraced)(workload, CALIBRATION_SEED, 0.0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_wrappers_are_fully_removed_after_a_traced_run():
    before = tracing.originals()
    result = run.traced(tiny("lossy_abp"), CALIBRATION_SEED, 0.0)
    assert result["metrics"]["sim.scheduled"]["value"] > 0
    after = tracing.originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_removed_when_the_traced_run_fails():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert tracing.originals() != before
            raise RuntimeError("simulated failure")
    assert all(tracing.originals()[key] is value for key, value in before.items())


def test_traced_run_reproduces_the_untraced_outcome():
    result = run.traced(tiny("churn_cbp", specs=40), CALIBRATION_SEED, 0.0)
    # "correct" folds in the traced-vs-untraced fingerprint comparison;
    # the tiny plan fails only the tail-sample check, which traced() skips.
    assert result["correct"], result
    assert result["metrics"]["broadcast.view_changes"]["value"] > 0


def test_max_stall_by_hand():
    records = [
        Record(0.0, 10.0, True, False),
        Record(5.0, 12.0, True, False),
        Record(30.0, 31.0, False, False),
    ]
    # Outstanding from 0: outcomes at 10 and 12; idle until 30.
    assert max_stall(records, end=50.0) == 10.0
    # Nothing after the end of the window counts: a transaction still
    # outstanding is stalled until the end, one submitted later is ignored.
    assert max_stall(records, end=11.0) == 10.0
    assert max_stall(records, end=25.0) == 10.0
    assert max_stall(records[:2] + [Record(14.0, 40.0, True, False)], end=35.0) == 21.0
    # A transaction never answered stays outstanding until the end.
    records.append(Record(40.0, None, False, False))
    assert max_stall(records, end=100.0) == 60.0
    assert max_stall([], end=5.0) == 0.0


def test_percentile_counts_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 99) == (99.0, 1)
    assert percentile(values, 90) == (90.0, 10)
    assert percentile(values, 50) == (50.0, 50)


def _update(name: str, home: int, key: str) -> TransactionSpec:
    return TransactionSpec.make(name, home=home, read_keys=[key], writes={key: 1})


def _run(plan: Plan, max_time: float) -> tuple[Shard, dict[str, float]]:
    cluster, loop = build(plan)
    loop.start()
    result = cluster.run(max_time=max_time, stop_when=loop.done)
    shard = Shard(
        setup_s=0.0,
        cpu_s=0.0,
        records=list(loop.records.values()),
        duration_ms=result.duration,
        stall_window_ms=result.duration if loop.first_retired is None else loop.first_retired,
        events=cluster.engine.events_processed,
        datagrams=result.network_stats["sent"],
        bytes_sent=result.network_stats["bytes_sent"],
        digest="",
    )
    metrics, _ = simulated_metrics(dataclasses.replace(WORKLOADS["lan_rbp"], shards=1), [shard])
    return shard, metrics


def test_stall_on_a_hand_built_cluster():
    # One client, three RBP sites over ARQ links.  T1 is submitted 20 ms
    # after T0 commits, inside a partition cutting its home site off from
    # t=20 to t=120, and nothing else is outstanding: the longest stall is
    # T1's whole latency.
    plan = Plan(
        config=dict(protocol="rbp", num_sites=3, num_objects=4, seed=5, reliable_links=True),
        specs=(_update("T0", 0, "x0"), _update("T1", 0, "x1"), _update("T2", 1, "x2")),
        faults=(Fault(20.0, "partition", ([[0], [1, 2]],)), Fault(120.0, "heal")),
        clients=1,
        think_ms=20.0,
    )
    shard, metrics = _run(plan, max_time=10_000.0)
    t1 = shard.records[1]
    assert 20.0 < t1.submitted < 120.0 < t1.final
    assert metrics["max_stall_ms"] == t1.final - t1.submitted
    assert metrics["committed_frac"] == 1.0 and shard.failed == 0


def test_failed_transactions_on_a_hand_built_cluster():
    # Two clients.  T0's home site crashes 1 ms in, so T0 fails (final,
    # not committed); the site recovers and the other three commit.
    specs = (
        _update("T0", 2, "x0"),
        _update("T1", 0, "x1"),
        _update("T2", 1, "x2"),
        _update("T3", 0, "x3"),
    )
    crash = Fault(1.0, "crash", (2,))
    plan = Plan(
        config=dict(protocol="rbp", num_sites=3, num_objects=4, seed=5),
        specs=specs,
        faults=(crash, Fault(50.0, "recover", (2,))),
        clients=2,
        think_ms=0.0,
    )
    shard, metrics = _run(plan, max_time=10_000.0)
    assert [r.committed for r in shard.records] == [False, True, True, True]
    assert shard.records[0].final == 1.0
    assert shard.failed == 1 and metrics["committed_frac"] == 0.75

    # Without the recovery, RBP waits for the crashed site's votes forever:
    # T1 and T2 are never answered, count as failed, and stall from T0's
    # outcome at t=1 to the end of the run.
    plan = dataclasses.replace(plan, faults=(crash,))
    shard, metrics = _run(plan, max_time=500.0)
    assert [r.final for r in shard.records] == [1.0, None, None]
    assert shard.failed == 3 and metrics["committed_frac"] == 0.0
    assert metrics["max_stall_ms"] == 499.0
