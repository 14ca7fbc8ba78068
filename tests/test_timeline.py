"""Tests for the transaction timeline renderer."""

from repro.analysis.timeline import TimelineBuilder, render_timeline
from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.sim.trace import TraceLog


def traced_cluster(**overrides):
    defaults = dict(protocol="rbp", num_sites=3, num_objects=8, seed=6, trace=True)
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def test_builder_extracts_lifecycle():
    cluster = traced_cluster()
    cluster.submit(TransactionSpec.make("t1", 0, read_keys=["x0"], writes={"x0": 1}))
    cluster.run()
    builder = TimelineBuilder(cluster.trace)
    timeline = builder.timelines["t1#1"]
    assert timeline.submit == 0.0
    assert timeline.reads_done is not None
    assert timeline.finished
    assert timeline.outcome == "committed"
    assert timeline.site == "site0"


def test_aborted_transaction_marked():
    cluster = traced_cluster(max_attempts=1)
    cluster.submit(TransactionSpec.make("a", 0, writes={"x0": 1}), at=0.0)
    cluster.submit(TransactionSpec.make("b", 1, writes={"x0": 2}), at=0.1)
    cluster.run()
    builder = TimelineBuilder(cluster.trace)
    outcomes = {t.tx_id: t.outcome for t in builder.ordered()}
    # Concurrent single-key writers under no-wait: at least one (possibly
    # both) draws a negative ack and aborts; all reach a terminal state.
    assert all(o is not None for o in outcomes.values())
    assert any(o and o.startswith("aborted:write_conflict") for o in outcomes.values())


def test_render_shows_bars_and_markers():
    cluster = traced_cluster()
    cluster.submit(TransactionSpec.make("t1", 0, read_keys=["x0"], writes={"x0": 1}))
    cluster.submit(TransactionSpec.make("t2", 1, read_keys=["x1"]), at=2.0)
    cluster.run()
    art = render_timeline(cluster.trace)
    assert "t1#1" in art and "t2#1" in art
    assert "C" in art
    assert "committed" in art


def test_render_empty_trace():
    assert "no transactions" in render_timeline(TraceLog())


def test_ordering_by_submission_time():
    cluster = traced_cluster()
    cluster.submit(TransactionSpec.make("later", 0, writes={"x0": 1}), at=100.0)
    cluster.submit(TransactionSpec.make("early", 1, writes={"x1": 2}), at=1.0)
    cluster.run()
    rows = TimelineBuilder(cluster.trace).ordered()
    names = [t.tx_id for t in rows]
    assert names.index("early#1") < names.index("later#1")


def test_incomplete_transaction_rendered():
    cluster = traced_cluster(protocol="cbp", cbp_heartbeat=None)
    cluster.submit(TransactionSpec.make("stuck", 0, writes={"x0": 1}))
    cluster.run(max_time=500.0)
    art = render_timeline(cluster.trace)
    assert "incomplete" in art
