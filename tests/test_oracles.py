"""Unit tests for the churn-soak oracles (E13)."""

from types import SimpleNamespace

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.sim.engine import SimulationEngine
from repro.sim.oracles import OracleConfig, OracleViolation, SoakOracles


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(liveness_window=0.0)
    with pytest.raises(ValueError):
        OracleConfig(check_interval=0.0)
    with pytest.raises(ValueError):
        OracleConfig(in_doubt_limit=-1.0)
    OracleConfig(in_doubt_limit=None)  # disabling the residency check is fine


def build_cluster(**overrides):
    defaults = dict(
        protocol="rbp",
        num_sites=3,
        num_objects=8,
        seed=7,
        relay=True,
    )
    defaults.update(overrides)
    return Cluster(ClusterConfig(**defaults))


def test_liveness_violation_on_a_genuine_stall():
    """Without a failure detector a crashed cohort stalls RBP's write
    round forever — exactly the condition the liveness oracle must turn
    into a loud failure instead of a silently burning simulation."""
    cluster = build_cluster(max_attempts=1)
    oracles = SoakOracles(
        cluster, OracleConfig(liveness_window=500.0, check_interval=50.0)
    )
    oracles.arm()
    cluster.crash_site(2, at=10.0)
    cluster.submit(
        TransactionSpec.make("T1", 0, read_keys=["x0"], writes={"x0": 1}), at=20.0
    )
    with pytest.raises(OracleViolation, match="liveness"):
        cluster.run(max_time=10_000.0)
    assert oracles.max_stall >= 500.0


def test_quiet_stretch_is_not_a_stall():
    cluster = build_cluster()
    oracles = SoakOracles(
        cluster, OracleConfig(liveness_window=300.0, check_interval=50.0)
    )
    oracles.arm()
    cluster.run_for(5_000.0)  # no work submitted at all
    oracles.disarm()
    assert oracles.finals_observed == 0


def test_late_submission_gets_a_fresh_window():
    """A long idle prefix must not count against the first transaction."""
    cluster = build_cluster()
    oracles = SoakOracles(
        cluster, OracleConfig(liveness_window=400.0, check_interval=50.0)
    )
    oracles.arm()
    cluster.submit(
        TransactionSpec.make("T1", 0, read_keys=["x0"], writes={"x0": 1}),
        at=3_000.0,  # far beyond the window after arming
    )
    result = cluster.run(max_time=10_000.0)
    oracles.disarm()
    assert result.committed_specs == 1
    assert oracles.finals_observed == 1


def test_disarm_stops_the_periodic_check():
    cluster = build_cluster(max_attempts=1)
    oracles = SoakOracles(
        cluster, OracleConfig(liveness_window=500.0, check_interval=50.0)
    )
    oracles.arm()
    oracles.disarm()
    cluster.crash_site(2, at=10.0)
    cluster.submit(
        TransactionSpec.make("T1", 0, read_keys=["x0"], writes={"x0": 1}), at=20.0
    )
    cluster.run(max_time=3_000.0, stop_when=lambda: False)  # no violation raised


class _FakeReplica:
    def __init__(self, site, in_doubt):
        self.site = site
        self.alive = True
        self.recovering = False
        self._in_doubt = in_doubt

    def in_doubt_transactions(self):
        return tuple(self._in_doubt)


def _fake_cluster(engine, replicas):
    return SimpleNamespace(
        engine=engine,
        replicas=replicas,
        add_spec_listener=lambda fn: None,
        work_started_and_unfinished=lambda: False,  # keep the liveness check quiet
    )


def test_in_doubt_residency_violation():
    engine = SimulationEngine()
    replica = _FakeReplica(0, in_doubt=["T9"])
    cluster = _fake_cluster(engine, [replica])
    oracles = SoakOracles(
        cluster,
        OracleConfig(liveness_window=10_000.0, in_doubt_limit=300.0, check_interval=100.0),
    )
    oracles.arm()
    with pytest.raises(OracleViolation, match="in-doubt"):
        engine.run(until=1_000.0)


def test_in_doubt_residency_clears_when_resolved():
    engine = SimulationEngine()
    replica = _FakeReplica(0, in_doubt=["T9"])
    cluster = _fake_cluster(engine, [replica])
    oracles = SoakOracles(
        cluster,
        OracleConfig(liveness_window=10_000.0, in_doubt_limit=500.0, check_interval=100.0),
    )
    oracles.arm()
    engine.schedule_at(250.0, lambda: replica._in_doubt.clear())
    engine.run(until=2_000.0)
    oracles.disarm()
    stats = oracles.stats()
    assert 100.0 <= stats["max_in_doubt_residency_ms"] <= 300.0


def test_dead_replicas_are_not_sampled():
    engine = SimulationEngine()
    replica = _FakeReplica(0, in_doubt=["T9"])
    replica.alive = False
    cluster = _fake_cluster(engine, [replica])
    oracles = SoakOracles(
        cluster,
        OracleConfig(liveness_window=10_000.0, in_doubt_limit=100.0, check_interval=50.0),
    )
    oracles.arm()
    engine.run(until=1_000.0)  # no violation: dead sites hold no residency
    assert oracles.stats()["max_in_doubt_residency_ms"] == 0.0


def _result(ok=True, converged=True, incomplete=0):
    return SimpleNamespace(
        serialization=SimpleNamespace(ok=ok, explain=lambda: "cycle: T1 -> T2"),
        converged=converged,
        incomplete_specs=incomplete,
        duration=1_000.0,
    )


def test_check_final_passes_a_clean_result():
    engine = SimulationEngine()
    oracles = SoakOracles(_fake_cluster(engine, []))
    oracles.check_final(_result())


def test_check_final_raises_on_each_end_oracle():
    engine = SimulationEngine()
    oracles = SoakOracles(_fake_cluster(engine, []))
    with pytest.raises(OracleViolation, match="1SR"):
        oracles.check_final(_result(ok=False))
    with pytest.raises(OracleViolation, match="convergence"):
        oracles.check_final(_result(converged=False))
    with pytest.raises(OracleViolation, match="unanswered"):
        oracles.check_final(_result(incomplete=2))
