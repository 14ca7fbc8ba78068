"""Pinned regressions: hypothesis counterexamples where sites disagree on
the installed view, replayed deterministically.

Every test asserts the correct outcome.  The view-agreement bug behind
them is not fixed: a test that still fails is a strict xfail, so the suite
flags the fix the day it lands (then drop the marker).  Three of the
pinned cases pass since the failure detector went implicit (any inbound
payload is a heartbeat, explicit heartbeats only on idle links).  That
moved the suspicion and view-change timing they were found under, not the
bug; they stay as ordinary tests so a regression in that timing shows.
All run RBP with every opt-in knob at its default except the failure
detector and ``relay``.
"""

import pytest

from repro.core.cluster import Cluster, ClusterConfig
from repro.core.transaction import TransactionSpec
from repro.sim.faults import FaultSchedule

#: ``(reads, writes, home, submit_at)`` exactly as hypothesis drew them in
#: ``tests/properties/test_protocol_1sr_props.py::
#: test_faults_at_random_2pc_stages_preserve_1sr_and_terminate``.
SPLIT_VIEW_WORKLOAD = [
    ({"x1", "x0", "x2"}, {"x0", "x2"}, 1, 1.2078399493947925e-109),
    ({"x1", "x5", "x4"}, set(), 1, 26.53600281367019),
    ({"x1", "x5", "x4"}, {"x4", "x2"}, 1, 27.161600173204206),
    (set(), {"x0", "x2"}, 1, 27.344305011679964),
    ({"x0"}, set(), 1, 25.144106344064976),
    ({"x4"}, set(), 0, 1.401298464324817e-45),
    ({"x5", "x0", "x2"}, {"x0", "x2"}, 1, 10.138671441364206),
    (set(), {"x0", "x4"}, 2, 10.036417135273599),
    ({"x5", "x0"}, {"x4"}, 2, 0.7703188039723099),
    ({"x4", "x2"}, {"x1", "x4"}, 2, 3.338534834856114e-26),
]
PARTITION_AT = 20.711300278487283
PARTITION_FOR = 437.09753507532537


def test_minority_partition_heal_reaches_one_view():
    """RBP, 4 sites, site 1 isolated from ~20.7 ms for ~437 ms.  Under the
    always-on heartbeat detector, after the heal sites 0 and 1 sat in view
    ``[0, 1]`` (not a majority of 4) while sites 2 and 3 sat in
    ``[0, 1, 2, 3]``; T4 and T6 (home site 1) were never answered and site
    1's store diverged, with 1SR intact.  With implicit heartbeats the
    suspicions land at other instants and the run ends in one view: the
    split-view bug is not fixed, this run no longer reaches it."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=6,
            seed=5,
            max_attempts=10,
            retry_backoff=5.0,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
        )
    )
    FaultSchedule(cluster).partition([[1], [0, 2, 3]], at=PARTITION_AT).heal(
        at=PARTITION_AT + PARTITION_FOR
    )
    for index, (reads, writes, home, submit_at) in enumerate(SPLIT_VIEW_WORKLOAD):
        spec = TransactionSpec.make(
            f"T{index}",
            home,
            read_keys=sorted(reads | writes),
            writes={key: f"T{index}v" for key in sorted(writes)},
        )
        cluster.submit(spec, at=submit_at)
    result = cluster.run(
        max_time=20_000, stop_when=cluster.await_specs(len(SPLIT_VIEW_WORKLOAD))
    )

    assert result.serialization.ok, result.serialization.explain()
    views = {membership.view.members for membership in cluster.memberships}
    assert views == {(0, 1, 2, 3)}, f"split views after heal: {views}"
    assert result.converged
    assert result.incomplete_specs == 0


#: ``(reads, writes, home, submit_at)``, the shrunk counterexample of a
#: ``--hypothesis-seed=29`` run of the same property test at
#: ``max_examples=200``; the reads are irrelevant to the failure.
PIECEMEAL_HEAL_WORKLOAD = [
    (set(), {"x0"}, 1, 21.0),
    (set(), {"x0", "x1"}, 0, 0.0),
    (set(), {"x0", "x1"}, 2, 20.0),
    (set(), {"x2", "x1"}, 0, 25.0),
]


@pytest.mark.xfail(
    strict=True,
    reason="minority coordinator outranks the majority's merge view on heal: "
    "sites 0, 1, 2 end in view [0, 1, 2], site 3 (never suspected again) stays "
    "in [0, 1, 2, 3] and misses T0's write; converged=False",
)
def test_heal_heard_piecemeal_reaches_one_view():
    """RBP, 4 sites, site 1 isolated at 29 ms for 200 ms, found under the
    implicit-heartbeat detector (the always-on detector passes this run).
    After the heal site 1, still coordinator of its singleton view, hears
    site 2, then 0, then 3 within a fraction of a millisecond and proposes
    a view at each step.  Its view 3 ``[0, 1, 2]``, sent before it heard
    site 3, outranks the majority's view 2 ``[0, 1, 2, 3]``; sites 0 and 2
    adopt it.  No detector suspects site 3 any more, so nothing re-proposes
    it: it stays in view 2 for good and never gets T0's write.  The same
    split-view defect as ``test_minority_partition_heal_reaches_one_view``,
    reached through a different arrival order."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=6,
            seed=5,
            max_attempts=10,
            retry_backoff=5.0,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
        )
    )
    FaultSchedule(cluster).partition([[1], [0, 2, 3]], at=29.0).heal(at=229.0)
    for index, (reads, writes, home, submit_at) in enumerate(PIECEMEAL_HEAL_WORKLOAD):
        spec = TransactionSpec.make(
            f"T{index}",
            home,
            read_keys=sorted(reads | writes),
            writes={key: f"T{index}v" for key in sorted(writes)},
        )
        cluster.submit(spec, at=submit_at)
    result = cluster.run(
        max_time=20_000, stop_when=cluster.await_specs(len(PIECEMEAL_HEAL_WORKLOAD))
    )

    assert result.serialization.ok, result.serialization.explain()
    views = {membership.view.members for membership in cluster.memberships}
    assert views == {(0, 1, 2, 3)}, f"split views after heal: {views}"
    assert result.converged
    assert result.incomplete_specs == 0


@pytest.mark.xfail(
    strict=True,
    reason="RBP tallies one transaction against two views: site 2 commits T0#1 "
    "under view [0, 2, 3] while the home, already in [0, 1, 2, 3], waits on the "
    "recovering site 1 and aborts it; 1SR version conflict on x0",
)
def test_rejoin_during_vote_tally_keeps_atomicity():
    """From ``tests/properties/test_fault_props.py::
    test_random_crash_recovery_preserves_invariants`` with
    ``fault=(1, 621.0, 1199.0)``, ``workload=[(0, 0, 1818.0)]``.  Site 1
    rejoins (view 2) 3 ms after T0's home submits it under view 1.  The
    home installs view 2 first and needs site 1's vote; site 2 completes
    its tally from sites 0, 2, 3 before it installs view 2 and applies the
    write.  The home later aborts T0#1 (view loss) and its retry T0#2
    writes the same version of x0."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=12,
            seed=3,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=30,
            retry_backoff=10.0,
        )
    )
    cluster.crash_site(1, at=621.0)
    cluster.recover_site(1, at=621.0 + 1199.0)
    cluster.submit(
        TransactionSpec.make("T0", 0, read_keys=["x0"], writes={"x0": 0}), at=1818.0
    )
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(1))

    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0


@pytest.mark.parametrize(
    "fault, workload",
    [
        ((2, 641.0, 1942.0), [(0, 0, 0.0), (0, 0, 0.0), (1, 0, 2581.0)]),
        ((2, 640.0, 1943.0), [(0, 0, 0.0), (0, 1, 0.0), (1, 0, 2581.0)]),
    ],
)
def test_rejoin_before_a_late_write_keeps_1sr_and_converges(fault, workload):
    """From ``tests/properties/test_fault_props.py::
    test_random_crash_recovery_preserves_invariants`` (same config):
    ``fault`` is ``(victim, crash_at, recovery_delay)`` and each workload
    entry is ``(home, key index, submit_at)``, exactly as hypothesis drew
    them.  Site 2 rejoins about 2 ms after T2 (home site 1) is submitted.
    Under the always-on heartbeat detector the first workload ended with
    the live replicas diverged and the second with a 1SR version conflict
    on x0 between T2#1 and T2#2.  Both pass with implicit heartbeats, which
    moved the rejoin's view change relative to T2, not the bug:
    ``test_rejoin_just_after_a_write_keeps_1sr_and_converges`` pins the
    same shape where it still fails."""
    victim, crash_at, recovery_delay = fault
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=12,
            seed=3,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=30,
            retry_backoff=10.0,
        )
    )
    cluster.crash_site(victim, at=crash_at)
    cluster.recover_site(victim, at=crash_at + recovery_delay)
    for index, (home, key, at) in enumerate(workload):
        cluster.submit(
            TransactionSpec.make(
                f"T{index}", home, read_keys=[f"x{key}"], writes={f"x{key}": index}
            ),
            at=at,
        )
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(len(workload)))
    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0


@pytest.mark.xfail(
    strict=True,
    reason="site 1 rejoins 3 ms after T0 (home site 2) is submitted: T0#1 "
    "aborts on view loss, its retry T0#2 writes the same version of x0 (1SR "
    "version conflict) and the live replicas diverge",
)
def test_rejoin_just_after_a_write_keeps_1sr_and_converges():
    """From ``tests/properties/test_fault_props.py::
    test_random_crash_recovery_preserves_invariants`` with
    ``fault=(1, 541.0, 1007.0)``, ``workload=[(2, 0, 1545.0)]``, a
    counterexample from a ``max_examples=200`` run.  Site 1 rejoins
    at 1548 ms, 3 ms after T0 is submitted: the shape of
    ``test_rejoin_during_vote_tally_keeps_atomicity``.  The run ends
    ``converged=False`` under the always-on heartbeat detector (site 1
    misses T0's write) and under implicit heartbeats (which add the 1SR
    conflict), so it does not hang on heartbeat timing."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=12,
            seed=3,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=30,
            retry_backoff=10.0,
        )
    )
    cluster.crash_site(1, at=541.0)
    cluster.recover_site(1, at=541.0 + 1007.0)
    cluster.submit(
        TransactionSpec.make("T0", 2, read_keys=["x0"], writes={"x0": 0}), at=1545.0
    )
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(1))

    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0


@pytest.mark.xfail(
    strict=True,
    reason="the coordinator's heal merge lands about 15 ms before T0 (home site "
    "1) is submitted: with T0 at 796 ms the live replicas diverge "
    "(converged=False), at 797 ms T0#1 aborts and T0#2 writes the same "
    "version of x0 (1SR version conflict)",
)
@pytest.mark.parametrize("submit_at", [796.0, 797.0])
def test_heal_just_before_a_write_keeps_1sr_and_converges(submit_at):
    """From ``tests/properties/test_fault_props.py::
    test_random_partition_heal_preserves_invariants`` with
    ``split_point=1``, ``partition_at=181.0``, ``heal_delay=600.0`` and one
    write ``(1, 0, submit_at)``, found by a ``--hypothesis-seed=3`` run at
    ``max_examples=200`` under the implicit-heartbeat detector (the
    always-on detector passes both).  Site 0, the coordinator, is isolated
    from 181 to 781 ms; every site ends in one view, so this is the
    rejoin-near-a-write shape of
    ``test_rejoin_during_vote_tally_keeps_atomicity``, reached by a heal."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=12,
            seed=5,
            enable_failure_detector=True,
            fd_interval=20.0,
            fd_timeout=80.0,
            relay=True,
            max_attempts=30,
            retry_backoff=10.0,
        )
    )
    cluster.engine.schedule_at(181.0, cluster.partition, [[0], [1, 2, 3]])
    cluster.engine.schedule_at(781.0, cluster.heal_partition)
    cluster.submit(
        TransactionSpec.make("T0", 1, read_keys=["x0"], writes={"x0": 0}), at=submit_at
    )
    result = cluster.run(max_time=300_000.0, stop_when=cluster.await_specs(1))

    assert result.serialization.ok, result.serialization.explain()
    assert result.converged
    assert result.incomplete_specs == 0
