"""Pinned regressions: hypothesis counterexamples where sites disagree on
the installed view, replayed deterministically.

Each test asserts the correct outcome and is a strict xfail until the
view-agreement bug behind it is fixed, so the suite flags the fix the day
it lands (then drop the marker).  All run RBP with every opt-in knob at
its default except the failure detector and ``relay``.
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


@pytest.mark.xfail(
    strict=True,
    reason="membership split view after heal: sites 0,1 stay in view [0, 1] "
    "while sites 2,3 install [0, 1, 2, 3]; converged=False, 2 incomplete specs",
)
def test_minority_partition_heal_reaches_one_view():
    """RBP, 4 sites, site 1 isolated from ~20.7 ms for ~437 ms.  After the
    heal, sites 0 and 1 sit in view ``[0, 1]`` (not a majority of 4) while
    sites 2 and 3 sit in ``[0, 1, 2, 3]``; T4 and T6 (home site 1) are
    never answered and site 1's store diverges.  1SR holds."""
    cluster = Cluster(
        ClusterConfig(
            protocol="rbp",
            num_sites=4,
            num_objects=6,
            seed=5,
            retry_aborted=True,
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


@pytest.mark.xfail(
    strict=True,
    reason="site 2 rejoins 2 ms after T2 (home site 1) is submitted: the first "
    "workload ends with live replicas diverged (converged=False), the second "
    "aborts T2#1 on view loss and ends with a 1SR version conflict on x0 "
    "between T2#1 and T2#2",
)
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
    them."""
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
