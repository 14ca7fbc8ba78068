"""Property-based tests for the broadcast stack's ordering guarantees.

Hypothesis generates random broadcast schedules (who sends when, and
which deliveries trigger reply broadcasts); the tests then verify the
layer's contract over the *observed* happens-before relation:

- reliable: every correct site delivers every message exactly once;
- causal: if site s broadcast m2 after delivering m1, every site
  delivers m1 before m2 (and per-sender FIFO);
- total: all sites deliver ordered messages in one identical sequence
  that also respects the causal relation above.
"""

from dataclasses import dataclass

from hypothesis import HealthCheck, given, settings, strategies as st

from tests.conftest import BroadcastHarness

NUM_SITES = 3


@dataclass(frozen=True)
class Msg:
    uid: int
    sender: int
    kind: str = "msg"


schedule_strategy = st.lists(
    st.tuples(
        st.integers(0, NUM_SITES - 1),  # sender
        st.floats(min_value=0.0, max_value=50.0),  # send time
        st.booleans(),  # triggers a reply from the receiver site (sender+1)
    ),
    min_size=1,
    max_size=15,
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_schedule(stack, schedule, seed=0):
    h = BroadcastHarness(num_sites=NUM_SITES, stack=stack, seed=seed)
    uid_counter = [1000]
    #: causal_pairs[(a, b)] means message a happened-before message b.
    causal_pairs = []
    delivery_log = [[] for _ in range(NUM_SITES)]

    def instrument(site):
        def deliver(*args):
            if stack == "causal":
                message, envelope = args
                payload = envelope.payload
            elif stack == "total":
                payload, envelope, idx = args
                if idx is None and payload is None:
                    return
            else:
                message = args[0]
                payload = message.payload
            delivery_log[site].append(payload.uid)
            if payload.uid in reply_on.get(site, set()):
                reply = Msg(uid_counter[0], site)
                uid_counter[0] += 1
                causal_pairs.append((payload.uid, reply.uid))
                broadcast(site, reply)

        return deliver

    sent_order: dict[int, list[int]] = {site: [] for site in range(NUM_SITES)}

    def broadcast(site, payload):
        sent_order[site].append(payload.uid)
        h.layers[site].broadcast(payload)

    reply_on: dict[int, set[int]] = {}
    for site in range(NUM_SITES):
        h.layers[site].set_deliver(instrument(site))

    for index, (sender, at, wants_reply) in enumerate(schedule):
        payload = Msg(index, sender)
        if wants_reply:
            replier = (sender + 1) % NUM_SITES
            reply_on.setdefault(replier, set()).add(index)
        h.engine.schedule_at(max(at, h.engine.now), broadcast, sender, payload)

    h.run(until=10000.0)
    return delivery_log, causal_pairs, sent_order


@SETTINGS
@given(schedule=schedule_strategy)
def test_reliable_delivers_everything_exactly_once(schedule):
    logs, _, _ = run_schedule("reliable", schedule)
    expected = len(schedule)  # replies only exist in instrumented stacks
    for log in logs:
        originals = [uid for uid in log if uid < 1000]
        assert sorted(originals) == sorted(range(expected))
        assert len(log) == len(set(log))


@SETTINGS
@given(schedule=schedule_strategy)
def test_causal_order_respected(schedule):
    logs, causal_pairs, sent_order = run_schedule("causal", schedule)
    # Every site delivered everything...
    sizes = {len(log) for log in logs}
    assert len(sizes) == 1
    for log in logs:
        assert len(log) == len(set(log))
        # ...with every observed happens-before pair in order.
        position = {uid: i for i, uid in enumerate(log)}
        for before, after in causal_pairs:
            assert position[before] < position[after], (before, after, log)
    # Per-sender FIFO: each site's delivery order of one sender's
    # messages matches the order that sender actually broadcast them.
    for log in logs:
        for sender in range(NUM_SITES):
            own = set(sent_order[sender])
            delivered = [uid for uid in log if uid in own]
            assert delivered == sent_order[sender]


@SETTINGS
@given(schedule=schedule_strategy)
def test_total_order_identical_and_causal(schedule):
    logs, causal_pairs, _ = run_schedule("total", schedule)
    assert all(log == logs[0] for log in logs)
    position = {uid: i for i, uid in enumerate(logs[0])}
    for before, after in causal_pairs:
        assert position[before] < position[after]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy)
def test_total_order_survives_lossy_links(schedule):
    """The ordering guarantee is unchanged when the ARQ transport has to
    recover from 20% message loss underneath."""
    logs, causal_pairs, _ = run_schedule("total", schedule, seed=9)
    lossy_logs, lossy_pairs, _ = run_schedule_lossy("total", schedule)
    assert all(log == lossy_logs[0] for log in lossy_logs)
    position = {uid: i for i, uid in enumerate(lossy_logs[0])}
    for before, after in lossy_pairs:
        assert position[before] < position[after]


def run_schedule_lossy(stack, schedule):
    import tests.properties.test_broadcast_props as me

    # Same harness with loss enabled; reuse run_schedule's machinery by
    # temporarily swapping the harness factory parameters.
    from tests.conftest import BroadcastHarness

    original = me.BroadcastHarness

    def lossy_factory(**kwargs):
        kwargs["loss_rate"] = 0.2
        return original(**kwargs)

    me.BroadcastHarness = lossy_factory
    try:
        return run_schedule(stack, schedule, seed=9)
    finally:
        me.BroadcastHarness = original


# -- causal delivery order against the historical algorithm --------------------


class _StubReliable:
    """Just enough of ReliableBroadcast to drive one CausalBroadcast by hand."""

    def __init__(self, num_sites):
        self.site = 0
        self.num_sites = num_sites
        self.deliver = None

    def set_deliver(self, fn):
        self.deliver = fn


def _draw_causal_history(data, num_sites):
    """Random broadcasts by ``num_sites`` sites, each stamped with its
    sender's delivered clock plus the sender's own send sequence.

    Returns the messages as ``(uid, sender, stamp)`` and every delivered
    clock some site held along the way (consistent cuts of the history).
    """
    delivered = [[0] * num_sites for _ in range(num_sites)]
    sent = [0] * num_sites
    messages = []
    seen = [set() for _ in range(num_sites)]
    cuts = []
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        site = data.draw(st.integers(0, num_sites - 1), label="site")
        local = delivered[site]
        ready = [
            m
            for m in messages
            if m[0] not in seen[site]
            and m[2][m[1]] == local[m[1]] + 1
            and all(m[2][x] <= local[x] for x in range(num_sites) if x != m[1])
        ]
        if ready and data.draw(st.booleans(), label="deliver"):
            uid, sender, _ = data.draw(st.sampled_from(ready), label="message")
            seen[site].add(uid)
            local[sender] += 1
            cuts.append(list(local))
        else:
            sent[site] += 1
            stamp = list(local)
            stamp[site] = sent[site]
            messages.append((len(messages), site, tuple(stamp)))
    return messages, cuts


def _scan_and_restart(num_sites, arrivals, fast_forward_at, cut):
    """The historical holdback loop: after each arrival, deliver the
    earliest-arrived deliverable message and rescan from the start.  A
    fast-forward jumps the clock to ``max(local, cut)`` just before arrival
    ``fast_forward_at`` and drops held messages it covers."""
    local = [0] * num_sites
    pending = []
    order = []
    jumped_to = None
    for index, message in enumerate(arrivals):
        if index == fast_forward_at:
            jumped_to = [max(a, b) for a, b in zip(local, cut)]
            local = list(jumped_to)
            pending = [m for m in pending if m[2][m[1]] > local[m[1]]]
        pending.append(message)
        rescan = True
        while rescan:
            rescan = False
            for held in pending:
                uid, sender, stamp = held
                if stamp[sender] == local[sender] + 1 and all(
                    stamp[x] <= local[x] for x in range(num_sites) if x != sender
                ):
                    pending.remove(held)
                    local[sender] += 1
                    order.append(uid)
                    rescan = True
                    break
    return order, len(pending), jumped_to


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_causal_delivery_order_matches_scan_and_restart(data):
    """The incremental holdback, its readiness test and the direct-delivery
    path deliver exactly what the historical scan-and-restart loop would,
    in the same order, including after a recovery fast-forward that
    leaves ready survivors behind."""
    from repro.broadcast.causal import CausalBroadcast, CausalEnvelope
    from repro.broadcast.message import BroadcastMessage, MessageId
    from repro.broadcast.vector_clock import VectorClock

    num_sites = data.draw(st.integers(2, 6), label="num_sites")
    messages, cuts = _draw_causal_history(data, num_sites)
    arrivals = data.draw(st.permutations(messages), label="arrivals")
    fast_forward_at = None
    cut = None
    if cuts and data.draw(st.booleans(), label="fast_forward"):
        fast_forward_at = data.draw(st.integers(1, len(arrivals)), label="at")
        cut = data.draw(st.sampled_from(cuts), label="cut")
    expected, still_held, jumped_to = _scan_and_restart(
        num_sites, arrivals, fast_forward_at, cut
    )

    stub = _StubReliable(num_sites)
    causal = CausalBroadcast(stub)
    got = []
    causal.set_deliver(lambda message, envelope: got.append(envelope.payload))
    for index, (uid, sender, stamp) in enumerate(arrivals):
        if index == fast_forward_at and jumped_to is not None:
            causal.fast_forward(list(jumped_to))
        envelope = CausalEnvelope(VectorClock(stamp), uid, "msg")
        stub.deliver(BroadcastMessage(MessageId(sender, stamp[sender]), envelope))
    assert got == expected
    assert causal.pending_count() == still_held
