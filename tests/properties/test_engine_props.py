"""Property-based tests for the simulation engine's core guarantees."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationEngine

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=40
)


@settings(max_examples=200, deadline=None)
@given(delays)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    engine = SimulationEngine()
    fired_times = []
    for delay in delay_list:
        engine.schedule(delay, lambda: fired_times.append(engine.now))
    engine.run()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(delay_list)


@settings(max_examples=200, deadline=None)
@given(delays)
def test_equal_times_preserve_scheduling_order(delay_list):
    engine = SimulationEngine()
    fired = []
    for index, delay in enumerate(delay_list):
        rounded = round(delay, 0)  # force collisions
        engine.schedule(rounded, fired.append, (rounded, index))
    engine.run()
    # Among events at the same time, scheduling index must be increasing.
    for i in range(1, len(fired)):
        if fired[i][0] == fired[i - 1][0]:
            assert fired[i][1] > fired[i - 1][1]


@settings(max_examples=100, deadline=None)
@given(delays, st.integers(0, 39))
def test_cancellation_removes_exactly_that_event(delay_list, victim_index):
    engine = SimulationEngine()
    fired = []
    handles = [
        engine.schedule(delay, fired.append, index)
        for index, delay in enumerate(delay_list)
    ]
    victim = victim_index % len(handles)
    handles[victim].cancel()
    engine.run()
    assert victim not in fired
    assert sorted(fired) == [i for i in range(len(delay_list)) if i != victim]


@settings(max_examples=100, deadline=None)
@given(delays)
def test_run_is_deterministic(delay_list):
    def execute():
        engine = SimulationEngine()
        fired = []
        for index, delay in enumerate(delay_list):
            engine.schedule(delay, fired.append, (index, engine.now))
        engine.run()
        return fired, engine.now

    assert execute() == execute()


@settings(max_examples=100, deadline=None)
@given(delays, st.floats(min_value=0.0, max_value=100.0))
def test_run_until_never_overshoots(delay_list, horizon):
    engine = SimulationEngine()
    fired_times = []
    for delay in delay_list:
        engine.schedule(delay, lambda: fired_times.append(engine.now))
    engine.run(until=horizon)
    assert all(t <= horizon for t in fired_times)
    assert engine.now <= max(horizon, max(delay_list))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=10))
def test_nested_scheduling_respects_time(delay_list):
    """Events scheduled from inside callbacks still fire in time order."""
    engine = SimulationEngine()
    fired_times = []

    def chain(remaining):
        fired_times.append(engine.now)
        if remaining:
            engine.schedule(remaining[0], chain, remaining[1:])

    engine.schedule(delay_list[0], chain, delay_list[1:])
    engine.run()
    assert fired_times == sorted(fired_times)
    assert len(fired_times) == len(delay_list)


# One engine operation: arm a new timer at an absolute time, cancel or
# re-arm an existing one (by index, modulo the timers armed so far), or let
# the engine fire a few events.  Small integer times force many ties, and a
# re-arm delay may land before or after the timer's current heap position.
timer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.integers(0, 3)),
        st.tuples(st.just("cancel"), st.integers(0, 5)),
        st.tuples(st.just("reschedule"), st.integers(0, 5), st.integers(0, 3)),
        st.tuples(st.just("run"), st.integers(1, 3)),
    ),
    min_size=10,
    max_size=40,
)


def _run_timer_ops(ops, compact):
    """Apply ``ops``, then drain; return the (timer, time) fire sequence.

    Asserts along the way that a timer fires only while armed, exactly at
    its last requested deadline, and that no armed timer is left unfired.
    """
    engine = SimulationEngine()
    if compact:
        engine.compact_min = 1
        engine.compact_fraction = 0
    else:
        engine.compact_min = 10**9
    handles = []
    #: Per timer: the deadline it is armed for, or None (cancelled/fired).
    deadlines = []
    fired = []

    def fire(timer):
        assert deadlines[timer] == engine.now
        deadlines[timer] = None
        fired.append((timer, engine.now))

    for op in ops:
        if op[0] == "at":
            time = engine.now + op[1]
            deadlines.append(time)
            handles.append(engine.schedule_at(time, fire, len(handles)))
        elif op[0] == "run":
            engine.run(max_events=op[1])
        elif handles:
            timer = op[1] % len(handles)
            if op[0] == "cancel":
                handles[timer].cancel()
                deadlines[timer] = None
            else:
                handles[timer] = engine.reschedule(handles[timer], op[2], fire, timer)
                deadlines[timer] = engine.now + op[2]
    engine.run()
    assert deadlines == [None] * len(deadlines)
    assert engine.pending_count() == 0
    return fired


@settings(max_examples=300, deadline=None)
@given(timer_ops)
def test_reschedule_and_compaction_preserve_fire_order(ops):
    """Compacting on every cancel fires the same sequence as never
    compacting, under cancels and re-arms to later and earlier deadlines."""
    assert _run_timer_ops(ops, compact=True) == _run_timer_ops(ops, compact=False)
