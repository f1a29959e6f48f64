"""Unit tests for the discrete-event simulator kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0
    assert sim.peek_time() is None


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(30, fired.append, "c")
    sim.schedule(10, fired.append, "a")
    sim.schedule(20, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_fire_in_scheduling_order(sim):
    fired = []
    for tag in "abcde":
        sim.schedule(100, fired.append, tag)
    sim.run()
    assert fired == list("abcde")


def test_callback_can_schedule_at_now(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0, fired.append, "nested")

    sim.schedule(5, first)
    sim.run()
    assert fired == ["first", "nested"]
    assert sim.now == 5


def test_cancelled_event_does_not_fire(sim):
    fired = []
    keep = sim.schedule(10, fired.append, "keep")
    drop = sim.schedule(10, fired.append, "drop")
    drop.cancel()
    sim.run()
    assert fired == ["keep"]
    assert keep.cancelled  # consumed handles read as cancelled


def test_cancel_is_idempotent(sim):
    h = sim.schedule(10, lambda: None)
    h.cancel()
    h.cancel()
    sim.run()
    assert sim.now == 0  # nothing ever fired


def test_cannot_schedule_in_the_past(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_advances_clock_exactly(sim):
    fired = []
    sim.schedule(10, fired.append, "a")
    sim.schedule(100, fired.append, "b")
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    sim.run()
    assert fired == ["a", "b"]


def test_run_max_events_budget_raises_on_exhaustion(sim):
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    with pytest.raises(SimulationError, match="event budget exhausted"):
        sim.run(max_events=3)
    assert fired == [0, 1, 2]
    # the error is recoverable: the loop is re-entrant after the raise
    sim.run()
    assert fired == list(range(10))


def test_run_max_events_sufficient_budget_is_silent(sim):
    fired = []
    for i in range(5):
        sim.schedule(i + 1, fired.append, i)
    sim.run(max_events=5)  # exactly enough: drains without error
    assert fired == list(range(5))


def test_run_max_events_ignores_cancelled_events(sim):
    fired = []
    handles = [sim.schedule(i + 1, fired.append, i) for i in range(6)]
    for h in handles[3:]:
        h.cancel()
    sim.run(max_events=3)  # the cancelled tail costs no budget
    assert fired == [0, 1, 2]


def test_step_returns_false_when_drained(sim):
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_counts_live_events(sim):
    h1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.pending == 2
    h1.cancel()
    assert sim.pending == 1


def test_peek_time_skips_cancelled(sim):
    h = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    h.cancel()
    assert sim.peek_time() == 20


def test_events_executed_counter(sim):
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_run_is_not_reentrant(sim):
    def bad():
        sim.run()

    sim.schedule(1, bad)
    with pytest.raises(SimulationError):
        sim.run()


def test_cancel_releases_references(sim):
    class Big:
        pass

    obj = Big()
    h = sim.schedule(10, lambda o: None, obj)
    h.cancel()
    assert h.args == ()


def test_drop_dead_compaction_keeps_pending_accurate(sim):
    """Cancelled-head compaction must agree with the live-event count."""
    handles = [sim.schedule(10 + i, lambda: None) for i in range(20)]
    for h in handles[:10]:  # cancel the whole heap head
        h.cancel()
    assert sim.pending == 10
    assert sim.peek_time() == 20  # triggers _drop_dead on the prefix
    assert len(sim._heap) == 10  # dead prefix physically removed
    assert sim.pending == 10
    handles[15].cancel()  # a dead entry in the middle stays lazily
    assert sim.pending == 9
    fired = 0
    while sim.step():
        fired += 1
    assert fired == 9
    assert sim.pending == 0


def test_pending_excludes_consumed_events(sim):
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.step() is True
    assert sim.pending == 1


def test_deterministic_replay():
    def drive(s: Simulator):
        order = []
        s.schedule(5, order.append, 1)
        s.schedule(5, order.append, 2)
        s.schedule(3, lambda: s.schedule(2, order.append, 0))
        s.run()
        return order

    assert drive(Simulator()) == drive(Simulator())


# ----------------------------------------------------------------------
# O(1) liveness: the live-work counter against a brute-force heap scan
# ----------------------------------------------------------------------
def _scan_pending_work(s: Simulator) -> int:
    return sum(1 for _, _, h in s._heap if not h.cancelled and not h.daemon)


_OPS = st.lists(
    st.tuples(st.sampled_from(["schedule", "daemon", "cancel", "step",
                               "nested"]),
              st.integers(0, 50), st.integers(0, 10_000)),
    max_size=80)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_pending_work_counter_matches_scan(ops):
    s = Simulator()
    handles = []

    def child(delay):
        handles.append(s.schedule(delay, lambda: None))

    for op, delay, pick in ops:
        if op == "schedule":
            handles.append(s.schedule(delay, lambda: None))
        elif op == "daemon":
            handles.append(s.schedule(delay, lambda: None, daemon=True))
        elif op == "nested":
            handles.append(s.schedule(delay, child, delay))
        elif op == "cancel" and handles:
            handles[pick % len(handles)].cancel()  # may be consumed/repeat
        elif op == "step":
            s.step()
        assert s.pending_work == _scan_pending_work(s)
    s.run()
    assert s.pending_work == 0 == _scan_pending_work(s)


def test_double_cancel_and_cancel_after_run_keep_the_count(sim):
    a = sim.schedule(10, lambda: None)
    b = sim.schedule(20, lambda: None)
    sim.schedule(30, lambda: None, daemon=True)
    assert sim.pending_work == 2
    a.cancel()
    a.cancel()
    assert sim.pending_work == 1
    assert sim.step() is True  # b runs (a is dead); the daemon remains
    b.cancel()  # consumed handle: no-op
    assert sim.pending_work == 0
    assert sim.pending == 1  # diagnostics still see the daemon


def test_pickle_round_trip_preserves_the_counter(sim):
    import pickle

    fired = []
    sim.schedule(10, fired.append, "a")
    dead = sim.schedule(15, fired.append, "dead")
    sim.schedule(20, fired.append, "b")
    sim.schedule(25, fired.append, "d", daemon=True)
    dead.cancel()
    sim.step()
    restored = pickle.loads(pickle.dumps(sim))
    assert restored.pending_work == sim.pending_work == 1
    # the restored handles count against the restored simulator
    live = [h for _, _, h in restored._heap if not h.cancelled]
    assert all(h._sim in (restored, None) for h in live)
    restored.run()
    assert restored.pending_work == 0
    assert sim.pending_work == 1  # the original is untouched


# ----------------------------------------------------------------------
# Ticker: ticks keep the order a self-rearming callback would have
# ----------------------------------------------------------------------
_SCRIPT = st.lists(
    st.tuples(st.integers(0, 40),             # arrival time (x 100 us)
              st.sampled_from([0, 1, 2, 3, 4, 6, 8])),  # child delay / 2
    min_size=1, max_size=30)


def _replay(script, first, period, use_ticker):
    """Run the script; each event records how many ticks ran before it."""
    s = Simulator()
    seen = []
    state = {"ticks": 0}
    if use_ticker:
        ticker = s.ticker(first, period)

        def ticks_so_far():
            return (ticker.due - first) // period
    else:
        def tick():
            state["ticks"] += 1
            s.schedule(period, tick)

        s.schedule_at(first, tick)

        def ticks_so_far():
            return state["ticks"]

    def event(tag, child_delay):
        seen.append((tag, s.now, ticks_so_far()))
        if child_delay:
            s.schedule(child_delay, event, tag + "'", 0)

    for i, (at, half) in enumerate(script):
        s.schedule_at(at * 100, event, str(i), half * period // 2)
    s.run(until=max(at for at, _ in script) * 100 + 4 * period)
    return seen, ticks_so_far()


@settings(max_examples=200, deadline=None)
@given(script=_SCRIPT, first=st.integers(0, 10).map(lambda x: x * 100),
       period=st.sampled_from([100, 200, 400]))
def test_ticker_matches_a_rearming_callback(script, first, period):
    assert (_replay(script, first, period, use_ticker=True)
            == _replay(script, first, period, use_ticker=False))


def test_cancelled_ticker_stops(sim):
    t = sim.ticker(10, 10)
    sim.schedule(35, lambda: None)
    sim.run()
    assert t.due == 40  # ticks at 10, 20, 30 passed
    t.cancel()
    sim.schedule(100, lambda: None)
    sim.run()
    assert t.due == 40
    assert sim._ticks == []


def test_ticker_rejects_bad_arguments(sim):
    with pytest.raises(SimulationError):
        sim.ticker(5, 0)
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.ticker(5, 10)


# ----------------------------------------------------------------------
# several tickers, some ticks fired: the order of rearming callbacks
# ----------------------------------------------------------------------
_FIRE_SCRIPT = st.lists(
    st.tuples(st.integers(0, 60),              # event time (x 50 us)
              st.integers(0, 2),               # ticker to fire (or none: 2)
              st.sampled_from([0, 50, 100])),  # child event delay
    min_size=1, max_size=25)
_CLOCKS = st.lists(st.tuples(st.integers(0, 8).map(lambda x: x * 50),
                             st.sampled_from([100, 150, 200, 300])),
                   min_size=2, max_size=2)


def _fire_replay(script, clocks, use_ticker):
    """Events that each may ask for one clock's next tick to be real;
    the log is the order in which events and real ticks ran."""
    s = Simulator()
    log = []
    armed = [False, False]
    tickers = [None, None]

    def real_tick(j):
        log.append(("tick", j, s.now))
        armed[j] = False
        if use_ticker:
            tickers[j] = s.ticker(s.now + clocks[j][1], clocks[j][1])

    def chained_tick(j):
        if armed[j]:
            real_tick(j)
        s.schedule(clocks[j][1], chained_tick, j)

    for j, (first, period) in enumerate(clocks):
        if use_ticker:
            tickers[j] = s.ticker(first, period)
        else:
            s.schedule_at(first, chained_tick, j)

    def event(tag, fire, child):
        log.append(("event", tag, s.now))
        if fire < 2 and not armed[fire]:
            armed[fire] = True
            if use_ticker:
                s.fire(tickers[fire], real_tick, fire)
        if child:
            s.schedule(child, event, tag + "'", 2, 0)

    for i, (at, fire, child) in enumerate(script):
        s.schedule_at(at * 50, event, str(i), fire, child)
    s.run(until=61 * 50 + 1000)
    return log


@settings(max_examples=300, deadline=None)
@given(script=_FIRE_SCRIPT, clocks=_CLOCKS)
def test_fired_ticks_run_where_rearming_callbacks_would(script, clocks):
    assert (_fire_replay(script, clocks, use_ticker=True)
            == _fire_replay(script, clocks, use_ticker=False))


def test_ticker_counts_as_live_work(sim):
    t = sim.ticker(10, 10)
    assert sim.pending_work == 1
    h = sim.fire(t, lambda: None)
    assert sim.pending_work == 1 and (h.time, h.seq) == (10, t.key)
    t.cancel()  # already stopped by fire: no double count
    sim.run()
    assert sim.pending_work == 0
