"""Cancellable event-heap simulator.

The simulator is a classic discrete-event loop: a binary heap of
``(time, seq, handle)`` entries.  ``seq`` is a monotonically increasing
tie-breaker so that events scheduled earlier fire earlier at equal
timestamps, which makes every run fully deterministic.

Cancellation is *lazy*: :meth:`EventHandle.cancel` marks the handle and
the main loop discards dead entries when they surface, which keeps both
``schedule`` and ``cancel`` O(log n) / O(1).  A live-work counter kept
by ``schedule``/``cancel``/``step`` makes :attr:`Simulator.pending_work`
O(1) as well.

A :class:`Ticker` stands in for a self-rearming periodic callback whose
every firing is known in advance to do nothing: it lives outside the
event heap, runs no callback, and is advanced lazily as real events
pass it — but each tick keeps the exact place in the event order that
the rearming callback would have had.  When its owner learns that the
next firing *will* matter, :meth:`Simulator.fire` turns that one tick
into a real event, still in the same place.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Optional

from repro.invariants.checker import NULL_CHECKER
from repro.obs.profiler import perf_counter
from repro.obs.registry import NULL_REGISTRY
from repro.trace.recorder import NULL_RECORDER
from repro.why.audit import NULL_AUDIT

_heappop = heapq.heappop
_heapreplace = heapq.heapreplace


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A scheduled callback; hold on to it if you may need to cancel.

    ``daemon`` marks housekeeping timers (gauge samplers, health
    pollers) that observe the run rather than drive it: they execute
    normally but are excluded from :attr:`Simulator.pending_work`, so
    two self-rearming daemons cannot keep each other — and the run —
    alive forever.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "daemon",
                 "_sim")

    def __init__(self, time: int, seq: int, callback: Callable[..., Any],
                 args: tuple, daemon: bool = False,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        #: the simulator whose live-work count this event holds a unit
        #: of (None for daemons, and once cancelled or consumed)
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call repeatedly,
        and after the event has run."""
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live_work -= 1
            self._sim = None
        # Drop references eagerly: a long-lived heap entry must not pin
        # tasks/closures for the rest of the run.
        self.callback = _noop
        self.args = ()

    @property
    def active(self) -> bool:
        """True while the event is still pending and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Ticker:
    """A periodic no-op clock, ticking at ``first + k*period``.

    It replaces a callback that would rearm itself every ``period``
    while each firing is known to change nothing, when the owner still
    needs to know afterwards how many of those firings would have run.
    Tick *k* holds the place in the event order the callback scheduled
    by tick *k-1* would have had: ``(due, key)`` is the first tick such
    a callback would not yet have reached, ordered among events as if
    scheduled with sequence number ``key``.  A live ticker counts
    toward :attr:`Simulator.pending_work`, as the rearming callback's
    pending event did.  :meth:`cancel` stops the clock; :meth:`take`
    counts the ticks passed since the last call.
    """

    __slots__ = ("due", "key", "period", "mark", "cancelled", "_sim")

    def __init__(self, first: int, key: int, period: int,
                 sim: "Simulator"):
        self.due = first
        self.key = key
        self.period = period
        #: first tick not yet counted by take()
        self.mark = first
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Stop the clock.  Safe to call repeatedly."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._live_work -= 1

    def take(self) -> tuple[int, int]:
        """``(first, n)``: the ``n`` ticks ``first + k*period`` passed
        since the previous call (or since the start)."""
        first = self.mark
        n = (self.due - first) // self.period
        self.mark = first + n * self.period
        return first, n


def _describe(handle: EventHandle) -> str:
    """One-line event description for runaway-guard diagnostics."""
    cb = handle.callback
    name = getattr(cb, "__qualname__", None) or repr(cb)
    args = ", ".join(_short(a) for a in handle.args)
    return f"t={handle.time} {name}({args})"


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


class Simulator:
    """Virtual-time discrete-event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1000, fn, arg1)      # fire fn(arg1) in 1 ms
        sim.run()                          # run until the heap drains

    Time never flows backwards; callbacks run at exactly their scheduled
    virtual time and may schedule further events (including at ``now``).

    ``trace`` is the structured-event recorder every instrumented layer
    (machines, schedulers, SFS) caches at construction time; it defaults
    to the shared no-op :data:`repro.trace.recorder.NULL_RECORDER`, so
    install a real :class:`repro.trace.TraceRecorder` *before* building
    the machine when a run should be traced.

    ``invariants`` follows the same contract for the runtime invariant
    checker (:mod:`repro.invariants`): it defaults to the shared no-op
    :data:`repro.invariants.checker.NULL_CHECKER` and must be installed
    before the machine is built, because every instrumented layer caches
    it (and its ``enabled`` flag) at construction time.

    ``metrics`` follows the same contract again for the metric registry
    (:mod:`repro.obs`): default is the shared no-op
    :data:`repro.obs.registry.NULL_REGISTRY`; install a real
    :class:`repro.obs.MetricsRegistry` before building the machine.
    Metric hooks are read-only with respect to virtual time, so an
    enabled run is bit-identical to a disabled one.

    ``audit`` follows the same contract for the scheduler-decision
    audit stream (:mod:`repro.why.audit`): default is the shared no-op
    :data:`repro.why.audit.NULL_AUDIT`; install a real
    :class:`repro.why.AuditLog` before building the machine.

    ``label`` names the run in diagnostics (e.g. the scheduler/engine
    pair); it is only ever read when an error message is built.
    """

    def __init__(self, trace: Optional[Any] = None,
                 invariants: Optional[Any] = None,
                 metrics: Optional[Any] = None,
                 label: str = "",
                 audit: Optional[Any] = None) -> None:
        self.now: int = 0
        self.label = label
        self._heap: list[tuple[int, int, EventHandle]] = []
        self._seq: int = 0
        #: live non-daemon events in the heap plus live tickers (see
        #: pending_work)
        self._live_work: int = 0
        #: (due, key, ticker): the tick orders as if scheduled with
        #: sequence number ``key``
        self._ticks: list[tuple[int, int, Ticker]] = []
        #: run(until=...) bound; step() never crosses it
        self._horizon: float = math.inf
        self._running = False
        self.events_executed: int = 0
        self.trace = trace if trace is not None else NULL_RECORDER
        self.invariants = invariants if invariants is not None else NULL_CHECKER
        self._inv_on = self.invariants.enabled
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.audit = audit if audit is not None else NULL_AUDIT
        # host self-profiler (wall clock around dispatch); None when off
        self._prof = self.metrics.profiler

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any,
                    daemon: bool = False,
                    seq: Optional[int] = None) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``.

        ``daemon=True`` marks a housekeeping timer excluded from
        :attr:`pending_work` (see :class:`EventHandle`).  ``seq`` places
        the event by a sequence number allocated earlier (a ticker's
        tick, see :meth:`fire`) instead of a fresh one."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        if seq is None:
            self._seq += 1
            seq = self._seq
        time = int(time)
        handle = EventHandle(time, seq, callback, args, daemon,
                             None if daemon else self)
        if not daemon:
            self._live_work += 1
        heapq.heappush(self._heap, (time, seq, handle))
        return handle

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any,
                 daemon: bool = False) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` microseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # same body as schedule_at, inlined: this is the hot path
        self._seq += 1
        time = self.now + int(delay)
        handle = EventHandle(time, self._seq, callback, args, daemon,
                             None if daemon else self)
        if not daemon:
            self._live_work += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def ticker(self, first: int, period: int) -> Ticker:
        """Start a :class:`Ticker` whose first tick is at ``first``,
        ordered as if a callback had been scheduled for it right now."""
        if first < self.now or period <= 0:
            raise SimulationError(
                f"bad ticker first={first} period={period} at now={self.now}")
        self._seq += 1
        self._live_work += 1
        ticker = Ticker(first, self._seq, period, self)
        heapq.heappush(self._ticks, (first, self._seq, ticker))
        return ticker

    def fire(self, ticker: Ticker, callback: Callable[..., Any],
             *args: Any) -> EventHandle:
        """Stop ``ticker`` and schedule ``callback(*args)`` at its next
        tick, in the place in the event order that tick holds.

        The owner calls this as soon as it knows the next firing of the
        callback the ticker stands in for will not be a no-op."""
        ticker.cancel()
        return self.schedule_at(ticker.due, callback, *args, seq=ticker.key)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """Virtual time of the next live event, or None if drained."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the next live event.  Returns False when drained (or
        when the next event lies beyond the bound of the current
        ``run(until=...)``)."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap or heap[0][0] > self._horizon:
            return False
        time, seq, handle = heapq.heappop(heap)
        if self._ticks and self._ticks[0][0] <= time:
            self._pass_ticks(time, seq)
        if self._inv_on:
            self.invariants.on_event(time, self.now)
        self.now = time
        callback, args = handle.callback, handle.args
        handle.cancel()  # consumed; release references
        self.events_executed += 1
        if self._prof is None:
            callback(*args)
        else:
            t0 = perf_counter()
            callback(*args)
            self._prof.add("sim.dispatch", perf_counter() - t0)
        return True

    def _pass_ticks(self, time: int, seq: float) -> None:
        """Advance every ticker past its ticks that order before the
        event ``(time, seq)``.

        Each tick stands for a callback that, when it ran, rearmed
        itself with the next sequence number, so each ticker passed here
        takes a fresh number.  A tick rearmed in this pass orders after
        every event already queued, so it passes an event at its own
        time only at the end of ``run(until)`` (``seq`` infinite).
        Numbers only ever order ticks and events at one time, and the
        heap hands tickers out in the order of their first passed tick.
        That is the order their rearming callbacks ran, except between
        tickers rearmed to one time of which one passed several ticks;
        both then come out of the heap at or after the first ticker
        that passed several (see :meth:`_order_ties`).
        """
        ticks = self._ticks
        counter = start = self._seq
        upto = time if seq > counter else time - 1
        # first passed tick of each ticker handed out since the first one
        # that passed several ticks (None until then)
        firsts = None
        while ticks:
            due, key, ticker = ticks[0]
            if due > time or (due == time and key >= seq):
                break
            if ticker.cancelled:
                _heappop(ticks)
                continue
            nxt = due + ticker.period
            if nxt <= upto:
                period = ticker.period
                nxt += ((upto - nxt) // period + 1) * period
                if firsts is None:
                    firsts = {}
            counter += 1
            ticker.due = nxt
            ticker.key = counter
            _heapreplace(ticks, (nxt, counter, ticker))
            if firsts is not None:
                firsts[ticker] = due
        self._seq = counter
        if firsts is not None and len({t.due for t in firsts}) < len(firsts):
            self._order_ties(start, firsts)

    def _order_ties(self, start: int, firsts: dict) -> None:
        """Renumber the tickers the last pass rearmed to a common time in
        the order their rearming callbacks would have run.

        The pass numbered tickers from ``start + 1`` on, in the order of
        their first passed tick; ``firsts`` maps those that can be out of
        order to that tick.  The callback rearming from a ticker's last
        passed tick ran first if that tick was earlier, or, at the same
        time, if the tick's own number was older: one from before the
        pass (a single tick passed), else one rearmed from an earlier
        tick (``last - period``), else one rearmed from fewer ticks,
        else the one numbered first.
        """
        ticks = self._ticks
        groups: dict = {}
        for due, key, ticker in ticks:
            if key > start:
                groups.setdefault(due, []).append(ticker)
        moved = False
        for group in groups.values():
            if len(group) < 2:
                continue
            order = []
            for ticker in group:
                last = ticker.due - ticker.period
                span = last - firsts.get(ticker, last)
                order.append((last, last - ticker.period if span else -1,
                              span, ticker.key, ticker))
            order.sort()
            keys = sorted(ticker.key for ticker in group)
            for entry, key in zip(order, keys):
                if entry[4].key != key:
                    entry[4].key = key
                    moved = True
        if moved:
            ticks[:] = [(due, ticker.key, ticker) for due, _, ticker in ticks]
            heapq.heapify(ticks)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or the event
        budget ``max_events`` is spent.

        When ``until`` is given the clock is advanced to exactly
        ``until`` even if the last event fired earlier.

        ``max_events`` is a runaway guard, not a pause button: if the
        budget is exhausted while live events are still pending, the run
        did *not* complete and a :class:`SimulationError` is raised so
        truncated results can never be mistaken for finished ones.  The
        error names the virtual clock, the run label and the last few
        executed events, so a fuzz-found livelock is diagnosable from
        the exception alone.  The event descriptions are only recorded
        when a budget is armed — a guard-free run stays on the exact
        nominal path.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        recent: Optional[deque] = (
            deque(maxlen=5) if max_events is not None else None
        )
        t0 = perf_counter() if self._prof is not None else 0.0
        # set even when None: a checkpoint pickled mid-run carries the bound
        self._horizon = math.inf if until is None else until
        try:
            while True:
                if recent is not None:
                    nxt = self.peek_time()
                    if nxt is None or nxt > self._horizon:
                        break
                    if executed >= max_events:
                        tail = "; ".join(recent) if recent else "(none)"
                        label = f" [{self.label}]" if self.label else ""
                        raise SimulationError(
                            f"event budget exhausted: {max_events} events "
                            f"executed with {self.pending} still pending at "
                            f"t={self.now}{label}; last events: {tail}"
                        )
                    recent.append(_describe(self._heap[0][2]))
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
            self._horizon = math.inf
            if self._prof is not None:
                self._prof.note_run(perf_counter() - t0, executed)
        if until is not None:
            # every event at or before ``until`` ran; so do the ticks
            self._pass_ticks(until, math.inf)
            if self.now < until:
                self.now = until

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued, daemons
        included.  An O(n) heap scan for diagnostics only; liveness
        gates use :attr:`pending_work`."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    @property
    def pending_work(self) -> int:
        """Live events that *drive* the run — daemon housekeeping
        timers excluded.  Self-rearming daemons must gate on this, not
        on :attr:`pending`, or any two of them would keep each other
        alive after the real work has drained.  O(1): a counter kept by
        schedule, cancel and step.  A live :class:`Ticker` counts as
        one, like the pending event of the callback it stands in for."""
        return self._live_work

    def _drop_dead(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
