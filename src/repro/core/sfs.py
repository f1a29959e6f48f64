"""The SFS scheduler facade (§V).

Wires the global queue, FILTER worker pool, slice monitor, I/O poller
and overload detector to a machine through the narrow user-space API
(``set_policy`` = schedtool, ``poll_state`` = /proc polling,
``on_finish`` = waitpid).  The scheduling flow follows Fig 4 of the
paper step by step; the numbered comments below reference it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import SFSConfig
from repro.core.global_queue import GlobalQueue, QueueEntry
from repro.core.monitor import SliceMonitor
from repro.core.overhead import OverheadMeter
from repro.core.overload import OverloadDetector
from repro.core.worker import SFSWorker
from repro.machine.base import MachineBase
from repro.sim.engine import EventHandle, Ticker
from repro.sim.task import SchedPolicy, Task, TaskState
from repro.trace import events as tev
from repro.why import audit as aud


@dataclass
class SFSStats:
    """Counters exposed for tests and the evaluation harness."""

    submitted: int = 0
    resubmitted: int = 0          # post-I/O re-enqueues
    promoted: int = 0             # FILTER promotions (schedtool -> FIFO)
    completed_in_filter: int = 0  # finished before the slice expired (4.1)
    demoted_slice: int = 0        # slice expiry -> CFS (4.2)
    demoted_io: int = 0           # block detected -> CFS + watch (4.3)
    demoted_io_exhausted: int = 0  # block detected with no slice budget left
    bypassed_overload: int = 0    # overload -> stay in CFS (4.4)
    skipped_finished: int = 0     # finished in CFS before a worker got it
    watched_at_pop: int = 0       # found blocked at dequeue -> watch list
    finished_while_watched: int = 0  # completed in CFS before waking

    def check_invariants(self) -> None:
        """Every queue entry and every promotion has exactly one
        outcome; raises AssertionError otherwise.  Only meaningful once
        the run has drained (queue and watch list empty)."""
        entries = self.submitted + self.resubmitted
        outcomes = (
            self.promoted
            + self.bypassed_overload
            + self.skipped_finished
            + self.watched_at_pop
        )
        assert entries == outcomes, (entries, outcomes)
        assert self.promoted == (
            self.completed_in_filter + self.demoted_slice + self.demoted_io
        )
        watches = self.watched_at_pop + (self.demoted_io - self.demoted_io_exhausted)
        resolved = self.resubmitted + self.finished_while_watched
        assert watches == resolved, (watches, resolved)


class SFS:
    """User-space two-level (FILTER + CFS) function scheduler."""

    def __init__(self, machine: MachineBase, config: Optional[SFSConfig] = None):
        self.machine = machine
        self.sim = machine.sim
        self.config = config or SFSConfig()
        n_workers = self.config.n_workers or machine.n_cores
        self.workers: List[SFSWorker] = [SFSWorker(i) for i in range(n_workers)]
        if self.config.per_worker_queues:
            # multi-queue ablation (§VI): one private queue per worker,
            # round-robin request placement, no stealing
            self.queues: List[GlobalQueue] = [GlobalQueue() for _ in self.workers]
            self.queue = self.queues[0]
        else:
            self.queue = GlobalQueue()
            self.queues = [self.queue] * n_workers
        self._rr_submit = 0
        # structured tracing: cached once; NULL_RECORDER when disabled
        self._trace = self.sim.trace
        self._trace_on = self._trace.enabled
        # metric registry: same caching contract (repro.obs)
        self._metrics = self.sim.metrics
        self._metrics_on = self._metrics.enabled
        # scheduler-decision audit: same caching contract (repro.why);
        # the FILTER's promote/demote/bypass decisions are the ones the
        # paper's Fig 4 flow chart names
        self._audit = self.sim.audit
        self._audit_on = self._audit.enabled
        if self._metrics_on:
            m = self._metrics
            self._m_submitted = m.counter(
                "repro_sfs_submitted_total", help="requests entering SFS")
            self._m_resubmitted = m.counter(
                "repro_sfs_resubmitted_total", help="post-I/O re-enqueues")
            self._m_promoted = m.counter(
                "repro_sfs_promotions_total", help="FILTER promotions")
            self._m_filter_finish = m.counter(
                "repro_sfs_filter_finishes_total",
                help="functions finishing inside their FILTER slice")
            self._m_demote_slice = m.counter(
                "repro_sfs_demotions_total", help="FILTER demotions",
                labels={"reason": "slice"})
            self._m_demote_io = m.counter(
                "repro_sfs_demotions_total", help="FILTER demotions",
                labels={"reason": "io"})
            self._m_bypassed = m.counter(
                "repro_sfs_overload_bypass_total",
                help="requests left in CFS by the overload detector")
            self._m_queue_delay = m.histogram(
                "repro_sfs_queue_delay_us", unit="us",
                help="global-queue residence at FILTER promotion")
            self._m_slice_granted = m.histogram(
                "repro_sfs_slice_granted_us", unit="us",
                help="FILTER slice budget granted at promotion")
            self._m_boost_us = m.counter(
                "repro_sfs_boost_us_total", unit="us",
                help="total virtual time spent FILTER-boosted")
        self.monitor = SliceMonitor(self.config, machine.n_cores, trace=self._trace)
        self.overload = OverloadDetector(self.config)
        self.overhead = OverheadMeter()
        self.stats = SFSStats()
        self._by_tid: Dict[int, SFSWorker] = {}
        self._watch: Dict[int, QueueEntry] = {}
        # the watch-list poll chain: a ticker while every watched
        # function is asleep, a real event once one may have woken
        self._watch_ticker: Optional[Ticker] = None
        self._watch_handle: Optional[EventHandle] = None
        self._draining = False
        machine.on_finish(self._on_task_finish)
        if self.config.io_aware:
            machine.on_io_transition(self._on_io_transition)

    # ==================================================================
    # entry point (Fig 4, step 1): the FaaS server tells SFS about a
    # dispatched function process
    # ==================================================================
    def submit(self, task: Task, invoke_ts: Optional[int] = None) -> None:
        """Register a freshly dispatched function request with SFS."""
        now = self.sim.now
        invoke = invoke_ts if invoke_ts is not None else now
        self.stats.submitted += 1
        if self._trace_on:
            self._trace.emit(now, tev.SFS_SUBMIT, task.tid)
        if self._metrics_on:
            self._m_submitted.inc()
        self.monitor.record_arrival(now)
        self._push(QueueEntry(task=task, enqueue_ts=now, invoke_ts=invoke))
        self._drain()

    def _push(self, entry: QueueEntry) -> None:
        if self.config.per_worker_queues:
            self.queues[self._rr_submit % len(self.queues)].push(entry)
            self._rr_submit += 1
        else:
            self.queue.push(entry)

    def delay_samples(self) -> List:
        """Queue-delay samples across all queues, time-ordered."""
        if not self.config.per_worker_queues:
            return list(self.queue.delay_samples)
        merged: List = []
        for q in self.queues:
            merged.extend(q.delay_samples)
        merged.sort()
        return merged

    # ==================================================================
    # worker pool (Fig 4, step 2)
    # ==================================================================
    def _drain(self) -> None:
        """Let idle workers fetch from the global queue (work conserving)."""
        if self._draining:
            return
        self._draining = True
        try:
            progress = True
            while progress:
                progress = False
                for worker in self.workers:
                    if worker.idle and self.queues[worker.index]:
                        if self._assign_next(worker):
                            progress = True
        finally:
            self._draining = False

    def _assign_next(self, worker: SFSWorker) -> bool:
        """Pop entries until one is FILTER-scheduled on ``worker``.

        Entries may be consumed without occupying the worker: requests
        that already finished under CFS, requests bypassed to CFS by the
        overload detector (4.4), and requests found blocked on I/O (4.3).
        Returns False when the queue empties without an assignment.
        """
        now = self.sim.now
        queue = self.queues[worker.index]
        while True:
            entry = queue.pop(now)
            if entry is None:
                return False
            task = entry.task
            state = self.machine.poll_state(task)
            delay = now - entry.enqueue_ts
            if state is TaskState.FINISHED:
                self.stats.skipped_finished += 1
                if self._trace_on:
                    self._trace.emit(now, tev.SFS_SKIP_FINISHED, task.tid,
                                     args=(delay,))
                continue
            if not entry.resumed and self.overload.should_bypass(
                now, delay, self.monitor.slice
            ):
                # 4.4: transient overload — leave the process in CFS.
                self.stats.bypassed_overload += 1
                task.sfs_bypassed = True
                if self._trace_on:
                    self._trace.emit(now, tev.SFS_OVERLOAD, task.tid,
                                     args=(delay, self.monitor.slice))
                if self._metrics_on:
                    self._m_bypassed.inc()
                if self._audit_on:
                    self._audit.record(now, aud.OP_BYPASS, "sfs-filter",
                                       displaced=task.tid, reason="overload",
                                       arg=delay)
                continue
            if self.config.io_aware and state is TaskState.BLOCKED:
                # Found sleeping (e.g. leading I/O): watch until runnable.
                self.stats.watched_at_pop += 1
                if self._trace_on:
                    self._trace.emit(now, tev.SFS_WATCH_AT_POP, task.tid,
                                     args=(delay,))
                self._watch_task(entry)
                continue
            self._promote(worker, entry)
            return True

    def _promote(self, worker: SFSWorker, entry: QueueEntry) -> None:
        """FILTER-schedule ``entry`` on ``worker`` (schedtool -> FIFO)."""
        now = self.sim.now
        task = entry.task
        slice_left = task.sfs_slice_left
        if slice_left is None:
            slice_left = self.monitor.slice
            task.sfs_slice_left = slice_left
            task.sfs_slice_granted = slice_left
        worker.entry = entry
        worker.assigned_at = now
        worker.cpu_at_assign = task.cpu_time
        worker.slice_at_assign = slice_left
        self._by_tid[task.tid] = worker
        self.stats.promoted += 1
        if self._trace_on:
            self._trace.emit(now, tev.SFS_PROMOTE, task.tid, worker.index,
                             args=(slice_left, now - entry.enqueue_ts))
        if self._metrics_on:
            self._m_promoted.inc()
            self._m_queue_delay.observe(now - entry.enqueue_ts)
            self._m_slice_granted.observe(slice_left)
        if self._audit_on:
            self._audit.record(now, aud.OP_PROMOTE,
                               f"sfs-worker:{worker.index}",
                               chosen=task.tid, arg=slice_left)
        self._sched_op()
        self.machine.set_policy(task, SchedPolicy.FIFO, self.config.rt_priority)
        worker.slice_handle = self.sim.schedule(
            max(1, slice_left), self._on_slice_expiry, worker, task
        )
        if self.config.io_aware:
            self._tick_worker_polls(worker)

    # ==================================================================
    # FILTER-mode lifecycle (Fig 4, steps 4.1-4.3)
    # ==================================================================
    def _on_task_finish(self, task: Task) -> None:
        """waitpid: the function returned (4.1) — release its worker."""
        if task.tid in self._watch:
            self._charge_watch_polls()
            del self._watch[task.tid]
            self.stats.finished_while_watched += 1
            if self._trace_on:
                self._trace.emit(self.sim.now, tev.SFS_WATCH_FINISH, task.tid)
            if not self._watch and self._watch_ticker is not None:
                # the chain still runs its next, now empty, tick
                self._fire_watch_poll()
        worker = self._by_tid.pop(task.tid, None)
        if worker is None:
            return
        if worker.entry is not None and worker.entry.task is task:
            if worker.slice_handle is not None and worker.slice_handle.active:
                self.stats.completed_in_filter += 1
                if self._trace_on:
                    self._trace.emit(self.sim.now, tev.SFS_FILTER_FINISH,
                                     task.tid, worker.index)
                if self._metrics_on:
                    self._m_filter_finish.inc()
            if self._metrics_on:
                self._m_boost_us.inc(self.sim.now - worker.assigned_at)
            self._charge_elided_polls(worker.poll_ticker)
            worker.clear()
            self._drain()

    def _on_slice_expiry(self, worker: SFSWorker, task: Task) -> None:
        """4.2: the slice elapsed — demote the function to CFS."""
        worker.slice_handle = None
        if worker.entry is None or worker.entry.task is not task:
            return  # stale timer
        task.sfs_slice_left = 0
        task.sfs_demoted = True
        self.stats.demoted_slice += 1
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.SFS_DEMOTE_SLICE,
                             task.tid, worker.index)
        if self._metrics_on:
            self._m_demote_slice.inc()
            self._m_boost_us.inc(self.sim.now - worker.assigned_at)
        if self._audit_on:
            self._audit.record(self.sim.now, aud.OP_DEMOTE,
                               f"sfs-worker:{worker.index}",
                               displaced=task.tid, reason="slice")
        self._sched_op()
        self._by_tid.pop(task.tid, None)
        self._charge_elided_polls(worker.poll_ticker)
        worker.clear()
        self.machine.set_policy(task, SchedPolicy.CFS)
        self._drain()

    def _charge_elided_polls(self, ticker: Optional[Ticker],
                             per_tick: int = 1) -> None:
        """Charge the polls a poll chain's ticker stood in for since the
        last charge: ``per_tick`` per tick the rearming chain would have
        reached by now (the ticker orders ties with the current event
        exactly)."""
        if ticker is not None:
            first, n = ticker.take()
            self.overhead.record_polls(first, ticker.period, n,
                                       self.config.poll_cost, per_tick)

    def _on_io_transition(self, task: Task, blocked: bool) -> None:
        """The machine saw ``task`` block or wake.

        This is simulator ground truth, so it never feeds a decision:
        it only turns the next tick of the poll chain that would observe
        the change into a real poll, at that tick's place in the event
        order.  The poll itself still reads ``/proc``; if the task woke
        or slept again before the tick, it reads that state, exactly as
        the always-polling scheduler would (§V-D detection latency)."""
        if blocked:
            worker = self._by_tid.get(task.tid)
            if worker is not None and worker.poll_ticker is not None:
                self._charge_elided_polls(worker.poll_ticker)
                worker.poll_handle = self.sim.fire(
                    worker.poll_ticker, self._on_worker_poll, worker, task)
                worker.poll_ticker = None
        elif self._watch_ticker is not None and task.tid in self._watch:
            self._fire_watch_poll()

    def _on_worker_poll(self, worker: SFSWorker, task: Task) -> None:
        """4.3: periodic kernel-status poll of the FILTER function."""
        worker.poll_handle = None
        if worker.entry is None or worker.entry.task is not task:
            return  # stale timer
        self.overhead.record_poll(self.sim.now, self.config.poll_cost)
        state = self.machine.poll_state(task)
        if state is TaskState.BLOCKED:
            # running -> sleeping transition detected: stop timekeeping,
            # record the unused slice, drop priority, take the next one.
            used = task.cpu_time - worker.cpu_at_assign
            left = max(0, worker.slice_at_assign - used)
            task.sfs_slice_left = left
            entry = worker.entry
            self.stats.demoted_io += 1
            if self._trace_on:
                self._trace.emit(self.sim.now, tev.SFS_DEMOTE_IO,
                                 task.tid, worker.index, args=(left,))
            if self._metrics_on:
                self._m_demote_io.inc()
                self._m_boost_us.inc(self.sim.now - worker.assigned_at)
            if self._audit_on:
                self._audit.record(self.sim.now, aud.OP_DEMOTE,
                                   f"sfs-worker:{worker.index}",
                                   displaced=task.tid, reason="io", arg=left)
            self._sched_op()
            self._by_tid.pop(task.tid, None)
            worker.clear()
            self.machine.set_policy(task, SchedPolicy.CFS)
            if left > 0:
                self._watch_task(entry)
            else:
                self.stats.demoted_io_exhausted += 1
                task.sfs_demoted = True
            self._drain()
        else:
            # woke again before this tick (a finished function never
            # gets here: the finish callback released the worker and
            # cancelled this poll)
            self._tick_worker_polls(worker)

    def _tick_worker_polls(self, worker: SFSWorker) -> None:
        """Arm the 4.3 poll chain of a running FILTER function.  Until
        it blocks, every poll would read READY/RUNNING and rearm, so
        none runs: a ticker marks where each would have, and the block
        report makes the next one real (see _on_io_transition)."""
        poll = self.config.poll_interval
        worker.poll_ticker = self.sim.ticker(self.sim.now + poll, poll)

    # ==================================================================
    # blocked-function watch list (§V-D)
    # ==================================================================
    def _watch_task(self, entry: QueueEntry) -> None:
        self._charge_watch_polls()
        self._watch[entry.task.tid] = entry
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.SFS_WATCH, entry.task.tid)
        if self._watch_ticker is None and self._watch_handle is None:
            self._tick_watch_polls()

    def _tick_watch_polls(self) -> None:
        """Arm the watch-list poll chain while every watched function
        is asleep: its polls are no-ops until one wakes, so a ticker
        stands in for them until the wake report."""
        poll = self.config.poll_interval
        self._watch_ticker = self.sim.ticker(self.sim.now + poll, poll)

    def _charge_watch_polls(self) -> None:
        """Charge the watch ticks elided so far, one poll per watched
        function per tick (call before the list changes)."""
        self._charge_elided_polls(self._watch_ticker, len(self._watch))

    def _fire_watch_poll(self) -> None:
        """Make the watch chain's next tick a real poll."""
        self._charge_watch_polls()
        self._watch_handle = self.sim.fire(self._watch_ticker,
                                           self._on_watch_poll)
        self._watch_ticker = None

    def _on_watch_poll(self) -> None:
        self._watch_handle = None
        now = self.sim.now
        woke: List[QueueEntry] = []
        for tid in list(self._watch):
            entry = self._watch[tid]
            self.overhead.record_poll(now, self.config.poll_cost)
            # (a finished function left the list in _on_task_finish)
            state = self.machine.poll_state(entry.task)
            if state in (TaskState.READY, TaskState.RUNNING):
                del self._watch[tid]
                woke.append(entry)
        for entry in woke:
            self.stats.resubmitted += 1
            if self._trace_on:
                self._trace.emit(now, tev.SFS_RESUBMIT, entry.task.tid)
            if self._metrics_on:
                self._m_resubmitted.inc()
            self._push(
                QueueEntry(
                    task=entry.task,
                    enqueue_ts=now,
                    invoke_ts=entry.invoke_ts,
                    resumed=True,
                )
            )
        if self._watch:
            self._tick_watch_polls()  # whoever is left is asleep
        if woke:
            self._drain()

    # ==================================================================
    def _sched_op(self) -> None:
        self.overhead.record_sched_op(self.sim.now, self.config.sched_op_cost)

    def busy_workers(self) -> int:
        return len(self._by_tid)  # one entry per occupied worker

    def queued(self) -> int:
        """Requests currently waiting across all global queue(s)."""
        if not self.config.per_worker_queues:
            return len(self.queue)
        return sum(len(q) for q in self.queues)

    # ------------------------------------------------------------------
    # structured tracing
    # ------------------------------------------------------------------
    def sample_gauges(self, trace, now: int) -> None:
        """Emit scheduler-state gauges (called by the periodic sampler)."""
        trace.emit(now, tev.GAUGE_GLOBAL_QUEUE, args=(self.queued(),))
        trace.emit(now, tev.GAUGE_WATCH_LIST, args=(len(self._watch),))
        trace.emit(now, tev.GAUGE_BUSY_WORKERS, args=(self.busy_workers(),))
