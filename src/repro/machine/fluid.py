"""Processor-sharing (fluid) machine model.

At millisecond granularity, CFS with equal weights makes every runnable
task progress at the same *rate* ``r = min(1, free_cores / n_runnable)``
— that is exactly the fairness CFS's slicing converges to within one
``sched_latency`` period.  This engine integrates that fluid limit in
closed form:

* a single global service ``credit(t) = ∫ r dt`` advances for the whole
  CFS pool; a task that entered with ``R`` microseconds of CPU burst
  left finishes when ``credit`` reaches ``entry_credit + R``;
* RT (FIFO) tasks each occupy a whole core at rate 1, shrinking
  ``free_cores``; RR among equal priorities *is* processor sharing, so
  ``SCHED_RR`` tasks are folded into the same pool with the RR quantum
  as the slice;
* context switches cannot be observed directly in a fluid model, so we
  integrate the expected switch rate ``r / slice(t)`` with
  ``slice(t) = max(sched_latency / per_core_contention, min_granularity)``
  — the same rule the discrete engine executes literally.

Every event is O(log n); the engine is validated against
:class:`repro.machine.discrete.DiscreteMachine` by the test suite
(turnaround agreement within one scheduling latency per preemption).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.machine.base import MachineBase, MachineParams
from repro.obs.profiler import perf_counter
from repro.sched.rt import RTRunqueue
from repro.sim.engine import EventHandle, Simulator
from repro.sim.task import BurstKind, SchedPolicy, Task, TaskState
from repro.trace import events as tev
from repro.why import audit as aud

_EPS = 1e-6


class FluidMachine(MachineBase):
    """Closed-form processor-sharing engine (fast, validated)."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None,
                 rr_as_sharing: bool = True):
        super().__init__(sim, params)
        #: treat SCHED_RR as sharing with quantum-sized slices (see module doc)
        self.rr_as_sharing = rr_as_sharing
        #: straggler speed factor; the == 1.0 guard keeps the nominal
        #: path on exact integer arithmetic (bit-identical runs)
        self._speed = self.params.speed
        # --- CFS/RR fluid pool ---
        self._pool: dict[int, Task] = {}           # tid -> task
        self._pool_rr: int = 0                      # SCHED_RR pool members
        self._heap: list[tuple[float, int, Task]] = []  # (target credit, seq, task)
        self._seq = itertools.count()
        self._credit: float = 0.0                   # global service credit
        self._cs_credit: float = 0.0                # integrated switch rate
        self._last_update: int = 0
        self._busy_float: float = 0.0
        self._pool_event: Optional[EventHandle] = None
        # --- RT (FIFO) side ---
        self.rt_wait = RTRunqueue()
        self._rt_running: dict[int, Task] = {}      # tid -> task
        # --- tracing only: stable virtual core slots for RT tasks ---
        # (the fluid model has no real core assignment; slots give the
        # Chrome exporter per-core tracks for dedicated/FILTER tasks)
        self._rt_slots: dict[int, int] = {}         # tid -> slot
        self._free_slots: list[int] = list(range(self.n_cores))
        if self._metrics_on:
            from repro.obs.hooks import RunqueueObs

            self.rt_wait.obs = RunqueueObs(self._metrics, "rt")
            self._m_pool_enters = self._metrics.counter(
                "repro_pool_enters_total", help="tasks entering the CFS pool")
            self._m_rt_starts = self._metrics.counter(
                "repro_rt_starts_total", help="dedicated-core RT starts")
        if self._audit_on:
            self.rt_wait.audit = aud.RunqueueAudit(self._audit, sim, "rt")
        prof = self._metrics.profiler
        if prof is not None:
            # shadow the bound method so the nominal path stays untouched
            impl = self._advance

            def timed_advance() -> None:
                t0 = perf_counter()
                impl()
                prof.add("fluid.advance", perf_counter() - t0)

            self._advance = timed_advance  # type: ignore[method-assign]

    # ==================================================================
    # public API
    # ==================================================================
    def spawn(self, task: Task) -> None:
        if task.state is not TaskState.CREATED:
            raise RuntimeError(f"task {task.tid} already spawned")
        task.dispatch_time = self.sim.now
        self.tasks_spawned += 1
        if self._metrics_on:
            self._m_spawned.inc()
        first = task.current_burst
        assert first is not None
        if first.kind is BurstKind.IO:
            task.state = TaskState.BLOCKED
            if self._trace_on:
                self._trace.emit(self.sim.now, tev.TASK_BLOCK, task.tid)
            task._io_handle = self.sim.schedule(  # type: ignore[attr-defined]
                first.duration, self._on_io_done, task, first.duration
            )
        else:
            self._enqueue_ready(task)

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        if task.state is TaskState.FINISHED:
            return
        rt_priority = rt_priority if policy is not SchedPolicy.CFS else 0
        if task.policy is policy and task.rt_priority == rt_priority:
            return
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_POLICY, task.tid,
                             args=(policy.name, rt_priority))
        was_dedicated = self._is_dedicated(task.policy)

        if task.state in (TaskState.BLOCKED, TaskState.CREATED):
            task.rt_priority = rt_priority
            task.record_policy_change(self.sim.now, policy)
            return

        if task.tid in self._pool:
            self._leave_pool(task, completing=False)
            if self._audit_on:
                self._audit.record(self.sim.now, aud.OP_RECLASS, "kernel",
                                   displaced=task.tid,
                                   reason=tev.DESCHED_RECLASS)
            task.state = TaskState.READY
            task._ready_since = self.sim.now  # type: ignore[attr-defined]
        elif task.tid in self._rt_running:
            self._stop_rt(task, involuntary=True, reason=tev.DESCHED_RECLASS)
            if self._audit_on:
                self._audit.record(self.sim.now, aud.OP_RECLASS, "kernel",
                                   displaced=task.tid,
                                   reason=tev.DESCHED_RECLASS)
            task.state = TaskState.READY
            task._ready_since = self.sim.now  # type: ignore[attr-defined]
        elif task.state is TaskState.READY:
            if was_dedicated:
                self.rt_wait.remove(task)
            # READY non-dedicated tasks are always in the pool, handled above
        task.rt_priority = rt_priority
        task.record_policy_change(self.sim.now, policy)
        self._enqueue_ready(task)
        self._dispatch_rt()

    def kill(self, task: Task, reason: str = "crash") -> bool:
        if task.state is TaskState.FINISHED:
            return False
        if self._audit_on:
            self._audit.record(self.sim.now, aud.OP_KILL, "faults",
                               displaced=task.tid, reason=reason,
                               arg=task.state.value)
        if task.tid in self._pool:
            self._leave_pool(task, completing=False)
        elif task.tid in self._rt_running:
            self._stop_rt(task, involuntary=False, reason=tev.DESCHED_KILL)
        elif task.state is TaskState.READY and self._is_dedicated(task.policy):
            self.rt_wait.remove(task)
        elif task.state is TaskState.BLOCKED:
            handle = getattr(task, "_io_handle", None)
            if handle is not None:
                handle.cancel()
                task._io_handle = None  # type: ignore[attr-defined]
        self._finish_killed(task, reason)
        self._dispatch_rt()  # a freed core may admit waiting RT work
        return True

    def idle_cores(self) -> int:
        free = self.n_cores - len(self._rt_running)
        return max(0, free - len(self._pool))

    def runnable_count(self) -> int:
        free = max(0, self.n_cores - len(self._rt_running))
        queued_pool = max(0, len(self._pool) - free)
        return len(self.rt_wait) + queued_pool

    def sample_gauges(self, trace, now: int) -> None:
        super().sample_gauges(trace, now)
        trace.emit(now, tev.GAUGE_POOL, args=(len(self._pool),))
        trace.emit(now, tev.GAUGE_RT_RUNNING, args=(len(self._rt_running),))
        trace.emit(now, tev.GAUGE_RT_QUEUE, args=(len(self.rt_wait),))

    # ==================================================================
    # pool (CFS + RR-as-sharing) mechanics
    # ==================================================================
    def _is_dedicated(self, policy: SchedPolicy) -> bool:
        """Does this policy get a dedicated core (rate 1)?"""
        if policy is SchedPolicy.FIFO:
            return True
        if policy is SchedPolicy.RR and not self.rr_as_sharing:
            return True
        return False

    def _free_cores(self) -> int:
        return max(0, self.n_cores - len(self._rt_running))

    def _rate(self) -> float:
        n = len(self._pool)
        if n == 0:
            return 0.0
        raw = min(1.0, self._free_cores() / n) * self._speed
        cost = self.params.ctx_switch_cost
        if cost > 0 and raw > 0:
            # each slice of useful work pays one switch: the pool's
            # effective rate shrinks by slice/(slice + cost)
            sr = self._slice_rate()  # expected switches per us of service
            raw /= 1.0 + cost * sr
        return raw

    def _slice_rate(self) -> float:
        """Expected context switches per microsecond of *service*."""
        n = len(self._pool)
        free = self._free_cores()
        if n == 0 or free <= 0:
            return 0.0
        contention = n / free
        if contention <= 1.0:
            return 0.0  # a core each: no involuntary switching
        if self._pool_rr:  # RR members share with the RR quantum as slice
            return 1.0 / self.params.rr_quantum
        cfs = self.params.cfs
        return 1.0 / max(cfs.sched_latency / contention, cfs.min_granularity)

    def _advance(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0:
            return
        r = self._rate()
        self._credit += r * dt
        self._cs_credit += r * dt * self._slice_rate()
        pool_usage = min(len(self._pool), self._free_cores())
        self._busy_float += dt * (pool_usage + len(self._rt_running))
        self.busy_time = int(self._busy_float)
        self._last_update = now

    def _enqueue_ready(self, task: Task) -> None:
        if not hasattr(task, "_ready_since") or task.state is not TaskState.READY:
            task.state = TaskState.READY
            task._ready_since = self.sim.now  # type: ignore[attr-defined]
        if self._is_dedicated(task.policy):
            self.rt_wait.enqueue(task)
            self._dispatch_rt()
        else:
            self._enter_pool(task)

    def _enter_pool(self, task: Task) -> None:
        self._advance()
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU
        target = self._credit + task.burst_remaining
        task._pool_target = target           # type: ignore[attr-defined]
        task._pool_enter_credit = self._credit  # type: ignore[attr-defined]
        task._pool_enter_time = self.sim.now    # type: ignore[attr-defined]
        task._pool_cs_enter = self._cs_credit   # type: ignore[attr-defined]
        if task.first_run_time is None:
            task.first_run_time = self.sim.now
        # In the fluid limit the task is immediately time-sharing the CPU.
        task.wait_time += self.sim.now - getattr(task, "_ready_since", self.sim.now)
        task.state = TaskState.RUNNING
        self._pool[task.tid] = task
        if task.policy is SchedPolicy.RR:
            self._pool_rr += 1
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_RUN, task.tid)
        if self._metrics_on:
            self._m_pool_enters.inc()
        if self._audit_on:
            self._audit.record(self.sim.now, aud.OP_PICK, "pool",
                               chosen=task.tid, arg=len(self._pool))
        heapq.heappush(self._heap, (target, next(self._seq), task))
        self._reschedule_pool_event()

    def _leave_pool(self, task: Task, completing: bool) -> int:
        """Remove from the pool, charging service received.  Returns it."""
        self._advance()
        assert task.tid in self._pool
        del self._pool[task.tid]
        if task.policy is SchedPolicy.RR:
            self._pool_rr -= 1
        if self._trace_on:
            reason = tev.DESCHED_BURST_END if completing else tev.DESCHED_RECLASS
            self._trace.emit(self.sim.now, tev.TASK_DESCHEDULE, task.tid,
                             args=(reason,))
        served_float = self._credit - task._pool_enter_credit  # type: ignore[attr-defined]
        if completing:
            served = task.burst_remaining
        else:
            served = int(round(served_float))
            served = max(0, min(served, task.burst_remaining - 1))
        task.consume_cpu(served)
        if self._inv_on:
            self._inv.on_charge(task)
        elapsed = self.sim.now - task._pool_enter_time  # type: ignore[attr-defined]
        task.wait_time += max(0, elapsed - served)
        # fold the integrated switch-rate estimate into whole switches
        cs = getattr(task, "_cs_float", 0.0)
        cs += (self._cs_credit - task._pool_cs_enter)  # type: ignore[attr-defined]
        whole = int(cs)
        task.ctx_involuntary += whole
        task._cs_float = cs - whole  # type: ignore[attr-defined]
        self._reschedule_pool_event()
        return served

    def _reschedule_pool_event(self) -> None:
        if self._pool_event is not None:
            self._pool_event.cancel()
            self._pool_event = None
        # drop dead heap heads
        while self._heap and self._heap[0][2].tid not in self._pool:
            heapq.heappop(self._heap)
        while self._heap and self._heap[0][2]._pool_target != self._heap[0][0]:  # type: ignore[attr-defined]
            heapq.heappop(self._heap)
        if not self._heap:
            return
        r = self._rate()
        if r <= 0.0:
            return  # pool frozen: all cores held by FIFO tasks
        target = self._heap[0][0]
        dt = (target - self._credit) / r
        delay = max(0, int(math.ceil(dt - _EPS)))
        self._pool_event = self.sim.schedule(delay, self._on_pool_completion)

    def _on_pool_completion(self) -> None:
        self._pool_event = None
        self._advance()
        finished: list[Task] = []
        while self._heap and self._heap[0][0] <= self._credit + _EPS:
            _target, _seq, task = heapq.heappop(self._heap)
            if task.tid not in self._pool or task._pool_target != _target:  # type: ignore[attr-defined]
                continue  # stale entry
            del self._pool[task.tid]
            if task.policy is SchedPolicy.RR:
                self._pool_rr -= 1
            finished.append(task)
        tr = self._trace
        tr_on = self._trace_on
        for task in finished:
            if tr_on:
                tr.emit(self.sim.now, tev.TASK_DESCHEDULE, task.tid,
                        args=(tev.DESCHED_BURST_END,))
            served = task.burst_remaining
            task.consume_cpu(served)
            if self._inv_on:
                self._inv.on_charge(task)
            elapsed = self.sim.now - task._pool_enter_time  # type: ignore[attr-defined]
            task.wait_time += max(0, elapsed - served)
            cs = getattr(task, "_cs_float", 0.0)
            cs += self._cs_credit - task._pool_cs_enter  # type: ignore[attr-defined]
            whole = int(cs)
            task.ctx_involuntary += whole
            task._cs_float = cs - whole  # type: ignore[attr-defined]
            self._complete_cpu_burst(task)
        if self._inv_on:
            self._inv.on_fluid_pool(self)
        self._reschedule_pool_event()

    # ==================================================================
    # RT (dedicated-core) mechanics
    # ==================================================================
    def _dispatch_rt(self) -> None:
        if self._inv_on:
            self._inv.on_runqueue(self.rt_wait)
        while True:
            nxt = self.rt_wait.peek()
            if nxt is None:
                return
            if len(self._rt_running) < self.n_cores:
                task = self.rt_wait.pop()
                self._start_rt(task)
                continue
            # all cores dedicated: preempt a strictly lower-priority one
            victim = None
            for t in self._rt_running.values():
                if t.rt_priority < nxt.rt_priority and (
                    victim is None or t.rt_priority < victim.rt_priority
                ):
                    victim = t
            if victim is None:
                return
            self._stop_rt(victim, involuntary=True)
            if self._audit_on:
                self._audit.record(self.sim.now, aud.OP_PREEMPT, "rt",
                                   chosen=nxt.tid, displaced=victim.tid,
                                   reason=tev.DESCHED_PREEMPT,
                                   arg=nxt.rt_priority)
            victim.state = TaskState.READY
            victim._ready_since = self.sim.now  # type: ignore[attr-defined]
            self.rt_wait.enqueue(victim)

    def _start_rt(self, task: Task) -> None:
        self._advance()
        burst = task.current_burst
        assert burst is not None and burst.kind is BurstKind.CPU
        task.wait_time += self.sim.now - getattr(task, "_ready_since", self.sim.now)
        if task.first_run_time is None:
            task.first_run_time = self.sim.now
        task.state = TaskState.RUNNING
        task._rt_start = self.sim.now  # type: ignore[attr-defined]
        wall = task.burst_remaining
        if self._speed != 1.0:  # straggler: the core serves CPU us slower
            wall = int(math.ceil(wall / self._speed))
        task._rt_end_handle = self.sim.schedule(  # type: ignore[attr-defined]
            wall, self._on_rt_completion, task
        )
        self._rt_running[task.tid] = task
        if self._metrics_on:
            self._m_rt_starts.inc()
        if self._trace_on:
            slot = heapq.heappop(self._free_slots) if self._free_slots else -1
            if slot >= 0:
                self._rt_slots[task.tid] = slot
            self._trace.emit(self.sim.now, tev.TASK_RUN, task.tid, slot)
        self._reschedule_pool_event()

    def _stop_rt(self, task: Task, involuntary: bool,
                 reason: str = tev.DESCHED_PREEMPT) -> None:
        """Take a dedicated-core task off CPU, charging service so far."""
        self._advance()
        handle = getattr(task, "_rt_end_handle", None)
        if handle is not None:
            handle.cancel()
            task._rt_end_handle = None  # type: ignore[attr-defined]
        served = self.sim.now - task._rt_start  # type: ignore[attr-defined]
        if self._speed != 1.0:
            served = int(served * self._speed)
        served = min(served, task.burst_remaining)
        task.consume_cpu(served)
        if self._inv_on:
            self._inv.on_charge(task)
        del self._rt_running[task.tid]
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_DESCHEDULE, task.tid,
                             self._release_slot(task.tid), args=(reason,))
        if involuntary:
            task.ctx_involuntary += 1
        self._reschedule_pool_event()

    def _on_rt_completion(self, task: Task) -> None:
        self._advance()
        task._rt_end_handle = None  # type: ignore[attr-defined]
        task.consume_cpu(task.burst_remaining)
        if self._inv_on:
            self._inv.on_charge(task)
        del self._rt_running[task.tid]
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_DESCHEDULE, task.tid,
                             self._release_slot(task.tid),
                             args=(tev.DESCHED_BURST_END,))
        self._complete_cpu_burst(task)
        self._dispatch_rt()
        self._reschedule_pool_event()

    def _release_slot(self, tid: int) -> int:
        """Return the task's virtual core slot to the free list (tracing)."""
        slot = self._rt_slots.pop(tid, -1)
        if slot >= 0:
            heapq.heappush(self._free_slots, slot)
        return slot

    # ==================================================================
    # burst lifecycle (shared)
    # ==================================================================
    def _complete_cpu_burst(self, task: Task) -> None:
        nxt = task.advance_burst()
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            self._notify_finish(task)
        elif nxt.kind is BurstKind.IO:
            task.state = TaskState.BLOCKED
            task.ctx_voluntary += 1
            if self._trace_on:
                self._trace.emit(self.sim.now, tev.TASK_BLOCK, task.tid)
            task._io_handle = self.sim.schedule(  # type: ignore[attr-defined]
                nxt.duration, self._on_io_done, task, nxt.duration
            )
            if self._io_observer is not None:
                self._io_observer(task, True)
        else:  # consecutive CPU burst: continue under the current policy
            task.state = TaskState.READY
            task._ready_since = self.sim.now  # type: ignore[attr-defined]
            self._enqueue_ready(task)

    def _on_io_done(self, task: Task, duration: int) -> None:
        task._io_handle = None  # type: ignore[attr-defined]
        nxt = task.complete_io()
        if nxt is None:
            task.state = TaskState.FINISHED
            task.finish_time = self.sim.now
            self._notify_finish(task)
            return
        assert nxt.kind is BurstKind.CPU, "consecutive I/O bursts must be merged"
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_WAKE, task.tid)
        task.state = TaskState.READY
        task._ready_since = self.sim.now  # type: ignore[attr-defined]
        if self._io_observer is not None:
            self._io_observer(task, False)
        self._enqueue_ready(task)
        if self._is_dedicated(task.policy):
            self._dispatch_rt()
