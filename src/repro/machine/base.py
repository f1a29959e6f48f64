"""Machine interface shared by the discrete and fluid engines.

The API deliberately mirrors what a *user-space* scheduler can actually
do on Linux, because SFS is a user-space scheduler:

* ``spawn``        — the FaaS server forks the function process;
* ``set_policy``   — ``schedtool`` / ``sched_setscheduler(2)``;
* ``poll_state``   — reading ``/proc/<pid>/stat`` (gopsutil);
* ``on_finish``    — ``waitpid``/SIGCHLD, which user space gets for free.

There is intentionally **no** ``on_block`` callback in that API: the
paper's whole §V-D is about SFS having to *poll* for the
running→sleeping transition, so exposing it as a push event would erase
the detection-latency effect the reproduction must show (Fig 11).
:meth:`MachineBase.on_io_transition` is simulator bookkeeping, not user
space: it tells a poller which of its periodic polls will see a change,
so the others need not run, and the polls themselves still decide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sched.cfs import CfsParams
from repro.sched.rt import DEFAULT_RR_QUANTUM
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task, TaskState
from repro.trace import events as tev

FinishCallback = Callable[[Task], None]
#: ``(task, blocked)``: the task went to sleep (True) or woke (False)
IoCallback = Callable[[Task, bool], None]


@dataclass(frozen=True)
class MachineParams:
    """Host configuration.

    ``ctx_switch_cost`` is the CPU time (us) lost per context switch —
    the direct kernel cost plus cache/TLB pollution.  It defaults to 0
    (ideal hardware) so unit arithmetic stays exact; the experiment
    harness sets a calibrated value (see ``repro.experiments.common``),
    because this loss is precisely why heavily-slicing CFS falls behind
    rarely-switching FILTER at saturation (the paper's Fig 15/16 tail).
    """

    n_cores: int = 12
    cfs: CfsParams = field(default_factory=CfsParams)
    rr_quantum: int = DEFAULT_RR_QUANTUM
    ctx_switch_cost: int = 0
    #: relative CPU speed of this host (1.0 = nominal).  A straggler
    #: host (thermal throttling, noisy neighbour, degraded clock) runs
    #: at speed < 1: every CPU burst takes ``1/speed`` x as long in
    #: wall time.  Injected per host by :mod:`repro.faults`.
    speed: float = 1.0
    #: which fair class SCHED_NORMAL maps to: "cfs" (pre-6.6 Linux, the
    #: paper's testbed) or "eevdf" (6.6+) — discrete engine only.
    fair_class: str = "cfs"
    #: RT group bandwidth (sched_rt_runtime_us / sched_rt_period_us):
    #: a (runtime, period) pair in us, e.g. Linux's default
    #: ``(950_000, 1_000_000)`` guarantees CFS >= 5 % of each core.
    #: ``None`` (default) models the throttle disabled, matching the
    #: paper's deployments where FILTER may monopolise cores.  Discrete
    #: engine only.
    rt_bandwidth: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.rr_quantum <= 0:
            raise ValueError("rr_quantum must be positive")
        if self.ctx_switch_cost < 0:
            raise ValueError("ctx_switch_cost must be >= 0")
        if not (0.0 < self.speed <= 1.0):
            raise ValueError("speed must be in (0, 1] (1.0 = nominal)")
        if self.fair_class not in ("cfs", "eevdf"):
            raise ValueError(f"unknown fair_class {self.fair_class!r}")
        if self.rt_bandwidth is not None:
            runtime, period = self.rt_bandwidth
            if not (0 < runtime < period):
                raise ValueError("rt_bandwidth needs 0 < runtime < period")


class MachineBase:
    """Abstract c-core host running CFS + RT scheduling classes."""

    def __init__(self, sim: Simulator, params: Optional[MachineParams] = None):
        self.sim = sim
        self.params = params or MachineParams()
        self.n_cores = self.params.n_cores
        self._finish_callbacks: List[FinishCallback] = []
        self._io_observer: Optional[IoCallback] = None
        # structured tracing: recorder and its enabled flag are cached at
        # construction (install the recorder on the Simulator first); the
        # plain-bool guard keeps disabled-mode sites to one attribute load
        self._trace = sim.trace
        self._trace_on = self._trace.enabled
        # runtime invariant checker: same caching contract as the trace
        # recorder (install on the Simulator before building the machine)
        self._inv = sim.invariants
        self._inv_on = self._inv.enabled
        # metric registry: same caching contract again (repro.obs)
        self._metrics = sim.metrics
        self._metrics_on = self._metrics.enabled
        # scheduler-decision audit stream: same caching contract
        # (repro.why.audit); engines name themselves as the actor on
        # machine-level decisions (preempt/slice/quantum/throttle/kill)
        self._audit = sim.audit
        self._audit_on = self._audit.enabled
        if self._metrics_on:
            self._m_spawned = self._metrics.counter(
                "repro_tasks_spawned_total", help="processes dispatched")
            self._m_finished = self._metrics.counter(
                "repro_tasks_finished_total", help="processes exited")
        # aggregate accounting
        self.busy_time: int = 0          # core-microseconds of CPU work done
        self.tasks_spawned: int = 0
        self.tasks_finished: int = 0

    # ------------------------------------------------------------------
    # public API (what user space can do)
    # ------------------------------------------------------------------
    def spawn(self, task: Task) -> None:
        """Dispatch a process to the OS at the current virtual time."""
        raise NotImplementedError

    def set_policy(self, task: Task, policy: SchedPolicy, rt_priority: int = 1) -> None:
        """``sched_setscheduler``: re-class a live task."""
        raise NotImplementedError

    def poll_state(self, task: Task) -> TaskState:
        """Read the kernel-visible process state (``/proc`` poll); the
        task's CPU accounting is up to date when this returns."""
        self._sync_accounting(task)
        return task.state

    def _sync_accounting(self, task: Task) -> None:
        """Engine hook: apply any CPU charges kept lazily for ``task``."""

    def on_io_transition(self, callback: IoCallback) -> None:
        """Register the observer of I/O blocks and wake-ups.

        ``callback(task, True)`` runs when a task leaves the CPU to
        sleep on I/O, ``callback(task, False)`` when its I/O completes
        and it becomes runnable again.  This is simulator ground truth:
        a poller may use it only to know which of its periodic polls
        will observe a change (the others are no-ops and need not run),
        never as a scheduling-policy input.  One observer per machine.
        """
        self._io_observer = callback

    def on_finish(self, callback: FinishCallback) -> None:
        """Register a process-exit observer (``waitpid`` semantics)."""
        self._finish_callbacks.append(callback)

    def kill(self, task: Task, reason: str = "crash") -> bool:
        """``SIGKILL``: forcibly terminate a live task.

        Used by the fault injector (sandbox crash, request timeout, host
        failure).  The task is charged for the CPU service it received,
        removed from every queue, marked ``killed`` with ``reason`` and
        reported through the normal ``on_finish`` path — user space
        (FaaS server, SFS) observes an ordinary process exit, exactly as
        ``waitpid`` would report a signalled child.  Returns False when
        the task had already finished (kill raced with completion).
        """
        raise NotImplementedError

    def _finish_killed(self, task: Task, reason: str) -> None:
        """Shared kill epilogue: mark the exit and notify user space."""
        task.killed = True
        task.kill_reason = reason
        task.state = TaskState.FINISHED
        task.finish_time = self.sim.now
        self._notify_finish(task)

    # ------------------------------------------------------------------
    # introspection used by tests and metrics
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of total core time spent running tasks so far."""
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / (self.sim.now * self.n_cores)

    def idle_cores(self) -> int:
        raise NotImplementedError

    def runnable_count(self) -> int:
        """Tasks ready-but-not-running across all queues."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # structured tracing
    # ------------------------------------------------------------------
    def sample_gauges(self, trace, now: int) -> None:
        """Emit machine-state gauges (called by the periodic sampler).

        The base snapshot works for any machine exposing the
        introspection API; engines override to add per-queue depth.
        """
        trace.emit(now, tev.GAUGE_RUNNABLE, args=(self.runnable_count(),))
        trace.emit(now, tev.GAUGE_IDLE_CORES, args=(self.idle_cores(),))

    # ------------------------------------------------------------------
    def _notify_finish(self, task: Task) -> None:
        self.tasks_finished += 1
        if self._inv_on:
            self._inv.on_task_finish(task, self.sim.now)
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_FINISH, task.tid)
        if self._metrics_on:
            self._m_finished.inc()
        for cb in list(self._finish_callbacks):
            cb(task)
