"""Streaming replay driver: crash-proof, constant-memory execution.

:func:`repro.experiments.runner.run_workload` schedules every arrival
up front and retains every (spec, task) pair — both fatal for long
horizons: O(n) heap size and O(n) retention are exactly what streaming
must remove.
This driver is the long-horizon counterpart:

* **prefetch-one arrivals** — the event heap holds at most one future
  arrival; each arrival event dispatches its request and fetches the
  next from the (picklable) workload cursor, so heap size tracks
  in-flight work, not trace length;
* **class-based event handlers** — every callback living in the event
  heap is a bound method of a picklable object, making the whole live
  graph serializable mid-run (see :mod:`repro.stream.checkpoint`);
* **streaming aggregation** — finished requests fold into a
  :class:`repro.stream.aggregate.StreamSummary` and are dropped;
* **bounded SFS diagnostics** — the unbounded sample lists the
  materialized path keeps for Fig 10/12 (queue delay samples, slice
  timeline, overload events) become bounded deques, and the overhead
  meter gets a coarse window, so SFS state stays O(1) over any horizon;
* **checkpoint ticks** — a self-rescheduling virtual-time event writes
  a checkpoint every ``checkpoint_every`` us and runs the memory
  watchdog; the *next* tick is scheduled before pickling so a restored
  heap is already armed.

Instrumentation is deliberately the zero-overhead NULL stack (trace,
invariants, metrics off): those layers cache closures and wall-clock
profilers that must never reach a checkpoint, and the nominal path is
bit-identical without them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional

from repro.core.config import SFSConfig
from repro.core.overhead import OverheadMeter
from repro.core.sfs import SFS
from repro.experiments.pipeline import ENGINES, build_host, notify_sfs
from repro.machine.base import MachineParams
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.sim.units import SEC
from repro.stream.aggregate import StreamSummary
from repro.workload.spec import RequestSpec
from repro.workload.stream import RequestStream, StreamCursor

#: schedulers the streaming driver supports (the clairvoyant oracles
#: srtf/ideal are comparison baselines, not replay targets)
REPLAY_SCHEDULERS = ("cfs", "fifo", "rr", "sfs")

#: cap on retained diagnostic samples inside SFS components
SAMPLE_CAP = 4096


@dataclass(frozen=True)
class ReplayConfig:
    """How to execute a streaming replay."""

    scheduler: str = "sfs"
    engine: str = "fluid"
    machine: MachineParams = field(default_factory=MachineParams)
    sfs: SFSConfig = field(default_factory=SFSConfig)
    #: FaaS-server -> SFS notification latency (us), as in RunConfig.
    notify_latency: int = 200
    #: stop admitting arrivals after this virtual time (None = replay
    #: the whole stream); in-flight work still drains to completion.
    horizon: Optional[int] = None
    #: write a checkpoint every this many us of virtual time (None =
    #: checkpointing off; requires a CheckpointStore on the driver).
    checkpoint_every: Optional[int] = 60 * SEC
    #: recent-record ring size in the aggregator.
    recent: int = 256
    #: overhead-meter bucket width — 1 s buckets (the Table II default)
    #: would accumulate 1.2M dict entries over a 14-day horizon.
    overhead_window: int = 60 * SEC

    def __post_init__(self) -> None:
        if self.scheduler not in REPLAY_SCHEDULERS:
            raise ValueError(
                f"unknown replay scheduler {self.scheduler!r} "
                f"(expected one of {REPLAY_SCHEDULERS})")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.notify_latency < 0:
            raise ValueError("notify_latency must be >= 0")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive (us)")
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive (us)")
        if self.overhead_window <= 0:
            raise ValueError("overhead_window must be positive")


def _bound_sfs_buffers(sfs: SFS, cap: int = SAMPLE_CAP) -> None:
    """Swap the unbounded diagnostic lists inside SFS for bounded
    deques.  Safe before any event has fired: all three are pure
    sample sinks (appended to, read only at render time)."""
    for queue in {id(q): q for q in sfs.queues}.values():
        queue.delay_samples = deque(queue.delay_samples, maxlen=cap)
    sfs.monitor.timeline = deque(sfs.monitor.timeline, maxlen=cap)
    sfs.overload.events = deque(sfs.overload.events, maxlen=cap)


class StreamReplayDriver:
    """One streaming replay: cursor in, deterministic summary out.

    The driver object is the checkpoint root: pickling it captures the
    simulator (heap included), machine, SFS, cursor, aggregator and
    watchdog as one aliasing-preserving graph.
    """

    def __init__(self, stream: RequestStream, cfg: ReplayConfig,
                 aggregator: Optional[StreamSummary] = None,
                 checkpointer=None, watchdog=None):
        self.cfg = cfg
        self.stream_meta = dict(stream.meta)
        self.cursor: StreamCursor = stream.cursor()
        self.aggregator = aggregator or StreamSummary(recent=cfg.recent)
        self.checkpointer = checkpointer
        self.watchdog = watchdog
        self.sim = Simulator(label=f"replay {cfg.scheduler}/{cfg.engine}")
        self.machine, self.sfs, self._policy = build_host(self.sim, cfg)
        if self.sfs is not None:
            # long-horizon bounds: coarse overhead buckets, capped
            # diagnostic sample lists (see module docstring)
            self.sfs.overhead = OverheadMeter(window=cfg.overhead_window)
            _bound_sfs_buffers(self.sfs)
        self._inflight: Dict[int, RequestSpec] = {}
        self._next_spec: Optional[RequestSpec] = None
        self.done = 0
        self.admitted = 0
        self.truncated_at_horizon = False
        self.checkpoints_written = 0
        self.resumed_from: Optional[int] = None
        self._finished = False
        self.machine.on_finish(self._on_finish)
        self._fetch_next()
        if cfg.checkpoint_every is not None:
            self.sim.schedule(cfg.checkpoint_every, self._on_checkpoint_tick)

    # ------------------------------------------------------------------
    # event handlers: bound methods only — these live in the heap
    # ------------------------------------------------------------------
    def _fetch_next(self) -> None:
        """Pull one request from the cursor and arm its arrival event."""
        try:
            spec = next(self.cursor)
        except StopIteration:
            self._next_spec = None
            return
        if self.cfg.horizon is not None and spec.arrival > self.cfg.horizon:
            self._next_spec = None
            self.truncated_at_horizon = True
            return
        self._next_spec = spec
        self.sim.schedule_at(spec.arrival, self._arrive)

    def _arrive(self) -> None:
        spec = self._next_spec
        # prefetch first: the next arrival's event outranks (by seq) any
        # machine event this dispatch schedules at the same timestamp,
        # matching the materialized runner's arrivals-first discipline
        self._fetch_next()
        task = spec.make_task(policy=self._policy)
        self._inflight[task.tid] = spec
        self.admitted += 1
        self.machine.spawn(task)
        if self.sfs is not None:
            notify_sfs(self.sfs, self.cfg.notify_latency, task, spec.arrival)

    def _on_finish(self, task: Task) -> None:
        spec = self._inflight.pop(task.tid, None)
        if spec is None:
            return
        self.done += 1
        self.aggregator.observe(spec, task, inflight=len(self._inflight) + 1)

    def _on_checkpoint_tick(self) -> None:
        """Periodic housekeeping: rearm, watchdog, checkpoint.

        Rearm comes first so the pickled heap already carries the next
        tick; the tick dies with the run (no other live events = the
        replay is over) exactly like the gauge sampler's rule.
        """
        if self.sim.pending_work > 0:
            self.sim.schedule(self.cfg.checkpoint_every,
                              self._on_checkpoint_tick)
        if self.watchdog is not None:
            self.watchdog.check(self)  # may raise MemoryBudgetExceeded
        if self.checkpointer is not None:
            self.checkpointer.save(self)

    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> Dict[str, object]:
        """Drive the replay to completion and return the summary dict.

        ``until`` stops the loop at a virtual time with work pending —
        only useful in tests that then abandon this driver and restore
        a checkpointed copy.
        """
        self.sim.run(until=until)
        if until is None:
            if self._inflight:
                raise RuntimeError(
                    f"{len(self._inflight)} requests never finished under "
                    f"{self.cfg.scheduler}/{self.cfg.engine}")
            self._finished = True
            self.aggregator.close()
        return self.summary()

    def summary(self) -> Dict[str, object]:
        meta = dict(self.stream_meta)
        if self.cfg.horizon is not None:
            meta["horizon_us"] = self.cfg.horizon
            meta["truncated_at_horizon"] = self.truncated_at_horizon
        return self.aggregator.result(
            sim_time=self.sim.now,
            busy_time=self.machine.busy_time,
            n_cores=self.machine.n_cores,
            events_executed=self.sim.events_executed,
            scheduler=self.cfg.scheduler,
            engine=self.cfg.engine,
            meta=meta,
        )

    # ------------------------------------------------------------------
    def tighten_buffers(self) -> None:
        """Watchdog soft-threshold hook: shrink diagnostic memory."""
        self.aggregator.tighten()
        if self.sfs is not None:
            _bound_sfs_buffers(self.sfs, cap=max(
                64, SAMPLE_CAP // (2 ** min(8, 1 + (
                    self.watchdog.soft_trips if self.watchdog else 1)))))

    # ------------------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """JSON-safe configuration key for checkpoint manifests: a
        resume with any different replay parameter (scheduler, engine,
        machine, SFS tunables, cadence, stream) must be refused."""
        return {
            "replay": asdict(self.cfg),
            "stream": dict(self.stream_meta),
            "n_requests": self.cursor.config.n_requests,
        }
