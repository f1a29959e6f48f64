"""Glue between instrumented layers and the metrics registry.

Two pieces live here:

* :class:`GaugeSink` — an ``emit``-compatible fanout that the periodic
  gauge sampler (:func:`repro.trace.gauges.attach_gauge_sampler`) hands
  to ``sample_gauges`` in place of the bare trace recorder.  Every
  ``gauge.*`` event is routed to a registry :class:`Gauge` (named per
  :data:`GAUGE_METRICS`, labelled per core where applicable) and, when
  tracing is on, forwarded verbatim to the trace recorder — the old
  trace track is now a thin adapter over this path, byte-identical to
  what it recorded before.

* :class:`RunqueueObs` — a per-scheduling-class instrument bundle the
  machine engines attach to their runqueues (``rq.obs``).  Runqueue hot
  paths guard with ``if self.obs is not None:`` so the null-registry
  case costs one attribute load and a predictable branch, exactly like
  the trace guards.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.trace import events as tev
from repro.trace.events import TraceEvent
from repro.trace.recorder import TraceRecorder

_tuple_new = tuple.__new__

#: gauge trace kind -> (metric name, help text, labelled per core?)
GAUGE_METRICS: Dict[str, Tuple[str, str, bool]] = {
    tev.GAUGE_RUNNABLE: (
        "repro_runnable_tasks", "ready-but-not-running tasks, machine-wide",
        False),
    tev.GAUGE_IDLE_CORES: (
        "repro_idle_cores", "cores with nothing to run", False),
    tev.GAUGE_RUNQUEUE: (
        "repro_runqueue_depth", "per-core fair-class runqueue depth", True),
    tev.GAUGE_RT_QUEUE: (
        "repro_rt_queue_depth", "global RT runqueue length", False),
    tev.GAUGE_POOL: (
        "repro_pool_occupancy", "fluid CFS pool occupancy", False),
    tev.GAUGE_RT_RUNNING: (
        "repro_rt_running", "fluid dedicated-core count", False),
    tev.GAUGE_GLOBAL_QUEUE: (
        "repro_sfs_global_queue", "SFS global queue length", False),
    tev.GAUGE_WATCH_LIST: (
        "repro_sfs_watch_list", "SFS blocked watch-list size", False),
    tev.GAUGE_BUSY_WORKERS: (
        "repro_sfs_busy_workers", "occupied FILTER workers", False),
    # core carries the cluster host index for platform-level gauges
    # (matching fault.host_* events); -1 = standalone, unlabelled
    tev.GAUGE_KEEPALIVE: (
        "repro_keepalive_warm", "warm containers in the keep-alive cache",
        True),
    tev.GAUGE_OUTSTANDING: (
        "repro_outstanding_requests", "invocations in flight on the platform",
        True),
    tev.GAUGE_UNHEALTHY: (
        "repro_cluster_unhealthy_hosts",
        "hosts the dispatcher's health view excludes from placement",
        False),
    tev.GAUGE_RETRY_TOKENS: (
        "repro_cluster_retry_tokens",
        "whole tokens left in the global retry budget", False),
}


class GaugeSink:
    """Fanout for periodic ``gauge.*`` samples: registry + trace.

    A :class:`~repro.trace.recorder.TraceRecorder` gets its events
    appended directly (the sampler emits a dozen per tick); any other
    enabled recorder through its ``emit``.
    """

    __slots__ = ("_registry", "_registry_on", "_trace", "_trace_on",
                 "_append", "_gauges")

    def __init__(self, registry, trace) -> None:
        self._registry = registry
        self._registry_on = registry.enabled
        self._trace = trace
        self._trace_on = trace.enabled
        self._append = (trace.events.append if type(trace) is TraceRecorder
                        else None)
        self._gauges: Dict[Tuple[str, int], object] = {}

    def emit(self, ts: int, kind: str, tid: int = -1, core: int = -1,
             args: Tuple = ()) -> None:
        # trace first: the adapter must preserve the recorder's exact
        # pre-registry event stream (order included)
        if self._append is not None:
            # TraceEvent(...) without the generated keyword-parsing __new__
            self._append(_tuple_new(TraceEvent, (ts, kind, tid, core, args)))
        elif self._trace_on:
            self._trace.emit(ts, kind, tid, core, args)
        if not self._registry_on or not args:
            return
        gauge = self._gauges.get((kind, core))
        if gauge is None:
            spec = GAUGE_METRICS.get(kind)
            if spec is None:
                return  # a non-gauge kind slipped through; trace keeps it
            name, help, per_core = spec
            labels = {"core": str(core)} if per_core and core >= 0 else None
            gauge = self._registry.gauge(name, help=help, labels=labels)
            self._gauges[(kind, core)] = gauge
        gauge.set(args[0], ts)


class RunqueueObs:
    """Enqueue/pick counters + depth histogram for one scheduling class.

    One instance is shared by every runqueue of the same class on a
    machine (per-core depth is covered by the periodic gauges; lifetime
    operation counts aggregate naturally).
    """

    __slots__ = ("enqueues", "picks", "depth")

    def __init__(self, registry, sched_class: str) -> None:
        labels = {"class": sched_class}
        self.enqueues = registry.counter(
            "repro_rq_enqueues_total", help="runqueue insertions",
            labels=labels)
        self.picks = registry.counter(
            "repro_rq_picks_total", help="runqueue pick_next/pop hits",
            labels=labels)
        self.depth = registry.histogram(
            "repro_rq_depth_at_enqueue", help="queue depth seen at enqueue",
            labels=labels)

    def on_enqueue(self, depth: int) -> None:
        self.enqueues.inc()
        self.depth.observe(depth)

    def on_pick(self) -> None:
        self.picks.inc()
