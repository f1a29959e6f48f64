"""The run pipeline shared by every driver that returns records.

``run_workload`` (bare FaaSBench, §VIII), ``run_openlambda`` (the
OpenLambda pipeline, §IX) and ``run_cluster`` (§VIII-A future work)
drive the same host, so they share :func:`build_host` (machine engine,
SFS when the scheduler is ``sfs``, the class new functions start in;
the streaming driver builds its host here too), :func:`at_host_speed`
(per-host speed times the fault plan's straggler factor), :class:`Host`
(one host's request front door) and :func:`run_records` (simulator,
arrivals, records, checks, manifest).  Nothing here lives in
``repro.core``, ``repro.faas`` or ``repro.faults``: a nominal run calls
into none of them beyond SFS, and builds no fault governor.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.sfs import SFS
from repro.faults.runtime import FaultRuntime
from repro.invariants.checker import resolve_checker
from repro.machine.discrete import DiscreteMachine
from repro.machine.fluid import FluidMachine
from repro.metrics.collector import RunResult, build_records
from repro.sched.ideal import IdealMachine
from repro.sched.srtf import SRTFMachine
from repro.sim.engine import Simulator
from repro.sim.task import SchedPolicy, Task
from repro.trace import RunManifest, attach_gauge_sampler
from repro.trace import events as tev
from repro.workload.spec import RequestSpec, Workload

ENGINES = {"fluid": FluidMachine, "discrete": DiscreteMachine}

POLICY_FOR = {
    "cfs": SchedPolicy.CFS,
    "fifo": SchedPolicy.FIFO,
    "rr": SchedPolicy.RR,
    "sfs": SchedPolicy.CFS,  # functions start in CFS; SFS promotes them
}


def build_host(sim: Simulator, cfg):
    """``(machine, sfs, policy)`` for ``cfg``'s scheduler and engine.

    ``cfg`` is any run configuration with ``scheduler``, ``engine``,
    ``machine`` and ``sfs`` fields; ``sfs`` is None unless the
    scheduler is ``sfs``.
    """
    if cfg.scheduler == "srtf":
        machine = SRTFMachine(sim, cfg.machine)
    elif cfg.scheduler == "ideal":
        machine = IdealMachine(sim, cfg.machine)
    else:
        machine = ENGINES[cfg.engine](sim, cfg.machine)
    sfs = SFS(machine, cfg.sfs) if cfg.scheduler == "sfs" else None
    return machine, sfs, POLICY_FOR.get(cfg.scheduler, SchedPolicy.CFS)


def at_host_speed(cfg, host: int = 0, base: float = 1.0):
    """``cfg`` with its machine at host ``host``'s speed.

    The speed is ``base`` (a heterogeneous cluster's per-host speed)
    times ``cfg.faults``' straggler factor for ``host``; at 1.0 the
    configuration is returned unchanged.  A single-host driver is host
    0 of its fault plan.
    """
    speed = base
    if cfg.faults is not None:
        speed *= cfg.faults.straggler_speed(host)
    if speed == 1.0:
        return cfg
    return replace(cfg, machine=replace(cfg.machine, speed=speed))


def notify_sfs(sfs: SFS, latency: int, task: Task, arrival: int) -> None:
    """The FaaS server tells SFS about a new function process (§VI's
    UDP message) ``latency`` us after the spawn; at 0 SFS sees it at
    once."""
    if latency > 0:
        sfs.sim.schedule(latency, sfs.submit, task, arrival)
    else:
        sfs.submit(task, arrival)


class FaultHandling:
    """The fault fields a run configuration carries (``faults``,
    ``retry``, ``admission``, ``timeout``) and the governor they make."""

    @property
    def fault_handling(self) -> bool:
        """Does this run need a fault governor at all?  False keeps the
        hosts on the exact pre-fault code path."""
        return (
            self.faults is not None
            or self.retry is not None
            or self.admission is not None
            or self.timeout is not None
        )

    def governor(self, sim: Simulator) -> FaultRuntime:
        """A fresh fault governor for one run on ``sim``."""
        return FaultRuntime(sim, plan=self.faults, retry=self.retry,
                            admission=self.admission, timeout=self.timeout)


class Host:
    """One simulated host behind its request front door.

    A request enters at :meth:`invoke` (admission), each attempt at
    ``_ingress`` (deadline, attempt accounting), crosses ``_forward``
    (the pipeline hops: none on a bare host) into ``_spawn``, and its
    exit comes back through ``_on_finish``, which retries when the
    governor asks.  ``faults`` is the run's governor: a cluster shares
    one across its hosts, a standalone host builds its own when its
    configuration asks for fault handling; when it is None every
    boundary check is one attribute load.
    """

    def __init__(self, sim: Simulator, config,
                 faults: Optional[FaultRuntime] = None):
        self.sim = sim
        self.config = config
        self.machine, self.sfs, self.policy = build_host(sim, config)
        if faults is None and config.fault_handling:
            faults = config.governor(sim)
        self.faults = faults
        self.pairs: List[Tuple[RequestSpec, Task]] = []
        #: requests admitted here and not yet finished (placement load)
        self.outstanding: int = 0
        #: cluster slot (-1 = standalone host): gauge label and the
        #: host a failed attempt is reported on
        self.host_index: int = -1
        self._live: Dict[int, Tuple[RequestSpec, Task]] = {}
        self._trace = sim.trace
        self._trace_on = self._trace.enabled
        self.machine.on_finish(self._on_finish)

    # ------------------------------------------------------------------
    # the run_records protocol
    # ------------------------------------------------------------------
    @property
    def machines(self) -> List[object]:
        return [self.machine]

    def gauge_sources(self) -> List[object]:
        return [self.machine] if self.sfs is None else [self.machine, self.sfs]

    def run_meta(self, workload: Workload) -> Dict[str, object]:
        return dict(workload.meta)

    # ------------------------------------------------------------------
    # the front door
    # ------------------------------------------------------------------
    def invoke(self, spec: RequestSpec) -> None:
        """A request arrives at this host's front door."""
        if self.faults is not None and not self.faults.admit(spec, self.outstanding):
            return  # load shed: rejected before any work happens
        self.outstanding += 1
        self._on_admit()
        self._ingress(spec)

    def retry_entry(self, spec: RequestSpec) -> None:
        """A retry lands on this host (possibly routed from another)."""
        self.outstanding += 1
        self._ingress(spec)

    def _on_admit(self) -> None:
        """A request passed admission (platform metrics hook)."""

    def _ingress(self, spec: RequestSpec) -> None:
        """One attempt (fresh or retry) enters the pipeline."""
        if self.faults is not None:
            if self.faults.expired(spec):  # deadline passed while backing off
                self.outstanding -= 1
                self.faults.mark_timeout(spec)
                return
            self.faults.begin(spec)
        self._forward(spec)

    def _forward(self, spec: RequestSpec) -> None:
        """From ingress to spawn.  A bare host has no hops: the
        process is provisioned at once, unless provisioning fails."""
        if self.faults is not None and self.faults.coldstart_faulted(spec):
            self._fail_before_spawn(spec)
            return
        self._spawn(spec)

    def _spawn(self, spec: RequestSpec) -> None:
        """Start the function process and tell SFS about it."""
        task = spec.make_task(policy=self.policy)
        pair = (spec, task)
        self.pairs.append(pair)
        if self._trace_on:
            self._trace.emit(self.sim.now, tev.TASK_SPAWN, task.tid,
                             args=(spec.name, spec.req_id))
        self._live[task.tid] = pair
        self.machine.spawn(task)
        if self.faults is not None:
            self.faults.arm(spec, task, self.machine)
            self.faults.note_spawn(spec, task, self.host_index)
        if self.sfs is not None:
            self._notify(task, spec.arrival)

    def _notify(self, task: Task, arrival: int) -> None:
        notify_sfs(self.sfs, self.config.notify_latency, task, arrival)

    def _on_finish(self, task: Task) -> None:
        spec, _task = self._live.pop(task.tid)
        self._release(spec, task)
        delay = (self.faults.on_task_end(spec, task)
                 if self.faults is not None else None)
        self.outstanding -= 1  # this host's involvement in the attempt ends
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    def _release(self, spec: RequestSpec, task: Task) -> None:
        """Free what the finished process held (platform hook)."""

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------
    def _fail_before_spawn(self, spec: RequestSpec,
                           reason: str = "crash") -> None:
        """The attempt died before a process existed (provisioning
        failure or the host went down mid-pipeline)."""
        self.outstanding -= 1
        delay = self.faults.fail_attempt(spec, reason=reason,
                                         host=self.host_index)
        if delay is not None:
            self.sim.schedule(delay, self._route_retry, spec)

    def _route_retry(self, spec: RequestSpec) -> None:
        """Backoff elapsed: re-dispatch, through the cluster if any."""
        router = self.faults.retry_router
        if router is not None:
            router(spec)
        else:
            self.retry_entry(spec)


def run_records(workload: Workload, config, front_cls, *, scheduler: str,
                engine: str, trace=None, metrics=None, audit=None,
                invariants: Optional[bool] = None,
                max_events: Optional[int] = None) -> RunResult:
    """Replay ``workload`` through ``front_cls(sim, config)`` into a
    :class:`RunResult` labelled ``scheduler``/``engine``.

    The front is a :class:`Host` or a cluster offering the same
    ``invoke``, ``pairs``, ``faults``, ``sfs``, ``machines``,
    ``gauge_sources`` and ``run_meta``.  ``invariants`` forces the
    checker on or off (None defers to ``REPRO_INVARIANTS``);
    ``max_events`` is the simulator's runaway guard.
    """
    wall_start = time.perf_counter()
    label = f"scheduler={scheduler} engine={engine}"
    checker = resolve_checker(
        invariants, seed=workload.meta.get("seed"), label=label,
    )
    sim = Simulator(trace=trace, invariants=checker, metrics=metrics,
                    label=label, audit=audit)
    front = front_cls(sim, config)
    attach_gauge_sampler(sim, extra=front.gauge_sources())
    for spec in workload:
        sim.schedule_at(spec.arrival, front.invoke, spec)
    sim.run(max_events=max_events)

    pairs = front.pairs
    unfinished = [s.req_id for s, t in pairs if not t.finished]
    if unfinished:
        raise RuntimeError(
            f"{len(unfinished)} requests never finished under {label} "
            f"(first: {unfinished[:5]})"
        )
    machines = front.machines
    n_cores = sum(m.n_cores for m in machines)
    manifest = RunManifest.build(
        scheduler=scheduler,
        engine=engine,
        run_config=config,
        workload=workload,
        sim=sim,
        n_cores=n_cores,
        wall_time_s=time.perf_counter() - wall_start,
        trace=trace,
    )
    meta = front.run_meta(workload)
    faults = front.faults
    fault_stats = faults.stats.as_dict() if faults is not None else None
    if fault_stats is not None:
        meta["fault_stats"] = fault_stats
    records = build_records(pairs, faults=faults)
    if checker.enabled:
        checker.check_accounting(workload, records, fault_stats)
        meta["invariant_checks"] = checker.summary()
    sfs = front.sfs
    return RunResult(
        scheduler=scheduler,
        engine=engine,
        records=records,
        sim_time=sim.now,
        busy_time=sum(m.busy_time for m in machines),
        n_cores=n_cores,
        sfs_stats=sfs.stats if sfs else None,
        slice_timeline=list(sfs.monitor.timeline) if sfs else None,
        queue_delay_samples=sfs.delay_samples() if sfs else None,
        overhead=sfs.overhead if sfs else None,
        meta=meta,
        manifest=manifest,
    )
