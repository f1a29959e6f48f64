"""OpenLambda end-to-end pipeline (Fig 5) and its run driver.

The invocation path: client → HTTP gateway → OpenLambda worker →
sandbox server → (warm container) → OS dispatch.  When SFS is ported,
the sandbox server additionally sends SFS a UDP message with the
function process' PID and invocation timestamp (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import SFSConfig
from repro.experiments.pipeline import (
    ENGINES, FaultHandling, Host, at_host_speed, run_records,
)
from repro.faas.coldstart import ColdStartConfig, KeepAliveCache
from repro.faas.overheads import OverheadModel
from repro.faas.sandbox import ContainerPool
from repro.faults.plan import FaultPlan
from repro.faults.policy import AdmissionControl, RetryPolicy
from repro.faults.runtime import FaultRuntime
from repro.machine.base import MachineParams
from repro.metrics.collector import RunResult
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng
from repro.sim.task import Task
from repro.trace import events as tev
from repro.workload.spec import RequestSpec, Workload


@dataclass(frozen=True)
class OpenLambdaConfig(FaultHandling):
    """Platform deployment parameters (§IX uses 72 cores)."""

    machine: MachineParams = field(default_factory=lambda: MachineParams(n_cores=72))
    engine: str = "fluid"
    scheduler: str = "cfs"  # "cfs" or "sfs"
    sfs: SFSConfig = field(default_factory=SFSConfig)
    overheads: OverheadModel = field(default_factory=OverheadModel)
    container_capacity: int = 10_000
    #: None = the paper's pre-warmed setup (zero cold starts, SVI);
    #: a ColdStartConfig enables keep-alive caching with cold-start
    #: penalties (SX's discussion, the ext-coldstart experiment).
    coldstart: Optional[ColdStartConfig] = None
    seed: int = 0
    # --- fault injection & failure handling (repro.faults) ------------
    #: what goes wrong (None = nothing injected)
    faults: Optional[FaultPlan] = None
    #: how failed attempts are retried (None = fail fast)
    retry: Optional[RetryPolicy] = None
    #: front-door load shedding (None = admit everything)
    admission: Optional[AdmissionControl] = None
    #: per-request deadline in us from arrival (None = no deadline)
    timeout: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheduler not in ("cfs", "sfs"):
            raise ValueError("OpenLambda runs use 'cfs' or 'sfs'")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (us)")

    def with_scheduler(self, scheduler: str) -> "OpenLambdaConfig":
        return replace(self, scheduler=scheduler)


class OpenLambdaPlatform(Host):
    """Simulated OpenLambda deployment on one big host.

    The front door (admission, deadlines, attempts, retries) is the
    shared :class:`~repro.experiments.pipeline.Host`; the platform adds
    the gateway, worker and sandbox-server hops between ingress and
    spawn, the warm-container pool and the keep-alive cache.  At each
    hop a governed run drops work whose request is already settled
    (hedge sibling answered) or whose host went down.
    """

    def __init__(self, sim: Simulator, config: OpenLambdaConfig,
                 faults: Optional[FaultRuntime] = None):
        super().__init__(sim, config, faults)
        self.pool = ContainerPool(config.container_capacity)
        self.rng = make_rng(config.seed)
        self.coldstart: Optional[KeepAliveCache] = (
            KeepAliveCache(sim, config.coldstart, self.rng)
            if config.coldstart is not None
            else None
        )
        #: host failure injected: drop everything until recovery
        self.down = False
        # metric registry: cached at construction like every
        # instrumented layer (repro.obs contract)
        self._metrics = sim.metrics
        self._metrics_on = self._metrics.enabled
        if self._metrics_on:
            self._m_invocations = self._metrics.counter(
                "repro_invocations_total", help="requests entering the gateway")
            self._m_cold_starts = self._metrics.counter(
                "repro_cold_starts_total",
                help="invocations that missed the keep-alive cache")
            self._m_coldstart_us = self._metrics.histogram(
                "repro_coldstart_us",
                help="container provisioning delay on a cache miss")

    def gauge_sources(self):
        return super().gauge_sources() + [self]

    def run_meta(self, workload: Workload):
        meta = super().run_meta(workload)
        if self.coldstart is not None:
            meta["coldstart_stats"] = self.coldstart.stats
        return meta

    # ------------------------------------------------------------------
    # invocation pipeline
    # ------------------------------------------------------------------
    def _on_admit(self) -> None:
        if self._metrics_on:
            self._m_invocations.inc()

    def _forward(self, spec: RequestSpec) -> None:
        """Gateway and OL worker hops (steps 1-2)."""
        ov = self.config.overheads
        delay = ov.gateway.sample(self.rng) + ov.ol_worker.sample(self.rng)
        self.sim.schedule(delay, self._at_sandbox_server, spec)

    def _at_sandbox_server(self, spec: RequestSpec) -> None:
        """OL worker forwarded the request; acquire a warm container."""
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.outstanding -= 1  # hedge sibling already answered
                return
            if self.down:
                self._fail_before_spawn(spec, reason="host")
                return
        self.pool.acquire(spec.app or spec.name, lambda: self._dispatch(spec))

    def _dispatch(self, spec: RequestSpec) -> None:
        """Sandbox server starts the function process in the container."""
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.pool.release(spec.app or spec.name)
                self.outstanding -= 1
                return
            if self.down:
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec, reason="host")
                return
            if self.faults.coldstart_faulted(spec):
                # container provisioning failed: the slot is freed, the
                # attempt dies before a process ever exists
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec)
                return
        ov = self.config.overheads
        delay = ov.sandbox_server.sample(self.rng)
        if self.coldstart is not None:
            # warm hit: 0; otherwise the container must be provisioned
            cold = self.coldstart.acquire(spec.name or spec.app)
            delay += cold
            if self._metrics_on and cold > 0:
                self._m_cold_starts.inc()
                self._m_coldstart_us.observe(cold)
        self.sim.schedule(delay, self._spawn, spec)

    def _spawn(self, spec: RequestSpec) -> None:
        if self.faults is not None:
            if self.faults.settled(spec.req_id):
                self.pool.release(spec.app or spec.name)
                if self.coldstart is not None:
                    self.coldstart.release(spec.name or spec.app)
                self.outstanding -= 1
                return
            if self.down:
                self.pool.release(spec.app or spec.name)
                self._fail_before_spawn(spec, reason="host")
                return
        super()._spawn(spec)

    def _notify(self, task: Task, arrival: int) -> None:
        # UDP message (pid, invocation timestamp) to the SFS queue
        notify = self.config.overheads.udp_notify.sample(self.rng)
        self.sim.schedule(notify, self.sfs.submit, task, arrival)

    def _release(self, spec: RequestSpec, task: Task) -> None:
        self.pool.release(spec.app or spec.name)
        if self.coldstart is not None and not task.killed:
            # a killed sandbox is destroyed, not returned to the cache
            self.coldstart.release(spec.name or spec.app)

    # ------------------------------------------------------------------
    # host failures (injected by the cluster)
    # ------------------------------------------------------------------
    def fail_host(self) -> None:
        """Host failure: kill all in-flight work, reject the pipeline."""
        self.down = True
        for _spec, task in list(self._live.values()):
            self.machine.kill(task, "host")

    def recover_host(self) -> None:
        self.down = False

    # ------------------------------------------------------------------
    # structured tracing / metrics
    # ------------------------------------------------------------------
    def sample_gauges(self, trace, now: int) -> None:
        """Emit platform-level gauges (called by the periodic sampler).

        ``core`` carries the cluster host index (as in ``fault.host_*``
        events); -1 on a standalone deployment.
        """
        trace.emit(now, tev.GAUGE_OUTSTANDING, core=self.host_index,
                   args=(self.outstanding,))
        if self.coldstart is not None:
            trace.emit(now, tev.GAUGE_KEEPALIVE, core=self.host_index,
                       args=(self.coldstart.warm_total(),))


def run_openlambda(workload: Workload, config: OpenLambdaConfig,
                   trace=None, metrics=None) -> RunResult:
    """Replay a workload through the full OpenLambda pipeline.

    Invariant checking follows ``REPRO_INVARIANTS`` (see
    :mod:`repro.invariants`): the checker audits the machine, runqueues
    and keep-alive cache during the run and the record/arrival closure
    afterwards.  ``trace`` / ``metrics`` install a recorder / registry
    on the simulator (defaults stay the zero-overhead nulls).  A
    straggler entry for host 0 in ``config.faults`` slows the host.
    """
    return run_records(
        workload, at_host_speed(config), OpenLambdaPlatform,
        scheduler=f"openlambda+{config.scheduler}", engine=config.engine,
        trace=trace, metrics=metrics,
    )
