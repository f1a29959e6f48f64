"""Elided periodic timers vs the always-firing reference.

Three periodic observers run as :class:`repro.sim.engine.Ticker`\\ s
while their next firing is known to change nothing: SFS's 4 ms status
poll of a FILTER function (Fig 4, flow 4.3) until the machine reports
that the function blocked, the watch-list poll until a watched function
wakes, and the discrete engine's CFS slice tick while the running task
is alone on its core.  A report turns the next tick into a real event
in that tick's place; the skipped polls are charged to the overhead
meter in closed form and the skipped slice ticks' CPU charges are
settled tick by tick before anything reads them.

The reference below fires every one of those timers for real, as the
simulator did before the elision: ``PolledSFS`` arms real worker and
watch poll chains, and ``TickedDiscreteMachine`` rearms every CFS slice
tick.  Both must produce the same records, ``SFSStats``, overhead-meter
buckets and ``poll_count``, trace events and audit records on every
case — fuzz-generated ones (single machine on both engines and both
fair classes, and cluster) and hand-made ones aimed at the places where
a tick and a state change can coincide.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import replace

import pytest

from repro.core.config import SFSConfig
from repro.core.sfs import SFS
from repro.experiments.runner import RunConfig, run_workload
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.fuzz.generators import make_case
from repro.fuzz.oracles import run_cluster_case
from repro.machine.base import MachineParams
from repro.machine.discrete import DiscreteMachine
from repro.sim.engine import Simulator
from repro.sim.task import Burst, BurstKind, SchedPolicy, Task
from repro.sim.units import MS
from repro.trace import TraceRecorder, attach_gauge_sampler
from repro.why.audit import AuditLog
from repro.workload.spec import RequestSpec, Workload

from test_golden_digests import rebase_tids, result_doc, sfs_doc


class PolledSFS(SFS):
    """Reference SFS: every 4.3 poll and every watch-list poll is a real
    event, rearmed by the poll before it."""

    def _tick_worker_polls(self, worker) -> None:
        worker.poll_handle = self.sim.schedule(
            self.config.poll_interval, self._on_worker_poll,
            worker, worker.entry.task)

    def _tick_watch_polls(self) -> None:
        self._watch_handle = self.sim.schedule(
            self.config.poll_interval, self._on_watch_poll)


class TickedDiscreteMachine(DiscreteMachine):
    """Reference engine: every CFS slice tick is a real event."""

    def _steady_slice(self, task, ts) -> bool:
        return False


@contextlib.contextmanager
def use_reference():
    """Build the reference SFS and discrete engine in every driver."""
    import repro.experiments.runner as runner
    import repro.faas.openlambda as openlambda

    saved = (runner.SFS, openlambda.SFS, runner.ENGINES["discrete"],
             openlambda.DiscreteMachine)
    runner.SFS = openlambda.SFS = PolledSFS
    runner.ENGINES["discrete"] = TickedDiscreteMachine
    openlambda.DiscreteMachine = TickedDiscreteMachine
    try:
        yield
    finally:
        (runner.SFS, openlambda.SFS, runner.ENGINES["discrete"],
         openlambda.DiscreteMachine) = saved


@contextlib.contextmanager
def instrumented():
    """Give every Simulator built inside a trace recorder and an audit
    log, unless the driver installs its own; yield them as built."""
    init = Simulator.__dict__["__init__"]
    built = []

    def traced_init(sim, **kwargs):
        if kwargs.get("trace") is None:
            kwargs["trace"] = TraceRecorder()
        if kwargs.get("audit") is None:
            kwargs["audit"] = AuditLog()
        init(sim, **kwargs)
        built.append(sim)

    Simulator.__init__ = traced_init
    try:
        yield built
    finally:
        Simulator.__init__ = init


def outcome(run):
    """Canonical output of ``run()`` (a RunResult): records, the state
    of every SFS built, and each simulator's trace and audit streams."""
    from test_golden_digests import collect_sfs

    with instrumented() as sims, collect_sfs() as built:
        res = run()
    return {"run": result_doc(res), "sfs": sfs_doc(built),
            "streams": [rebase_tids(s.trace.events, s.audit.records)
                        for s in sims]}


def assert_same(run):
    elided = outcome(run)
    with use_reference():
        reference = outcome(run)
    assert elided["streams"], "the case built no simulator"
    assert elided == reference
    return elided


# ----------------------------------------------------------------------
# fuzz-generated cases: forced onto SFS, on both fair classes
# ----------------------------------------------------------------------
def _fuzz_runners(seed: int, index: int):
    """The case under SFS; a discrete case also under SFS on the other
    fair class and under plain CFS (slice ticks without FILTER)."""
    case = make_case(seed, index)
    if case.cluster is not None:
        case = case.with_cluster(replace(case.cluster, scheduler="sfs"))
        return [lambda: run_cluster_case(case, invariants=False)]
    cfg = case.config.with_scheduler("sfs")
    configs = [cfg]
    if cfg.engine == "discrete":
        other = "cfs" if cfg.machine.fair_class == "eevdf" else "eevdf"
        configs.append(replace(cfg, machine=replace(cfg.machine,
                                                    fair_class=other)))
        configs.append(case.config.with_scheduler("cfs"))
    return [lambda c=c: run_workload(case.workload, c) for c in configs]


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_cases_match_polled_reference(seed):
    polls = 0
    for index in range(40):
        for run in _fuzz_runners(seed, index):
            doc = assert_same(run)
            polls += sum(s["poll_count"] for s in doc["sfs"])
    assert polls > 0


def test_fuzz_cluster_cases_match_polled_reference():
    clusters = 0
    for index in range(400):
        if make_case(11, index).cluster is None:
            continue
        for run in _fuzz_runners(11, index):
            assert_same(run)
        clusters += 1
        if clusters == 12:
            break
    assert clusters == 12


# ----------------------------------------------------------------------
# hand-made cases through run_workload
# ----------------------------------------------------------------------
P = 4 * MS
#: a lone CFS task's slice under the default CfsParams (sched_latency)
TS = 24 * MS


def _cpu(*durations):
    return tuple(Burst(BurstKind.CPU, d) for d in durations)


def _io(*durations):
    """Alternating CPU and I/O bursts, starting with CPU."""
    return tuple(Burst(BurstKind.CPU if i % 2 == 0 else BurstKind.IO, d)
                 for i, d in enumerate(durations))


def _workload(shapes, gap=0, arrivals=None):
    """Requests ``i`` arriving at ``i * gap`` (or ``arrivals[i]``) with
    the given bursts."""
    return Workload([
        RequestSpec(req_id=i, name=f"r{i}", app="hand", bursts=bursts,
                    arrival=arrivals[i] if arrivals else i * gap)
        for i, bursts in enumerate(shapes)
    ])


#: finishes on the poll grid: whole multiples of the poll interval, a
#: final burst that starts between two ticks, one that starts on a tick
#: and lasts exactly one interval, and I/O sandwiches that block and
#: wake on the grid
ON_GRID = [
    _cpu(P), _cpu(2 * P), _cpu(3 * P), _cpu(P + P // 2, P // 2),
    _cpu(P, P), _cpu(2 * P, P), _cpu(P // 2), _cpu(5 * P),
    _io(P, P, P), (Burst(BurstKind.IO, 2 * P), Burst(BurstKind.CPU, 2 * P)),
] * 3


def _run(shapes, engine="fluid", cores=2, gap=0, sfs=None, notify=0,
         scheduler="sfs", arrivals=None, **machine):
    cfg = RunConfig(
        scheduler=scheduler, engine=engine, notify_latency=notify,
        machine=MachineParams(n_cores=cores, **machine),
        sfs=sfs or SFSConfig(),
    )
    wl = _workload(shapes, gap, arrivals)
    return lambda: run_workload(wl, cfg)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
@pytest.mark.parametrize("notify", [0, 200])
def test_finishes_on_poll_ticks(engine, notify):
    assert_same(_run(ON_GRID, engine=engine, notify=notify))


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_slice_expiry_on_poll_ticks(engine):
    fixed = SFSConfig(adaptive=False, initial_slice=2 * P, min_slice=P)
    doc = assert_same(_run(ON_GRID, engine=engine, sfs=fixed))
    assert doc["sfs"][0]["stats"]["demoted_slice"] > 0


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_oversubscribed_fifo_waits_in_rt_queue(engine):
    # twice as many FILTER workers as cores: promoted functions queue
    # for a core, and start (then finish) on another worker's poll tick
    assert_same(_run(ON_GRID, engine=engine, cores=2,
                     sfs=SFSConfig(n_workers=4)))


def test_rt_throttling():
    doc = assert_same(_run(ON_GRID, engine="discrete", cores=2,
                           rt_bandwidth=(3 * P, 4 * P)))
    assert doc["sfs"][0]["poll_count"] > 0


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_per_worker_queues(engine):
    assert_same(_run(ON_GRID, engine=engine, gap=P // 4,
                     sfs=SFSConfig(per_worker_queues=True)))


def test_overload_bypass():
    herd = [_cpu(P * (1 + i % 7)) for i in range(60)]
    doc = assert_same(_run(herd, cores=2, gap=P // 8, sfs=SFSConfig(
        adaptive=False, initial_slice=P, min_slice=P, overload_factor=1.0)))
    assert doc["sfs"][0]["stats"]["bypassed_overload"] > 0


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_crash_and_timeout_kills(engine):
    cfg = RunConfig(
        scheduler="sfs", engine=engine, notify_latency=0,
        machine=MachineParams(n_cores=2),
        faults=FaultPlan(seed=3, crash_prob=0.3),
        retry=RetryPolicy(max_attempts=3, base_backoff=P, max_backoff=4 * P,
                          seed=5),
        timeout=6 * P,
    )
    wl = _workload(ON_GRID, gap=P // 2)
    doc = assert_same(lambda: run_workload(wl, cfg))
    statuses = {r["status"] for r in doc["run"]["records"]}
    assert statuses - {"ok"}, "no request was killed"


def test_host_outage_kills_in_cluster():
    from repro.faas.cluster import ClusterConfig, run_cluster
    from repro.faas.openlambda import OpenLambdaConfig
    from repro.faas.resilience import ResilienceConfig

    host = OpenLambdaConfig(
        machine=MachineParams(n_cores=2), scheduler="sfs", engine="fluid",
        faults=FaultPlan(seed=1, fault_domains=((0,), (1,)),
                         domain_failures=((1, 3 * P, 12 * P),)),
        retry=RetryPolicy(max_attempts=3, seed=2),
    )
    cfg = ClusterConfig(n_hosts=2, host=host, placement="least_loaded",
                        resilience=ResilienceConfig(health_interval=P))
    wl = _workload(ON_GRID, gap=P // 4)
    doc = assert_same(lambda: run_cluster(wl, cfg))
    assert doc["run"]["fault_stats"]["host_kills"] > 0


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_block_and_wake_between_two_ticks(engine):
    # promoted at 0; blocks at P/4 and wakes at P/2, before the first
    # poll tick: that tick becomes real, reads RUNNING and ticks on;
    # the second function blocks on a tick and wakes one tick later
    shapes = [_io(P // 4, P // 4, 2 * P), _io(P, P, P)]
    doc = assert_same(_run(shapes, engine=engine))
    stats = doc["sfs"][0]["stats"]
    assert stats["demoted_io"] == stats["resubmitted"] == 1


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_wake_on_a_watch_tick(engine):
    # leading I/O: watched at pop from 0 (ticks at P, 2P, ...); the
    # wake-ups land on, just before and just after a tick
    shapes = [(Burst(BurstKind.IO, io), Burst(BurstKind.CPU, P))
              for io in (2 * P, 2 * P - 1, 2 * P + 1, 3 * P)]
    doc = assert_same(_run(shapes, engine=engine))
    assert doc["sfs"][0]["stats"]["resubmitted"] == len(shapes)


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_last_watched_task_finishing_leaves_a_trailing_tick(engine):
    # blocks at P/4, demoted by the poll at P, watched from P (ticks at
    # 2P, 3P, ...); its final I/O ends at 9P/4 and it finishes while
    # watched.  The chain still runs its (empty) tick at 3P, so the
    # gauge sampler at 10 ms sees live work and samples once more at
    # 20 ms, the run's last event
    doc = assert_same(_run([_io(P // 4, 2 * P)], engine=engine, cores=1))
    assert doc["sfs"][0]["stats"]["finished_while_watched"] == 1
    assert doc["run"]["sim_time"] == 20 * MS


@pytest.mark.parametrize("engine", ["fluid", "discrete"])
def test_kill_of_a_blocked_watched_task(engine):
    cfg = RunConfig(scheduler="sfs", engine=engine, notify_latency=0,
                    machine=MachineParams(n_cores=1), timeout=5 * P)
    shapes = [(Burst(BurstKind.IO, 20 * P), Burst(BurstKind.CPU, P)),
              _io(P // 2, 10 * P, P), _cpu(3 * P)]
    wl = _workload(shapes, gap=P // 3)
    doc = assert_same(lambda: run_workload(wl, cfg))
    assert doc["sfs"][0]["stats"]["finished_while_watched"] == 2
    assert {r["status"] for r in doc["run"]["records"]} == {"ok", "timeout"}


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_enqueue_on_a_slice_tick(fair_class):
    # one core: a long CFS task alone, then arrivals exactly on, just
    # before and just after its elided slice ticks (every TS under CFS)
    arrivals = [0, 2 * TS, 3 * TS - 1, 4 * TS + 1, 6 * TS]
    shapes = [_cpu(20 * TS)] + [_cpu(TS // 2)] * 4
    assert_same(_run(shapes, engine="discrete", cores=1, scheduler="cfs",
                     arrivals=arrivals, fair_class=fair_class))


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_sfs_promotion_lands_on_a_slice_tick(fair_class):
    # one worker, two cores: the second function runs alone under CFS
    # while the first holds the worker; the worker frees up at 6 TS (on
    # a slice tick of the second) and promotes it, reading its CPU time
    # as charged by the ticks so far; the slice left when it blocks at
    # 8 TS of service depends on that read
    fixed = SFSConfig(n_workers=1, adaptive=False, initial_slice=6 * TS,
                      min_slice=P)
    shapes = [_cpu(10 * TS), _io(8 * TS, P, TS)]
    doc = assert_same(_run(shapes, engine="discrete", sfs=fixed,
                           fair_class=fair_class))
    stats = doc["sfs"][0]["stats"]
    assert stats["demoted_io"] == 1 and stats["demoted_io_exhausted"] == 0


def test_straggler_speed():
    doc = assert_same(_run(ON_GRID + [_cpu(10 * TS)], engine="discrete",
                           cores=2, speed=0.37))
    assert doc["sfs"][0]["poll_count"] > 0


# ----------------------------------------------------------------------
# hand-made cases driving the machine directly
# ----------------------------------------------------------------------
def _drive(specs, machine_cls, sfs_cls=None, sfs_cfg=None, **params):
    """Spawn ``(arrival, task keyword arguments)`` tasks, handing each
    to SFS when ``sfs_cls`` is given; return every task's final state,
    the SFS state and the trace and audit streams."""
    sim = Simulator(trace=TraceRecorder(), audit=AuditLog())
    machine = machine_cls(sim, MachineParams(**params))
    sfs = sfs_cls(machine, sfs_cfg) if sfs_cls is not None else None
    attach_gauge_sampler(sim, machine, sfs)
    tasks = [Task(**kwargs) for _arrival, kwargs in specs]

    def start(task):
        machine.spawn(task)
        if sfs is not None:
            sfs.submit(task)

    for (arrival, _kwargs), task in zip(specs, tasks):
        sim.schedule_at(arrival, start, task)
    sim.run()
    base = tasks[0].tid
    return {"tasks": [{**dataclasses.asdict(t), "tid": t.tid - base}
                      for t in tasks],
            "sim_time": sim.now, "busy_time": machine.busy_time,
            "sfs": sfs_doc([sfs] if sfs is not None else []),
            "stream": rebase_tids(sim.trace.events, sim.audit.records)}


def assert_same_drive(specs, sfs_cfg=None, **params):
    sfs = (SFS, PolledSFS) if sfs_cfg is not None else (None, None)
    elided = _drive(specs, DiscreteMachine, sfs[0], sfs_cfg, **params)
    reference = _drive(specs, TickedDiscreteMachine, sfs[1], sfs_cfg,
                       **params)
    assert elided == reference
    assert all(t["finish_time"] is not None for t in elided["tasks"])
    return elided


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_non_default_weights(fair_class):
    # a weighted vruntime step rounds per charge (weight 11 loses a
    # fraction at every 3 ms tick), so the elided ticks' charges must be
    # settled one tick at a time when work arrives at 40 ms and 70 ms;
    # under EEVDF the heavy task's slices shrink tick by tick
    specs = [(0, dict(bursts=_cpu(100 * MS), weight=11)),
             (0, dict(bursts=_cpu(90 * MS + 7), weight=88761)),
             (40 * MS, dict(bursts=_cpu(10 * MS), weight=88761)),
             (70 * MS + 3, dict(bursts=_cpu(5 * MS), weight=15))]
    doc = assert_same_drive(specs, n_cores=2, fair_class=fair_class,
                            ctx_switch_cost=50)
    assert doc["tasks"][0]["ctx_involuntary"] > 0


@pytest.mark.parametrize("fair_class", ["cfs", "eevdf"])
def test_weighted_tasks_under_sfs(fair_class):
    specs = [(0, dict(bursts=_cpu(9 * TS), weight=1)),
             (0, dict(bursts=_cpu(7 * TS + 13), weight=3)),
             (TS // 3, dict(bursts=_io(2 * TS, P, 3 * TS))),
             (5 * TS, dict(bursts=_cpu(2 * TS), weight=88761)),
             (9 * TS + 7, dict(bursts=_cpu(TS), weight=15))]
    cfg = SFSConfig(n_workers=1, adaptive=False, initial_slice=TS // 2,
                    min_slice=P)
    assert_same_drive(specs, cfg, n_cores=2, fair_class=fair_class,
                      ctx_switch_cost=50)


def test_rt_work_waiting_behind_a_throttled_core():
    # 30 ms of RT per 100 ms: X throttles on core 0 at 30 ms and C2 runs
    # there; C1's tick on core 1 (49 ms) hands X core 1, and C2's ticks
    # run elided from 54 ms.  Y arrives at 60 ms with no core it may
    # take (core 0 throttled, core 1 busy with X), so C2's next tick
    # (78 ms, before X throttles again at 79 ms) must see it waiting
    fifo = dict(policy=SchedPolicy.FIFO, rt_priority=1)
    specs = [(0, dict(bursts=_cpu(200 * MS), **fifo)),
             (1 * MS, dict(bursts=_cpu(400 * MS))),
             (5 * MS, dict(bursts=_cpu(400 * MS))),
             (60 * MS, dict(bursts=_cpu(50 * MS), **fifo))]
    doc = assert_same_drive(specs, n_cores=2,
                            rt_bandwidth=(30 * MS, 100 * MS))
    assert doc["tasks"][2]["ctx_involuntary"] >= 2


def test_two_polls_on_one_tick_keep_their_order():
    # A is promoted at 0 (poll ticks P, 2P, ...), B at P (ticks 2P,
    # 3P, ...) by an arrival that runs before A's tick at P.  The first
    # event after 2P passes A's ticks at P and 2P and B's at 2P, and
    # must rearm B's first, as the polled chains would.  Both block
    # before 3P, so both 3P polls are real: B's demotion runs first and
    # hands its worker to D, which has waited since 11P/4
    shapes = [_io(9 * P // 4, 10 * P, P), _io(6 * P // 4, 10 * P, P),
              _cpu(P)]
    doc = assert_same(_run(shapes, engine="discrete",
                           arrivals=[0, P, 11 * P // 4]))
    assert doc["sfs"][0]["stats"]["demoted_io"] == 2
