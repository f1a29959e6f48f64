"""Elided FILTER polls vs the always-polled reference.

SFS arms its 4 ms status poll (Fig 4, flow 4.3) only for FILTER
functions with an I/O burst still ahead; for the others every poll
would read READY/RUNNING and rearm, so a ticker stands in for the chain
and the polls are charged to the overhead meter when the worker is
released.  ``PolledSFS`` below is the reference: it arms the poll chain
for every FILTER function, exactly as SFS did before the elision.  Both
must produce the same records, ``SFSStats``, overhead-meter buckets and
``poll_count`` on every case — fuzz-generated ones (single machine and
cluster) and hand-made ones aimed at the places where a poll tick and
the worker's release can coincide.
"""

from __future__ import annotations

import contextlib
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
from repro.sim.task import Burst, BurstKind
from repro.sim.units import MS
from repro.workload.spec import RequestSpec, Workload

from test_golden_digests import collect_sfs, result_doc, sfs_doc

#: modules that build SFS instances by name
_SFS_USERS = ("repro.experiments.runner", "repro.faas.openlambda")


class PolledSFS(SFS):
    """Reference SFS: arms the poll chain for every FILTER function."""

    def _promote(self, worker, entry) -> None:
        super()._promote(worker, entry)
        if worker.poll_ticker is not None:
            # the ticker allocates no event sequence number, so this
            # poll gets the one SFS gave it before the elision
            worker.poll_ticker.cancel()
            worker.poll_ticker = None
            worker.poll_handle = self.sim.schedule(
                self.config.poll_interval, self._on_worker_poll,
                worker, entry.task)


@contextlib.contextmanager
def use_sfs(cls):
    import importlib

    modules = [importlib.import_module(m) for m in _SFS_USERS]
    saved = [m.SFS for m in modules]
    for m in modules:
        m.SFS = cls
    try:
        yield
    finally:
        for m, original in zip(modules, saved):
            m.SFS = original


def outcome(run):
    """Canonical output of ``run()`` (a RunResult) and its SFS state."""
    with collect_sfs() as built:
        res = run()
    return {"run": result_doc(res), "sfs": sfs_doc(built)}


def assert_same(run):
    elided = outcome(run)
    with use_sfs(PolledSFS):
        polled = outcome(run)
    assert elided["sfs"], "the case built no SFS instance"
    assert elided == polled
    return elided


# ----------------------------------------------------------------------
# fuzz-generated cases, forced onto SFS
# ----------------------------------------------------------------------
def _fuzz_runner(seed: int, index: int):
    case = make_case(seed, index)
    if case.cluster is not None:
        case = case.with_cluster(replace(case.cluster, scheduler="sfs"))
        return lambda: run_cluster_case(case, invariants=False)
    cfg = case.config.with_scheduler("sfs")
    return lambda: run_workload(case.workload, cfg)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_cases_match_polled_reference(seed):
    polls = 0
    for index in range(40):
        doc = assert_same(_fuzz_runner(seed, index))
        polls += sum(s["poll_count"] for s in doc["sfs"])
    assert polls > 0


def test_fuzz_cluster_cases_match_polled_reference():
    clusters = 0
    for index in range(400):
        if make_case(11, index).cluster is None:
            continue
        assert_same(_fuzz_runner(11, index))
        clusters += 1
        if clusters == 12:
            break
    assert clusters == 12


# ----------------------------------------------------------------------
# hand-made cases
# ----------------------------------------------------------------------
P = 4 * MS


def _cpu(*durations):
    return tuple(Burst(BurstKind.CPU, d) for d in durations)


def _workload(shapes, gap=0):
    """Requests ``i`` arriving at ``i * gap`` with the given bursts."""
    return Workload([
        RequestSpec(req_id=i, arrival=i * gap, bursts=bursts,
                    name=f"r{i}", app="hand")
        for i, bursts in enumerate(shapes)
    ])


#: finishes on the poll grid: whole multiples of the poll interval, a
#: final burst that starts between two ticks, one that starts on a tick
#: and lasts exactly one interval, and I/O sandwiches for the polled path
ON_GRID = [
    _cpu(P), _cpu(2 * P), _cpu(3 * P), _cpu(P + P // 2, P // 2),
    _cpu(P, P), _cpu(2 * P, P), _cpu(P // 2), _cpu(5 * P),
    (Burst(BurstKind.CPU, P), Burst(BurstKind.IO, P), Burst(BurstKind.CPU, P)),
    (Burst(BurstKind.IO, 2 * P), Burst(BurstKind.CPU, 2 * P)),
] * 3


def _run(shapes, engine="fluid", cores=2, gap=0, sfs=None, notify=0,
         **machine):
    cfg = RunConfig(
        scheduler="sfs", engine=engine, notify_latency=notify,
        machine=MachineParams(n_cores=cores, **machine),
        sfs=sfs or SFSConfig(),
    )
    wl = _workload(shapes, gap)
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
