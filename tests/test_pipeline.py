"""The run pipeline shared by the record drivers.

``run_workload``, ``run_openlambda`` and ``run_cluster`` build their
hosts, front doors and results through one pipeline, so every driver
returns the same provenance and honours the same host-level faults.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import small_workload
from repro.experiments.runner import RunConfig, run_workload
from repro.faas.cluster import ClusterConfig, run_cluster
from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
from repro.faults import FaultPlan
from repro.machine.base import MachineParams
from repro.trace import RunManifest


def _run_workload(wl):
    cfg = RunConfig(scheduler="sfs", engine="discrete",
                    machine=MachineParams(n_cores=4))
    return run_workload(wl, cfg), "sfs", "discrete", 4


def _run_openlambda(wl):
    cfg = OpenLambdaConfig(machine=MachineParams(n_cores=4),
                           scheduler="sfs", engine="fluid")
    return run_openlambda(wl, cfg), "openlambda+sfs", "fluid", 4


def _run_cluster(wl):
    host = OpenLambdaConfig(machine=MachineParams(n_cores=2),
                            scheduler="cfs", engine="discrete")
    cfg = ClusterConfig(n_hosts=3, host=host, placement="round_robin")
    return run_cluster(wl, cfg), "cluster[round_robin]+cfs", "discrete", 6


@pytest.mark.parametrize("driver", [_run_workload, _run_openlambda,
                                    _run_cluster])
def test_every_driver_returns_a_manifest(driver):
    wl = small_workload(n_requests=60, n_cores=4, load=0.8)
    res, scheduler, engine, n_cores = driver(wl)
    manifest = res.manifest
    assert isinstance(manifest, RunManifest)
    assert manifest.scheduler == res.scheduler == scheduler
    assert manifest.engine == res.engine == engine
    assert manifest.n_cores == res.n_cores == n_cores
    assert manifest.n_requests == len(wl) == len(res.records)
    assert manifest.sim_time_us == res.sim_time
    assert manifest.events_executed > 0
    assert "events_executed" not in res.meta


def _slowed(cfg):
    return replace(cfg, faults=FaultPlan(stragglers=((0, 0.5),)))


@pytest.mark.parametrize("make_cfg,run", [
    (lambda: RunConfig(scheduler="sfs", machine=MachineParams(n_cores=4)),
     run_workload),
    (lambda: OpenLambdaConfig(machine=MachineParams(n_cores=4),
                              scheduler="sfs"),
     run_openlambda),
], ids=["run_workload", "run_openlambda"])
def test_single_host_drivers_honour_a_host0_straggler(make_cfg, run):
    # a half-speed host serves every CPU burst in twice the wall time:
    # the machine is busy twice as long for the same demand
    wl = small_workload(n_requests=60, n_cores=4, load=0.8)
    nominal = run(wl, make_cfg())
    slowed = run(wl, _slowed(make_cfg()))
    assert [r.status for r in slowed.records] == ["ok"] * len(wl)
    assert slowed.busy_time == pytest.approx(2 * nominal.busy_time, rel=0.05)
    total = sum(r.turnaround for r in nominal.records)
    assert sum(r.turnaround for r in slowed.records) > 1.5 * total
