"""Headless perf-trajectory harness behind ``repro bench``.

The ROADMAP's "measurably faster" north-star needs numbers to measure
against.  This module runs a fixed set of scenarios — the same shapes
the ``benchmarks/`` suite exercises interactively — without pytest,
times them with the host profiler's clock, and emits one schema'd
snapshot (``repro.bench/1``) per invocation::

    {
      "schema": "repro.bench/1",
      "host": {"python": "3.11.7", "platform": "linux"},
      "scenarios": {
        "micro_fluid": {"wall_s": 0.12, "events": 4093,
                         "events_per_sec": 33523.1, "peak_rss_kb": 81234},
        ...
      }
    }

Committed snapshots are named ``BENCH_PR<N>.json``; the newest one is
the baseline the next run compares against, and an events/sec drop
beyond :data:`REGRESSION_THRESHOLD` on any shared scenario fails the
run (``--report-only`` downgrades that to a report, which is what CI
uses on machines with unknown noise floors).

``peak_rss_kb`` is process-wide high-water mark (``ru_maxrss``), so
within one invocation it is monotone across scenarios — compare it
between snapshots per scenario, not between scenarios of one snapshot.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

BENCH_SCHEMA = "repro.bench/1"
REGRESSION_THRESHOLD = 0.20

#: scenario name -> (description, factory); the factory returns a
#: zero-argument callable that executes the scenario once and returns
#: the number of simulator events it drove.
_SCENARIOS: Dict[str, Tuple[str, Callable[[bool], Callable[[], int]]]] = {}


def _scenario(name: str, desc: str):
    def register(factory):
        _SCENARIOS[name] = (desc, factory)
        return factory
    return register


def scenario_names() -> List[str]:
    return list(_SCENARIOS)


# ----------------------------------------------------------------------
# scenarios (deterministic workloads, sized for seconds not minutes)
# ----------------------------------------------------------------------
def _micro_tasks(n: int, seed: int = 1):
    from repro.sim.units import MS

    rng = np.random.default_rng(seed)
    out, at = [], 0
    for _ in range(n):
        at += int(rng.exponential(8 * MS))
        out.append((at, int(rng.uniform(5 * MS, 60 * MS))))
    return out


def _drive_machine(machine_cls, n_tasks: int):
    from repro.machine.base import MachineParams
    from repro.sim.engine import Simulator
    from repro.sim.task import Burst, BurstKind, Task

    specs = _micro_tasks(n_tasks)

    def run() -> int:
        sim = Simulator()
        m = machine_cls(sim, MachineParams(n_cores=4))
        for at, dur in specs:
            sim.schedule_at(at, m.spawn, Task(bursts=[Burst(BurstKind.CPU, dur)]))
        sim.run()
        return sim.events_executed

    return run


@_scenario("micro_fluid", "bare fluid engine, 400 CPU tasks / 4 cores")
def _micro_fluid(quick: bool):
    from repro.machine.fluid import FluidMachine

    return _drive_machine(FluidMachine, 200 if quick else 400)


@_scenario("micro_discrete", "bare discrete engine, 400 CPU tasks / 4 cores")
def _micro_discrete(quick: bool):
    from repro.machine.discrete import DiscreteMachine

    return _drive_machine(DiscreteMachine, 200 if quick else 400)


def _run_workload_scenario(scheduler: str, engine: str, n_requests: int):
    from repro.experiments.runner import RunConfig, run_workload
    from repro.machine.base import MachineParams
    from repro.workload.faasbench import FaaSBench, FaaSBenchConfig

    wl = FaaSBench(
        FaaSBenchConfig(n_requests=n_requests, n_cores=8, target_load=0.9),
        seed=7,
    ).generate()
    cfg = RunConfig(scheduler=scheduler, engine=engine,
                    machine=MachineParams(n_cores=8), invariants=False)
    def run() -> int:
        return run_workload(wl, cfg).manifest.events_executed

    return run


@_scenario("fluid_cfs", "FaaSBench under plain CFS, fluid engine")
def _fluid_cfs(quick: bool):
    return _run_workload_scenario("cfs", "fluid", 800 if quick else 3000)


@_scenario("fluid_sfs", "FaaSBench under SFS, fluid engine")
def _fluid_sfs(quick: bool):
    return _run_workload_scenario("sfs", "fluid", 800 if quick else 3000)


@_scenario("discrete_sfs", "FaaSBench under SFS, discrete engine")
def _discrete_sfs(quick: bool):
    return _run_workload_scenario("sfs", "discrete", 300 if quick else 1000)


@_scenario("openlambda", "OpenLambda platform pipeline under SFS")
def _openlambda(quick: bool):
    from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
    from repro.workload.faasbench import (
        OPENLAMBDA_MIX, FaaSBench, FaaSBenchConfig,
    )

    wl = FaaSBench(
        FaaSBenchConfig(n_requests=400 if quick else 1500, n_cores=8,
                        target_load=0.9, app_mix=OPENLAMBDA_MIX),
        seed=7,
    ).generate()
    cfg = OpenLambdaConfig(scheduler="sfs")

    def run() -> int:
        return run_openlambda(wl, cfg).manifest.events_executed

    return run


def _pool_scenario(workers: int, quick: bool):
    from repro.experiments import chaos
    from repro.pool import PoolConfig, run_pool

    cfg = chaos.Config(n_requests=120 if quick else 500, n_hosts=2,
                       cores_per_host=4)
    items = chaos.shards(cfg, seed=7)
    pool_cfg = PoolConfig(workers=workers)

    def run() -> int:
        report = run_pool(items, chaos.run_shard, pool_cfg)
        return sum(json.loads(t)["events_executed"]
                   for t in report.results)

    return run


@_scenario("pool_serial", "chaos mini-grid through repro.pool, inline")
def _pool_serial(quick: bool):
    return _pool_scenario(0, quick)


# NB: the serial-vs-4-workers ratio is host-dependent: on a multi-core
# host it records the parallel speedup, on a single-core host (CI
# containers) it records pure supervision overhead.  The snapshot's
# host.cpus field says which one you are looking at.
@_scenario("pool_workers4", "chaos mini-grid through repro.pool, 4 workers")
def _pool_workers4(quick: bool):
    return _pool_scenario(4, quick)


def _replay_stream_config(quick: bool):
    from repro.workload.stream import StreamConfig

    return StreamConfig(n_requests=800 if quick else 2000, n_cores=8,
                        target_load=0.9)


@_scenario("replay_stream", "streaming replay driver under SFS (repro.stream)")
def _replay_stream(quick: bool):
    from repro.machine.base import MachineParams
    from repro.stream import ReplayConfig, StreamReplayDriver
    from repro.workload.stream import RequestStream

    scfg = _replay_stream_config(quick)
    rcfg = ReplayConfig(scheduler="sfs", machine=MachineParams(n_cores=8),
                        checkpoint_every=None)

    def run() -> int:
        doc = StreamReplayDriver(RequestStream(scfg, seed=7), rcfg).run()
        return doc["events_executed"]

    return run


# same workload as replay_stream, executed through the materialized
# path — the rss_kb gap between this pair is the streaming win
@_scenario("replay_materialized", "identical workload, materialized runner")
def _replay_materialized(quick: bool):
    from repro.experiments.runner import RunConfig, run_workload
    from repro.machine.base import MachineParams
    from repro.workload.stream import RequestStream

    wl = RequestStream(_replay_stream_config(quick), seed=7).materialize()
    cfg = RunConfig(scheduler="sfs", engine="fluid",
                    machine=MachineParams(n_cores=8), invariants=False)

    def run() -> int:
        return run_workload(wl, cfg).manifest.events_executed

    return run


@_scenario("cluster", "4-host cluster, least-loaded placement")
def _cluster(quick: bool):
    from repro.faas.cluster import ClusterConfig, run_cluster
    from repro.workload.faasbench import FaaSBench, FaaSBenchConfig

    wl = FaaSBench(
        FaaSBenchConfig(n_requests=600 if quick else 2000, n_cores=32,
                        target_load=0.9),
        seed=7,
    ).generate()
    cfg = ClusterConfig(n_hosts=4)

    def run() -> int:
        return run_cluster(wl, cfg).manifest.events_executed

    return run


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _current_rss_kb() -> int:
    """Current-RSS gauge (``/proc`` based; 0 where unsupported)."""
    import gc

    from repro.stream.watchdog import rss_kb

    gc.collect()  # drop the scenario's garbage before gauging
    return rss_kb()


def _peak_rss_kb() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX host
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes
    return rss // 1024 if sys.platform == "darwin" else rss


def run_scenarios(names: Optional[List[str]] = None, quick: bool = False,
                  rounds: int = 3,
                  progress: Optional[Callable[[str], None]] = None,
                  ) -> Dict[str, object]:
    """Execute the scenarios and return a ``repro.bench/1`` snapshot.

    ``wall_s`` is best-of-``rounds`` (min is the standard noise filter
    for throughput benches); ``events`` comes from the last round.
    """
    chosen = names or scenario_names()
    unknown = [n for n in chosen if n not in _SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; available: {scenario_names()}")
    scenarios: Dict[str, object] = {}
    for name in chosen:
        desc, factory = _SCENARIOS[name]
        fn = factory(quick)
        best, events = float("inf"), 0
        for _ in range(max(1, rounds)):
            t0 = time.perf_counter()
            events = fn()
            best = min(best, time.perf_counter() - t0)
        scenarios[name] = {
            "desc": desc,
            "wall_s": round(best, 4),
            "events": events,
            "events_per_sec": round(events / best, 1) if best > 0 else 0.0,
            "peak_rss_kb": _peak_rss_kb(),
            # current (not high-water) RSS after the scenario's objects
            # are dropped: unlike peak_rss_kb this CAN go down, so it is
            # the field that exposes retained-memory differences (e.g.
            # replay_stream vs replay_materialized)
            "rss_kb": _current_rss_kb(),
        }
        if progress is not None:
            s = scenarios[name]
            progress(f"  {name:<16} {s['wall_s']:>8.3f}s "
                     f"{s['events_per_sec']:>12,.0f} ev/s")
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "platform": sys.platform,
            "cpus": os.cpu_count() or 1,
        },
        "scenarios": scenarios,
    }


def validate_snapshot(doc: Dict[str, object]) -> None:
    """Raise ValueError unless ``doc`` is a well-formed snapshot."""
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"expected schema {BENCH_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise ValueError("snapshot has no scenarios")
    for name, s in scenarios.items():
        for key in ("wall_s", "events", "events_per_sec", "peak_rss_kb"):
            if not isinstance(s.get(key), (int, float)):
                raise ValueError(f"scenario {name!r} missing numeric {key!r}")


# ----------------------------------------------------------------------
# baselines and regression comparison
# ----------------------------------------------------------------------
def _pr_number(path: str) -> int:
    m = re.search(r"BENCH_PR(\d+)\.json$", os.path.basename(path))
    return int(m.group(1)) if m else -1


def find_baseline(root: str = ".",
                  exclude: Optional[str] = None) -> Optional[str]:
    """Newest committed ``BENCH_*.json`` (numeric PR order), if any."""
    paths = [
        p for p in glob.glob(os.path.join(root, "BENCH_*.json"))
        if exclude is None
        or os.path.abspath(p) != os.path.abspath(exclude)
    ]
    if not paths:
        return None
    return max(paths, key=lambda p: (_pr_number(p), p))


def compare(current: Dict[str, object], baseline: Dict[str, object],
            threshold: float = REGRESSION_THRESHOLD,
            ) -> List[Dict[str, object]]:
    """Per-scenario events/sec deltas vs a baseline snapshot.

    Returns one row per scenario present in both, flagging
    ``regressed`` when throughput dropped more than ``threshold``.
    Quick and full snapshots run different sizes, so comparison is
    refused across the ``quick`` flag.
    """
    if current.get("quick") != baseline.get("quick"):
        raise ValueError("cannot compare quick and full snapshots")
    rows = []
    cur, base = current["scenarios"], baseline["scenarios"]
    for name in cur:
        if name not in base:
            continue
        b, c = base[name]["events_per_sec"], cur[name]["events_per_sec"]
        ratio = c / b if b else 1.0
        rows.append({
            "scenario": name,
            "baseline_eps": b,
            "current_eps": c,
            "ratio": round(ratio, 3),
            "regressed": ratio < (1.0 - threshold),
        })
    return rows


def write_snapshot(path: str, doc: Dict[str, object]) -> None:
    validate_snapshot(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str) -> Dict[str, object]:
    with open(path) as fh:
        doc = json.load(fh)
    validate_snapshot(doc)
    return doc
