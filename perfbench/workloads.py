"""The benchmark's four workloads, their output checks and digests.

Every workload replays requests through one of the program's public
drivers and reduces the run to an :class:`Outcome`: attempted and
failed request counts, the check failures, a digest of the simulated
output, and the virtual-time samples the metrics are computed from.

Arrivals are open-loop in virtual time (each request arrives at its
generated timestamp whatever the simulated system is doing) but every
run is replayed as one single-process batch on the host.  The model is
unvalidated against real hardware: the only reference is the
paper-shape results in EXPERIMENTS.md, so no error figure is given.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Generator, List, Tuple

import numpy as np

#: Per workload: what it runs, and why it is in the benchmark.  A run
#: makes ``replays`` replays of ``requests`` requests each, from seeds
#: derived from ``--seed``.  Per-request cost grows with the replay size
#: (the backlog grows), so sizes are fixed here: many small replays keep
#: both the host cost and the simulated medians steady from seed to
#: seed, where one long replay at load 1.0 swings with its backlog.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "faasbench-sfs": {
        "requests": 500, "replays": 16,
        "driver": "repro.experiments.runner.run_workload (materialized)",
        "scheduler": "sfs", "engine": "fluid", "cores": 12, "hosts": 1,
        "load": 1.0, "mix": "FaaSBench Azure-sampled fib (Table I)",
        "instrumentation": "off",
        "stresses": "sim, machine (fluid), core (FILTER polling)",
        "bypasses": "sched, faas, faults, trace; never demotes on I/O",
        "why": "The paper's SVIII setup: SFS on the fluid engine, where "
               "most events are FILTER polls that change nothing.",
    },
    "openlambda-io-traced": {
        "requests": 250, "replays": 48,
        "driver": "repro.faas.openlambda.run_openlambda",
        "scheduler": "sfs", "engine": "discrete", "cores": 12, "hosts": 1,
        "load": 1.0, "mix": "OPENLAMBDA_MIX (fib/md/sa)",
        "instrumentation": "TraceRecorder + MetricsRegistry on",
        "stresses": "sched (CFS rbtree), faas.openlambda, core I/O "
                    "demotion and watch list, trace, obs",
        "bypasses": "fluid machine, cluster, faults",
        "why": "The paper's SIX pipeline with I/O apps: the only workload "
               "on the discrete engine, taking SFS's I/O demotion path "
               "and paying for instrumentation.",
    },
    "cluster-outage": {
        "requests": 1_000, "replays": 12,
        "driver": "repro.experiments.ext_resilience.run_cell "
                  "(domain_outage)",
        "scheduler": "sfs", "engine": "fluid", "cores": 8, "hosts": 4,
        "load": 0.7, "mix": "FaaSBench Azure-sampled fib (Table I)",
        "instrumentation": "off",
        "deviation": "load 0.7 and no request deadline, where the "
                     "ext-resilience grid uses load 1.0 and a 30 s "
                     "deadline: there the outage doubles the surviving "
                     "hosts' load, requests time out (counted failed) "
                     "and the simulated median swings 25-40% by seed",
        "stresses": "faas.cluster and faas.resilience (failover, hedging), "
                    "faults, sim liveness scan",
        "bypasses": "sched, trace, stream",
        "why": "A rack outage on a 4-host cluster: failover, hedging and "
               "retries, and the simulator's heap scans.",
    },
    "stream-cfs": {
        "requests": 1_000, "replays": 60,
        "driver": "repro.stream.StreamReplayDriver (checkpointing off)",
        "scheduler": "cfs", "engine": "fluid", "cores": 12, "hosts": 1,
        "load": 0.9, "mix": "Azure log-normal duration mixture",
        "instrumentation": "off",
        "stresses": "stream, lazy workload.stream, fluid machine",
        "bypasses": "core (no SFS), sched, faas, faults, trace",
        "why": "Constant-memory streaming replay under plain CFS: the "
               "bypass for every SFS change.",
    },
}


def describe(name: str) -> str:
    """One line recording how ``name`` runs, printed with every result."""
    fields = "; ".join(f"{k}={v}" for k, v in WORKLOADS[name].items())
    return (f"{fields}; arrivals: open-loop in virtual time, replayed as a "
            f"single-process batch; model unvalidated against real "
            f"hardware (no error figure)")


@dataclass
class Outcome:
    """One replay, reduced to what the benchmark reports and checks."""

    attempted: int
    #: requests whose terminal status is not ``ok`` or that failed a check
    failed: int
    #: check failures, one line each (also whole-run checks)
    problems: List[str]
    #: sha256 of the canonical simulated output
    digest: str
    #: exact samples (records) or DDSketches (stream summary), virtual us
    turnaround: object
    rte: object
    wait: object
    queue_delay_us: List[int]
    ctx_switches: int
    busy_us: int
    capacity_us: int
    sfs: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    trace_events: int = 0


def sha256_json(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _sfs_totals(instances) -> Dict[str, int]:
    keys = ("promoted", "completed_in_filter", "demoted_io",
            "watched_at_pop")
    return {k: sum(getattr(s.stats, k) for s in instances) for k in keys}


def _check_sfs(instances, problems: List[str]) -> None:
    for i, sfs in enumerate(instances):
        try:
            sfs.stats.check_invariants()
        except AssertionError as exc:
            problems.append(f"SFSStats.check_invariants failed on SFS "
                            f"#{i}: {exc!r}")


def _queue_delays(instances) -> List[int]:
    return [delay for sfs in instances for _ts, delay in sfs.delay_samples()]


def records_outcome(result, n_requests: int, sfs_instances,
                    trace_events: int = 0) -> Outcome:
    """Checks and reduction for the record-producing drivers."""
    records = result.records
    problems: List[str] = []
    ids = [r.req_id for r in records]
    if sorted(ids) != list(range(n_requests)):
        problems.append(
            f"{len(records)} records for {n_requests} requests, "
            f"{len(set(ids))} distinct ids: not one terminal status each")
    bad = 0
    for r in records:
        if r.status != "ok":
            bad += 1
        elif r.cpu_time != r.cpu_demand or r.turnaround < r.cpu_demand:
            bad += 1
            if len(problems) < 20:
                problems.append(
                    f"request {r.req_id}: cpu_time {r.cpu_time} vs demand "
                    f"{r.cpu_demand}, turnaround {r.turnaround}")
    missing = max(0, n_requests - len(set(ids)))
    _check_sfs(sfs_instances, problems)
    ok = [r for r in records if r.status == "ok"]
    stats = result.meta.get("fault_stats", {})
    return Outcome(
        attempted=n_requests,
        failed=bad + missing,
        problems=problems,
        digest=sha256_json([asdict(r) for r in records]),
        turnaround=np.array([r.turnaround for r in ok], dtype=float),
        rte=np.array([r.rte for r in ok], dtype=float),
        wait=np.array([r.wait_time for r in ok], dtype=float),
        queue_delay_us=_queue_delays(sfs_instances),
        ctx_switches=sum(r.context_switches for r in records),
        busy_us=int(result.busy_time),
        capacity_us=int(result.sim_time) * int(result.n_cores),
        sfs=_sfs_totals(sfs_instances),
        faults={k: int(stats.get(k, 0))
                for k in ("failovers", "hedges", "hedge_wins", "retries")},
        trace_events=trace_events,
    )


# ----------------------------------------------------------------------
# the drivers
# ----------------------------------------------------------------------
#: a replay function: builds its inputs, yields ``(driver, args)``, is
#: sent the driver's result and returns the Outcome
Replay = Generator[Tuple[Callable, tuple], object, Outcome]


def run_faasbench_sfs(seed: int, n: int, sfs_instances) -> Replay:
    from repro.experiments.common import azure_sampled_workload, machine
    from repro.experiments.runner import RunConfig, run_workload

    wl = azure_sampled_workload(n, 12, 1.0, seed)
    cfg = RunConfig(scheduler="sfs", engine="fluid", machine=machine(12),
                    invariants=False)
    result = yield run_workload, (wl, cfg)
    return records_outcome(result, n, sfs_instances)


def run_openlambda_io_traced(seed: int, n: int, sfs_instances) -> Replay:
    from repro.experiments.common import azure_sampled_workload, machine
    from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
    from repro.obs import MetricsRegistry
    from repro.trace import TraceRecorder
    from repro.workload.faasbench import OPENLAMBDA_MIX

    wl = azure_sampled_workload(n, 12, 1.0, seed, app_mix=OPENLAMBDA_MIX)
    cfg = OpenLambdaConfig(machine=machine(12), engine="discrete",
                           scheduler="sfs", seed=seed)
    recorder = TraceRecorder()
    result = yield run_openlambda, (wl, cfg, recorder, MetricsRegistry())
    return records_outcome(result, n, sfs_instances,
                           trace_events=len(recorder))


def run_cluster_outage(seed: int, n: int, sfs_instances) -> Replay:
    from repro.experiments import ext_resilience

    cfg = ext_resilience.Config(n_requests=n, host_counts=(4,), load=0.7,
                                timeout=None)
    result = yield ext_resilience.run_cell, (cfg, seed, "domain_outage",
                                             "sfs", 4)
    return records_outcome(result, n, sfs_instances)


def run_stream_cfs(seed: int, n: int, sfs_instances) -> Replay:
    from repro.experiments.common import machine
    from repro.stream import ReplayConfig, StreamReplayDriver
    from repro.stream.aggregate import StreamSummary
    from repro.workload.stream import RequestStream, StreamConfig

    class CheckedSummary(StreamSummary):
        """The driver's own aggregator plus the per-request checks (a
        few attribute reads per request, inside the timed window)."""

        def __init__(self):
            super().__init__()
            self.seen = bytearray(n)
            self.bad = 0
            self.problems: List[str] = []

        def observe(self, spec, task, inflight=0):
            if not 0 <= spec.req_id < n or self.seen[spec.req_id]:
                self.bad += 1
                self.problems.append(f"request {spec.req_id} finished twice"
                                     " or is out of range")
            else:
                self.seen[spec.req_id] = 1
            turnaround = task.finish_time - task.dispatch_time
            if task.killed:
                self.bad += 1
            elif (task.cpu_time != task.cpu_demand
                  or turnaround < task.cpu_demand):
                self.bad += 1
                if len(self.problems) < 20:
                    self.problems.append(
                        f"request {spec.req_id}: cpu_time {task.cpu_time} "
                        f"vs demand {task.cpu_demand}, turnaround "
                        f"{turnaround}")
            super().observe(spec, task, inflight)

    stream = RequestStream(
        StreamConfig(n_requests=n, n_cores=12, target_load=0.9,
                     source="azure"), seed=seed)
    cfg = ReplayConfig(scheduler="cfs", engine="fluid", machine=machine(12),
                       checkpoint_every=None)
    summary = CheckedSummary()
    driver = StreamReplayDriver(stream, cfg, aggregator=summary)
    doc = yield driver.run, ()
    problems = list(summary.problems)
    missing = n - sum(summary.seen)
    if missing:
        problems.append(f"{missing} requests never reached a terminal status")
    if doc["ok"] + doc["killed"] != doc["requests"]:
        problems.append(f"summary ok {doc['ok']} + killed {doc['killed']} "
                        f"!= requests {doc['requests']}")
    _check_sfs(sfs_instances, problems)
    canonical = {k: v for k, v in doc.items() if k != "events_executed"}
    return Outcome(
        attempted=n,
        failed=summary.bad + missing,
        problems=problems,
        digest=hashlib.sha256(
            StreamSummary.to_json(canonical).encode()).hexdigest(),
        turnaround=summary.turnaround,
        rte=summary.rte,
        wait=summary.wait,
        queue_delay_us=_queue_delays(sfs_instances),
        ctx_switches=doc["ctx_voluntary"] + doc["ctx_involuntary"],
        busy_us=int(doc["busy_time_us"]),
        capacity_us=int(doc["sim_time_us"]) * int(doc["n_cores"]),
        sfs=_sfs_totals(sfs_instances),
    )


#: workload -> replay function; the harness calls the yielded driver
#: itself, so it times exactly the driver call.
RUNNERS: Dict[str, Callable] = {
    "faasbench-sfs": run_faasbench_sfs,
    "openlambda-io-traced": run_openlambda_io_traced,
    "cluster-outage": run_cluster_outage,
    "stream-cfs": run_stream_cfs,
}


def quantile(samples, q: float) -> float:
    """q-quantile (q in [0, 1]) of exact samples or a DDSketch."""
    from repro.metrics.stats import percentile

    if isinstance(samples, np.ndarray):
        return percentile(samples, 100 * q) if samples.size else 0.0
    return samples.quantile(q) if samples.count else 0.0


def pool(parts: List[object]):
    """Pool exact samples (concatenate) or sketches (merge)."""
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    from repro.obs.instruments import QuantileSketch

    merged = QuantileSketch(parts[0].gamma)
    for sketch in parts:
        merged.merge(sketch)
    return merged


def count(samples) -> int:
    return int(samples.size) if isinstance(samples, np.ndarray) \
        else int(samples.count)
