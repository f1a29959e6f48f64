"""Golden digests: absolute pins of canonical simulator outputs.

The byte-identity tests elsewhere are relative (serial vs parallel,
fresh vs resumed), so a change that shifts every path the same way
passes them.  This module pins the outputs themselves: each case runs
a small seeded workload through one public driver and hashes its
records, ``SFSStats`` and ``OverheadMeter`` per-window buckets and
counters of every SFS instance the run built; the traced case also pins
every trace event, the metrics snapshot with each gauge's series, and
the scheduler-decision audit records.  Host-dependent fields
and ``events_executed`` are excluded, so removing no-op events is not
a behaviour change.

An intentional behaviour change regenerates the file and says why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_digests.json")


@contextlib.contextmanager
def collect_sfs():
    """Yield a list that collects every SFS instance built inside."""
    from repro.core.sfs import SFS

    built = []
    init = SFS.__dict__["__init__"]

    def collecting_init(sfs, *args, **kwargs):
        init(sfs, *args, **kwargs)
        built.append(sfs)

    SFS.__init__ = collecting_init
    try:
        yield built
    finally:
        SFS.__init__ = init


def sfs_doc(instances):
    """Stats and overhead-meter state of each SFS instance."""
    out = []
    for sfs in instances:
        meter = sfs.overhead
        out.append({
            "stats": dataclasses.asdict(sfs.stats),
            "poll_buckets": sorted(meter._poll_cost.items()),
            "sched_buckets": sorted(meter._sched_cost.items()),
            "poll_count": meter.poll_count,
            "sched_op_count": meter.sched_op_count,
        })
    return out


def result_doc(res):
    """Canonical content of a RunResult (no host or event-count fields)."""
    return {
        "records": [dataclasses.asdict(r) for r in res.records],
        "sim_time": res.sim_time,
        "busy_time": res.busy_time,
        "fault_stats": res.meta.get("fault_stats"),
    }


def rebase_tids(events, records):
    """Trace events and audit records with task ids counted from the
    run's first task: ids come from a process-wide counter, so the raw
    values depend on what ran earlier in the process."""
    base = min((e.tid for e in events if e.tid >= 0), default=0)

    def rebase(tid):
        return tid - base if tid >= 0 else tid

    return ([e._replace(tid=rebase(e.tid)) for e in events],
            [r._replace(chosen=rebase(r.chosen), displaced=rebase(r.displaced))
             for r in records])


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# cases: each returns a JSON-safe document
# ----------------------------------------------------------------------
def case_run_workload_sfs_fluid():
    from repro.experiments.common import azure_sampled_workload, machine
    from repro.experiments.runner import RunConfig, run_workload

    wl = azure_sampled_workload(1500, 8, 1.0, 3)
    cfg = RunConfig(scheduler="sfs", engine="fluid", machine=machine(8),
                    invariants=False)
    with collect_sfs() as built:
        res = run_workload(wl, cfg)
    return {"run": result_doc(res), "sfs": sfs_doc(built)}


def case_run_openlambda_sfs_discrete_io():
    from repro.experiments.common import azure_sampled_workload, machine
    from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
    from repro.workload.faasbench import OPENLAMBDA_MIX

    wl = azure_sampled_workload(800, 8, 1.0, 5, app_mix=OPENLAMBDA_MIX)
    cfg = OpenLambdaConfig(machine=machine(8), engine="discrete",
                           scheduler="sfs", seed=5)
    with collect_sfs() as built:
        res = run_openlambda(wl, cfg)
    assert res.sfs_stats.demoted_io > 0  # the I/O demotion path ran
    return {"run": result_doc(res), "sfs": sfs_doc(built)}


@contextlib.contextmanager
def audited(audit):
    """Install ``audit`` on every Simulator the OpenLambda driver builds."""
    import repro.faas.openlambda as ol

    original = ol.Simulator
    ol.Simulator = functools.partial(original, audit=audit)
    try:
        yield
    finally:
        ol.Simulator = original


def case_run_openlambda_sfs_discrete_io_traced():
    from repro.experiments.common import azure_sampled_workload, machine
    from repro.faas.openlambda import OpenLambdaConfig, run_openlambda
    from repro.obs import MetricsRegistry
    from repro.trace import TraceRecorder
    from repro.why.audit import AuditLog
    from repro.workload.faasbench import OPENLAMBDA_MIX

    wl = azure_sampled_workload(1200, 8, 1.0, 7, app_mix=OPENLAMBDA_MIX)
    cfg = OpenLambdaConfig(machine=machine(8), engine="discrete",
                           scheduler="sfs", seed=7)
    recorder, registry, audit = TraceRecorder(), MetricsRegistry(), AuditLog()
    with audited(audit), collect_sfs() as built:
        res = run_openlambda(wl, cfg, trace=recorder, metrics=registry)
    assert res.sfs_stats.demoted_io > 0 and len(audit) and len(recorder)
    events, records = rebase_tids(recorder.events, audit.records)
    gauges = {name + suffix: inst.series for (name, suffix), inst
              in sorted(registry._instruments.items()) if inst.kind == "gauge"}
    return {"run": result_doc(res), "sfs": sfs_doc(built),
            "trace": digest(events),
            "metrics": registry.snapshot(), "gauge_series": gauges,
            "audit": digest(records)}


def case_ext_resilience_domain_outage():
    from repro.experiments import ext_resilience

    cfg = ext_resilience.Config(n_requests=1000, host_counts=(4,), load=0.7,
                                timeout=None)
    with collect_sfs() as built:
        res = ext_resilience.run_cell(cfg, 2, "domain_outage", "sfs", 4)
    cell = ext_resilience.cell_summary("domain_outage", "sfs", 4, res)
    cell.pop("events_executed", None)
    return {"cell": cell, "run": result_doc(res), "sfs": sfs_doc(built)}


def case_stream_replay_sfs():
    from repro.experiments.common import machine
    from repro.stream import ReplayConfig, StreamReplayDriver
    from repro.workload.stream import RequestStream, StreamConfig

    stream = RequestStream(StreamConfig(n_requests=3000, n_cores=8,
                                        target_load=0.9), seed=4)
    cfg = ReplayConfig(scheduler="sfs", engine="fluid", machine=machine(8),
                       checkpoint_every=None)
    with collect_sfs() as built:
        doc = StreamReplayDriver(stream, cfg).run()
    doc = {k: v for k, v in doc.items() if k != "events_executed"}
    return {"summary": json.loads(json.dumps(doc, default=repr)),
            "sfs": sfs_doc(built)}


def case_table2_reduced():
    from repro.experiments import table2_overhead

    cfg = table2_overhead.Config(n_requests=800, n_cores=8)
    with collect_sfs() as built:
        result = table2_overhead.run(cfg, seed=1)
    return {"render": table2_overhead.render(result), "sfs": sfs_doc(built)}


def case_fig11_reduced():
    from repro.experiments import fig11_io

    cfg = fig11_io.Config(n_requests=800, n_cores=8,
                          poll_intervals_ms=(1, 4, 8))
    with collect_sfs() as built:
        result = fig11_io.run(cfg, seed=1)
    return {"render": fig11_io.render(result),
            "runs": {k: result_doc(r) for k, r in result.runs.items()},
            "sfs": sfs_doc(built)}


CASES = {
    "run_workload.sfs.fluid": case_run_workload_sfs_fluid,
    "run_openlambda.sfs.discrete.io_mix": case_run_openlambda_sfs_discrete_io,
    "run_openlambda.sfs.discrete.io_mix.traced":
        case_run_openlambda_sfs_discrete_io_traced,
    "ext_resilience.domain_outage.sfs.h4": case_ext_resilience_domain_outage,
    "stream_replay.sfs.fluid": case_stream_replay_sfs,
    "table2.reduced": case_table2_reduced,
    "fig11.reduced": case_fig11_reduced,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    golden = json.loads(GOLDEN.read_text())
    assert digest(CASES[name]()) == golden[name], (
        f"{name}: canonical output changed; if intended, regenerate "
        f"{GOLDEN.name} and explain why in CHANGES.md")


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    golden = {name: digest(fn()) for name, fn in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
