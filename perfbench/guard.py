"""Layer-coverage guard for the traced run.

Each workload was chosen to exercise some layers and to bypass others
(see ``WORKLOADS`` in ``workloads.py``).  If a program change moves the
work so that this no longer holds, the per-layer numbers would silently
stop meaning what the benchmark says they mean; the guard fails the run
instead.
"""

from __future__ import annotations

from typing import Dict, List

FLUID = ("faasbench-sfs", "cluster-outage", "stream-cfs")

#: the discrete engine's CFS runqueue; the fluid engine models CFS as a
#: processor-sharing pool and only keeps FILTER-promoted (FIFO)
#: functions in ``repro.sched.rt``, so on fluid workloads these modules
#: must never be entered
CFS_RUNQUEUE = ("repro.sched.cfs", "repro.sched.rbtree")

#: layers each workload must reach (calls per request > 0)
EXERCISED = {
    "faasbench-sfs": ("sim", "machine", "core", "workload"),
    "openlambda-io-traced": ("sim", "machine", "sched", "core", "faas",
                             "trace", "obs"),
    "cluster-outage": ("sim", "machine", "core", "faas", "faults"),
    "stream-cfs": ("sim", "machine", "stream", "workload"),
}


def check_coverage(workload: str, values: Dict[str, float],
                   module_calls: Dict[str, int]) -> List[str]:
    """Problems found, as lines (empty when the guard passes).

    ``values`` are the per-layer metrics, ``module_calls`` the span
    entries per defining module.
    """
    problems: List[str] = []

    def calls(layer: str) -> float:
        return values[f"{layer}.calls_per_request"]

    for layer in EXERCISED[workload]:
        if calls(layer) <= 0:
            problems.append(f"{workload} no longer calls into {layer}")
    if workload == "stream-cfs" and calls("core") != 0:
        problems.append(f"core.calls_per_request is {calls('core')} on "
                        f"stream-cfs, expected 0")
    if workload in FLUID:
        for module in CFS_RUNQUEUE:
            if module_calls.get(module, 0):
                problems.append(f"{module_calls[module]} calls into {module} "
                                f"on fluid {workload}, expected 0")
    if workload in ("faasbench-sfs", "stream-cfs"):
        for layer in ("faas", "faults"):
            if calls(layer) != 0:
                problems.append(f"{layer}.calls_per_request is "
                                f"{calls(layer)} on {workload}, expected 0")
    events = values["trace.events_per_request"]
    if (events > 0) != (workload == "openlambda-io-traced"):
        problems.append(f"trace.events_per_request is {events} on "
                        f"{workload}")
    demotions = values["core.io_demotions_per_request"]
    if workload == "openlambda-io-traced" and demotions <= 0:
        problems.append("no I/O demotions on openlambda-io-traced")
    if workload == "faasbench-sfs" and demotions != 0:
        problems.append(f"{demotions} I/O demotions per request on "
                        f"faasbench-sfs, expected 0")
    return problems
