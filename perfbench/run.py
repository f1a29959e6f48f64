"""Repository benchmark: host cost and simulated outcomes of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload faasbench-sfs --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end row of one workload.  Host cost:
``scaled_wall_us_per_request`` (wall time from the first simulated event
until the results are collected, per simulated request, scaled by the
interleaved reference loop of ``hostspeed.py``; the raw wall quartiles
are printed beside it), ``setup_s`` (process start to the first
simulated event, median of fresh processes) and ``peak_rss_mb``.
Simulated outcomes, pooled over the run's replays: the median
turnaround (OS dispatch to finish, ok requests) and the median RTE of
the paper's Eq. 1; the p99 turnaround is printed with its sample count.
``--trace 1`` makes one untraced and one traced pass over the same
inputs and prints the per-layer metrics (see ``layers.py``), after
checking that the traced pass reproduces the untraced digest and that
the workload still exercises the layers it was chosen for
(``guard.py``).

Every run checks the simulated output (one terminal status per request,
``cpu_time == cpu_demand`` and turnaround >= CPU demand for every ok
request, ``SFSStats.check_invariants`` after the drain, ``ok + killed ==
requests`` in a stream summary) and prints a sha256 digest of it; host
fields and ``events_executed`` are left out of the digest.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed and no request failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_S, time_reference  # noqa: E402
from workloads import (  # noqa: E402
    RUNNERS, WORKLOADS, count, describe, pool, quantile,
)

#: set-up measurements per run (fresh processes; the median is reported)
SETUP_PROBES = 5

OUT_DIR = HERE / "out"


def _import_program():
    """Import the program from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    # invariant checking is opt-in through the environment; the benchmark
    # measures the nominal path, so it never inherits the switch
    os.environ.pop("REPRO_INVARIANTS", None)


def sizes(workload: str):
    """(requests per replay, replays per run)."""
    return WORKLOADS[workload]["requests"], WORKLOADS[workload]["replays"]


def replay_seeds(seed: int, replicas: int):
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(
        replicas)]


class RunHooks:
    """Stamp the first simulated event; collect the SFS instances built.

    Wraps ``Simulator.run`` (entered right before the first event) and
    ``SFS.__init__``; both cost one extra call per replay.
    """

    def __init__(self, on_first_event=None):
        self.first_event = None
        self.sfs = []
        self._on_first_event = on_first_event

    def __enter__(self):
        from repro.core.sfs import SFS
        from repro.sim.engine import Simulator

        self._classes = Simulator, SFS
        self._run = Simulator.__dict__["run"]
        self._init = SFS.__dict__["__init__"]
        hooks, run, init = self, self._run, self._init

        def hooked_run(sim, *args, **kwargs):
            if hooks.first_event is None:
                hooks.first_event = time.perf_counter()
                if hooks._on_first_event is not None:
                    hooks._on_first_event()
            return run(sim, *args, **kwargs)

        def hooked_init(sfs, *args, **kwargs):
            init(sfs, *args, **kwargs)
            hooks.sfs.append(sfs)

        Simulator.run = hooked_run
        SFS.__init__ = hooked_init
        return self

    def __exit__(self, *exc):
        Simulator, SFS = self._classes
        Simulator.run = self._run
        SFS.__init__ = self._init
        return False

    def reset(self):
        self.first_event = None
        self.sfs = []


def replay(workload: str, seed: int, hooks: RunHooks, tracer=None):
    """One replay.  Returns (outcome, run_s, whole_s): ``run_s`` from
    the first simulated event until the driver returned its results,
    ``whole_s`` including input generation and the build."""
    n, _replicas = sizes(workload)
    hooks.reset()
    gc.collect()
    start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        steps = RUNNERS[workload](seed, n, hooks.sfs)
        driver, args = next(steps)
        result = driver(*args)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.remove()
    try:
        steps.send(result)
    except StopIteration as stop:
        outcome = stop.value
    else:
        raise RuntimeError(f"{workload} runner yielded twice")
    return outcome, end - hooks.first_event, end - start


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from process start to the first simulated event, in a
    fresh interpreter (imports, input generation and build included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=str(ROOT))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


def _setup_probe_child(workload: str, seed: int) -> None:
    def stop():
        os.write(1, f"{time.monotonic()!r}\n".encode())
        os._exit(0)

    with RunHooks(on_first_event=stop) as hooks:
        replay(workload, replay_seeds(seed, sizes(workload)[1])[0], hooks)
    raise RuntimeError("the workload finished without a simulated event")


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def _metric(value: float, unit: str):
    return {"value": float(value), "unit": unit}


def _print_checks(outcomes) -> bool:
    ok = True
    for i, o in enumerate(outcomes):
        for line in o.problems[:20]:
            print(f"  check failed (replay {i}): {line}")
            ok = False
    return ok


def run_end_to_end(workload: str, seed: int, seconds: float):
    n, replicas = sizes(workload)
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    seeds = replay_seeds(seed, replicas)
    outcomes, walls, factors = [], [], []
    scaled_by_replica = [[] for _ in range(replicas)]
    correct = True
    start = time.perf_counter()
    reference = time_reference()
    with RunHooks() as hooks:
        i = 0
        while i < replicas or time.perf_counter() - start < seconds:
            outcome, run_s, _ = replay(workload, seeds[i % replicas], hooks)
            after = time_reference()
            factor = NOMINAL_S / ((reference + after) / 2)
            reference = after
            walls.append(run_s * 1e6 / n)
            factors.append(factor)
            scaled_by_replica[i % replicas].append(run_s * factor)
            if i < replicas:
                outcomes.append(outcome)
            elif outcome.digest != outcomes[i % replicas].digest:
                print(f"  check failed: replay {i % replicas} digest "
                      f"changed on repetition")
                correct = False
            i += 1
    # median per input, then pooled over the inputs: a per-request cost
    # that does not depend on which inputs the time ran out on
    scaled = sum(statistics.median(v) for v in scaled_by_replica) * 1e6 / (
        n * replicas)
    correct &= _print_checks(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    turnaround = pool([o.turnaround for o in outcomes])
    rte = pool([o.rte for o in outcomes])
    p50 = quantile(turnaround, 0.50)
    p99 = quantile(turnaround, 0.99)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digest = _combined_digest(outcomes)
    samples = count(turnaround)
    beyond = samples - 1 - round(0.99 * (samples - 1))  # above p99's rank
    if beyond < 10:
        print(f"  check failed: only {beyond} samples beyond p99")
        correct = False
    w1, w2, w3 = quartiles(walls)
    f1, f2, f3 = quartiles(factors)
    s1, s2, s3 = quartiles(setups)
    print(f"workload={workload} seed={seed} requests={n}x{replicas} "
          f"digest={digest}")
    print(f"  {describe(workload)}")
    print(f"  wall_us_per_request q1={w1:.1f} median={w2:.1f} q3={w3:.1f} "
          f"over {len(walls)} replays")
    print(f"  host speed factor q1={f1:.3f} median={f2:.3f} q3={f3:.3f}; "
          f"scaled_wall_us_per_request={scaled:.1f}")
    print(f"  setup_s q1={s1:.4f} median={s2:.4f} q3={s3:.4f} "
          f"over {len(setups)} fresh processes")
    print(f"  sim turnaround samples={samples} p50_ms={p50 / 1e3:.3f} "
          f"p99_ms={p99 / 1e3:.3f} beyond_p99={beyond} "
          f"attempted={attempted} failed={failed}")
    metrics = {
        "scaled_wall_us_per_request": _metric(scaled, "us"),
        "setup_s": _metric(s2, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "sim_turnaround_p50_ms": _metric(p50 / 1e3, "ms"),
        "sim_rte_p50": _metric(quantile(rte, 0.50), "ratio"),
    }
    return correct and failed == 0, attempted, failed, metrics


def _combined_digest(outcomes) -> str:
    text = "\n".join(o.digest for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()


def run_traced(workload: str, seed: int):
    import numpy as np
    from layers import LAYERS, LayerTracer

    from guard import check_coverage

    n, replicas = sizes(workload)
    seeds = replay_seeds(seed, replicas)
    tracer = LayerTracer()
    plain, traced = [], []
    plain_run_s = plain_s = traced_s = 0.0
    with RunHooks() as hooks:
        for s in seeds:
            outcome, run_s, whole = replay(workload, s, hooks)
            plain.append(outcome)
            plain_run_s += run_s
            plain_s += whole
        for s in seeds:
            outcome, _, whole = replay(workload, s, hooks, tracer=tracer)
            traced.append(outcome)
            traced_s += whole
    correct = _print_checks(plain) and _print_checks(traced)
    digest, traced_digest = _combined_digest(plain), _combined_digest(traced)
    if digest != traced_digest:
        print(f"  check failed: traced digest {traced_digest} != untraced "
              f"{digest}")
        correct = False

    attempted = sum(o.attempted for o in traced)
    failed = sum(o.failed for o in traced)
    self_ns = tracer.self_ns()
    calls = tracer.calls()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_request"] = _metric(
            calls.get(layer, 0) / attempted, "count")
        metrics[f"{layer}.self_us_per_request"] = _metric(
            self_ns.get(layer, 0) / 1e3 / attempted, "us")
    wait = pool([o.wait for o in traced])
    delays = [d for o in traced for d in o.queue_delay_us]
    sfs = {k: sum(o.sfs.get(k, 0) for o in traced)
           for k in ("promoted", "completed_in_filter", "demoted_io")}
    faults = {k: sum(o.faults.get(k, 0) for o in traced)
              for k in ("failovers", "hedges", "hedge_wins", "retries")}
    capacity = sum(o.capacity_us for o in traced)
    metrics.update({
        "sim.events_per_request": _metric(
            tracer.events_executed / attempted, "count"),
        "machine.ctx_switches_per_request": _metric(
            sum(o.ctx_switches for o in traced) / attempted, "count"),
        "machine.utilization": _metric(
            sum(o.busy_us for o in traced) / capacity if capacity else 0.0,
            "ratio"),
        "sched.wait_p99_ms": _metric(quantile(wait, 0.99) / 1e3, "ms"),
        "core.polls_per_request": _metric(tracer.polls / attempted, "count"),
        "core.poll_useful_ratio": _metric(
            tracer.useful_polls / tracer.polls if tracer.polls else 0.0,
            "ratio"),
        "core.filter_completion_ratio": _metric(
            sfs["completed_in_filter"] / sfs["promoted"]
            if sfs["promoted"] else 0.0, "ratio"),
        "core.queue_delay_p99_ms": _metric(
            quantile(np.asarray(delays, dtype=float), 0.99) / 1e3, "ms"),
        "core.io_demotions_per_request": _metric(
            sfs["demoted_io"] / attempted, "count"),
        "faas.failovers": _metric(faults["failovers"], "count"),
        "faas.hedge_win_ratio": _metric(
            faults["hedge_wins"] / faults["hedges"]
            if faults["hedges"] else 0.0, "ratio"),
        "faults.retries_per_request": _metric(
            faults["retries"] / attempted, "count"),
        "trace.events_per_request": _metric(
            sum(o.trace_events for o in traced) / attempted, "count"),
        "bench.trace_overhead_ratio": _metric(traced_s / plain_s, "ratio"),
        "bench.wall_us_per_request": _metric(
            plain_run_s * 1e6 / attempted, "us"),
        "bench.sim_turnaround_p99_ms": _metric(
            quantile(pool([o.turnaround for o in traced]), 0.99) / 1e3, "ms"),
    })
    values = {name: m["value"] for name, m in metrics.items()}
    problems = check_coverage(workload, values,
                              tracer.calls(by="module"))
    for line in problems:
        print(f"  layer-coverage guard failed: {line}")
    correct &= not problems

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.write(spans_path)
    print(f"workload={workload} seed={seed} requests={n}x{replicas} "
          f"digest={digest} traced_digest={traced_digest}")
    print(f"  {describe(workload)}")
    print(f"  spans={len(tracer.span_start)} written to "
          f"{spans_path.relative_to(ROOT)}")
    for layer in LAYERS:
        print(f"  {layer:<12} calls/request="
              f"{values[f'{layer}.calls_per_request']:.3f} "
              f"self_us/request={values[f'{layer}.self_us_per_request']:.2f}")
    return correct and failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.setup_probe:
        _setup_probe_child(args.workload, args.seed)
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args.workload,
                                                         args.seed)
    else:
        correct, attempted, failed, metrics = run_end_to_end(
            args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
