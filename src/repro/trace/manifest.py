"""Run provenance.

A :class:`RunManifest` pins down everything needed to reproduce or
audit one scheduler×workload execution: the full configuration (machine
parameters, SFS tunables, engine, notify latency), the workload's
generator metadata and seed, the package version and interpreter, the
simulated span, and the wall-clock cost of producing it.  One manifest
is attached to every :class:`repro.metrics.collector.RunResult` and
embedded in every exported trace artifact, so a trace file found on
disk is self-describing.

Wall-clock fields (``created_at``, ``wall_time_s``) are provenance, not
simulation state: they never enter the event stream, which stays
bit-identical for a given seed.
"""

from __future__ import annotations

import dataclasses
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: bumped when the manifest or event-stream layout changes shape.
SCHEMA = "repro.trace/1"


def _jsonify(value: Any) -> Any:
    """Recursively coerce config values into JSON-safe primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one run (all fields JSON-safe)."""

    schema: str
    version: str                      # repro package version
    created_at: str                   # ISO-8601 UTC wall clock
    scheduler: str
    engine: str
    n_cores: int
    n_requests: int
    seed: Optional[int]               # workload generator seed, if known
    workload: Dict[str, Any]          # generator metadata (repro.workload)
    config: Dict[str, Any]            # full run configuration, jsonified
    sim_time_us: int
    events_executed: int
    wall_time_s: float
    python: str = field(default_factory=platform.python_version)
    platform: str = field(default_factory=platform.platform)
    trace_enabled: bool = False
    trace_events: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def build(
        cls,
        *,
        scheduler: str,
        engine: str,
        run_config: Any,
        workload: Any,
        sim: Any,
        n_cores: int,
        wall_time_s: float,
        trace: Any = None,
    ) -> "RunManifest":
        """Assemble a manifest from the live objects of one run;
        ``scheduler``/``engine`` are the labels of its RunResult."""
        from repro import __version__  # deferred: repro imports this module

        meta = dict(getattr(workload, "meta", {}) or {})
        seed = meta.get("seed")
        return cls(
            schema=SCHEMA,
            version=__version__,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            scheduler=scheduler,
            engine=engine,
            n_cores=n_cores,
            n_requests=len(workload),
            seed=seed if isinstance(seed, int) else None,
            workload=_jsonify(meta),
            config=_jsonify(run_config),
            sim_time_us=sim.now,
            events_executed=sim.events_executed,
            wall_time_s=round(wall_time_s, 6),
            trace_enabled=bool(trace is not None and trace.enabled),
            trace_events=len(trace) if trace is not None else 0,
        )
