"""Layer-attributed span tracing, done entirely from the benchmark's side.

A *layer* is one subpackage of ``repro`` (``repro.sim``, ``repro.core``,
...), named after the module.  :class:`LayerTracer` wraps, for the
duration of a traced pass,

* every public function and method, plus ``__init__``, ``__next__`` and
  ``__call__`` and public property getters, of the classes and functions
  defined in each loaded ``repro.<layer>`` module;
* every event callback handed to ``Simulator.schedule``/``schedule_at``,
  attributed to the module that owns the callback (private handlers
  such as ``SFS._on_worker_poll`` included).

A span is opened only where a call *enters* a layer from another one
(or from the benchmark itself); calls inside a layer stay inside its
span.  Each span has a name, a start, an end and a parent.  Spans stay
in memory and are written out after the pass; a layer's self time is
the sum over its spans of the duration minus the part covered by child
spans.  Span entries per layer are counted from the same spans: unlike
the times, these counts are exact and repeat for a given seed.

Generator functions are not wrapped (a span would cover only the
generator's creation), so their iteration is charged to the caller; nor
are synthesized dataclass ``__init__`` methods, which only store fields.
The wrappers only read the host clock: they never touch virtual time,
which the benchmark proves by comparing the traced pass's output digest
with the untraced one.  Their own cost lands in the self time of the
layer they wrap; ``bench.trace_overhead_ratio`` reports the total.
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
import types
from array import array
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: the layers the benchmark reports, in report order
LAYERS = ("sim", "machine", "sched", "core", "faas", "faults", "trace",
          "obs", "stream", "workload", "metrics", "experiments")

_DUNDERS = ("__init__", "__next__", "__call__")


def layer_of_module(modname: Optional[str]) -> Optional[str]:
    """``repro.core.sfs`` -> ``core``; None outside the package."""
    if not modname or not modname.startswith("repro."):
        return None
    return modname.split(".")[1]


def _function_of(callback):
    """The function behind a callback (bound method or partial)."""
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class LayerTracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_layer: List[str] = []
        self._name_module: List[str] = []
        # one entry per span, parallel arrays (compact and append-only)
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: List[int] = [-1]
        self._layers: List[Optional[str]] = [None]
        self._events: List[str] = [""]
        self.events_executed = 0
        self.polls = 0
        self.useful_polls = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _intern(self, name: str, layer: str, module: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self._name_layer.append(layer)
            self._name_module.append(module)
        return nid

    def _enter(self, nid: int, layer: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self._layers.append(layer)
        self.span_start.append(perf_counter_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()
        self._layers.pop()

    def _wrap(self, fn, layer: str, name: str, module: str):
        nid = self._intern(f"{layer}:{name}", layer, module)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = tracer._enter(nid, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx)

        traced.__perfbench_wrapped__ = fn
        return traced

    def _dispatch(self, callback, nid: int, layer: str, event: str, *args):
        """Run one simulator event callback inside its layer's span."""
        self._events.append(event)
        try:
            if self._layers[-1] == layer:
                return callback(*args)
            idx = self._enter(nid, layer)
            try:
                return callback(*args)
            finally:
                self._exit(idx)
        finally:
            self._events.pop()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        """Set a class or module attribute, remembering the original."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, enum.Enum, tuple)):
            return
        wrap = functools.partial(self._wrap, layer=layer,
                                 module=cls.__module__)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{cls.__qualname__}.{attr}"
            if isinstance(value, staticmethod):
                fn = value.__func__
                if _wrappable(fn):
                    self._patch(cls, attr, staticmethod(wrap(fn, name=name)))
            elif isinstance(value, classmethod):
                fn = value.__func__
                if _wrappable(fn):
                    self._patch(cls, attr, classmethod(wrap(fn, name=name)))
            elif isinstance(value, property):
                if value.fget is not None and _wrappable(value.fget):
                    self._patch(cls, attr, property(
                        wrap(value.fget, name=name),
                        value.fset, value.fdel, value.__doc__))
            elif _wrappable(value):
                self._patch(cls, attr, wrap(value, name=name))

    def install(self) -> None:
        """Wrap every loaded ``repro`` layer module.  Call :meth:`remove`
        to undo; install/remove must bracket the traced pass."""
        from repro.machine.base import MachineBase
        from repro.sim.engine import Simulator

        wrapped_functions: Dict[int, object] = {}
        modules = [(n, m) for n, m in sorted(sys.modules.items())
                   if layer_of_module(n) is not None and m is not None]
        for modname, module in modules:
            layer = layer_of_module(modname)
            for attr, value in list(vars(module).items()):
                if isinstance(value, type) and value.__module__ == modname:
                    self._wrap_class(value, layer)
                elif (not attr.startswith("_") and _wrappable(value)
                      and value.__module__ == modname):
                    wrapper = self._wrap(value, layer, value.__qualname__,
                                         modname)
                    wrapped_functions[id(value)] = wrapper
                    self._patch(module, attr, wrapper)
        # ``from x import f`` copies: point them at the wrappers too
        for _modname, module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrapped_functions.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, wrapper)
        self._hook_schedule(Simulator)
        self._hook_step(Simulator)
        self._hook_polls(MachineBase)

    def remove(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # simulator hooks: event callbacks, event count, SFS polls
    # ------------------------------------------------------------------
    def _hook_schedule(self, sim_cls: type) -> None:
        tracer = self
        dispatch = self._dispatch

        def wrap_callback(callback):
            if (isinstance(callback, functools.partial)
                    and callback.func == dispatch):
                return callback  # schedule() forwarding to schedule_at()
            fn = _function_of(callback)
            module = getattr(fn, "__module__", None)
            layer = layer_of_module(module)
            if layer is None:
                return callback
            event = getattr(fn, "__qualname__", type(fn).__name__)
            nid = tracer._intern(f"{layer}:{event}", layer, module)
            return functools.partial(dispatch, callback, nid, layer, event)

        for attr in ("schedule", "schedule_at"):
            original = sim_cls.__dict__[attr]

            def hooked(sim, when, callback, *args, _original=original,
                       **kwargs):
                return _original(sim, when, wrap_callback(callback), *args,
                                 **kwargs)

            functools.update_wrapper(hooked, original)
            self._patch(sim_cls, attr, hooked)

    def _hook_step(self, sim_cls: type) -> None:
        tracer = self
        original = sim_cls.__dict__["step"]

        def step(sim):
            ran = original(sim)
            if ran:
                tracer.events_executed += 1
            return ran

        functools.update_wrapper(step, original)
        self._patch(sim_cls, "step", step)

    def _hook_polls(self, machine_cls: type) -> None:
        """Count SFS's ``poll_state`` calls and the share that observed
        a state SFS acts on.  A worker poll acts on BLOCKED (I/O
        demotion) and FINISHED; a watch-list poll acts on anything but
        BLOCKED; a queue pop acts on every state."""
        from repro.sim.task import TaskState

        tracer = self
        original = machine_cls.__dict__["poll_state"]
        worker_acts = (TaskState.BLOCKED, TaskState.FINISHED)

        def poll_state(machine, task):
            state = original(machine, task)
            if tracer._layers[-1] == "core":
                tracer.polls += 1
                event = tracer._events[-1]
                if event.endswith("._on_worker_poll"):
                    useful = state in worker_acts
                elif event.endswith("._on_watch_poll"):
                    useful = state is not TaskState.BLOCKED
                else:
                    useful = True
                tracer.useful_polls += useful
            return state

        functools.update_wrapper(poll_state, original)
        self._patch(machine_cls, "poll_state", poll_state)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_ns(self) -> Dict[str, int]:
        """Self time per layer: span duration minus child-span cover."""
        import numpy as np

        if not self.span_start:
            return {}
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
        own = dur - child_cover
        layer_idx = {layer: i for i, layer in enumerate(sorted(set(
            self._name_layer)))}
        span_layer = np.asarray([layer_idx[self._name_layer[n]]
                                 for n in range(len(self.names))])[name]
        per_layer = np.bincount(span_layer, weights=own,
                                minlength=len(layer_idx))
        return {layer: int(per_layer[i]) for layer, i in layer_idx.items()}

    def calls(self, by: str = "layer") -> Dict[str, int]:
        """Span entries per layer (``by="layer"``) or per defining module
        (``by="module"``, e.g. ``repro.sched.cfs``)."""
        import numpy as np

        keys = self._name_layer if by == "layer" else self._name_module
        per_name = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                               minlength=len(self.names))
        out: Dict[str, int] = {}
        for nid, n in enumerate(per_name):
            out[keys[nid]] = out.get(keys[nid], 0) + int(n)
        return out

    def write(self, path) -> None:
        """Spans as a compressed NumPy archive: ``names`` (the span name
        table, ``layer:qualname``) and per span ``name`` (index into
        ``names``), ``parent`` (span index, -1 at the top), ``start_ns``
        and ``end_ns`` (``time.perf_counter_ns``)."""
        import numpy as np

        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64))


def _wrappable(value) -> bool:
    """Plain functions written in the program's source: not generators,
    not already wrapped, and not synthesized (a dataclass ``__init__``
    only stores fields; its cost stays with the caller)."""
    return (isinstance(value, types.FunctionType)
            and not getattr(value, "__perfbench_wrapped__", None)
            and value.__code__.co_filename != "<string>"
            and not inspect.isgeneratorfunction(value))
