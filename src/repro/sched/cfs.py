"""Completely Fair Scheduler (CFS) runqueue model.

This reproduces the pieces of ``kernel/sched/fair.c`` that matter for
the paper's argument:

* a per-core runqueue ordered by ``vruntime`` in a red-black tree, with
  the kernel's cached-leftmost optimisation;
* ``min_vruntime`` tracking so that sleepers and new tasks cannot hoard
  an arbitrarily small vruntime;
* the targeted-latency slice rule
  ``slice = max(sched_latency / nr_running, min_granularity)``;
* sleeper placement (``vruntime = max(v, min_vruntime - latency/2)``)
  and wakeup preemption gated by ``wakeup_granularity``.

All tasks in the paper's workloads run at nice 0, but the weight math
is kept so priority experiments remain possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.sched.rbtree import RBTree
from repro.sim.task import Task
from repro.sim.units import MS

#: CFS weight of a nice-0 task (kernel's ``NICE_0_LOAD`` >> SCHED_LOAD_SHIFT).
NICE_0_WEIGHT = 1024


@dataclass(frozen=True)
class CfsParams:
    """Tunables mirroring ``/proc/sys/kernel/sched_*`` (microseconds).

    Defaults follow the classic server values (pre-EEVDF kernels, which
    is what the paper's 2022 testbed ran).
    """

    sched_latency: int = 24 * MS
    min_granularity: int = 3 * MS
    wakeup_granularity: int = 4 * MS

    def __post_init__(self) -> None:
        if self.min_granularity <= 0 or self.sched_latency <= 0:
            raise ValueError("latency parameters must be positive")
        if self.min_granularity > self.sched_latency:
            raise ValueError("min_granularity cannot exceed sched_latency")

    def timeslice(self, nr_running: int, weight: int = NICE_0_WEIGHT,
                  total_weight: Optional[int] = None) -> int:
        """The slice a task gets when ``nr_running`` tasks compete.

        With equal weights this is ``max(latency / n, min_granularity)``,
        the rule the paper's §II-B describes ("CFS squeezes the time
        slice for each competing job").
        """
        if nr_running <= 0:
            raise ValueError("nr_running must be >= 1")
        if total_weight is None:
            total_weight = nr_running * NICE_0_WEIGHT
        share = self.sched_latency * weight // max(total_weight, 1)
        return max(share, self.min_granularity)


class CfsRunqueue:
    """One core's fair-class runqueue."""

    def __init__(self, params: CfsParams):
        self.params = params
        self._tree = RBTree()
        self._nodes: dict[int, object] = {}  # tid -> rbtree node
        self.min_vruntime: int = 0
        self._seq = itertools.count()
        self.total_weight: int = 0
        # observability: lifetime enqueue count and peak depth
        self.total_enqueued: int = 0
        self.peak_depth: int = 0
        #: optional repro.obs.hooks.RunqueueObs; the machine attaches it
        #: when a MetricsRegistry is installed (None = zero overhead)
        self.obs = None
        #: optional repro.why.audit.RunqueueAudit; attached the same way
        #: when an AuditLog is installed (None = zero overhead)
        self.audit = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._nodes

    @property
    def nr_queued(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    def enqueue(self, task: Task, wakeup: bool = False) -> None:
        """Insert a runnable task, applying vruntime placement.

        ``wakeup=True`` applies the sleeper credit (half a latency
        period), matching ``place_entity``'s treatment of tasks waking
        from I/O; otherwise the task is clamped to ``min_vruntime`` so a
        fresh or demoted task cannot starve the queue.
        """
        if task.tid in self._nodes:
            raise RuntimeError(f"task {task.tid} already enqueued")
        floor = self.min_vruntime
        if wakeup:
            floor -= self.params.sched_latency // 2
        if task.vruntime < floor:
            task.vruntime = floor
        node = self._tree.insert((task.vruntime, next(self._seq)), task)
        self._nodes[task.tid] = node
        self.total_weight += task.weight
        self.total_enqueued += 1
        depth = len(self._nodes)
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self.obs is not None:
            self.obs.on_enqueue(depth)

    def dequeue(self, task: Task) -> None:
        """Remove a specific task (e.g. promoted to the RT class)."""
        node = self._nodes.pop(task.tid, None)
        if node is None:
            raise RuntimeError(f"task {task.tid} not on this runqueue")
        self._tree.delete(node)
        self.total_weight -= task.weight
        self._refresh_min_vruntime()

    def pick_next(self) -> Optional[Task]:
        """Pop the leftmost (smallest vruntime) task; None if empty."""
        item = self._tree.pop_min()
        if item is None:
            return None
        task = item[1]
        del self._nodes[task.tid]
        self.total_weight -= task.weight
        self._refresh_min_vruntime(curr_vruntime=task.vruntime)
        if self.obs is not None:
            self.obs.on_pick()
        if self.audit is not None:
            self.audit.on_pick(task.tid)
        return task

    def peek_next(self) -> Optional[Task]:
        item = self._tree.min_item()
        return None if item is None else item[1]

    # ------------------------------------------------------------------
    def update_curr(self, curr_vruntime: int) -> None:
        """Advance ``min_vruntime`` as the running task accrues vruntime."""
        self._refresh_min_vruntime(curr_vruntime=curr_vruntime)

    def _refresh_min_vruntime(self, curr_vruntime: Optional[int] = None) -> None:
        candidates = []
        if curr_vruntime is not None:
            candidates.append(curr_vruntime)
        left = self._tree.min_item()
        if left is not None:
            candidates.append(left[1].vruntime)
        if candidates:
            # monotonically non-decreasing, like the kernel
            self.min_vruntime = max(self.min_vruntime, min(candidates))

    # ------------------------------------------------------------------
    def timeslice_for(self, task: Task, nr_extra_running: int = 1) -> int:
        """Slice for ``task`` given the queue plus ``nr_extra_running``
        tasks currently on CPU (normally 1: the task itself)."""
        nr = len(self._tree) + nr_extra_running
        total_w = self.total_weight + nr_extra_running * NICE_0_WEIGHT
        return self.params.timeslice(nr, task.weight, total_w)

    def should_preempt(self, woken: Task, curr: Task) -> bool:
        """Wakeup preemption: does ``woken`` preempt ``curr`` now?

        Mirrors ``wakeup_preempt_entity``: preempt only when the woken
        task's vruntime deficit exceeds ``wakeup_granularity``.
        """
        return curr.vruntime - woken.vruntime > self.params.wakeup_granularity

    def tasks(self) -> list[Task]:
        """Snapshot of queued tasks in vruntime order (for inspection)."""
        return list(self._tree.values())

    # ------------------------------------------------------------------
    def validate(self, deep: bool = False) -> None:
        """Structural soundness for :mod:`repro.invariants`.

        Cheap O(1) bookkeeping checks always run; ``deep=True`` adds the
        full red-black audit plus a per-node key/task cross-check.
        Raises ``AssertionError`` on corruption (wrapped into
        ``InvariantViolation`` by the checker).
        """
        assert len(self._tree) == len(self._nodes), (
            f"tree holds {len(self._tree)} entries but node index has "
            f"{len(self._nodes)}"
        )
        assert self.total_weight >= 0, f"negative total_weight {self.total_weight}"
        left = self._tree.min_item()
        if left is not None:
            key, task = left[0], left[1]
            assert key[0] == task.vruntime, (
                f"leftmost key {key[0]} != task {task.tid} vruntime "
                f"{task.vruntime}"
            )
        if not deep:
            return
        self._tree.check_invariants()
        weight = 0
        for tid, node in self._nodes.items():
            task = node.value
            assert task.tid == tid, f"node index maps {tid} to task {task.tid}"
            assert node.key[0] == task.vruntime, (
                f"task {tid} keyed at vruntime {node.key[0]} but holds "
                f"{task.vruntime}"
            )
            weight += task.weight
        assert weight == self.total_weight, (
            f"total_weight {self.total_weight} != sum of member weights {weight}"
        )
