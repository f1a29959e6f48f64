"""SFS worker state.

One worker per CPU core (goroutines in the paper's Go implementation).
A worker is either idle or shepherding exactly one FILTER-mode function:
it owns that function's slice timer and status-poll timer (a ticker
standing in for the polls until the function blocks) and releases them
when the function finishes, blocks, or is demoted.
"""

from __future__ import annotations

from typing import Optional

from repro.core.global_queue import QueueEntry
from repro.sim.engine import EventHandle, Ticker


class SFSWorker:
    """State for one FILTER-pool worker."""

    __slots__ = (
        "index",
        "entry",
        "slice_handle",
        "poll_handle",
        "poll_ticker",
        "cpu_at_assign",
        "slice_at_assign",
        "assigned_at",
    )

    def __init__(self, index: int):
        self.index = index
        self.entry: Optional[QueueEntry] = None
        self.slice_handle: Optional[EventHandle] = None
        self.poll_handle: Optional[EventHandle] = None
        self.poll_ticker: Optional[Ticker] = None
        self.cpu_at_assign: int = 0
        self.slice_at_assign: int = 0
        self.assigned_at: int = 0

    @property
    def idle(self) -> bool:
        return self.entry is None

    def clear(self) -> None:
        """Cancel timers and return to idle."""
        if self.slice_handle is not None:
            self.slice_handle.cancel()
            self.slice_handle = None
        if self.poll_handle is not None:
            self.poll_handle.cancel()
            self.poll_handle = None
        if self.poll_ticker is not None:
            self.poll_ticker.cancel()
            self.poll_ticker = None
        self.entry = None
