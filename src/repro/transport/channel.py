"""Byte-bounded buffered channels with ZeroMQ-like blocking semantics.

ZeroMQ buffers messages on the sender and the receiver and only blocks
the sending application when *both* high-water marks are hit (paper
Sec. 4.1.3: "Communications only become blocking when both buffers are
full").  :class:`BoundedChannel` models the pair of buffers as a single
capacity equal to their sum — equivalent for the back-pressure behaviour
the study depends on — and exposes:

* ``try_send``   — non-blocking; returns False when the channel is full
  (used by the deterministic sequential runtime and the perf model);
* ``send``       — blocking with timeout (the wait time is recorded as
  *suspension* time, Fig. 6b's mechanism);
* ``recv`` / ``try_recv`` — consumer side;
* high-water-mark and throughput statistics.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional, Tuple


class ChannelClosed(RuntimeError):
    """Raised when sending to or receiving from a closed, drained channel."""


@dataclass
class ChannelStats:
    """Cumulative channel accounting (feeds the perf-model calibration)."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    high_water_bytes: int = 0
    send_blocks: int = 0
    blocked_seconds: float = 0.0


def _default_size(obj: Any) -> int:
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is None:
        return 64  # control messages: small fixed cost
    return int(nbytes)


class BoundedChannel:
    """FIFO of messages bounded by total payload bytes.

    Parameters
    ----------
    capacity_bytes:
        Combined client+server buffer budget.  ``None`` means unbounded
        (useful for control channels that must never block).
    sizer:
        Maps a message to its accounted size; defaults to ``.nbytes``.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        sizer: Callable[[Any], int] = _default_size,
        name: str = "",
    ):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive or None")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._sizer = sizer
        self._queue: Deque[Tuple[Any, int]] = deque()
        self._bytes = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self.stats = ChannelStats()

    # ------------------------------------------------------------------ #
    @property
    def pending_messages(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def pending_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def _fits(self, size: int) -> bool:
        if self.capacity_bytes is None:
            return True
        # an oversized message is admitted into an empty channel so it can
        # ever be delivered; otherwise it would deadlock forever
        return self._bytes + size <= self.capacity_bytes or not self._queue

    def can_accept(self, nbytes: int) -> bool:
        """Non-mutating capacity probe (racy under concurrent senders)."""
        with self._lock:
            return not self._closed and self._fits(int(nbytes))

    def _enqueue(self, msg: Any, size: int) -> None:
        self._queue.append((msg, size))
        self._bytes += size
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        if self._bytes > self.stats.high_water_bytes:
            self.stats.high_water_bytes = self._bytes
        self._not_empty.notify()

    # ------------------------------------------------------------------ #
    def try_send(self, msg: Any) -> bool:
        """Enqueue if buffer space remains; False means "would block"."""
        size = self._sizer(msg)
        with self._lock:
            if self._closed:
                raise ChannelClosed(f"channel {self.name or id(self)} is closed")
            if not self._fits(size):
                self.stats.send_blocks += 1
                return False
            self._enqueue(msg, size)
            return True

    def send(self, msg: Any, timeout: Optional[float] = None) -> None:
        """Blocking send: waits for space (ZeroMQ full-buffers behaviour)."""
        size = self._sizer(msg)
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._not_full:
            if self._closed:
                raise ChannelClosed(f"channel {self.name or id(self)} is closed")
            if not self._fits(size):
                self.stats.send_blocks += 1
                start = _time.monotonic()
                while not self._fits(size):
                    if self._closed:
                        raise ChannelClosed("channel closed while blocked on send")
                    remaining = None if deadline is None else deadline - _time.monotonic()
                    if remaining is not None and remaining <= 0:
                        self.stats.blocked_seconds += _time.monotonic() - start
                        raise TimeoutError(
                            f"send on {self.name or id(self)} timed out"
                        )
                    self._not_full.wait(timeout=remaining)
                self.stats.blocked_seconds += _time.monotonic() - start
            self._enqueue(msg, size)

    # ------------------------------------------------------------------ #
    def try_recv(self) -> Optional[Any]:
        """Dequeue one message or None if empty (raises when closed+drained)."""
        with self._lock:
            if not self._queue:
                if self._closed:
                    raise ChannelClosed("channel closed and drained")
                return None
            return self._pop()

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Blocking receive."""
        deadline = None if timeout is None else _time.monotonic() + timeout
        with self._not_empty:
            while not self._queue:
                if self._closed:
                    raise ChannelClosed("channel closed and drained")
                remaining = None if deadline is None else deadline - _time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("recv timed out")
                self._not_empty.wait(timeout=remaining)
            return self._pop()

    def _pop(self) -> Any:
        msg, size = self._queue.popleft()
        self._bytes -= size
        self.stats.messages_received += 1
        self.stats.bytes_received += size
        self._not_full.notify()
        return msg

    def drain(self) -> list:
        """Dequeue everything currently buffered (server poll loop)."""
        out = []
        with self._lock:
            while self._queue:
                out.append(self._pop())
        return out

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Mark closed; blocked senders/receivers wake with ChannelClosed."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BoundedChannel(name={self.name!r}, pending={len(self._queue)}, "
            f"bytes={self._bytes}/{self.capacity_bytes})"
        )
