"""Byte-bounded buffered channels with ZeroMQ-like back-pressure.

ZeroMQ buffers messages on the sender and the receiver and only suspends
the sending application when *both* high-water marks are hit (paper
Sec. 4.1.3: "Communications only become blocking when both buffers are
full").  :class:`BoundedChannel` models the pair of buffers as a single
capacity equal to their sum — equivalent for the back-pressure behaviour
the study depends on — and exposes:

* ``try_send`` — returns False when the channel is full: the group's
  message stays in its outbox and the group suspends (Fig. 6b's
  mechanism) until the receiver has drained;
* ``drain``    — the receiver takes everything buffered, in order;
* high-water-mark and throughput statistics, summed over a router's
  channels by :func:`total_stats`.

One thread owns a channel: the sequential runtime steps its groups and
then drains its ranks, so nothing here waits or locks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Tuple


class ChannelClosed(RuntimeError):
    """Raised when sending to a closed channel (or one whose peer died)."""


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


def total_stats(channels: Iterable[Any]) -> Dict[str, float]:
    """Every :class:`ChannelStats` field summed over ``channels`` — except
    ``high_water_bytes``, the largest of theirs."""
    agg = {f.name: f.default for f in fields(ChannelStats)}
    for channel in channels:
        for name in agg:
            value = getattr(channel.stats, name)
            agg[name] = (
                max(agg[name], value) if name == "high_water_bytes"
                else agg[name] + value
            )
    return agg


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
        self.stats = ChannelStats()

    # ------------------------------------------------------------------ #
    @property
    def pending_messages(self) -> int:
        return len(self._queue)

    @property
    def pending_bytes(self) -> int:
        return self._bytes

    def _fits(self, size: int) -> bool:
        if self.capacity_bytes is None:
            return True
        # an oversized message is admitted into an empty channel so it can
        # ever be delivered; otherwise it would deadlock forever
        return self._bytes + size <= self.capacity_bytes or not self._queue

    def can_accept(self, nbytes: int) -> bool:
        """Non-mutating capacity probe."""
        return not self._closed and self._fits(int(nbytes))

    # ------------------------------------------------------------------ #
    def try_send(self, msg: Any) -> bool:
        """Enqueue if buffer space remains; False means "would block"."""
        if self._closed:
            raise ChannelClosed(f"channel {self.name or id(self)} is closed")
        size = self._sizer(msg)
        if not self._fits(size):
            self.stats.send_blocks += 1
            return False
        self._queue.append((msg, size))
        self._bytes += size
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size
        if self._bytes > self.stats.high_water_bytes:
            self.stats.high_water_bytes = self._bytes
        return True

    def drain(self) -> list:
        """Dequeue everything currently buffered (server poll loop)."""
        out = [msg for msg, _ in self._queue]
        self.stats.messages_received += len(out)
        self.stats.bytes_received += self._bytes
        self._queue.clear()
        self._bytes = 0
        return out

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Refuse further sends; what is buffered can still be drained."""
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"BoundedChannel(name={self.name!r}, pending={len(self._queue)}, "
            f"bytes={self._bytes}/{self.capacity_bytes})"
        )
