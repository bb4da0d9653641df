"""Transport-agnostic protocols shared by every channel/router flavour.

Two transports implement the paper's connection pattern today:

* :class:`repro.transport.router.Router` — in-memory bounded channels
  (sequential runtime);
* :class:`repro.net.worker.SocketRouter` — length-prefixed TCP frames or
  shared-memory rings (distributed runtime, many hosts).

:class:`GroupExecutor` only ever talks to the :class:`TransportClient`
surface below, so the group logic cannot grow a dependency on any one
fabric; the protocols are ``runtime_checkable`` and the transport tests
assert conformance for both.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Channel(Protocol):
    """The send surface of one bounded FIFO with ZeroMQ-like dual-buffer
    back-pressure — what routers and group executors program against.

    ``try_send`` must return False (not raise, not wait) when the channel
    is full: the group keeps the message and suspends until the receiver
    has made room.  Implementations must account traffic in a
    :class:`~repro.transport.channel.ChannelStats` exposed as ``stats``
    — the Fig. 6a/b suspension analysis is built on those counters.
    :class:`~repro.transport.channel.BoundedChannel` is drained by its
    receiver in the same process; for
    :class:`~repro.net.channel.SocketChannel` the receive side is the
    remote rank's ``handle``.
    """

    def try_send(self, msg: Any) -> bool: ...

    def can_accept(self, nbytes: int) -> bool: ...

    def close(self) -> None: ...


@runtime_checkable
class TransportClient(Protocol):
    """What a :class:`~repro.core.group.GroupExecutor` needs from "the
    network": the server partition its messages are split along, slabs
    to write payloads into, and back-pressured delivery along it.  Where
    each rank listens is the transport's business, not the group's.
    """

    @property
    def server_partition(self):  # -> BlockPartition
        ...

    def payload(self, nmembers: int, lo: int, hi: int):  # -> np.ndarray
        """An uninitialised C-contiguous float64 ``(nmembers, hi - lo)`` slab."""
        ...

    def deliver(self, msg: Any) -> bool:
        """Deliver one message (splitting along the server partition);
        False means "would block" and the caller must retry the whole
        message later — implementations must make split delivery
        all-or-nothing (or rely on replay protection)."""
        ...
