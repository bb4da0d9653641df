"""Shared socket-test hygiene: ephemeral ports, EADDRINUSE retries, RNG.

Every socket test should bind port 0 (the kernel picks a free ephemeral
port) — the helpers here exist for the residual flake classes:

* a *fixed* port a test genuinely needs (rare) can race another suite or
  a TIME_WAIT leftover: wrap the bind in :func:`retry_on_eaddrinuse`;
* stochastic studies must seed every RNG they touch:
  :func:`seeded_rng` derives a deterministic per-test stream so reruns
  and ``pytest -p no:randomly``-style orderings cannot change results;
* a worker-loss assertion needs the coordinator's own view of what the
  dead worker held: :func:`held_at_worker_loss` records it;
* a channel test that wants the frames in an inbox on another thread
  uses :class:`InboxListener` and its :class:`Inbox` (a server rank
  turns its listener itself).
"""

from __future__ import annotations

import errno
import socket
import threading
import time
import zlib
from collections import deque
from typing import Any, Callable, TypeVar

import numpy as np

from repro.net.channel import DataListener
from repro.transport.channel import ChannelClosed
from repro.transport.message import owned

T = TypeVar("T")


def retry_on_eaddrinuse(
    factory: Callable[[], T], attempts: int = 5, delay: float = 0.2
) -> T:
    """Call ``factory`` (which binds a socket), retrying EADDRINUSE.

    Any other error propagates immediately; the last failure is raised
    once the attempts are exhausted.
    """
    for attempt in range(attempts):
        try:
            return factory()
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt == attempts - 1:
                raise
            time.sleep(delay * (attempt + 1))
    raise AssertionError("unreachable")


def seeded_rng(token: str) -> np.random.Generator:
    """Deterministic per-test generator: same token, same stream."""
    return np.random.default_rng(zlib.crc32(token.encode("utf-8")))


def held_at_worker_loss(monkeypatch) -> list:
    """Record, per lost worker, the groups the coordinator had assigned
    to it at the moment it noticed the loss (workers holding nothing are
    not recorded)."""
    from repro.net.coordinator import Coordinator

    lost: list = []
    resubmit = Coordinator._resubmit_if_assigned

    def recording(self, wid):
        held = list(self._held.get(wid, ()))
        if held:
            lost.append(held)
        resubmit(self, wid)

    monkeypatch.setattr(Coordinator, "_resubmit_if_assigned", recording)
    return lost


class Inbox:
    """A blocking FIFO bounded by payload bytes: the inbox an
    :class:`InboxListener` fills on its thread and a test reads on its
    own.  An oversized message enters an empty inbox (the fabric's
    rule); ``put`` waits for room, ``recv`` for a message."""

    def __init__(self, capacity_bytes=None, name=""):
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._queue = deque()
        self._bytes = 0
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)

    @staticmethod
    def _size(msg: Any) -> int:
        return int(getattr(msg, "nbytes", 64))

    def _fits(self, size: int) -> bool:
        return (
            self.capacity_bytes is None or not self._queue
            or self._bytes + size <= self.capacity_bytes
        )

    def can_accept(self, nbytes: int) -> bool:
        with self._lock:
            return self._fits(nbytes)

    def put(self, msg: Any, timeout: float) -> bool:
        """Enqueue once there is room; False if ``timeout`` passed first."""
        size = self._size(msg)
        with self._changed:
            if not self._changed.wait_for(lambda: self._fits(size), timeout):
                return False
            self._enqueue(msg, size)
            self._changed.notify_all()
            return True

    def _enqueue(self, msg: Any, size: int) -> None:  # lock held
        self._queue.append((msg, size))
        self._bytes += size

    def _pop(self) -> Any:  # lock held
        msg, size = self._queue.popleft()
        self._bytes -= size
        self._changed.notify_all()
        return msg

    def try_recv(self) -> Any:
        """The oldest message, or None when the inbox is empty."""
        with self._changed:
            return self._pop() if self._queue else None

    def recv(self, timeout: float) -> Any:
        """The oldest message; TimeoutError if none came in ``timeout``."""
        with self._changed:
            if not self._changed.wait_for(lambda: self._queue, timeout):
                raise TimeoutError(f"inbox {self.name!r}: nothing in {timeout}s")
            return self._pop()


class InboxListener(DataListener):
    """A :class:`DataListener` whose :meth:`~DataListener.turn` runs on a
    thread of its own with a blocking :class:`Inbox` behind the sink.

    The inbox keeps what it is given, so a borrowed payload is copied
    first; a full inbox blocks the loop (in short slices, so
    :meth:`close` gets through), which is what backs the fabric up into
    its sender.  Before it blocks it grants what it owes, like a rank
    that is about to wait."""

    def __init__(self, inbox: Inbox, **kwargs):
        super().__init__(**kwargs)
        self.inbox = inbox
        self.sink = self._into_inbox
        self._stop = False
        self._waker = socket.socketpair()
        self.watch(self._waker[0], lambda: self._waker[0].recv(64))
        self._thread = threading.Thread(
            target=self._run, name=f"data-loop-{self.address[1]}", daemon=True
        )
        self._thread.start()

    def _into_inbox(self, msg: Any) -> None:
        msg = owned(msg)
        if not self.inbox.can_accept(getattr(msg, "nbytes", 0)):
            self._settle()
        while not self.inbox.put(msg, timeout=0.1):
            if self._stop:
                raise ChannelClosed("listener closed")

    def _run(self) -> None:
        try:
            while not self._stop:
                self.turn()
        except ChannelClosed:
            pass  # the listener was closed under the sink
        finally:
            DataListener.close(self)
            for sock in self._waker:
                sock.close()

    def close(self) -> None:
        if self._stop:
            return
        self._stop = True
        try:
            self._waker[1].send(b"x")
        except OSError:
            pass
        self._thread.join(timeout=5.0)
