"""Shared-memory ring transport for same-host data channels.

``BENCH_transport.json`` put loopback TCP ~13x behind the in-memory
queue — a tax every same-host rank<->worker channel pays even though the
bytes never leave the machine.  This module closes that gap with a
single-producer single-consumer byte ring in one
:mod:`multiprocessing.shared_memory` segment per channel:

* the **producer** (:class:`ShmChannel`, the worker side) packs frames —
  the exact wire format of :mod:`repro.net.framing`, prefix + tag +
  header + payload — into the ring and publishes the tail cursor only
  after the frame is fully written, so every frame a consumer can see is
  complete even if the producer was SIGKILLed mid-write;
* the **consumer** (the rank's :class:`~repro.net.channel.DataListener`
  loop) decodes a frame in place and hands it to the rank's sink — the
  payload a **read-only view of the ring slot**, lent for the duration of
  that call (:mod:`repro.transport.message` has the rule; only a payload
  that wraps the ring's end is copied out) — and advances the head
  cursor only *after* the sink returned.  The two cursors are the
  channel's delivery ledger: ``tail`` (:meth:`ShmChannel.sent`) is what
  the worker handed over, ``head`` (:meth:`ShmChannel.acked`) is what
  the rank has **handled** (staged or folded).  A worker records
  ``sent()`` when a group's last frame is in and reports the group done
  once ``acked()`` has passed that mark (:meth:`ShmChannel.wait_acked`;
  :meth:`ShmChannel.flush` is the same wait on the current tail).

Who may sleep, and who rings.  Both sides may sleep, each in ``poll()``
on the channel's socket, and each rings the other at most once per
sleep, only when the other declared it is going to sleep.  The consumer
*looks* first: for at most :data:`LOOK_BEFORE_PARK_S` it re-reads its
rings' tails (yielding the core between reads), because a doorbell costs
the producer a ``sendmsg`` that wakes a halted core — 93-189 us measured
on the 2-vCPU box — and the next frame of a running study is usually
closer than that.  Only then does it raise ``consumer_waiting``,
re-check, and park; the producer rings it after the publish that finds
the flag up.  A producer whose frame does not fit, or whose
acknowledgement has not come, writes the head it needs (``wake_at``),
raises ``producer_waiting``, re-checks, and sleeps; the consumer rings
it after the advance that reaches that head.  The same ``poll()`` sees
the socket's EOF, which is how a producer learns that the rank died.
Nobody waits on a timer, and neither side owns a second thread.

The paper's dual high-water-mark suspension semantics (Sec. 4.1.3) carry
over unchanged: the sender's budget is ``send_hwm_bytes`` of in-flight
ring bytes (the analog of the TCP outbox + credit window), and the
receiver's buffer *is* the ring — a rank that falls behind stops
advancing ``head``, the ring fills, and ``try_send`` returns False: the
group suspends, Fig. 6a/b style.

The TCP control socket from channel negotiation stays open alongside the
ring: it detects peer death (EOF), carries the doorbells in both
directions, and is the fallback fabric when the segment cannot be
attached (cross-host).

Cursors are monotonically increasing u64s on separate cache lines,
written only by their owning side; 8-byte aligned loads/stores are
atomic on every platform CPython runs on.
"""

from __future__ import annotations

import math
import socket
import select
import struct
import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.net.framing import (
    _FIELD_HEADER,
    _GROUP_HEADER,
    _PREFIX,
    ConnectionLost,
    Doorbell,
    ProtocolError,
    TAG_FIELD,
    TAG_GROUP_FIELD,
    check_body_len,
    decode_control_body,
    encode_frame,
    field_payload_cells,
    frame_nbytes,
    group_payload_shape,
    send_frame,
)
from repro.transport.channel import ChannelClosed, ChannelStats
from repro.transport.message import FieldMessage, GroupFieldMessage

_OFF_TAIL = 0  # producer cursor (u64, producer-written)
_OFF_HEAD = 64  # consumer cursor (u64, consumer-written)
_OFF_CAPACITY = 128  # data-region size (u64, creator-written, then constant)
_OFF_PRODUCER_CLOSED = 136
_OFF_CONSUMER_CLOSED = 137
_OFF_CONSUMER_WAITING = 138  # consumer is about to sleep: ring the doorbell
_OFF_PRODUCER_WAITING = 139  # producer is about to sleep: ring it at wake_at
_OFF_WAKE_AT = 144  # the head the waiting producer needs (u64, producer-written)
_DATA_OFFSET = 192

DEFAULT_RING_BYTES = 1 << 20
MIN_RING_BYTES = 1 << 16
MAX_RING_BYTES = 1 << 30

#: how long a consumer looks at its rings before it declares itself
#: asleep: about what the doorbell it then needs costs the producer
LOOK_BEFORE_PARK_S = 250e-6


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


class ShmRing:
    """SPSC byte ring over one shared-memory segment (frame-agnostic).

    Positions are *logical* (monotonic); physical offsets are positions
    modulo capacity.  The producer publishes ``tail`` after writing, the
    consumer publishes ``head`` after consuming — no locks cross the
    process boundary.
    """

    def __init__(self, shm, owner: bool):
        self._shm = shm
        self._owner = owner
        self._mv = memoryview(shm.buf)
        self._tail = self._mv[_OFF_TAIL : _OFF_TAIL + 8].cast("Q")
        self._head = self._mv[_OFF_HEAD : _OFF_HEAD + 8].cast("Q")
        self._wake_at = self._mv[_OFF_WAKE_AT : _OFF_WAKE_AT + 8].cast("Q")
        (self.capacity,) = struct.unpack_from("<Q", self._mv, _OFF_CAPACITY)
        # one uint8 view over the data region (header probes, and the
        # copy-out of a payload that wraps)
        self._data = np.frombuffer(
            shm.buf, dtype=np.uint8, count=self.capacity, offset=_DATA_OFFSET
        )
        # flat byte view for the write path: memoryview slice assignment
        # is a straight C memcpy with no array-object churn per part
        self._dmv = self._mv[_DATA_OFFSET : _DATA_OFFSET + self.capacity]
        self._ro = self._dmv.toreadonly()  # what :meth:`lend` hands out
        self._closed = False

    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        shared_memory = _shared_memory()
        capacity = int(min(max(capacity, MIN_RING_BYTES), MAX_RING_BYTES))
        shm = shared_memory.SharedMemory(
            create=True, size=_DATA_OFFSET + capacity
        )
        struct.pack_into("<Q", shm.buf, _OFF_CAPACITY, capacity)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        shared_memory = _shared_memory()
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track flag
            shm = shared_memory.SharedMemory(name=name)
            try:
                from multiprocessing import resource_tracker

                # attaching must not register the segment a second time:
                # the creator's tracker owns cleanup, and a double
                # registration yields double-unlink warnings at exit
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # ------------------------------------------------------------------ #
    # cursors and flags
    # ------------------------------------------------------------------ #
    def tail(self) -> int:
        """Logical position after the last published frame."""
        return int(self._tail[0])

    def head(self) -> int:
        """Logical position the consumer has handled everything before."""
        return int(self._head[0])

    def used(self) -> int:
        return int(self._tail[0] - self._head[0])

    def free(self) -> int:
        return self.capacity - self.used()

    @property
    def producer_closed(self) -> bool:
        return bool(self._mv[_OFF_PRODUCER_CLOSED])

    @property
    def consumer_closed(self) -> bool:
        return bool(self._mv[_OFF_CONSUMER_CLOSED])

    def close_producer(self) -> None:
        self._mv[_OFF_PRODUCER_CLOSED] = 1

    def close_consumer(self) -> None:
        self._mv[_OFF_CONSUMER_CLOSED] = 1

    @property
    def consumer_waiting(self) -> bool:
        return bool(self._mv[_OFF_CONSUMER_WAITING])

    def set_consumer_waiting(self, value: bool) -> None:
        """Eventcount handshake closing the lost-doorbell race: the
        consumer raises this before sleeping (then re-checks ``used``),
        the producer rings and clears it whenever it publishes into a
        waiting ring.  An awake consumer is never rung: it re-scans the
        ring before it may sleep again."""
        self._mv[_OFF_CONSUMER_WAITING] = 1 if value else 0

    def set_producer_waiting(self, value: bool, wake_at: int = 0) -> None:
        """The same handshake the other way: the producer raises this
        before sleeping until the head reaches ``wake_at`` (then
        re-checks the head); :meth:`advance` clears it when it gets
        there and tells the consumer to ring."""
        if value:
            self._wake_at[0] = wake_at
        self._mv[_OFF_PRODUCER_WAITING] = 1 if value else 0

    # ------------------------------------------------------------------ #
    # producer side
    # ------------------------------------------------------------------ #
    def write(self, parts: List[Any]) -> int:
        """Copy ``parts`` in at the tail and publish; caller checked space."""
        cap = self.capacity
        dmv = self._dmv
        pos = int(self._tail[0])
        total = 0
        for part in parts:
            src = part if isinstance(part, memoryview) else memoryview(part)
            n = src.nbytes
            off = pos % cap
            end = off + n
            if end <= cap:
                dmv[off:end] = src
            else:
                first = cap - off
                dmv[off:] = src[:first]
                dmv[: n - first] = src[first:]
            pos += n
            total += n
        self._tail[0] = pos  # publish only after the full frame is in
        return total

    # ------------------------------------------------------------------ #
    # consumer side
    # ------------------------------------------------------------------ #
    def peek(self, offset: int, nbytes: int) -> bytes:
        """``nbytes`` starting ``offset`` bytes past the head (no consume)."""
        off = (int(self._head[0]) + offset) % self.capacity
        end = off + nbytes
        if end <= self.capacity:  # hot path: no wrap, one allocation
            return self._data[off:end].tobytes()
        first = self.capacity - off
        return (
            self._data[off:].tobytes() + self._data[: nbytes - first].tobytes()
        )

    def copy_out(self, offset: int, dst: np.ndarray) -> None:
        """Fill uint8 view ``dst`` from ``offset`` bytes past the head."""
        nbytes = len(dst)
        pos = int(self._head[0]) + offset
        off = pos % self.capacity
        first = min(nbytes, self.capacity - off)
        dst[:first] = self._data[off : off + first]
        if nbytes > first:
            dst[first:] = self._data[: nbytes - first]

    def lend(self, offset: int, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Read-only float64 view of the slot ``offset`` bytes past the
        head — valid until :meth:`advance` passes it — or None when the
        payload wraps the ring's end (the caller copies that one out)."""
        off = (int(self._head[0]) + offset) % self.capacity
        if off + 8 * math.prod(shape) > self.capacity:
            return None
        return np.ndarray(shape, dtype=np.float64, buffer=self._ro, offset=off)

    def advance(self, nbytes: int) -> bool:
        """Release ``nbytes`` at the head.  True when the new head is the
        one a sleeping producer waits for: the flag is then cleared and
        the caller rings the producer, once."""
        head = int(self._head[0]) + nbytes
        self._head[0] = head
        if self._mv[_OFF_PRODUCER_WAITING] and head >= self._wake_at[0]:
            self._mv[_OFF_PRODUCER_WAITING] = 0
            return True
        return False

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Unmap this side's view of the segment (does not unlink)."""
        if self._closed:
            return
        self._closed = True
        # every exported view must be released before the mmap can close
        self._data = None
        try:
            self._ro.release()
        except BufferError:
            pass  # a lent view outlived its call; the unmap below says so
        self._dmv.release()
        self._tail.release()
        self._head.release()
        self._wake_at.release()
        self._mv.release()
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Remove the segment name (mappings live on until unmapped).

        Safe to call from either side and more than once: whoever
        notices the channel ending first removes the name, so a SIGKILL
        of one end never leaks the segment past the surviving end.
        """
        # SharedMemory.unlink() unregisters from the resource tracker
        # exactly when the handle is tracked (py<3.13: always; py3.13+:
        # unless track=False).  Register first so that unregister always
        # finds an entry — whatever attach/create did to the (set-
        # semantics) tracker cache before us — and compensate when the
        # peer already removed the name and unlink never unregisters.
        tracked = getattr(self._shm, "_track", True)
        name = getattr(self._shm, "_name", None)
        resource_tracker = None
        if tracked and name is not None:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.register(name, "shared_memory")
            except Exception:
                resource_tracker = None
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            if resource_tracker is not None:
                try:
                    resource_tracker.unregister(name, "shared_memory")
                except Exception:
                    pass


def read_ring_frame(ring: ShmRing) -> Optional[Tuple[Any, int]]:
    """Decode the complete frame at the head without consuming anything.

    Returns ``(message, total_frame_bytes)`` or None when the ring holds
    no complete frame there.  A field payload is **lent**: a read-only
    view of the ring slot, overwritten once the head advances past it, so
    the consumer advances only after whoever it handed the message to
    returned, and a receiver that keeps the payload copies it
    (:func:`repro.transport.message.owned`).
    """
    used = ring.used()
    head_len = _PREFIX.size + 1
    if used < head_len:
        return None
    # single probe: prefix + tag + the fixed data header in one peek.  A
    # data frame is only visible once fully published, so whenever the
    # tag turns out to be F/G the probe is guaranteed to have covered
    # the whole 45-byte head.
    probe = head_len + _FIELD_HEADER.size
    head = ring.peek(0, probe if used >= probe else head_len)
    (body_len,) = _PREFIX.unpack_from(head)
    check_body_len(body_len)
    total = _PREFIX.size + body_len
    if used < total:
        # producers publish whole frames, so this only happens when the
        # producer died mid-write before publishing — never consume it
        return None
    tag = head[_PREFIX.size : head_len]
    if tag == TAG_FIELD:
        group, member, step, lo, hi = _FIELD_HEADER.unpack_from(head, head_len)
        shape = (field_payload_cells(body_len, lo, hi),)
        data = _payload(ring, head_len + _FIELD_HEADER.size, shape)
        return FieldMessage(group, member, step, lo, hi, data), total
    if tag == TAG_GROUP_FIELD:
        group, step, lo, hi, nmembers = _GROUP_HEADER.unpack_from(head, head_len)
        shape = group_payload_shape(body_len, lo, hi, nmembers)
        data = _payload(ring, head_len + _GROUP_HEADER.size, shape)
        return GroupFieldMessage(group, step, lo, hi, data), total
    body = ring.peek(head_len, body_len - 1)
    return decode_control_body(tag, body), total


def _payload(ring: ShmRing, offset: int, shape: Tuple[int, ...]) -> np.ndarray:
    data = ring.lend(offset, shape)
    if data is None:  # wraps the ring's end: the one payload copied out
        data = np.empty(shape, dtype=np.float64)
        ring.copy_out(offset, data.reshape(-1).view(np.uint8))
    return data


def ring_bytes_for(
    send_hwm_bytes: Optional[int], max_frame_hint: int = 0
) -> int:
    """Segment size request for one channel.

    Large enough that (a) the logical send budget fits physically and
    (b) any single frame the study can produce fits even when the
    budget is smaller than one frame (BoundedChannel's oversized-message
    rule admits such a frame into an empty channel — the ring must be
    able to hold it).
    """
    return max(
        DEFAULT_RING_BYTES,
        2 * (send_hwm_bytes or 0),
        2 * max_frame_hint,
    )


class ShmChannel:
    """Producer end of one same-host (worker, server-rank) data channel.

    Satisfies the :class:`~repro.transport.base.Channel` protocol with
    the same suspension-stats accounting as the TCP
    :class:`~repro.net.channel.SocketChannel`: ``send_blocks`` counts
    would-blocks, ``blocked_seconds`` accumulates the time spent in
    :meth:`wait_accept`, ``high_water_bytes`` tracks peak in-flight ring
    bytes.  Everything runs on the calling thread: a wait sleeps in
    ``poll()`` on the negotiation socket, which the rank rings when its
    head reaches what the wait needs, and whose EOF is the rank's death.
    """

    def __init__(
        self,
        sock: socket.socket,
        ring: ShmRing,
        send_hwm_bytes: Optional[int] = None,
        name: str = "",
    ):
        self.name = name or f"shm://{ring.name}"
        sock.setblocking(False)
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        self._ring = ring
        self._hwm = send_hwm_bytes
        # the most in-flight bytes a frame may join (see _fits)
        self._limit = ring.capacity if self._hwm is None else min(
            self._hwm, ring.capacity
        )
        self.stats = ChannelStats()
        self._error: Optional[BaseException] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def broken(self) -> bool:
        self._take_wakes()
        return self._error is not None

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise ChannelClosed(f"{self.name}: connection failed") from self._error
        if self._closed:
            raise ChannelClosed(f"{self.name}: channel closed")

    def _fits(self, nbytes: int) -> bool:
        used = self._ring.used()
        if used == 0:
            # BoundedChannel's oversized rule: an idle channel admits any
            # frame that physically fits, so it can ever be delivered
            return nbytes <= self._ring.capacity
        return used + nbytes <= self._limit

    def can_accept(self, nbytes: int) -> bool:
        # raising (not False) on a dead channel mirrors SocketChannel:
        # a silent "would block" would suspend the group forever instead
        # of surfacing the rank death to the reconnect path
        self._raise_pending()
        return self._fits(int(nbytes))

    def try_send(self, msg: Any) -> bool:
        self._raise_pending()
        nbytes = frame_nbytes(msg)
        if not self._fits(nbytes):
            self.stats.send_blocks += 1
            return False
        self._publish(msg, nbytes)
        return True

    def send(self, msg: Any, timeout: Optional[float] = None) -> None:
        self._raise_pending()
        nbytes = frame_nbytes(msg)
        if not self._fits(nbytes):
            self.stats.send_blocks += 1
            if not self.wait_accept(nbytes, timeout):
                raise TimeoutError(f"send on {self.name} timed out")
        self._publish(msg, nbytes)

    def _publish(self, msg: Any, nbytes: int) -> None:
        self._ring.write(encode_frame(msg))
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        used = self._ring.used()
        if used > self.stats.high_water_bytes:
            self.stats.high_water_bytes = used
        if self._ring.consumer_waiting:
            # the consumer declared it is going to sleep: ding its loop
            # (clearing the flag first keeps a burst of publishes to one
            # doorbell).  An awake consumer re-scans the ring before it
            # sleeps again, so it needs no syscall from us.
            self._ring.set_consumer_waiting(False)
            try:
                send_frame(self._sock, Doorbell())
            except (OSError, ConnectionError):
                pass  # peer death surfaces at the next look at the socket

    def wait_events(self) -> int:
        """Nothing to poll for: a frame is in the ring or was refused, so
        there is never a backlog to move (cf. ``SocketChannel``)."""
        return 0

    # ------------------------------------------------------------------ #
    # delivery cursors: tail = handed over, head = handled by the rank
    # ------------------------------------------------------------------ #
    def sent(self) -> int:
        """Cursor after the last frame handed to the channel."""
        return self._ring.tail()

    def acked(self) -> int:
        """Cursor the receiver has passed: the rank has handled (staged
        or folded) every frame before it."""
        return self._ring.head()

    def wait_acked(self, cursor: int, timeout: Optional[float] = None) -> bool:
        """Block until the receiver has passed ``cursor``; False on
        timeout, :class:`ChannelClosed` when the rank is gone."""
        return self._wait(cursor, timeout)

    def wait_accept(self, nbytes: int, timeout: Optional[float] = None) -> bool:
        """Block until a frame of ``nbytes`` fits the send window; the
        wait is this channel's suspended time (``blocked_seconds``)."""
        self._raise_pending()
        # the head that leaves room for the frame (an oversized frame
        # waits for an empty ring)
        room_at = self._ring.tail() - max(self._limit - nbytes, 0)
        start = time.monotonic()
        try:
            return self._wait(room_at, timeout)
        finally:
            self.stats.blocked_seconds += time.monotonic() - start

    def _wait(self, head: int, timeout: Optional[float]) -> bool:
        """Sleep until the consumer's head reaches ``head``.  The
        producer declares the sleep in the ring header, re-checks, and
        only then sleeps in ``poll()``: the advance that gets there rings
        it, an EOF on the socket means the rank is gone."""
        ring = self._ring
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while True:
                self._raise_pending()
                if ring.head() >= head:
                    return True
                if ring.consumer_closed:
                    raise ChannelClosed(f"{self.name}: receiver closed")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                ring.set_producer_waiting(True, head)
                # re-check: the advance may have come before the flag
                if ring.head() < head and self._poller.poll(
                    None if remaining is None else 1000.0 * remaining
                ):
                    self._take_wakes()
        finally:
            if not self._closed:
                ring.set_producer_waiting(False)

    def _take_wakes(self) -> None:
        """Read the rank's doorbells off the socket (they carry nothing
        but the wake-up).  EOF, or a reset, there means the rank died."""
        if self._error is not None or self._closed:
            return
        try:
            while True:
                if not self._sock.recv(4096):
                    raise ConnectionLost("peer closed")
        except BlockingIOError:
            return
        except OSError as exc:
            self._error = exc
            # the rank died holding the segment open: drop the name now
            # so nothing leaks even if the creator's resource tracker
            # never runs (SIGKILL); mappings are unaffected
            self._ring.unlink()

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until the consumer has handled every frame sent."""
        if not self.wait_acked(self.sent(), timeout):
            raise TimeoutError(
                f"{self.name}: {self._ring.used()} ring byte(s) not yet "
                f"drained by the receiver after {timeout}s"
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._ring.close_producer()
        except (OSError, ValueError):
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._ring.close()
