"""Data channels with the paper's dual high-water-mark semantics.

ZeroMQ buffers on both sides of a connection and only blocks the sending
application when *both* buffers are full (Sec. 4.1.3).  Over a real
socket we reproduce that with credit-based flow control:

* the **sender** (:class:`SocketChannel`) owns a byte-bounded backlog
  with the :class:`~repro.transport.channel.ChannelStats` suspension
  accounting of every other channel (``send_blocks``,
  ``blocked_seconds``, high-water marks);
* the **receiver** (:class:`DataListener`) grants an initial credit
  window equal to its receive high-water mark — the paper's server-side
  buffer *is* that window (on shm: the ring) — and grants the bytes of
  every frame the rank has **handled**: one grant per batch of frames it
  read in one go, never for a frame its sink has not returned from;
* a frame only goes on the wire while the *unacked* byte count fits the
  window.  When the rank falls behind, the window exhausts, the backlog
  fills, and ``try_send`` starts returning False — the group suspends,
  exactly the Fig. 6a/b mechanism, now spanning hosts.

The sender writes from the sending thread: a channel that keeps up
costs its worker no second thread and no wake-up.  I/O threads on this
path share the worker's interpreter lock with the simulation — one
cross-thread wake-up per frame and per grant — and how the kernel places
them on the cores then decides the run (measured on the 2-vCPU box with
a writer and a credit-reader thread per channel: 445 groups/s with the
worker pinned to the rank's core, 550 unpinned, 850 with the worker's
threads pinned together on a core of their own).  Only what the window
or the kernel buffer will not take yet is left to a background pusher
thread (started on first need, parked while the backlog is empty), so an
accepted frame still reaches the rank without another call into the
channel.

Both channel kinds keep a monotone *sent* / *acknowledged* cursor pair
(``sent()``, ``acked()``, ``wait_acked(cursor)``): here bytes accepted
into the channel and bytes credited back, on the ring its tail and head.
A frame behind the acknowledged cursor has been handled by the receiving
rank — ``ServerRank.handle`` returned from it: staged or folded — the
guarantee a worker's asynchronous ``done`` report is built on (it
records ``sent()`` at a group's last frame and reports the group once
``acked()`` has passed the mark, while already running the next one).
``wait_accept(nbytes)`` is what a suspended group waits on: the
receiver's progress, not a timer.

Same-host channels can skip the wire entirely: :func:`open_data_channel`
negotiates the fabric per channel at connect time.  The receiver offers
a shared-memory ring (:mod:`repro.net.shm`); if the client can attach
the segment — the attach *is* the same-host test, no hostname heuristics
— data flows through the ring and the socket stays on as liveness probe
and doorbell.  Otherwise (cross-host, or ``transport="tcp"`` on either
side) the channel falls back to the TCP framing above.  Either way a
:class:`SocketChannel`/:class:`~repro.net.shm.ShmChannel` satisfies the
:class:`~repro.transport.base.Channel` send surface; the receive side is
the owning rank's ``handle`` (ZeroMQ PULL fan-in: every connected client
pushes into the one rank that owns the cells).

The listener is a loop *body*, :meth:`DataListener.turn`, that the rank
process drives from its one thread: a ``select`` over every socket the
rank has, then the rings, each frame handed straight to the rank.  A
listener thread in front of an inbox made the rank two threads on one
interpreter lock with a condition-variable hand-over and a second copy
per frame (measured per 1200 groups on the 2-vCPU box: 1.96 CPU-s for
0.51 s of ``handle``).  Who may sleep: the rank, in that ``select``,
until a socket or a doorbell wakes it or its next heartbeat is due —
after a bounded look at its rings (:mod:`repro.net.shm`).
"""

from __future__ import annotations

import functools
import os
import select
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.net.framing import (
    ConnectionLost,
    Credit,
    Doorbell,
    FrameReader,
    ProtocolError,
    encode_frame,
    frame_nbytes,
    recv_frame,
    send_frame,
    take_credits,
    write_parts,
)
from repro.net.shm import (
    LOOK_BEFORE_PARK_S,
    ShmChannel,
    ShmRing,
    read_ring_frame,
    ring_bytes_for,
)
from repro.transport.channel import BoundedChannel, ChannelClosed, ChannelStats
from repro.transport.message import owned


class TransportNegotiationError(RuntimeError):
    """``transport="shm"`` was forced but the peer cannot provide it."""


class SocketChannel:
    """Client end of one (worker, server-rank) data connection.

    The sending thread writes a frame to the (non-blocking) socket inside
    ``try_send``/``send`` itself, and reads the rank's credit grants when
    it needs them — a full window, ``acked()``, a blocking wait (which
    sleeps in ``poll()`` on the socket, so the grant itself wakes it).
    Only a frame that the window or the kernel buffer will not take yet
    is left to the background *pusher* thread, which sleeps on the socket
    until it can move the backlog and parks again when it is empty: a
    channel that keeps up never wakes a second thread.

    Built only by :func:`open_data_channel`, which dials the rank, reads
    the initial credit frame and hands over the connected ``sock`` with
    the receiver's ``initial_window`` (``None`` = unbounded).
    ``send_hwm_bytes`` is the sender-side buffer budget (``None`` =
    unbounded) — the client half of the dual high-water mark.
    """

    #: frames written between two looks at the socket's read side when
    #: the window never forces one (an unbounded receiver): keeps the
    #: rank's grants from piling up in the kernel buffer
    _READ_EVERY = 32

    def __init__(
        self,
        sock: socket.socket,
        initial_window: Optional[int],
        send_hwm_bytes: Optional[int] = None,
        name: str = "",
    ):
        self.name = name or "tcp://<negotiated>"
        sock.setblocking(False)
        self._sock = sock
        self._hwm = send_hwm_bytes
        self.stats = ChannelStats()
        self._lock = threading.Lock()  # guards the state below; never held asleep
        # frames accepted but not started on the wire, oldest first: the
        # sender half of the dual high-water mark
        self._backlog: Deque[Tuple[Any, int]] = deque()
        self._backlog_bytes = 0
        # the frame at the head of the line: its unsent buffers, its size,
        # and whether the window admitted it (counted into _unacked)
        self._parts: List[Any] = []
        self._parts_bytes = 0
        self._admitted = False
        self._wire_full = False  # the kernel buffer, not the window, stopped us
        self._window_limit: Optional[int] = initial_window  # peer's window
        self._unacked = 0  # bytes admitted to the wire, not yet credited back
        # delivery cursors, in bytes: accepted into the channel, and
        # credited back by the receiver (each frame then handled)
        self._accepted = 0
        self._credited = 0
        self._credit_buf = bytearray()
        self._unread = 0  # frames written since the last look for credits
        self._error: Optional[BaseException] = None
        self._closed = False
        # set while frames are left behind for the pusher (started on
        # first need)
        self._stuck = threading.Event()
        self._pusher: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Channel send surface
    # ------------------------------------------------------------------ #
    @property
    def broken(self) -> bool:
        """The peer vanished (reset, closed listener, killed rank)."""
        self._look()
        return self._error is not None

    def _fits(self, nbytes: int) -> bool:
        # BoundedChannel's rule: an oversized frame is admitted into an
        # empty backlog so it can ever be delivered
        return (
            self._hwm is None
            or not self._backlog
            or self._backlog_bytes + nbytes <= self._hwm
        )

    def can_accept(self, nbytes: int) -> bool:
        # a dead channel must raise, not report "would block": the
        # multi-chunk delivery probe calls this first, and a False here
        # would suspend the group forever instead of surfacing the rank
        # death to the reconnect path
        with self._lock:
            self._drive()
            return self._fits(int(nbytes))

    def try_send(self, msg: Any) -> bool:
        nbytes = frame_nbytes(msg)
        with self._lock:
            if self._backlog:
                self._drive()
            else:
                self._raise_pending()
            if not self._fits(nbytes):
                self.stats.send_blocks += 1
                return False
            self._enqueue(msg, nbytes)
        return True

    def send(self, msg: Any, timeout: Optional[float] = None) -> None:
        nbytes = frame_nbytes(msg)
        with self._lock:
            self._drive()
            if self._fits(nbytes):
                self._enqueue(msg, nbytes)
                return
            self.stats.send_blocks += 1
        # suspended: wait for the receiver's progress without the lock
        start = time.monotonic()
        deadline = None if timeout is None else start + timeout
        try:
            while True:
                remaining = None if deadline is None else deadline - time.monotonic()
                if not self.wait_accept(nbytes, remaining):
                    raise TimeoutError(f"send on {self.name} timed out")
                with self._lock:
                    if self._fits(nbytes):  # re-check: another sender may have won
                        self._enqueue(msg, nbytes)
                        return
        finally:
            self.stats.blocked_seconds += time.monotonic() - start

    def _enqueue(self, msg: Any, nbytes: int) -> None:
        self._backlog.append((msg, nbytes))
        self._backlog_bytes += nbytes
        self._accepted += nbytes
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        if self._backlog_bytes > self.stats.high_water_bytes:
            self.stats.high_water_bytes = self._backlog_bytes
        self._drive()

    # ------------------------------------------------------------------ #
    # delivery cursors: what the asynchronous ``done`` report is built on
    # ------------------------------------------------------------------ #
    def sent(self) -> int:
        """Cursor after the last frame handed to the channel."""
        return self._accepted

    def acked(self) -> int:
        """Cursor the receiver has passed: the rank has handled (staged
        or folded) every frame before it."""
        self._look()
        return self._credited

    def wait_acked(self, cursor: int, timeout: Optional[float] = None) -> bool:
        """Block until the receiver has passed ``cursor`` (woken by the
        grant that does it); False on timeout, :class:`ChannelClosed`
        when the rank is gone."""
        return self._wait(lambda: self._credited >= cursor, timeout)

    def wait_accept(self, nbytes: int, timeout: Optional[float] = None) -> bool:
        """Block until a frame of ``nbytes`` fits the backlog (woken by
        the grant that lets the head of the line out); False on timeout."""
        return self._wait(lambda: self._fits(nbytes), timeout)

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every sent frame has been credited by the peer:
        the receiving rank has then handled each message."""
        if not self.wait_acked(self._accepted, timeout):
            raise TimeoutError(
                f"{self.name}: {self._accepted - self._credited} byte(s) "
                f"not yet credited by the receiver after {timeout}s"
            )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stuck.set()  # lets a parked pusher see the close
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes every poll() on it
        except OSError:
            pass
        self._sock.close()

    # ------------------------------------------------------------------ #
    def _raise_pending(self) -> None:
        if self._error is not None:
            raise ChannelClosed(f"{self.name}: connection failed") from self._error
        if self._closed:
            raise ChannelClosed(f"{self.name}: channel closed")

    def _look(self) -> None:
        """Read what the rank has granted and move the backlog, quietly:
        a dead peer is recorded, not raised."""
        with self._lock:
            try:
                self._drive(read=True)
            except ChannelClosed:
                pass

    def _sleep(self, wire_full: bool, timeout: Optional[float]) -> None:
        """Sleep until the socket has news: readable means grants,
        writable (asked for only when the kernel buffer stopped a frame)
        means the wire has room again."""
        events = select.POLLIN | (select.POLLOUT if wire_full else 0)
        poller = select.poll()
        try:
            poller.register(self._sock, events)
        except (OSError, ValueError):
            return  # closed under us: the caller's next _drive raises
        poller.poll(None if timeout is None else 1000.0 * timeout)

    def _wait(self, ready: Callable[[], bool], timeout: Optional[float]) -> bool:
        """Drive the channel from the calling thread until ``ready()``,
        sleeping on the socket in between."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                self._drive(read=True)
                if ready():
                    return True
                wire_full = self._wire_full
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            self._sleep(wire_full, remaining)

    def _push(self) -> None:
        """The pusher: moves what a sender had to leave behind, so an
        accepted frame reaches the rank without another call into the
        channel (a long simulation step must not hold back the tail of
        the previous one)."""
        while True:
            self._stuck.wait()
            with self._lock:
                try:
                    self._drive(read=True)
                except ChannelClosed:
                    return
                if not self._stuck.is_set():
                    continue
                wire_full = self._wire_full
            self._sleep(wire_full, None)

    def _drive(self, read: bool = False) -> None:
        """Move the channel as far as it goes without blocking (lock
        held): admit the head of the line into the window, write it,
        take the next frame off the backlog.  Grants are read when asked
        for, when the window is what stops the head frame, and every
        ``_READ_EVERY`` frames.  What cannot move yet is the pusher's."""
        self._raise_pending()
        try:
            if read or self._unread >= self._READ_EVERY:
                self._read_credits()
                read = True
            self._wire_full = False
            while self._parts or self._backlog:
                if not self._parts:
                    msg, nbytes = self._backlog.popleft()
                    self._backlog_bytes -= nbytes
                    self._parts = encode_frame(msg)
                    self._parts_bytes = nbytes
                    self._admitted = False
                if not self._admitted:
                    if not self._window_admits() and not read:
                        self._read_credits()
                        read = True
                    if not self._window_admits():
                        break
                    self._unacked += self._parts_bytes
                    self._admitted = True
                if not write_parts(self._sock, self._parts):
                    self._wire_full = True
                    break
                self._unread += 1
        except (ConnectionLost, OSError, ValueError) as exc:
            if self._error is None:
                self._error = exc
            self._raise_pending()
        if not (self._parts or self._backlog):
            self._stuck.clear()
        elif not self._stuck.is_set():
            self._stuck.set()
            if self._pusher is None:
                self._pusher = threading.Thread(
                    target=self._push, name=f"{self.name}-pusher", daemon=True
                )
                self._pusher.start()

    def _window_admits(self) -> bool:
        # an oversized frame is admitted into an idle window so it can
        # ever be delivered (mirrors BoundedChannel)
        return (
            self._window_limit is None
            or self._unacked == 0
            or self._unacked + self._parts_bytes <= self._window_limit
        )

    def _read_credits(self) -> None:
        self._unread = 0
        while True:
            try:
                chunk = self._sock.recv(4096)
            except BlockingIOError:
                return
            if not chunk:
                raise ConnectionLost("peer closed")
            self._credit_buf += chunk
            granted = take_credits(self._credit_buf)
            self._unacked -= granted
            self._credited += granted
            if len(chunk) < 4096:
                return


# --------------------------------------------------------------------- #
# fabric negotiation (client side)
# --------------------------------------------------------------------- #
def open_data_channel(
    address: Tuple[str, int],
    transport: str = "auto",
    send_hwm_bytes: Optional[int] = None,
    name: str = "",
    connect_timeout: float = 10.0,
    max_frame_hint: int = 0,
):
    """Dial a rank's data listener and negotiate the channel fabric.

    ``auto`` asks the listener for a shared-memory ring and proves
    same-hostness by actually attaching the offered segment; any failure
    (cross-host, listener pinned to ``tcp``, segment gone) falls back to
    the TCP framing.  ``shm`` makes fallback a hard
    :class:`TransportNegotiationError`; ``tcp`` skips the offer.

    Returns a :class:`SocketChannel` or :class:`~repro.net.shm.ShmChannel`
    — both satisfy the :class:`~repro.transport.base.Channel` protocol.
    """
    if transport not in ("auto", "tcp", "shm"):
        raise ValueError(f"unknown transport {transport!r}")
    sock = socket.create_connection(address, timeout=connect_timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(connect_timeout)
        try:
            first = recv_frame(sock)
        except (TimeoutError, ConnectionLost) as exc:
            raise TimeoutError(
                f"{name or address}: no initial credit from receiver"
            ) from exc
        if not isinstance(first, Credit):
            raise ProtocolError(
                f"expected the initial credit frame, got {first!r}"
            )
        window = None if first.nbytes < 0 else int(first.nbytes)
        if transport in ("auto", "shm"):
            send_frame(sock, {
                "op": "shm_request",
                "ring_bytes": ring_bytes_for(send_hwm_bytes, max_frame_hint),
            })
            offer = recv_frame(sock)
            ring = None
            if isinstance(offer, dict) and offer.get("op") == "shm_offer":
                try:
                    ring = ShmRing.attach(offer["name"])
                except (OSError, ValueError):
                    ring = None  # cross-host (or the segment vanished)
                send_frame(
                    sock, {"op": "shm_ack" if ring is not None else "shm_nack"}
                )
            if ring is not None:
                sock.settimeout(None)
                return ShmChannel(
                    sock, ring, send_hwm_bytes=send_hwm_bytes, name=name
                )
            if transport == "shm":
                raise TransportNegotiationError(
                    f"{name or address}: transport pinned to shm but the "
                    f"listener offered none (cross-host peer, or it is "
                    f"pinned to tcp)"
                )
        sock.settimeout(None)
        return SocketChannel(
            sock, window, send_hwm_bytes=send_hwm_bytes, name=name
        )
    except BaseException:
        sock.close()
        raise


class _DataConn:
    """Per-connection loop state inside :class:`DataListener`."""

    __slots__ = ("sock", "peer", "reader", "ring", "pending_ring")

    def __init__(self, sock: socket.socket, peer: str):
        self.sock = sock
        self.peer = peer
        self.reader = FrameReader()
        self.ring: Optional[ShmRing] = None  # accepted shm fabric
        self.pending_ring: Optional[ShmRing] = None  # offered, not acked


class DataListener:
    """Server-rank data endpoint: every connected client's frames, in
    arrival order, into one ``sink(msg)`` — on the caller's thread.

    :meth:`turn` is the whole loop body: one ``select`` over the
    listening socket, the data connections (frames on TCP, doorbells on
    shm) and whatever the owner added with :meth:`watch`, then one drain
    pass over the rings.  A frame is acknowledged — the ring's head
    advanced, the TCP credit granted — only after ``sink`` returned, so
    a sink that raises leaves it unacknowledged.  A ring payload reaches
    the sink as a borrowed read-only view (see
    :mod:`repro.transport.message`).  ``stats`` counts what the sink
    took; its ``high_water_bytes`` is the most one turn found waiting.

    With ``transport`` "auto"/"shm" the loop also answers shm requests
    (one ring segment per requesting connection).  Dead connections are
    unregistered, their sockets closed, and their segments unlinked.

    A server rank calls :meth:`turn` from its own loop with
    ``ServerRank.handle`` behind the sink: no second thread.  Tests that
    want the frames on another thread call :meth:`start` instead.
    """

    def __init__(
        self,
        sink: Optional[Callable[[Any], None]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        recv_hwm_bytes: Optional[int] = None,
        on_disconnect: Optional[Callable[[str], None]] = None,
        transport: str = "auto",
    ):
        if transport not in ("auto", "tcp", "shm"):
            raise ValueError(f"unknown transport {transport!r}")
        self.sink = sink  # may be (re)assigned between turns
        self.recv_hwm_bytes = recv_hwm_bytes
        self.transport = transport
        self.stats = ChannelStats()
        self._on_disconnect = on_disconnect
        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._closed = False
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, self._accept_ready)
        self._conns: Dict[int, _DataConn] = {}  # fd -> conn
        self._rings_busy = False  # the last drain pass left frames behind
        # bytes handled but not granted yet, and to whom; see _settle
        self._owed = 0
        self._owed_to: Optional[_DataConn] = None
        self._thread: Optional[threading.Thread] = None
        self._waker: Optional[Tuple[socket.socket, socket.socket]] = None

    @property
    def open_connections(self) -> int:
        """Live accepted connections (regression hook: must not grow
        across connect/disconnect cycles — disconnects prune)."""
        return len(self._conns)

    def watch(self, fileobj, on_readable: Callable[[], None]) -> None:
        """Have :meth:`turn` also wait on ``fileobj`` and call
        ``on_readable()`` when it has input (a rank's control socket)."""
        self._sel.register(fileobj, selectors.EVENT_READ, on_readable)

    # ------------------------------------------------------------------ #
    def turn(self, timeout: Optional[float] = None) -> int:
        """Handle what is there, or wait up to ``timeout`` (None: until
        something arrives) for it; returns the frames the sink took.

        Before it sleeps with rings attached the loop looks at them for
        :data:`~repro.net.shm.LOOK_BEFORE_PARK_S` — one look per park —
        and only then raises ``consumer_waiting`` and re-checks, so a
        frame that lands between the drain pass and the select is never
        stranded, and one that lands within the look costs its producer
        no doorbell.  A zero ``timeout`` neither looks nor parks.
        """
        before = self.stats.messages_received
        events = None
        if self._rings_busy:
            timeout = 0.0
        rings = [c.ring for c in self._conns.values() if c.ring is not None]
        if rings and timeout != 0.0:
            events = self._look(rings, timeout)
            if events is None:
                for ring in rings:
                    ring.set_consumer_waiting(True)
                if any(ring.used() for ring in rings):
                    timeout = 0.0
        if events is None:
            events = self._sel.select(timeout)
        for key, _ in events:
            key.data()
        self._rings_busy = False
        for conn in [c for c in self._conns.values() if c.ring is not None]:
            self._rings_busy |= self._drain_ring(conn)
        return self.stats.messages_received - before

    def _look(self, rings: List[ShmRing], timeout: Optional[float]):
        """Spin-then-park: the events (maybe none) to go on with as soon
        as a ring or a socket has something, None after a bounded look
        that found nothing.  Yields between reads: the look must not take
        the core from the producer it is looking for."""
        look = LOOK_BEFORE_PARK_S
        deadline = time.perf_counter() + (look if timeout is None else min(look, timeout))
        while True:
            events = self._sel.select(0)
            if events or any(ring.used() for ring in rings):
                return events
            if time.perf_counter() >= deadline:
                return None
            os.sched_yield()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _DataConn(sock, f"{peer[0]}:{peer[1]}")
            self._conns[sock.fileno()] = conn
            self._sel.register(
                sock, selectors.EVENT_READ, functools.partial(self._service, conn)
            )
            window = -1 if self.recv_hwm_bytes is None else int(self.recv_hwm_bytes)
            if not self._send(conn, Credit(window)):
                self._drop(conn)

    def _service(self, conn: _DataConn) -> None:
        try:
            frames = conn.reader.pump(conn.sock)
        except (ConnectionLost, OSError, ProtocolError, ValueError):
            self._drop(conn)
            return
        # one grant per batch, not per frame, and only for frames the
        # sink returned from: a sink that raises part-way leaves the rest
        # of the batch ungranted
        self._owed_to = conn
        found = 0
        try:
            for msg in frames:
                if isinstance(msg, Doorbell):
                    continue  # the ring pass after the event batch drains it
                if isinstance(msg, dict) and str(msg.get("op", "")).startswith("shm_"):
                    if not self._negotiate(conn, msg):
                        self._drop(conn)
                        return
                    continue
                nbytes = frame_nbytes(msg)
                found += nbytes
                self._deliver(msg, nbytes)
                self._owed += nbytes
        finally:
            self._note_waiting(found)
            self._settle()

    def _settle(self) -> None:
        """Grant what is owed.  Runs at the end of every batch, and a
        sink that is about to wait (the inbox of :meth:`start`) calls it
        first: the loop never sleeps owing a grant."""
        owed, self._owed = self._owed, 0
        if owed and not self._send(self._owed_to, Credit(owed)):
            self._drop(self._owed_to)

    def _negotiate(self, conn: _DataConn, msg: dict) -> bool:
        op = msg.get("op")
        if op == "shm_request":
            if self.transport == "tcp":
                return self._send(conn, {"op": "shm_unavailable"})
            try:
                ring = ShmRing.create(int(msg.get("ring_bytes", 0)))
            except (OSError, ValueError):
                return self._send(conn, {"op": "shm_unavailable"})
            conn.pending_ring = ring
            return self._send(conn, {
                "op": "shm_offer", "name": ring.name, "capacity": ring.capacity,
            })
        if op == "shm_ack" and conn.pending_ring is not None:
            conn.ring = conn.pending_ring
            conn.pending_ring = None
            return True
        if op == "shm_nack" and conn.pending_ring is not None:
            conn.pending_ring.close()
            conn.pending_ring.unlink()
            conn.pending_ring = None
            return True
        return True  # unknown shm op: ignore (forward compatibility)

    def _send(self, conn: _DataConn, msg: Any) -> bool:
        try:
            send_frame(conn.sock, msg)
            return True
        except (OSError, ConnectionError):
            return False

    def _deliver(self, msg: Any, nbytes: int) -> None:
        self.sink(msg)
        self.stats.messages_received += 1
        self.stats.bytes_received += nbytes

    def _note_waiting(self, nbytes: int) -> None:
        if nbytes > self.stats.high_water_bytes:
            self.stats.high_water_bytes = nbytes

    def _drain_ring(self, conn: _DataConn, max_frames: int = 256) -> bool:
        """Hand up to ``max_frames`` frames to the sink, each straight
        from its ring slot, the head moving past a frame once the sink
        returned from it; True when more remain (the loop then re-selects
        with a zero timeout instead of starving the other connections
        behind one saturated ring)."""
        ring = conn.ring
        ring.set_consumer_waiting(False)
        self._note_waiting(ring.used())
        for _ in range(max_frames):
            if not ring.used():
                return False
            try:
                item = read_ring_frame(ring)
            except (ProtocolError, ValueError):
                # corrupt frame: keep what already landed, retire the ring
                self._drop(conn, drain=False)
                return False
            if item is None:
                return False
            msg, total = item
            self._deliver(msg, total)
            ring.advance(total)
        return True

    def _drop(self, conn: _DataConn, drain: bool = True) -> None:
        """Disconnect path: prune the connection table, close the socket,
        and retire the shm segment (``drain``: hand over what the producer
        published first — those frames were complete, even through a
        SIGKILL)."""
        if self._conns.pop(conn.sock.fileno(), None) is not conn:
            return  # already dropped
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        if conn.ring is not None and drain:
            while self._drain_ring(conn):
                pass
        for ring in (conn.ring, conn.pending_ring):
            if ring is not None:
                try:
                    ring.close_consumer()
                except (OSError, ValueError):
                    pass
                ring.close()
                ring.unlink()
        conn.ring = conn.pending_ring = None
        try:
            conn.sock.close()
        except OSError:
            pass
        if self._on_disconnect is not None:
            self._on_disconnect(conn.peer)

    # ------------------------------------------------------------------ #
    # thread-driven mode (tests)
    # ------------------------------------------------------------------ #
    def start(self, inbox: BoundedChannel) -> "DataListener":
        """Run the same :meth:`turn` on a thread of its own with a
        blocking ``inbox`` behind the sink.  The inbox keeps what it is
        given, so a borrowed payload is copied first; a full inbox blocks
        the loop (in short slices, so :meth:`close` gets through), which
        is what backs the fabric up into its sender."""

        def sink(msg: Any) -> None:
            msg = owned(msg)
            if not inbox.can_accept(getattr(msg, "nbytes", 0)):
                self._settle()
            while True:
                try:
                    return inbox.send(msg, timeout=0.1)
                except TimeoutError:
                    if self._closed:
                        raise ChannelClosed("listener closed") from None

        def run() -> None:
            try:
                while not self._closed:
                    self.turn()
            except ChannelClosed:
                pass  # the inbox, or the listener, was closed under the sink
            finally:
                self._teardown()

        self.sink = sink
        self._waker = socket.socketpair()
        self.watch(self._waker[0], lambda: self._waker[0].recv(64))
        self._thread = threading.Thread(
            target=run, name=f"data-loop-{self.address[1]}", daemon=True
        )
        self._thread.start()
        return self

    def _teardown(self) -> None:
        for conn in list(self._conns.values()):
            self._drop(conn, drain=False)
        self._sel.close()
        for sock in (self._listener, *(self._waker or ())):
            sock.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._thread is None:
            self._teardown()
            return
        try:
            self._waker[1].send(b"x")
        except OSError:
            pass
        self._thread.join(timeout=5.0)
