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

The sender owns no thread: it writes a frame to the socket inside
``try_send``/``send`` itself, and what the window or the kernel buffer
will not take yet stays in its backlog until the worker next calls in —
any send, a wait, ``acked()``, or the worker's long poll for its next
lease, which sleeps in one ``poll()`` over its control connection and
every data socket that still holds a backlog
(:meth:`repro.net.worker.SocketRouter.wait_ctrl`).  I/O threads on this
path shared the worker's interpreter lock with the simulation — one
cross-thread wake-up per frame and per grant — and how the kernel placed
them on the cores then decided the run (measured on the 2-vCPU box with
a writer and a credit-reader thread per channel: 445 groups/s with the
worker pinned to the rank's core, 550 unpinned, 850 with the worker's
threads pinned together on a core of their own).

Both channel kinds keep a monotone *sent* / *acknowledged* cursor pair
(``sent()``, ``acked()``, ``wait_acked(cursor)``): here bytes accepted
into the channel and bytes credited back, on the ring its tail and head.
A frame behind the acknowledged cursor has been handled by the receiving
rank — ``ServerRank.handle`` returned from it: staged or folded — the
guarantee a worker's asynchronous ``done`` report is built on (it
records ``sent()`` at a group's last frame and reports the group once
``acked()`` has passed the mark, while already running the next one).
``wait_accept(nbytes)`` is what a suspended group waits on: the
receiver's progress, not a timer; its time is the channel's
``blocked_seconds``.

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
from repro.transport.channel import ChannelClosed, ChannelStats


class TransportNegotiationError(RuntimeError):
    """``transport="shm"`` was forced but the peer cannot provide it."""


class SocketChannel:
    """Client end of one (worker, server-rank) data connection.

    The calling thread writes a frame to the (non-blocking) socket inside
    ``try_send``/``send`` itself, and reads the rank's credit grants when
    it needs them — a full window, ``acked()``, a blocking wait (which
    sleeps in ``poll()`` on the socket, so the grant itself wakes it).  A
    frame that the window or the kernel buffer will not take yet stays
    in the backlog and moves at the next call in (:meth:`move`, and
    :meth:`wait_events` for a caller that polls many sockets at once).

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

    # ------------------------------------------------------------------ #
    # Channel send surface
    # ------------------------------------------------------------------ #
    @property
    def broken(self) -> bool:
        """The peer vanished (reset, closed listener, killed rank)."""
        self.move()
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
        self._drive()
        return self._fits(int(nbytes))

    def try_send(self, msg: Any) -> bool:
        nbytes = frame_nbytes(msg)
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
        self._drive()
        if not self._fits(nbytes):
            self.stats.send_blocks += 1
            if not self.wait_accept(nbytes, timeout):
                raise TimeoutError(f"send on {self.name} timed out")
        self._enqueue(msg, nbytes)

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
        self.move()
        return self._credited

    def wait_acked(self, cursor: int, timeout: Optional[float] = None) -> bool:
        """Block until the receiver has passed ``cursor`` (woken by the
        grant that does it); False on timeout, :class:`ChannelClosed`
        when the rank is gone."""
        return self._wait(lambda: self._credited >= cursor, timeout)

    def wait_accept(self, nbytes: int, timeout: Optional[float] = None) -> bool:
        """Block until a frame of ``nbytes`` fits the backlog (woken by
        the grant that lets the head of the line out); False on timeout.
        The wait is this channel's suspended time (``blocked_seconds``)."""
        start = time.monotonic()
        try:
            return self._wait(lambda: self._fits(nbytes), timeout)
        finally:
            self.stats.blocked_seconds += time.monotonic() - start

    def flush(self, timeout: Optional[float] = None) -> None:
        """Block until every sent frame has been credited by the peer:
        the receiving rank has then handled each message."""
        if not self.wait_acked(self._accepted, timeout):
            raise TimeoutError(
                f"{self.name}: {self._accepted - self._credited} byte(s) "
                f"not yet credited by the receiver after {timeout}s"
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # ------------------------------------------------------------------ #
    def fileno(self) -> int:
        return self._sock.fileno()

    def wait_events(self) -> int:
        """The ``poll()`` events that would let the backlog move: grants
        (readable), and room in the kernel buffer (writable) when that is
        what stopped a frame.  0 when nothing is left to move."""
        if self._error is not None or self._closed:
            return 0
        if not (self._parts or self._backlog):
            return 0
        return select.POLLIN | (select.POLLOUT if self._wire_full else 0)

    def move(self) -> None:
        """Read what the rank has granted and move the backlog, quietly:
        a dead peer is recorded, not raised."""
        try:
            self._drive(read=True)
        except ChannelClosed:
            pass

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise ChannelClosed(f"{self.name}: connection failed") from self._error
        if self._closed:
            raise ChannelClosed(f"{self.name}: channel closed")

    def _wait(self, ready: Callable[[], bool], timeout: Optional[float]) -> bool:
        """Drive the channel until ``ready()``, sleeping on the socket in
        between: readable means grants, writable (asked for only when the
        kernel buffer stopped a frame) means the wire has room again."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._drive(read=True)
            if ready():
                return True
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            poller = select.poll()
            poller.register(self._sock, self.wait_events() or select.POLLIN)
            poller.poll(None if remaining is None else 1000.0 * remaining)

    def _drive(self, read: bool = False) -> None:
        """Move the channel as far as it goes without blocking: admit the
        head of the line into the window, write it, take the next frame
        off the backlog.  Grants are read when asked for, when the window
        is what stops the head frame, and every ``_READ_EVERY`` frames.
        What cannot move yet waits for the next call in."""
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
    ``ServerRank.handle`` behind the sink: no second thread.
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
        sink that is about to wait calls it first: the loop never sleeps
        owing a grant."""
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
        behind one saturated ring).  The advance that reaches the head a
        sleeping producer waits for rings it, once."""
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
            if ring.advance(total):
                self._send(conn, Doorbell())
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

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            self._drop(conn, drain=False)
        self._sel.close()
        self._listener.close()
