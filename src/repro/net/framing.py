"""Length-prefixed binary framing for the distributed transport.

Every frame on the wire is::

    <u32 little-endian body length> <1 tag byte> <body>

Data-plane frames (``FieldMessage`` / ``GroupFieldMessage``) reuse the
struct headers of :mod:`repro.transport.message` and carry their float64
payloads as raw bytes.  They are written with ``socket.sendmsg`` over a
list of buffer views — header bytes plus a zero-copy ``memoryview`` of
the numpy payload, nothing is concatenated — and read by receiving the
payload straight into a preallocated array with ``recv_into``.

Control-plane frames are tiny: :class:`~repro.transport.message.Heartbeat`
liveness beacons (one layout: time, sender, and a metrics payload that
is empty unless the registration ack turned telemetry on), flow-control
:class:`Credit` grants, shm :class:`Doorbell` wakeups, and a pickled
``dict`` frame for the coordinator protocol (registration, work leases
with the rank address table, rank-state collection).
"""

from __future__ import annotations

import pickle
import random
import selectors
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.transport.message import FieldMessage, GroupFieldMessage, Heartbeat

_PREFIX = struct.Struct("<I")
_MAX_FRAME = 1 << 31  # sanity bound: one frame never exceeds 2 GiB

TAG_FIELD = b"F"
TAG_GROUP_FIELD = b"G"
TAG_HEARTBEAT = b"h"
TAG_CREDIT = b"C"
TAG_CONTROL = b"P"
TAG_DOORBELL = b"D"

_FIELD_HEADER = struct.Struct("<qqqqq")  # group, member, step, lo, hi
_GROUP_HEADER = struct.Struct("<qqqqq")  # group, step, lo, hi, nmembers
_CREDIT = struct.Struct("<q")  # granted bytes (-1 = unlimited initial window)
# time, utf-8 sender length; then the sender and the pickled metrics
# payload, which is empty (and never pickled) for a liveness-only beat
_HEARTBEAT = struct.Struct("<dH")


class ConnectionLost(ConnectionError):
    """Peer closed the connection (EOF mid-stream or on a frame edge)."""


class ProtocolError(ValueError):
    """A frame's header contradicts its length prefix (corrupt stream).

    The length prefix is the framing ground truth: decoding must never
    allocate from header fields (``hi - lo``, ``nmembers``) that the
    prefix does not corroborate, or a corrupt header silently desyncs
    the stream — or feeds numpy a negative/huge shape.
    """


_MISSING = object()


def peer_field(frame: dict, key: str, kind: Any, default: Any = _MISSING) -> Any:
    """``frame[key]`` of a peer's control dict, checked against ``kind``.

    A missing field (unless it has a ``default``) or a mistyped one is the
    peer's :class:`ProtocolError`, so the reader drops that peer only.
    """
    if key not in frame and default is not _MISSING:
        return default
    value = frame.get(key, _MISSING)
    if value is _MISSING or not isinstance(value, kind):
        raise ProtocolError(
            f"{frame.get('op')!r} frame has a missing or mistyped {key!r}"
        )
    return value


@dataclass(frozen=True)
class Doorbell:
    """Wakeup ping on a data connection whose payload rides a shm ring.

    Sent by a shared-memory sender when it published into a ring whose
    consumer had declared itself asleep — the frame wakes the receiving
    rank's ``select`` — and by the rank when its head reached what a
    sleeping sender waits for, which wakes the sender's ``poll``.
    """


@dataclass(frozen=True)
class Credit:
    """Flow-control grant: the receiver consumed/buffered ``nbytes`` more.

    The initial grant after accept advertises the receive window;
    ``nbytes == -1`` means the receive side is unbounded.
    """

    nbytes: int


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
def encode_frame(msg: Any) -> List[Any]:
    """Buffer list for one frame (prefix+tag+header bytes, then payload
    views).  Numpy payloads appear as zero-copy memoryviews."""
    if isinstance(msg, FieldMessage):
        header = _FIELD_HEADER.pack(
            msg.group_id, msg.member, msg.timestep, msg.cell_lo, msg.cell_hi
        )
        payload = memoryview(msg.data).cast("B")
        body_len = 1 + len(header) + len(payload)
        return [_PREFIX.pack(body_len) + TAG_FIELD + header, payload]
    if isinstance(msg, GroupFieldMessage):
        header = _GROUP_HEADER.pack(
            msg.group_id, msg.timestep, msg.cell_lo, msg.cell_hi, msg.nmembers
        )
        payload = memoryview(np.ascontiguousarray(msg.data)).cast("B")
        body_len = 1 + len(header) + len(payload)
        return [_PREFIX.pack(body_len) + TAG_GROUP_FIELD + header, payload]
    if isinstance(msg, Heartbeat):
        sender = msg.sender.encode("utf-8")
        payload = b"" if msg.metrics is None else pickle.dumps(
            msg.metrics, protocol=pickle.HIGHEST_PROTOCOL
        )
        body = _HEARTBEAT.pack(msg.time, len(sender)) + sender + payload
        return [_PREFIX.pack(1 + len(body)) + TAG_HEARTBEAT + body]
    if isinstance(msg, Credit):
        body = _CREDIT.pack(msg.nbytes)
        return [_PREFIX.pack(1 + len(body)) + TAG_CREDIT + body]
    if isinstance(msg, Doorbell):
        return [_PREFIX.pack(1) + TAG_DOORBELL]
    if isinstance(msg, dict):
        body = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        return [_PREFIX.pack(1 + len(body)) + TAG_CONTROL + body]
    raise TypeError(f"cannot frame message of type {type(msg)!r}")


def frame_nbytes(msg: Any) -> int:
    """Wire size of one framed message (drives flow-control accounting).

    Data-plane messages are computed in constant time — this runs up to
    four times per message on the hot path (deliver probe, outbox sizer,
    writer window accounting, receiver credit) and must not re-encode.
    """
    if isinstance(msg, FieldMessage):
        return _PREFIX.size + 1 + _FIELD_HEADER.size + msg.data.nbytes
    if isinstance(msg, GroupFieldMessage):
        return _PREFIX.size + 1 + _GROUP_HEADER.size + msg.data.nbytes
    return sum(len(part) for part in encode_frame(msg))


# --------------------------------------------------------------------- #
# header validation (the prefix is ground truth — satellite of ISSUE 9)
# --------------------------------------------------------------------- #
def field_payload_cells(body_len: int, lo: int, hi: int) -> int:
    """Validated cell count of a ``TAG_FIELD`` payload.

    Cross-checks the header's ``[lo, hi)`` range against the frame's
    length prefix before anything is allocated from it.
    """
    if lo < 0 or hi <= lo:
        raise ProtocolError(f"field header has invalid cell range [{lo}, {hi})")
    ncells = hi - lo
    expected = 1 + _FIELD_HEADER.size + 8 * ncells
    if body_len != expected:
        raise ProtocolError(
            f"field header claims {ncells} cells ({expected} body bytes) "
            f"but the frame prefix says {body_len}"
        )
    return ncells


def group_payload_shape(
    body_len: int, lo: int, hi: int, nmembers: int
) -> Tuple[int, int]:
    """Validated ``(nmembers, ncells)`` shape of a ``TAG_GROUP_FIELD``
    payload, cross-checked against the frame's length prefix."""
    if lo < 0 or hi <= lo or nmembers <= 0:
        raise ProtocolError(
            f"group header has invalid shape: range [{lo}, {hi}), "
            f"{nmembers} members"
        )
    ncells = hi - lo
    expected = 1 + _GROUP_HEADER.size + 8 * nmembers * ncells
    if body_len != expected:
        raise ProtocolError(
            f"group header claims {nmembers}x{ncells} cells ({expected} "
            f"body bytes) but the frame prefix says {body_len}"
        )
    return nmembers, ncells


def check_body_len(body_len: int) -> int:
    if not 1 <= body_len <= _MAX_FRAME:
        raise ProtocolError(f"invalid frame length {body_len}")
    return body_len


def decode_control_body(tag: bytes, body: bytes) -> Any:
    """Decode a non-field frame body (shared by every transport fabric).

    Total: a body that does not decode exactly — short, long, or garbage
    — raises :class:`ProtocolError`.  Every exception is converted, since
    unpickling a malformed body can raise any of them.
    """
    try:
        return _decode_control_body(tag, body)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed {tag!r} frame body: {exc}") from exc


def _decode_control_body(tag: bytes, body: bytes) -> Any:
    if tag == TAG_HEARTBEAT:
        t, sender_len = _HEARTBEAT.unpack_from(body)
        pos = _HEARTBEAT.size
        if pos + sender_len > len(body):
            raise ProtocolError("heartbeat sender overruns its body")
        sender = body[pos : pos + sender_len].decode("utf-8")
        payload = body[pos + sender_len :]
        metrics = pickle.loads(payload) if payload else None
        return Heartbeat(sender=sender, time=t, metrics=metrics)
    if tag == TAG_CREDIT:
        (nbytes,) = _CREDIT.unpack(body)
        return Credit(nbytes)
    if tag == TAG_DOORBELL:
        if body:
            raise ProtocolError("doorbell frame carries a body")
        return Doorbell()
    if tag == TAG_CONTROL:
        return pickle.loads(body)
    raise ProtocolError(f"unknown frame tag {tag!r}")


# --------------------------------------------------------------------- #
# socket I/O
# --------------------------------------------------------------------- #
def _wait_writable(sock: socket.socket, timeout: float = 0.05) -> None:
    sel = selectors.DefaultSelector()
    try:
        sel.register(sock, selectors.EVENT_WRITE)
        sel.select(timeout)
    finally:
        sel.close()


def write_parts(sock: socket.socket, parts: List[Any]) -> bool:
    """Scatter-gather write of an encoded frame's buffers: sends what the
    socket takes and drops it from ``parts`` in place (fully-sent buffers
    go, a partly-sent one is trimmed).  True when nothing is left; False
    when a non-blocking socket would block — call again with the same
    list once it is writable."""
    while parts:
        try:
            n = sock.sendmsg(parts)
        except BlockingIOError:
            return False
        while parts and n >= len(parts[0]):
            n -= len(parts[0])
            parts.pop(0)
        if n:
            parts[0] = memoryview(parts[0])[n:]
    return True


def send_frame(sock: socket.socket, msg: Any) -> int:
    """Write one frame with scatter-gather I/O; returns bytes written.

    Works on blocking and non-blocking sockets alike: a would-block on a
    non-blocking socket waits for writability and retries, matching the
    blocking-socket semantics the callers rely on.
    """
    parts = encode_frame(msg)
    total = sum(len(p) for p in parts)
    while not write_parts(sock, parts):
        _wait_writable(sock)
    return total


_CREDIT_FRAME = struct.Struct("<Icq")  # a whole Credit frame: prefix, tag, bytes


def take_credits(buf: bytearray) -> int:
    """Consume every complete :class:`Credit` frame at the front of
    ``buf`` (a partial one stays for the next read) and return the bytes
    they grant in total — how a data channel's sender reads a burst of
    grants with one ``recv`` instead of three per frame.  Anything but a
    credit is a :class:`ProtocolError`: a rank sends nothing else on a
    negotiated TCP data channel."""
    whole = len(buf) - len(buf) % _CREDIT_FRAME.size
    granted = 0
    for body_len, tag, nbytes in _CREDIT_FRAME.iter_unpack(bytes(buf[:whole])):
        if tag != TAG_CREDIT or body_len != 1 + _CREDIT.size or nbytes < 0:
            raise ProtocolError(
                f"expected a credit grant on the data channel, got tag {tag!r}"
            )
        granted += nbytes
    del buf[:whole]
    return granted


def _recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    while len(view):
        n = sock.recv_into(view)
        if n == 0:
            raise ConnectionLost("peer closed mid-frame")
        view = view[n:]


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    buf = bytearray(nbytes)
    _recv_exact_into(sock, memoryview(buf))
    return bytes(buf)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame; raises :class:`ConnectionLost` on EOF.

    Field payloads are received directly into freshly allocated float64
    arrays (no intermediate bytes object).
    """
    try:
        prefix = sock.recv(_PREFIX.size, socket.MSG_WAITALL)
    except ConnectionError as exc:
        raise ConnectionLost(str(exc)) from exc
    if len(prefix) == 0:
        raise ConnectionLost("peer closed")
    if len(prefix) < _PREFIX.size:
        raise ConnectionLost("peer closed mid-prefix")
    (body_len,) = _PREFIX.unpack(prefix)
    check_body_len(body_len)
    tag = _recv_exact(sock, 1)

    if tag == TAG_FIELD:
        header = _recv_exact(sock, _FIELD_HEADER.size)
        group, member, step, lo, hi = _FIELD_HEADER.unpack(header)
        ncells = field_payload_cells(body_len, lo, hi)
        data = np.empty(ncells, dtype=np.float64)
        _recv_exact_into(sock, memoryview(data).cast("B"))
        return FieldMessage(group, member, step, lo, hi, data)
    if tag == TAG_GROUP_FIELD:
        header = _recv_exact(sock, _GROUP_HEADER.size)
        group, step, lo, hi, nmembers = _GROUP_HEADER.unpack(header)
        shape = group_payload_shape(body_len, lo, hi, nmembers)
        data = np.empty(shape, dtype=np.float64)
        _recv_exact_into(sock, memoryview(data).cast("B"))
        return GroupFieldMessage(group, step, lo, hi, data)

    body = _recv_exact(sock, body_len - 1)
    return decode_control_body(tag, body)


# --------------------------------------------------------------------- #
# incremental decoding for event-loop (non-blocking) sockets
# --------------------------------------------------------------------- #
class FrameReader:
    """Incremental frame decoder for one non-blocking socket.

    :meth:`pump` reads whatever the socket has buffered and returns the
    list of frames completed by it; partial frames persist across calls.
    Field payloads are still received straight into their preallocated
    arrays with ``recv_into`` — multiplexing onto one event loop does
    not give up the zero-copy receive path.

    Raises :class:`ConnectionLost` on EOF and :class:`ProtocolError`
    when a header contradicts the length prefix.
    """

    _HEAD, _BODY, _PAYLOAD = 0, 1, 2

    def __init__(self):
        self._buf = bytearray()
        self._stage = self._HEAD
        self._need = _PREFIX.size + 1
        self._body_len = 0
        self._tag = b""
        self._payload: Optional[memoryview] = None
        self._finish = None  # closure building the completed field message
        self._eof: Optional[str] = None

    def pump(self, sock: socket.socket, max_frames: int = 64) -> List[Any]:
        """Drain readable bytes; returns completed frames (maybe []).

        When the peer's final frames and its EOF arrive in one call, the
        decoded frames are returned first and :class:`ConnectionLost` is
        raised by the *next* pump — a goodbye frame riding the closing
        segment (``bye``, ``rank_state``) must not be dropped.
        """
        if self._eof is not None:
            raise ConnectionLost(self._eof)
        frames: List[Any] = []
        while len(frames) < max_frames:
            try:
                if self._stage == self._PAYLOAD:
                    n = sock.recv_into(self._payload)
                    if n == 0:
                        self._eof = "peer closed mid-frame"
                        break
                    self._payload = self._payload[n:]
                    if not len(self._payload):
                        frames.append(self._finish())
                        self._reset()
                    continue
                chunk = sock.recv(self._need - len(self._buf))
            except BlockingIOError:
                break
            except ConnectionError as exc:
                if frames:
                    self._eof = str(exc)
                    break
                raise ConnectionLost(str(exc)) from exc
            if not chunk:
                self._eof = (
                    "peer closed" if self._stage == self._HEAD and not self._buf
                    else "peer closed mid-frame"
                )
                break
            self._buf += chunk
            if len(self._buf) < self._need:
                continue
            if self._stage == self._HEAD:
                done = self._on_head(bytes(self._buf))
                if done is not None:
                    frames.append(done)
            else:
                body = bytes(self._buf)
                tag = self._tag
                self._reset()
                frames.append(decode_control_body(tag, body))
        if self._eof is not None and not frames:
            raise ConnectionLost(self._eof)
        return frames

    def _reset(self) -> None:
        self._buf.clear()
        self._stage = self._HEAD
        self._need = _PREFIX.size + 1
        self._payload = None
        self._finish = None

    def _on_head(self, head: bytes) -> Optional[Any]:
        if self._need == _PREFIX.size + 1:
            # prefix + tag are in: route to the fixed field header, the
            # raw control body, or complete a zero-body frame right here
            (body_len,) = _PREFIX.unpack_from(head)
            check_body_len(body_len)
            self._body_len = body_len
            self._tag = head[_PREFIX.size : _PREFIX.size + 1]
            self._buf.clear()
            if self._tag == TAG_FIELD:
                self._need = _PREFIX.size + 1 + _FIELD_HEADER.size
                self._buf += head  # stage completion is keyed off total need
            elif self._tag == TAG_GROUP_FIELD:
                self._need = _PREFIX.size + 1 + _GROUP_HEADER.size
                self._buf += head
            elif body_len == 1:
                tag = self._tag
                self._reset()
                return decode_control_body(tag, b"")
            else:
                self._stage = self._BODY
                self._need = body_len - 1
            return None
        # the fixed field header is complete
        header = head[_PREFIX.size + 1 :]
        body_len, tag = self._body_len, self._tag
        if tag == TAG_FIELD:
            group, member, step, lo, hi = _FIELD_HEADER.unpack(header)
            ncells = field_payload_cells(body_len, lo, hi)
            data = np.empty(ncells, dtype=np.float64)
            self._finish = lambda: FieldMessage(group, member, step, lo, hi, data)
        else:
            group, step, lo, hi, nmembers = _GROUP_HEADER.unpack(header)
            shape = group_payload_shape(body_len, lo, hi, nmembers)
            data = np.empty(shape, dtype=np.float64)
            self._finish = lambda: GroupFieldMessage(group, step, lo, hi, data)
        self._buf.clear()
        self._stage = self._PAYLOAD
        self._payload = memoryview(data).cast("B")
        return None


# --------------------------------------------------------------------- #
# connection convenience
# --------------------------------------------------------------------- #
class FrameConnection:
    """Framed connection with pollable reads, owned by one thread.

    The control plane uses this for request/reply exchanges and
    heartbeats: reads are blocking (with an optional pre-poll timeout),
    and each write is one whole frame, so heartbeats and protocol frames
    from the owning loop never interleave mid-frame.
    """

    def __init__(self, sock: socket.socket):
        sock.setblocking(True)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. a Unix socketpair in tests)
        self._sock = sock
        self._closed = False
        # registered once and reused: select.select would blow up on any
        # fd >= FD_SETSIZE (1024), which a busy coordinator host reaches
        self._selector = selectors.DefaultSelector()
        self._selector.register(sock, selectors.EVENT_READ)

    @property
    def peername(self) -> str:
        try:
            peer = self._sock.getpeername()
        except OSError:
            return "<closed>"
        if isinstance(peer, tuple) and len(peer) >= 2:
            return f"{peer[0]}:{peer[1]}"
        return str(peer) or "<unix>"

    def fileno(self) -> int:
        """So a loop that owns other sockets can select on this one too."""
        return self._sock.fileno()

    def send(self, msg: Any) -> None:
        if self._closed:
            raise ConnectionLost("connection closed locally")
        try:
            send_frame(self._sock, msg)
        except (OSError, ConnectionError) as exc:
            raise ConnectionLost(str(exc)) from exc

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame prefix is readable within ``timeout``."""
        if self._closed:
            return False
        try:
            return bool(self._selector.select(timeout))
        except (OSError, ValueError):
            return False  # racing a concurrent close

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Read one frame; ``TimeoutError`` if nothing arrives in time.

        Control frames are tiny, so once the prefix is readable the rest
        is read blocking.
        """
        if timeout is not None and not self.poll(timeout):
            raise TimeoutError(f"no frame from {self.peername} in {timeout}s")
        try:
            return recv_frame(self._sock)
        except OSError as exc:
            raise ConnectionLost(str(exc)) from exc

    def close(self) -> None:
        self._closed = True
        try:
            self._selector.close()
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class DialTimeout(ConnectionError):
    """:func:`connect_with_retry` exhausted its deadline dialing a peer."""


def backoff_intervals(
    initial: float = 0.05,
    cap: float = 2.0,
    factor: float = 2.0,
    jitter: float = 0.5,
    rng: Optional[random.Random] = None,
):
    """Jittered exponential backoff delays: ``initial * factor**n``
    capped at ``cap``, each stretched by up to ``jitter`` of itself.

    The jitter decorrelates retry storms: when a coordinator restarts,
    every serve/work process that lost it re-dials — without jitter they
    all hammer the listen backlog on the same schedule.  ``rng`` is
    injectable so tests can pin the sequence.
    """
    rng = random.Random() if rng is None else rng
    delay = initial
    while True:
        yield delay * (1.0 + jitter * rng.random())
        delay = min(cap, delay * factor)


def connect_with_retry(
    address: Tuple[str, int],
    timeout: float = 10.0,
    interval: float = 0.05,
    max_interval: float = 2.0,
    rng: Optional[random.Random] = None,
) -> FrameConnection:
    """Dial ``address``, retrying while the endpoint is still coming up.

    ``repro serve`` / ``repro work`` processes may legitimately start
    before ``repro launch`` binds its control port.  Retries back off
    exponentially from ``interval`` to ``max_interval`` with decorrelating
    jitter (see :func:`backoff_intervals`); past the overall ``timeout``
    deadline a :class:`DialTimeout` names the address given up on and
    chains the last connect error.
    """
    from repro import telemetry

    retries = telemetry.REGISTRY.counter(
        "repro_dial_retries", "connect attempts that had to be retried"
    )
    deadline = time.monotonic() + timeout
    delays = backoff_intervals(initial=interval, cap=max_interval, rng=rng)
    last_error: Optional[OSError] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            host, port = address
            raise DialTimeout(
                f"gave up dialing {host}:{port} after {timeout:.1f}s "
                f"(last error: {last_error})"
            ) from last_error
        try:
            return FrameConnection(
                socket.create_connection(address, timeout=max(remaining, 0.001))
            )
        except OSError as exc:
            last_error = exc
            retries.inc()
            pause = min(next(delays), deadline - time.monotonic())
            if pause > 0:
                time.sleep(pause)
