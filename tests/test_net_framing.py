"""Unit tests for the socket transport: wire framing, credit flow
control, and partition-boundary splitting through the framed path.

The splitting cases mirror the PR 1 straddle fixtures (a message
covering [3, 8) over ranks owning [0,5)/[5,10), ragged partitions,
multi-rank straddles) but push every byte through real loopback TCP:
SocketRouter -> frames -> DataListener -> rank inbox -> ServerRank.
"""

import random
import select
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StudyConfig
from repro.core.server import MelissaServer, ServerRank
from repro.mesh.partition import BlockPartition
from net_util import Inbox, InboxListener
from repro.net.channel import open_data_channel
from repro.net.framing import (
    TAG_FIELD,
    TAG_GROUP_FIELD,
    ConnectionLost,
    Credit,
    DialTimeout,
    Doorbell,
    FrameConnection,
    FrameReader,
    ProtocolError,
    backoff_intervals,
    connect_with_retry,
    decode_control_body,
    encode_frame,
    frame_nbytes,
    recv_frame,
    send_frame,
    take_credits,
    write_parts,
)
from repro.sampling import ParameterSpace, Uniform
from repro.transport.base import Channel, TransportClient
from repro.transport.channel import BoundedChannel
from repro.transport.message import FieldMessage, GroupFieldMessage, Heartbeat


def make_config(ncells=10, ntimesteps=3, nparams=2, server_ranks=2, **kw):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(nparams)),
        distributions=tuple(Uniform(0, 1) for _ in range(nparams)),
    )
    return StudyConfig(
        space=space, ngroups=5, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, **kw,
    )


def group_message(group, step, lo, hi, nmembers=4, value=1.0):
    data = np.full((nmembers, hi - lo), value) + np.arange(nmembers)[:, None]
    return GroupFieldMessage(group_id=group, timestep=step, cell_lo=lo,
                             cell_hi=hi, data=data)


def roundtrip(msg):
    a, b = socket.socketpair()
    try:
        send_frame(a, msg)
        return recv_frame(b)
    finally:
        a.close()
        b.close()


class TestFrameRoundtrips:
    def test_field_message(self):
        msg = FieldMessage(3, 1, 2, 10, 18, np.arange(8.0))
        out = roundtrip(msg)
        assert (out.group_id, out.member, out.timestep) == (3, 1, 2)
        assert (out.cell_lo, out.cell_hi) == (10, 18)
        np.testing.assert_array_equal(out.data, msg.data)

    def test_group_field_message(self):
        msg = group_message(7, 2, 4, 9, nmembers=5)
        out = roundtrip(msg)
        assert (out.group_id, out.timestep) == (7, 2)
        assert out.nmembers == 5
        np.testing.assert_array_equal(out.data, msg.data)

    def test_group_field_message_noncontiguous_slice(self):
        """A slice() of a wider message frames its own cells, nothing else."""
        msg = group_message(1, 0, 0, 10).slice(3, 8)
        out = roundtrip(msg)
        assert (out.cell_lo, out.cell_hi) == (3, 8)
        np.testing.assert_array_equal(out.data, msg.data)

    def test_heartbeat(self):
        out = roundtrip(Heartbeat(sender="server-rank-3", time=12.5))
        assert out == Heartbeat("server-rank-3", 12.5)

    def test_credit(self):
        assert roundtrip(Credit(4096)) == Credit(4096)
        assert roundtrip(Credit(-1)) == Credit(-1)

    def test_control_dict(self):
        payload = {"op": "rank_state", "rank": 1, "maps": np.arange(3.0)}
        out = roundtrip(payload)
        assert out["op"] == "rank_state"
        np.testing.assert_array_equal(out["maps"], payload["maps"])

    def test_unframeable_type_rejected(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(TypeError):
                send_frame(a, object())
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_lost(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionLost):
                recv_frame(b)
        finally:
            b.close()

    def test_frame_nbytes_matches_wire(self):
        msg = FieldMessage(0, 0, 0, 0, 6, np.arange(6.0))
        a, b = socket.socketpair()
        try:
            written = send_frame(a, msg)
            assert written == frame_nbytes(msg)
        finally:
            a.close()
            b.close()


class TestFrameConnection:
    def test_request_reply_and_poll(self):
        a, b = socket.socketpair()
        ca, cb = FrameConnection(a), FrameConnection(b)
        try:
            assert not cb.poll(0.0)
            ca.send({"op": "next"})
            assert cb.poll(1.0)
            assert cb.recv()["op"] == "next"
            with pytest.raises(TimeoutError):
                cb.recv(timeout=0.05)
        finally:
            ca.close()
            cb.close()


def make_rank_endpoint(rank_idx, config, capacity=None):
    """One server rank's inbox + data listener on an ephemeral port."""
    partition = BlockPartition(config.ncells, config.server_ranks)
    rank = ServerRank(rank_idx, config, partition)
    inbox = Inbox(capacity_bytes=capacity, name=f"rank-{rank_idx}")
    listener = InboxListener(inbox, recv_hwm_bytes=capacity)
    return rank, inbox, listener


class TestSocketChannelBackpressure:
    def test_delivery_and_stats(self):
        inbox = Inbox()
        listener = InboxListener(inbox)
        channel = open_data_channel(
            listener.address, transport="tcp", name="test")
        try:
            msgs = [FieldMessage(0, m, 0, 0, 4, np.arange(4.0)) for m in range(4)]
            for msg in msgs:
                assert channel.try_send(msg)
            channel.flush(timeout=10.0)
            out = [inbox.recv(timeout=1.0) for _ in range(4)]
            assert [m.member for m in out] == [0, 1, 2, 3]  # FIFO preserved
            assert channel.stats.messages_sent == 4
            assert channel.stats.bytes_sent == sum(frame_nbytes(m) for m in msgs)
        finally:
            channel.close()
            listener.close()

    def test_sender_suspends_when_both_sides_full(self):
        """Fig. 6a/b over TCP: a non-draining receiver exhausts the credit
        window, the writer stalls, the outbox fills, try_send -> False;
        draining the inbox releases the whole pipeline (the backlog moves
        whenever the sender calls in)."""
        msg = FieldMessage(0, 0, 0, 0, 32, np.arange(32.0))
        size = frame_nbytes(msg)
        inbox = Inbox(capacity_bytes=size)  # receiver holds ~1 msg
        listener = InboxListener(inbox, recv_hwm_bytes=size)
        channel = open_data_channel(
            listener.address, transport="tcp", send_hwm_bytes=size)
        try:
            sent = 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if channel.try_send(msg):
                    sent += 1
                elif sent >= 2:
                    # a grant still in flight moves the backlog at the
                    # next call: saturated is a refusal that survives it
                    time.sleep(0.05)
                    if not channel.try_send(msg):
                        break
                    sent += 1
                else:
                    time.sleep(0.005)
            assert not channel.try_send(msg), "channel should be saturated"
            assert channel.stats.send_blocks > 0
            # drain everything; the sender must become writable again
            drained = 0
            while drained < sent:
                got = inbox.try_recv()
                if got is None:
                    channel.acked()  # the sender's look moves its backlog
                    time.sleep(0.005)
                    continue
                drained += 1
            deadline = time.monotonic() + 5.0
            while not channel.try_send(msg):
                assert time.monotonic() < deadline, "sender never unblocked"
                time.sleep(0.005)
        finally:
            channel.close()
            listener.close()

    def test_acknowledged_cursor_follows_the_inbox_not_the_wire(self):
        """``acked()`` passes a frame's mark only once the frame is in
        the rank's inbox: with the inbox held full, a frame the listener
        already read off the wire stays unacknowledged, and the pop that
        makes room is what wakes ``wait_acked`` / ``wait_accept``, which
        move the backlog as the grants come in."""
        msg = FieldMessage(0, 0, 0, 0, 32, np.arange(32.0))
        size = frame_nbytes(msg)
        inbox = Inbox(capacity_bytes=size)  # holds one frame
        listener = InboxListener(inbox, recv_hwm_bytes=size)
        channel = open_data_channel(
            listener.address, transport="tcp", send_hwm_bytes=size)
        try:
            assert (channel.sent(), channel.acked()) == (0, 0)
            channel.send(msg, timeout=5.0)
            first = channel.sent()
            assert first == size  # the cursors count bytes
            assert channel.wait_acked(first, timeout=5.0)
            channel.send(msg, timeout=5.0)  # read off the wire, inbox full
            second = channel.sent()
            assert not channel.wait_acked(second, timeout=0.05)
            assert channel.acked() == first
            with pytest.raises(TimeoutError):
                channel.flush(timeout=0.05)
            # fill the sender side too, then let one pop release it all
            channel.send(msg, timeout=5.0)  # head of the line: waits on the window
            channel.send(msg, timeout=5.0)  # sits in the backlog
            assert not channel.can_accept(size)
            assert not channel.wait_accept(size, timeout=0.05)
            inbox.recv(timeout=5.0)
            assert channel.wait_acked(second, timeout=5.0)
            assert channel.wait_accept(size, timeout=5.0)
            inbox.recv(timeout=5.0)
            # the third frame's grant lets the fourth out of the backlog
            assert channel.wait_acked(3 * size, timeout=5.0)
            for _ in range(2):
                inbox.recv(timeout=5.0)
            channel.flush(timeout=5.0)
            assert channel.acked() == channel.sent() == 4 * size
        finally:
            channel.close()
            listener.close()

    def test_a_channel_that_keeps_up_sends_from_the_calling_thread(self):
        """No second thread on the hot path: with a draining receiver
        every frame goes out inside ``try_send`` and nothing waits in the
        backlog."""
        inbox = Inbox()
        listener = InboxListener(inbox)
        before = set(threading.enumerate())
        channel = open_data_channel(
            listener.address, transport="tcp", send_hwm_bytes=1 << 16)
        try:
            for member in range(200):
                assert channel.try_send(
                    FieldMessage(0, member, 0, 0, 64, np.full(64, float(member)))
                )
                assert inbox.recv(timeout=5.0).member == member
                assert not channel.wait_events()
            channel.flush(timeout=5.0)
            assert set(threading.enumerate()) == before
            assert channel.stats.send_blocks == 0
        finally:
            channel.close()
            listener.close()

    def test_a_frame_the_kernel_buffer_cuts_arrives_at_the_senders_next_call(self):
        """A frame far beyond the socket buffer is accepted at once; what
        the kernel did not take waits in the channel — the sender asks
        ``poll()`` for a writable socket — and the sender's next call in
        moves it, here a blocking wait, until nothing is left."""
        data = np.arange(4_000_000, dtype=np.float64)  # 32 MB
        inbox = Inbox()
        listener = InboxListener(inbox)
        channel = open_data_channel(listener.address, transport="tcp")
        try:
            assert channel.try_send(FieldMessage(0, 0, 0, 0, data.size, data))
            assert channel.wait_events() & select.POLLOUT  # cut short
            channel.flush(timeout=30.0)
            got = inbox.recv(timeout=5.0)
            np.testing.assert_array_equal(got.data, data)
            assert not channel.wait_events()
        finally:
            channel.close()
            listener.close()

    def test_one_grant_per_batch_and_none_for_a_frame_outside_the_inbox(self):
        """The listener grants what entered the inbox: frames it read in
        one go share one grant, and before it waits on a full inbox it
        grants what it owes — never more."""
        msg = FieldMessage(0, 0, 0, 0, 32, np.arange(32.0))
        size = frame_nbytes(msg)
        inbox = Inbox(capacity_bytes=2 * msg.nbytes)  # holds two frames
        listener = InboxListener(inbox, recv_hwm_bytes=2 * size)
        sock = socket.create_connection(listener.address, timeout=5.0)
        try:
            assert recv_frame(sock) == Credit(2 * size)  # the window
            wire = b"".join(bytes(part) for part in encode_frame(msg))
            sock.sendall(3 * wire)  # one segment: read in one pump
            # two fit; the grant for both goes out before the listener
            # waits for room for the third
            assert recv_frame(sock) == Credit(2 * size)
            sock.settimeout(0.05)
            with pytest.raises(TimeoutError):
                recv_frame(sock)  # nothing granted for the frame outside
            sock.settimeout(5.0)
            inbox.recv(timeout=5.0)
            assert recv_frame(sock) == Credit(size)
        finally:
            sock.close()
            listener.close()

    def test_channel_protocol_conformance(self):
        listener = InboxListener(Inbox())
        channel = open_data_channel(listener.address, transport="tcp")
        try:
            assert isinstance(channel, Channel)
            assert isinstance(BoundedChannel(), Channel)
        finally:
            channel.close()
            listener.close()


class _ListenerFabric:
    """Test fabric: a DataListener per rank + the address table a lease
    would carry, so a SocketRouter can run without the coordinator."""

    def __init__(self, config, capacity=None):
        self.config = config
        self.partition = BlockPartition(config.ncells, config.server_ranks)
        self.ranks = []
        self.inboxes = []
        self.listeners = []
        for r in range(config.server_ranks):
            rank, inbox, listener = make_rank_endpoint(r, config, capacity)
            self.ranks.append(rank)
            self.inboxes.append(inbox)
            self.listeners.append(listener)

    def addresses(self):
        return tuple(l.address for l in self.listeners)

    def pump(self, deadline=5.0):
        """Drain every inbox into its rank until all are quiet."""
        end = time.monotonic() + deadline
        quiet = 0
        while quiet < 3 and time.monotonic() < end:
            moved = False
            for rank, inbox in zip(self.ranks, self.inboxes):
                msg = inbox.try_recv()
                if msg is not None:
                    rank.handle(msg, time.monotonic())
                    moved = True
            quiet = 0 if moved else quiet + 1
            if not moved:
                time.sleep(0.01)

    def close(self):
        for listener in self.listeners:
            listener.close()


class _CannedRendezvous:
    """Stands in for the coordinator control connection in SocketRouter:
    the router reads no frame of it outside a lease, so it holds only
    the rank address table a lease would carry, and :meth:`router` sets
    it on the router directly."""

    def __init__(self, config, addresses):
        self.config = config
        self.addresses = tuple(addresses)

    def router(self, **kw):
        from repro.net.worker import SocketRouter

        router = SocketRouter(self, self.config, **kw)
        router.addresses = self.addresses
        return router


@pytest.mark.parametrize(
    "ncells,server_ranks",
    [(10, 2), (11, 3), (10, 5), (7, 7)],  # even, ragged, tiny, 1-cell ranks
)
class TestSplittingThroughSocketPath:
    """Partition-boundary splitting exercised through the framed TCP path
    must integrate identically to handing the same messages to an
    in-process MelissaServer (the PR 1 splitting semantics)."""

    def _router(self, config, fabric):
        ctrl = _CannedRendezvous(config, fabric.addresses())
        return ctrl.router(name="test-worker")

    def test_straddles_match_inprocess_server(self, ncells, server_ranks):
        config = make_config(ncells=ncells, server_ranks=server_ranks)
        fabric = _ListenerFabric(config)
        router = self._router(config, fabric)
        reference = MelissaServer(config)
        try:
            messages = [
                # full-domain coverage: straddles every rank boundary
                group_message(0, 0, 0, ncells),
                # partial straddle mirroring the PR 1 [3, 8) fixture
                group_message(1, 0, 3, min(8, ncells)),
                group_message(1, 0, 0, 3),
            ]
            if ncells > 8:
                messages.append(group_message(1, 0, 8, ncells))
            for msg in messages:
                while not router.deliver(msg):  # the executor's loop
                    router.wait_progress(5.0)
                assert reference.handle(msg, now=0.0)
            router.flush(timeout=10.0)
            fabric.pump()
            for tcp_rank, ref_rank in zip(fabric.ranks, reference.ranks):
                assert tcp_rank.messages_processed == ref_rank.messages_processed
                assert tcp_rank.staged_entries == ref_rank.staged_entries
                np.testing.assert_array_equal(
                    tcp_rank.sobol.variance_map(0), ref_rank.sobol.variance_map(0)
                )
        finally:
            router.close()
            fabric.close()

    def test_field_message_straddle(self, ncells, server_ranks):
        config = make_config(ncells=ncells, server_ranks=server_ranks)
        fabric = _ListenerFabric(config)
        router = self._router(config, fabric)
        reference = MelissaServer(config)
        try:
            for member in range(4):
                msg = FieldMessage(
                    group_id=1, member=member, timestep=0,
                    cell_lo=0, cell_hi=ncells, data=np.arange(float(ncells)),
                )
                while not router.deliver(msg):  # the executor's loop
                    router.wait_progress(5.0)
                reference.handle(msg, now=0.0)
            router.flush(timeout=10.0)
            fabric.pump()
            for tcp_rank, ref_rank in zip(fabric.ranks, reference.ranks):
                assert tcp_rank.staged_entries == 0
                np.testing.assert_array_equal(
                    tcp_rank.sobol.mean_map(0), ref_rank.sobol.mean_map(0)
                )
        finally:
            router.close()
            fabric.close()

    def test_nonblocking_straddle_all_or_nothing(self, ncells, server_ranks):
        """A straddling message against saturated channels must deliver
        nothing (not a partial chunk set) and succeed on retry."""
        config = make_config(
            ncells=ncells, server_ranks=server_ranks,
            # budget below one chunk: every full outbox rejects new sends
            channel_capacity_bytes=1,
        )
        msg = group_message(0, 0, 0, ncells)
        fabric = _ListenerFabric(config, capacity=1)
        router = self._router(config, fabric)
        try:
            # saturate every channel until a straddling deliver refuses:
            # nothing drains the inboxes here, so every accepted send
            # consumes pipeline capacity for good and the loop terminates
            # in a genuinely saturated state
            fillers = []
            for rank in range(server_ranks):
                lo = int(fabric.partition.offsets[rank])
                fillers.append(group_message(2, 0, lo, lo + 1))
            deadline = time.monotonic() + 10.0
            while True:
                assert time.monotonic() < deadline, "channels never saturated"
                for filler in fillers:
                    while router.deliver(filler):
                        assert time.monotonic() < deadline
                before = [router._channel(r).stats.messages_sent
                          for r in range(server_ranks)]
                if not router.deliver(msg):
                    break  # saturated: the all-or-nothing case under test
                time.sleep(0.005)  # something drained mid-probe; refill
            after = [router._channel(r).stats.messages_sent
                     for r in range(server_ranks)]
            assert before == after, "partial chunks were enqueued"
            fabric.pump()
            deadline = time.monotonic() + 5.0
            while not router.deliver(msg):
                assert time.monotonic() < deadline
                fabric.pump(deadline=0.1)
                time.sleep(0.01)
        finally:
            router.close()
            fabric.close()


class TestTransportClientConformance:
    @staticmethod
    def _is_slab(slab, nmembers, ncells):
        return (
            slab.shape == (nmembers, ncells)
            and slab.dtype == np.float64
            and slab.flags.c_contiguous
            and slab.flags.writeable
        )

    def test_both_transports(self):
        from repro.transport.router import Router

        config = make_config()
        partition = BlockPartition(config.ncells, config.server_ranks)
        assert isinstance(Router(partition), TransportClient)
        fabric = _ListenerFabric(config)
        router = _CannedRendezvous(config, fabric.addresses()).router()
        try:
            assert isinstance(router, TransportClient)
            assert self._is_slab(router.payload(4, 2, 9), 4, 7)
        finally:
            router.close()
            fabric.close()

    def test_in_memory_payload_is_the_owning_ranks_slab(self):
        """A whole rank range with the field's member count draws on that
        rank's field, whose fold hands the slab back; any other range or
        member count, or a router without fields, gets a new slab."""
        from repro.sobol.martinez import UbiquitousSobolField
        from repro.transport.router import Router

        config = make_config(ncells=10, server_ranks=2)
        partition = BlockPartition(config.ncells, config.server_ranks)
        fields = [
            UbiquitousSobolField(
                config.nparams, config.ntimesteps, hi - lo, batch_size=1
            )
            for lo, hi in map(partition.range_of, range(config.server_ranks))
        ]
        router = Router(partition, fields=fields)
        nmembers = config.group_size
        lo, hi = partition.range_of(1)
        slab = router.payload(nmembers, lo, hi)
        assert self._is_slab(slab, nmembers, hi - lo)
        slab[...] = 1.0
        fields[1].update_group_buffer(0, slab)  # batch_size 1: folded now
        assert router.payload(nmembers, lo, hi) is slab
        for args in ((nmembers, lo, hi - 1), (nmembers - 1, lo, hi), (nmembers, 0, hi)):
            assert self._is_slab(router.payload(*args), args[0], args[2] - args[1])
        fresh = Router(partition).payload(nmembers, lo, hi)
        assert self._is_slab(fresh, nmembers, hi - lo) and fresh is not slab


class TestLeaseRankTable:
    """Every lease names each server rank's data address; the worker's
    router adopts the first table and keeps it until a reset."""

    @staticmethod
    def _router(config):
        from repro.net.worker import SocketRouter

        return SocketRouter(None, config)  # a lease is all it reads here

    @pytest.mark.parametrize(
        "ranks",
        [
            None,
            5,
            [("127.0.0.1", 7001)],
            [("127.0.0.1", 7001), ("127.0.0.1", "7002")],
            [("127.0.0.1", 7001), (b"127.0.0.1", 7002)],
            [("127.0.0.1", 7001), ("127.0.0.1", True)],
            [("127.0.0.1", 7001), "127.0.0.1:7002"],
            [("127.0.0.1", 7001), ("127.0.0.1", 7002, 0)],
        ],
        ids=["missing", "int", "too-few", "str-port", "bytes-host",
             "bool-port", "str-address", "triple"],
    )
    def test_a_malformed_table_is_a_protocol_error(self, ranks):
        router = self._router(make_config(server_ranks=2))
        lease = {"op": "group", "group_ids": [0]}
        if ranks is not None:
            lease["ranks"] = ranks
        with pytest.raises(ProtocolError, match="'ranks'"):
            router.take_ranks(lease)
        assert router.addresses is None

    def test_the_first_table_is_kept_until_a_reset(self):
        router = self._router(make_config(server_ranks=2))
        first = [("node-a", 7001), ("node-b", 7002)]
        fresh = [("node-a", 7101), ("node-b", 7102)]
        router.take_ranks({"op": "group", "group_ids": [0], "ranks": first})
        router.take_ranks({"op": "group", "group_ids": [1], "ranks": fresh})
        assert router.addresses == tuple(first)
        router.reset()
        assert router.addresses is None
        router.take_ranks({"op": "group", "group_ids": [2], "ranks": fresh})
        assert router.addresses == tuple(fresh)


class TestBackoffAndDial:
    """Jittered exponential backoff + named dial timeouts (ISSUE 7)."""

    def test_backoff_doubles_and_caps(self):
        gen = backoff_intervals(initial=0.05, cap=0.4, factor=2.0, jitter=0.0)
        first_six = [next(gen) for _ in range(6)]
        assert first_six == pytest.approx([0.05, 0.1, 0.2, 0.4, 0.4, 0.4])

    def test_jitter_is_bounded_and_seeded(self):
        def take(seed, n=8):
            gen = backoff_intervals(
                initial=0.05, cap=0.4, jitter=0.5, rng=random.Random(seed)
            )
            return [next(gen) for _ in range(n)]

        a, b = take(17), take(17)
        assert a == b  # deterministic under a seeded rng
        bases = [0.05, 0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4]
        for delay, base in zip(a, bases):
            assert base <= delay <= base * 1.5
        assert take(17) != take(18)  # and jitter actually varies

    def test_dial_timeout_names_the_address(self):
        # bind-then-close guarantees a port nothing is listening on
        probe = socket.create_server(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(DialTimeout, match=rf"127\.0\.0\.1:{port}") as exc:
            connect_with_retry(("127.0.0.1", port), timeout=0.3,
                               interval=0.01, max_interval=0.05)
        assert isinstance(exc.value, ConnectionError)
        assert isinstance(exc.value.__cause__, OSError)

    def test_connects_when_listener_is_up(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            conn = connect_with_retry(listener.getsockname(), timeout=5.0)
            accepted = FrameConnection(listener.accept()[0])
            try:
                conn.send({"op": "hello"})
                assert accepted.recv(timeout=5.0) == {"op": "hello"}
            finally:
                conn.close()
                accepted.close()
        finally:
            listener.close()


# --------------------------------------------------------------------- #
# hardened decoding: the length prefix is ground truth (ISSUE 9)
# --------------------------------------------------------------------- #
_FIELD_HEADER = struct.Struct("<qqqqq")
_PREFIX = struct.Struct("<I")


def _send_raw(parts):
    """Write raw bytes to one end of a socketpair, return the other."""
    a, b = socket.socketpair()
    with a:
        for part in parts:
            a.sendall(part)
    return b


class TestHardenedDecoder:
    """A header that contradicts the frame prefix must raise a named
    ProtocolError instead of desynchronizing the stream or allocating
    from attacker-controlled numbers."""

    def test_zero_length_prefix_rejected(self):
        with _send_raw([_PREFIX.pack(0) + b"X"]) as sock:
            with pytest.raises(ProtocolError, match="invalid frame length"):
                recv_frame(sock)

    def test_oversized_prefix_rejected(self):
        with _send_raw([_PREFIX.pack(0xFFFFFFFF)]) as sock:
            with pytest.raises(ProtocolError, match="invalid frame length"):
                recv_frame(sock)

    def test_field_header_cell_count_must_match_prefix(self):
        # header claims [0, 5) = 5 cells, prefix sized for 4 cells
        header = _FIELD_HEADER.pack(0, 0, 0, 0, 5)
        body_len = 1 + _FIELD_HEADER.size + 8 * 4
        payload = b"\0" * (8 * 4)
        raw = [_PREFIX.pack(body_len) + TAG_FIELD + header + payload]
        with _send_raw(raw) as sock:
            with pytest.raises(ProtocolError, match="claims 5 cells"):
                recv_frame(sock)

    def test_field_header_inverted_range_rejected(self):
        header = _FIELD_HEADER.pack(0, 0, 0, 7, 3)
        body_len = 1 + _FIELD_HEADER.size + 8
        with _send_raw([_PREFIX.pack(body_len) + TAG_FIELD + header]) as sock:
            with pytest.raises(ProtocolError, match="invalid cell range"):
                recv_frame(sock)

    def test_group_header_shape_must_match_prefix(self):
        # header claims 2x4 cells, prefix sized for 2x3
        header = _FIELD_HEADER.pack(0, 0, 0, 4, 2)  # group,step,lo,hi,nmembers
        body_len = 1 + _FIELD_HEADER.size + 8 * 2 * 3
        raw = [_PREFIX.pack(body_len) + TAG_GROUP_FIELD + header]
        with _send_raw(raw) as sock:
            with pytest.raises(ProtocolError, match="claims 2x4 cells"):
                recv_frame(sock)

    def test_group_header_inverted_range_rejected(self):
        header = _FIELD_HEADER.pack(0, 0, 5, 2, 3)  # lo=5 > hi=2
        body_len = 1 + _FIELD_HEADER.size + 8
        raw = [_PREFIX.pack(body_len) + TAG_GROUP_FIELD + header]
        with _send_raw(raw) as sock:
            with pytest.raises(ProtocolError, match="invalid shape"):
                recv_frame(sock)

    def test_protocol_error_is_not_connection_lost(self):
        assert issubclass(ProtocolError, ValueError)
        assert not issubclass(ProtocolError, ConnectionError)

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.integers(min_value=-4, max_value=64),
        hi=st.integers(min_value=-4, max_value=64),
        ncells_claimed=st.integers(min_value=1, max_value=64),
    )
    def test_mismatched_field_frames_never_decode_garbage(
        self, lo, hi, ncells_claimed
    ):
        """Any (lo, hi) header whose range disagrees with the prefix is
        rejected; only a consistent frame decodes."""
        header = _FIELD_HEADER.pack(1, 2, 3, lo, hi)
        body_len = 1 + _FIELD_HEADER.size + 8 * ncells_claimed
        payload = np.arange(ncells_claimed, dtype=np.float64).tobytes()
        raw = [_PREFIX.pack(body_len) + TAG_FIELD + header + payload]
        consistent = lo >= 0 and hi > lo and hi - lo == ncells_claimed
        with _send_raw(raw) as sock:
            if consistent:
                msg = recv_frame(sock)
                assert (msg.cell_lo, msg.cell_hi) == (lo, hi)
                np.testing.assert_array_equal(
                    msg.data, np.arange(ncells_claimed, dtype=np.float64)
                )
            else:
                with pytest.raises(ProtocolError):
                    recv_frame(sock)


#: one well-formed frame per control tag
_CONTROL_FRAMES = {
    "h": Heartbeat(sender="server-rank-0", time=1.5, metrics={"beats": 1}),
    "C": Credit(4096),
    "P": {"op": "next", "done": [1, 2]},
}


class TestTotalControlDecoder:
    """Every malformed control body is a ProtocolError, never the
    struct, unicode or unpickling error underneath — the coordinator,
    the data listener and the shm ring all drop a peer on it."""

    @pytest.mark.parametrize("tag", sorted(_CONTROL_FRAMES))
    def test_every_truncation_is_a_protocol_error(self, tag):
        msg = _CONTROL_FRAMES[tag]
        raw = b"".join(bytes(part) for part in encode_frame(msg))
        body = raw[_PREFIX.size + 1 :]
        assert raw[_PREFIX.size : _PREFIX.size + 1] == tag.encode()
        assert decode_control_body(tag.encode(), body) == msg
        for cut in range(len(body)):
            if tag == "h" and cut == struct.calcsize("<dH") + len(msg.sender):
                # the sender and no metrics: a well-formed liveness beat
                assert decode_control_body(b"h", body[:cut]).metrics is None
                continue
            with pytest.raises(ProtocolError):
                decode_control_body(tag.encode(), body[:cut])

    @pytest.mark.parametrize("tag", [b"Q", b"R"])
    def test_retired_handshake_tags_are_unknown(self, tag):
        """The handshake's request and reply tags are gone: a lease
        carries the rank address table, so ``Q`` and ``R`` bodies decode
        to nothing but the unknown-tag error."""
        for body in (b"", struct.pack("<qqq", 3, 10, 2)):
            with pytest.raises(ProtocolError, match="unknown frame tag"):
                decode_control_body(tag, body)

    def test_doorbell_with_a_body_is_a_protocol_error(self):
        assert decode_control_body(b"D", b"") == Doorbell()
        with pytest.raises(ProtocolError):
            decode_control_body(b"D", b"\x00")

    def test_undecodable_utf8_is_a_protocol_error(self):
        body = struct.pack("<dH", 0.0, 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError):
            decode_control_body(b"h", body)


class TestFrameReader:
    """Incremental decoder driving the selector event loops."""

    @staticmethod
    def _pair():
        a, b = socket.socketpair()
        b.setblocking(False)
        return a, b

    @staticmethod
    def _pump_all(reader, sock, deadline=5.0):
        frames = []
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            got = reader.pump(sock)
            if not got:
                return frames
            frames.extend(got)
        raise AssertionError("pump never drained")

    def test_single_byte_trickle(self):
        """Frames arrive intact even delivered one byte at a time."""
        msg = FieldMessage(7, 1, 2, 3, 9, np.arange(3.0, 9.0))
        wire = b"".join(bytes(p) for p in encode_frame(msg))
        a, b = self._pair()
        reader = FrameReader()
        try:
            frames = []
            for i in range(len(wire)):
                a.sendall(wire[i : i + 1])
                time.sleep(0)  # let loopback deliver
                frames.extend(self._pump_all(reader, b))
            assert len(frames) == 1
            out = frames[0]
            assert (out.group_id, out.member, out.timestep) == (7, 1, 2)
            np.testing.assert_array_equal(out.data, msg.data)
        finally:
            a.close()
            b.close()

    def test_coalesced_stream_decodes_every_frame(self):
        msgs = [
            Heartbeat(sender="w0", time=1.5),
            FieldMessage(0, 0, 0, 0, 4, np.ones(4)),
            Doorbell(),
            GroupFieldMessage(2, 1, 0, 3, np.ones((2, 3))),
            Credit(4096),
        ]
        wire = b"".join(
            bytes(p) for m in msgs for p in encode_frame(m)
        )
        a, b = self._pair()
        reader = FrameReader()
        try:
            a.sendall(wire)
            frames = self._pump_all(reader, b)
            assert [type(f).__name__ for f in frames] == [
                "Heartbeat", "FieldMessage", "Doorbell",
                "GroupFieldMessage", "Credit",
            ]
            assert frames[-1].nbytes == 4096
        finally:
            a.close()
            b.close()

    def test_eof_defers_until_buffered_frames_returned(self):
        """A goodbye frame riding the closing segment is delivered; the
        ConnectionLost surfaces on the *next* pump."""
        bye = {"op": "bye", "worker": "w3"}
        a, b = self._pair()
        reader = FrameReader()
        try:
            for part in encode_frame(bye):
                a.sendall(part)
            a.close()
            time.sleep(0.02)  # frame + EOF land in one readable window
            frames = reader.pump(b)
            assert frames == [bye]
            with pytest.raises(ConnectionLost):
                reader.pump(b)
        finally:
            b.close()

    def test_bare_eof_raises_immediately(self):
        a, b = self._pair()
        reader = FrameReader()
        try:
            a.close()
            with pytest.raises(ConnectionLost, match="peer closed"):
                reader.pump(b)
        finally:
            b.close()

    def test_corrupt_header_raises_protocol_error(self):
        header = _FIELD_HEADER.pack(0, 0, 0, 0, 5)
        body_len = 1 + _FIELD_HEADER.size + 8 * 4
        a, b = self._pair()
        reader = FrameReader()
        try:
            a.sendall(_PREFIX.pack(body_len) + TAG_FIELD + header)
            time.sleep(0.01)
            with pytest.raises(ProtocolError, match="claims 5 cells"):
                reader.pump(b)
        finally:
            a.close()
            b.close()

    @settings(max_examples=30, deadline=None)
    @given(
        ncells=st.lists(st.integers(min_value=1, max_value=40), min_size=1,
                        max_size=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_chunking_roundtrip(self, ncells, seed):
        """Arbitrary TCP segmentation never corrupts or drops frames."""
        rng = random.Random(seed)
        msgs = [
            FieldMessage(i, 0, 0, 0, n, np.arange(float(n)))
            for i, n in enumerate(ncells)
        ]
        wire = b"".join(bytes(p) for m in msgs for p in encode_frame(m))
        a, b = self._pair()
        reader = FrameReader()
        try:
            frames = []
            pos = 0
            while pos < len(wire):
                step = rng.randint(1, max(1, len(wire) // 3))
                a.sendall(wire[pos : pos + step])
                pos += step
                time.sleep(0)
                frames.extend(self._pump_all(reader, b))
            deadline = time.monotonic() + 5.0
            while len(frames) < len(msgs):
                assert time.monotonic() < deadline
                frames.extend(self._pump_all(reader, b))
            assert len(frames) == len(msgs)
            for sent, got in zip(msgs, frames):
                assert got.group_id == sent.group_id
                np.testing.assert_array_equal(got.data, sent.data)
        finally:
            a.close()
            b.close()


class TestCreditBurstsAndPartialWrites:
    def test_take_credits_sums_whole_frames_and_keeps_the_partial_one(self):
        frames = b"".join(
            bytes(part) for n in (10, 200, 3000) for part in encode_frame(Credit(n))
        )
        buf = bytearray(frames[:-5])
        assert take_credits(buf) == 210
        assert bytes(buf) == frames[26:-5]  # the cut frame waits for its tail
        buf += frames[-5:]
        assert take_credits(buf) == 3000
        assert not buf
        assert take_credits(buf) == 0

    def test_take_credits_rejects_anything_but_a_grant(self):
        buf = bytearray(b"".join(bytes(p) for p in encode_frame(Doorbell())) * 13)
        with pytest.raises(ProtocolError):
            take_credits(buf)

    def test_write_parts_resumes_where_a_full_socket_stopped_it(self):
        a, b = socket.socketpair()
        a.setblocking(False)
        try:
            msg = FieldMessage(3, 1, 2, 0, 500_000, np.arange(500_000.0))
            parts = encode_frame(msg)
            assert not write_parts(a, parts)  # 4 MB does not fit a socketpair
            assert parts, "the unsent tail stays in the list"
            got = []
            reader = threading.Thread(target=lambda: got.append(recv_frame(b)))
            reader.start()
            while not write_parts(a, parts):
                select_writable(a)
            reader.join(timeout=10.0)
            assert parts == []
            np.testing.assert_array_equal(got[0].data, msg.data)
            assert (got[0].group_id, got[0].member, got[0].timestep) == (3, 1, 2)
        finally:
            a.close()
            b.close()


def select_writable(sock):
    import select

    select.select([], [sock], [], 5.0)
