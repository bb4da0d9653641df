"""Shared-memory ring transport: ring mechanics, channel semantics,
fabric negotiation, and the same conformance bar as the TCP path.

The ring is the same-host fast path negotiated by
:func:`repro.net.channel.open_data_channel`: the listener offers a
segment, the client proves same-hostness by attaching it, and the data
plane moves to zero-syscall shared memory while the socket stays on as
doorbell + liveness probe.  Everything the paper's dual high-water-mark
semantics promise for TCP (Fig. 6a/b suspension, ChannelStats
accounting, acknowledged-before-done ordering) must hold unchanged here.
"""

import glob
import os
import socket
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from net_util import Inbox, InboxListener
from repro.net.channel import (
    SocketChannel,
    TransportNegotiationError,
    open_data_channel,
)
from repro.net.framing import Doorbell, FrameReader, encode_frame, frame_nbytes
from repro.net import shm
from repro.net.shm import (
    DEFAULT_RING_BYTES,
    MIN_RING_BYTES,
    ShmChannel,
    ShmRing,
    read_ring_frame,
    ring_bytes_for,
)
from repro.transport.base import Channel
from repro.transport.channel import ChannelClosed
from repro.transport.message import FieldMessage, GroupFieldMessage, owned

from test_net_framing import (
    _CannedRendezvous,
    group_message,
    make_config,
    make_rank_endpoint,
)
from repro.core.server import MelissaServer

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")


def field(group=0, member=0, step=0, lo=0, ncells=16, value=0.0):
    data = np.full(ncells, value, dtype=np.float64)
    return FieldMessage(group, member, step, lo, lo + ncells, data)


def drain_ring(ring):
    """Consume every complete frame currently published in the ring."""
    out = []
    while True:
        item = read_ring_frame(ring)
        if item is None:
            return out
        msg, total = item
        out.append(owned(msg))  # the payload is lent only until advance
        ring.advance(total)


def test_the_poison_fixture_fails_a_drain_that_keeps_borrowed_payloads():
    """The same drain as :func:`drain_ring` but keeping each ``msg``
    without ``owned()`` — a borrow-rule violation.  Under the module's
    poison fixture its first kept frame already reads NaN, so the
    round-trip check fails; the owning drain passes it (without the
    fixture both would pass: nothing overwrites the slots here)."""

    def drain_keeping_views(ring):
        out = []
        while True:
            item = read_ring_frame(ring)
            if item is None:
                return out
            msg, total = item
            out.append(msg)  # a view of the slot, kept past advance
            ring.advance(total)

    producer = ShmRing.create(MIN_RING_BYTES)
    consumer = ShmRing.attach(producer.name)
    sent = [field(member=m, value=m + 1.0) for m in range(3)]

    def round_trip(drain) -> bool:
        for msg in sent:
            producer.write(encode_frame(msg))
        got = drain(consumer)
        return all(
            np.array_equal(g.data, want.data)
            for want, g in zip(sent, got, strict=True)
        )

    try:
        assert round_trip(drain_ring)
        assert not round_trip(drain_keeping_views)
    finally:
        consumer.close()
        producer.close()
        producer.unlink()


class TestShmRing:
    def test_create_attach_roundtrip(self):
        ring = ShmRing.create(MIN_RING_BYTES)
        peer = ShmRing.attach(ring.name)
        try:
            msg = field(group=3, member=1, ncells=32, value=7.5)
            ring.write(encode_frame(msg))
            (out,) = drain_ring(peer)
            assert (out.group_id, out.member) == (3, 1)
            np.testing.assert_array_equal(out.data, msg.data)
            assert peer.used() == 0
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_capacity_clamped_to_minimum(self):
        ring = ShmRing.create(16)
        try:
            assert ring.capacity == MIN_RING_BYTES
        finally:
            ring.close()
            ring.unlink()

    def test_partial_frame_is_invisible_until_published(self):
        """The consumer never sees a frame before the producer's tail
        publish — the property that makes SIGKILL mid-write safe."""
        ring = ShmRing.create(MIN_RING_BYTES)
        peer = ShmRing.attach(ring.name)
        try:
            assert read_ring_frame(peer) is None
            # hand-write a prefix with no body behind it: used() stays 0
            # because only write() moves the tail
            assert peer.used() == 0
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_double_unlink_both_sides(self):
        ring = ShmRing.create(MIN_RING_BYTES)
        peer = ShmRing.attach(ring.name)
        peer.close()
        peer.unlink()
        ring.close()
        ring.unlink()  # second unlink of a gone segment must be silent

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=700), min_size=1,
                       max_size=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_wraparound_roundtrip(self, sizes, seed):
        """Frames of arbitrary sizes stream through a small ring intact,
        wrapping the physical boundary many times."""
        rng = np.random.default_rng(seed)
        ring = ShmRing.create(MIN_RING_BYTES)  # 64 KiB: forces wrapping
        peer = ShmRing.attach(ring.name)
        try:
            pending = []
            received = []
            for i, ncells in enumerate(sizes):
                msg = field(group=i, ncells=ncells,
                            value=float(rng.standard_normal()))
                parts = encode_frame(msg)
                total = sum(len(p) for p in parts)
                while ring.free() < total:
                    got = drain_ring(peer)
                    assert got, "ring full but nothing readable"
                    received.extend(got)
                ring.write(parts)
                pending.append(msg)
            received.extend(drain_ring(peer))
            assert len(received) == len(pending)
            for sent, got in zip(pending, received):
                assert got.group_id == sent.group_id
                np.testing.assert_array_equal(got.data, sent.data)
        finally:
            peer.close()
            ring.close()
            ring.unlink()

    def test_ring_bytes_for_scales_with_hwm_and_frame(self):
        assert ring_bytes_for(None) == DEFAULT_RING_BYTES
        assert ring_bytes_for(DEFAULT_RING_BYTES) == 2 * DEFAULT_RING_BYTES
        assert ring_bytes_for(None, max_frame_hint=DEFAULT_RING_BYTES) == (
            2 * DEFAULT_RING_BYTES
        )


def open_shm_pair(recv_hwm=None, send_hwm=None, inbox_capacity=None):
    inbox = Inbox(capacity_bytes=inbox_capacity, name="rank-inbox")
    listener = InboxListener(inbox, recv_hwm_bytes=recv_hwm, transport="auto")
    channel = open_data_channel(
        listener.address, transport="shm", send_hwm_bytes=send_hwm,
        name="test-shm",
    )
    assert isinstance(channel, ShmChannel)
    return inbox, listener, channel


class TestShmChannelSemantics:
    def test_channel_protocol_conformance(self):
        inbox, listener, channel = open_shm_pair()
        try:
            assert isinstance(channel, Channel)
        finally:
            channel.close()
            listener.close()

    def test_delivery_order_and_stats(self):
        inbox, listener, channel = open_shm_pair()
        try:
            msgs = [field(member=m, ncells=48, value=float(m)) for m in range(8)]
            for msg in msgs:
                assert channel.try_send(msg)
            channel.flush(timeout=10.0)
            out = [inbox.recv(timeout=2.0) for _ in range(8)]
            assert [m.member for m in out] == list(range(8))
            for sent, got in zip(msgs, out):
                np.testing.assert_array_equal(got.data, sent.data)
            assert channel.stats.messages_sent == 8
            assert channel.stats.bytes_sent == sum(frame_nbytes(m) for m in msgs)
        finally:
            channel.close()
            listener.close()

    def test_sender_suspends_when_both_sides_full(self):
        """Fig. 6a/b on shared memory: a non-draining inbox backs the
        ring up, the send window exhausts, try_send -> False, and
        draining the inbox releases the pipeline."""
        msg = field(ncells=64)
        size = frame_nbytes(msg)
        inbox, listener, channel = open_shm_pair(
            recv_hwm=size, send_hwm=size, inbox_capacity=size
        )
        try:
            sent = 0
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if channel.try_send(msg):
                    sent += 1
                elif sent >= 2:
                    break
                else:
                    time.sleep(0.005)
            assert not channel.try_send(msg), "channel should be saturated"
            assert channel.stats.send_blocks > 0
            drained = 0
            while drained < sent:
                got = inbox.try_recv()
                if got is None:
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

    def test_blocking_send_accounts_blocked_seconds(self):
        msg = field(ncells=64)
        size = frame_nbytes(msg)
        inbox, listener, channel = open_shm_pair(
            send_hwm=size, inbox_capacity=size
        )
        try:
            deadline = time.monotonic() + 5.0
            while channel.try_send(msg):
                assert time.monotonic() < deadline
                time.sleep(0.002)
            with pytest.raises(TimeoutError):
                channel.send(msg, timeout=0.05)
            assert channel.stats.blocked_seconds > 0.0
        finally:
            channel.close()
            listener.close()

    def test_oversized_message_admitted_when_idle(self):
        """A frame bigger than the HWM must still be deliverable when the
        window is idle (the fabric's oversized-into-empty rule)."""
        inbox, listener, channel = open_shm_pair(send_hwm=256)
        try:
            big = field(ncells=4096)  # ~32 KiB >> 256-byte HWM
            assert channel.try_send(big)
            channel.flush(timeout=10.0)
            out = inbox.recv(timeout=2.0)
            np.testing.assert_array_equal(out.data, big.data)
        finally:
            channel.close()
            listener.close()

    def test_broken_channel_raises(self):
        inbox, listener, channel = open_shm_pair()
        listener.close()
        try:
            deadline = time.monotonic() + 5.0
            while not channel.broken:
                assert time.monotonic() < deadline, "peer loss never noticed"
                time.sleep(0.01)
            with pytest.raises(ChannelClosed):
                channel.send(field())
            with pytest.raises(ChannelClosed):
                channel.can_accept(64)
        finally:
            channel.close()

    def test_peer_death_unlinks_segment(self):
        """When the rank dies holding the segment (no unlink of its own),
        the producer's next look at the socket finds the EOF and removes
        the segment name — a SIGKILLed deployment leaks nothing."""
        side = _ConsumerSide()
        path = "/dev/shm/" + side.ring.name.lstrip("/")
        try:
            assert os.path.exists(path)
            side.sock.close()  # the rank is gone: only its socket says so
            assert os.path.exists(path)  # no thread noticed behind our back
            assert side.channel.broken
            assert not os.path.exists(path)
            with pytest.raises(ChannelClosed):
                side.channel.wait_acked(side.channel.sent() + 1, timeout=5.0)
        finally:
            side.close()


class _ConsumerSide:
    """The test plays the rank: it owns the ring's consumer end and the
    socket the producer's doorbells arrive on."""

    def __init__(self, send_hwm=None, capacity=MIN_RING_BYTES):
        self.ring = ShmRing.create(capacity)
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        self.sock = ours
        self._reader = FrameReader()
        self.channel = ShmChannel(
            theirs, ShmRing.attach(self.ring.name), send_hwm_bytes=send_hwm,
            name="doorbell-test",
        )

    def doorbells(self):
        """Doorbell frames that arrived since the last call."""
        return sum(isinstance(f, Doorbell) for f in self._reader.pump(self.sock))

    def close(self):
        self.channel.close()
        self.sock.close()
        self.ring.close()
        self.ring.unlink()


class TestDoorbellsAndProgressWaits:
    def test_awake_consumer_on_a_saturated_ring_is_never_rung(self):
        """A consumer that has not declared it is going to sleep re-scans
        the ring on its own: no publish may cost it a syscall, not even
        the one that makes an empty ring non-empty."""
        msg = field(ncells=256)
        side = _ConsumerSide(send_hwm=4 * frame_nbytes(msg))
        try:
            published = 0
            for _ in range(5):  # saturate, drain to empty, saturate again
                while side.channel.try_send(msg):
                    published += 1
                assert len(drain_ring(side.ring)) > 0
                assert side.ring.used() == 0
            assert published >= 20
            assert side.doorbells() == 0
        finally:
            side.close()

    def test_sleeping_consumer_is_rung_once_per_sleep(self):
        msg = field(ncells=16)
        side = _ConsumerSide()
        try:
            for burst in (3, 1, 4):
                side.ring.set_consumer_waiting(True)  # "about to select()"
                for _ in range(burst):
                    assert side.channel.try_send(msg)
                assert not side.ring.consumer_waiting  # cleared by the ring
                assert side.doorbells() == 1
                assert len(drain_ring(side.ring)) == burst
        finally:
            side.close()

    def test_a_producer_blocked_on_a_full_ring_wakes_on_the_ranks_drain(
        self, monkeypatch
    ):
        """A sender suspended on a full ring sleeps until the rank's drain
        rings it, with no timer in between (``time.sleep`` raises here),
        and the wait is counted as the channel's suspended time."""
        msg = field(ncells=256)
        size = frame_nbytes(msg)
        inbox, listener, channel = open_shm_pair(
            send_hwm=2 * size, inbox_capacity=size
        )

        def no_timer(seconds):
            raise AssertionError(f"the producer slept on a timer ({seconds}s)")

        try:
            deadline = time.monotonic() + 5.0
            while True:  # saturate until the rank is stuck on its inbox
                while channel.try_send(msg):
                    assert time.monotonic() < deadline
                time.sleep(0.05)
                if not channel.try_send(msg):
                    break
            before = channel.stats.messages_sent
            monkeypatch.setattr(shm, "time", types.SimpleNamespace(
                monotonic=time.monotonic, sleep=no_timer
            ))
            drainer = threading.Timer(
                0.2, lambda: [inbox.recv(timeout=5.0) for _ in range(2)]
            )
            drainer.start()
            channel.send(msg, timeout=20.0)  # ... until the pop frees a slot
            drainer.join(timeout=10.0)
            assert channel.stats.messages_sent == before + 1
            assert 0.1 < channel.stats.blocked_seconds < 10.0
        finally:
            channel.close()
            listener.close()

    def test_cursors_and_wait_acked(self):
        msg = field(ncells=16)
        size = frame_nbytes(msg)
        side = _ConsumerSide()
        channel = side.channel
        try:
            assert (channel.sent(), channel.acked()) == (0, 0)
            assert channel.try_send(msg) and channel.try_send(msg)
            assert (channel.sent(), channel.acked()) == (2 * size, 0)
            assert not channel.wait_acked(size, timeout=0.02)
            with pytest.raises(TimeoutError):
                channel.flush(timeout=0.02)
            item = read_ring_frame(side.ring)
            side.ring.advance(item[1])  # the first frame "entered the inbox"
            assert channel.wait_acked(size, timeout=5.0)
            assert not channel.wait_acked(2 * size, timeout=0.02)
            side.ring.close_consumer()  # the rank went away mid-wait
            with pytest.raises(ChannelClosed):
                channel.wait_acked(2 * size, timeout=5.0)
        finally:
            side.close()


def test_a_worker_fabric_starts_no_thread():
    """Both fabrics saturated — the TCP window and backlog full, the
    ring at its budget — then a blocking send, a flush and a close: the
    calling thread does all of it, no thread is started for either."""
    msg = field(ncells=256)
    size = frame_nbytes(msg)
    inbox = Inbox(capacity_bytes=size)
    listener = InboxListener(inbox, recv_hwm_bytes=size, transport="auto")
    go, stop = threading.Event(), threading.Event()

    def drain():  # the rank's consumer, held until both are saturated
        go.wait(20.0)
        while not stop.is_set():
            try:
                inbox.recv(timeout=0.1)
            except TimeoutError:
                pass

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    before = set(threading.enumerate())
    channels = [
        open_data_channel(listener.address, transport=t, send_hwm_bytes=size)
        for t in ("tcp", "shm")
    ]
    try:
        assert [type(ch) for ch in channels] == [SocketChannel, ShmChannel]
        deadline = time.monotonic() + 10.0
        for channel in channels:
            while channel.try_send(msg):
                assert time.monotonic() < deadline
            assert channel.stats.send_blocks > 0
        assert set(threading.enumerate()) == before
        go.set()
        for channel in channels:
            channel.send(msg, timeout=10.0)
            channel.flush(timeout=10.0)
            assert set(threading.enumerate()) == before
            channel.close()
        assert set(threading.enumerate()) == before
    finally:
        for channel in channels:
            channel.close()
        stop.set()
        go.set()
        drainer.join(timeout=5.0)
        listener.close()


class TestFabricNegotiation:
    def test_auto_auto_negotiates_shm(self):
        inbox = Inbox()
        listener = InboxListener(inbox, transport="auto")
        channel = open_data_channel(listener.address, transport="auto")
        try:
            assert isinstance(channel, ShmChannel)
        finally:
            channel.close()
            listener.close()

    def test_tcp_listener_forces_fallback(self):
        inbox = Inbox()
        listener = InboxListener(inbox, transport="tcp")
        channel = open_data_channel(listener.address, transport="auto")
        try:
            assert isinstance(channel, SocketChannel)
            msg = field(ncells=8)
            channel.send(msg, timeout=5.0)
            channel.flush(timeout=5.0)
            out = inbox.recv(timeout=2.0)
            np.testing.assert_array_equal(out.data, msg.data)
        finally:
            channel.close()
            listener.close()

    def test_tcp_client_skips_negotiation(self):
        inbox = Inbox()
        listener = InboxListener(inbox, transport="auto")
        channel = open_data_channel(listener.address, transport="tcp")
        try:
            assert isinstance(channel, SocketChannel)
        finally:
            channel.close()
            listener.close()

    def test_forced_shm_against_tcp_listener_errors(self):
        inbox = Inbox()
        listener = InboxListener(inbox, transport="tcp")
        try:
            with pytest.raises(TransportNegotiationError):
                open_data_channel(listener.address, transport="shm")
        finally:
            listener.close()

    def test_plain_socket_channel_still_served(self):
        """A tcp-pinned client sends no negotiation frames at all to an
        auto listener: data flows, credits flow."""
        inbox = Inbox()
        listener = InboxListener(inbox, transport="auto")
        channel = open_data_channel(listener.address, transport="tcp")
        try:
            msg = field(ncells=8)
            channel.send(msg, timeout=5.0)
            channel.flush(timeout=5.0)
            out = inbox.recv(timeout=2.0)
            np.testing.assert_array_equal(out.data, msg.data)
        finally:
            channel.close()
            listener.close()

    def test_listener_prunes_disconnected_conns(self):
        """Regression for the DataListener leak: the connection table
        must not grow across connect/disconnect cycles."""
        inbox = Inbox()
        listener = InboxListener(inbox, transport="auto")
        try:
            for transport in ("tcp", "shm", "tcp", "shm"):
                channel = open_data_channel(listener.address, transport=transport)
                deadline = time.monotonic() + 5.0
                while listener.open_connections != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                channel.close()
                deadline = time.monotonic() + 5.0
                while listener.open_connections != 0:
                    assert time.monotonic() < deadline, "conn never pruned"
                    time.sleep(0.005)
        finally:
            listener.close()

    def test_no_segments_leaked(self):
        before = set(glob.glob("/dev/shm/psm_*"))
        inbox = Inbox()
        listener = InboxListener(inbox, transport="auto")
        channels = [
            open_data_channel(listener.address, transport="shm")
            for _ in range(3)
        ]
        for ch in channels:
            ch.send(field(), timeout=5.0)
            ch.flush(timeout=5.0)
            ch.close()
        listener.close()
        deadline = time.monotonic() + 5.0
        while set(glob.glob("/dev/shm/psm_*")) - before:
            assert time.monotonic() < deadline, (
                f"leaked: {set(glob.glob('/dev/shm/psm_*')) - before}"
            )
            time.sleep(0.01)


@pytest.mark.parametrize(
    "ncells,server_ranks",
    [(10, 2), (11, 3), (7, 7)],  # even, ragged, 1-cell ranks
)
class TestSplittingThroughShmPath:
    """The PR 1 partition-straddle semantics, pushed through the
    shared-memory fabric instead of TCP: identical integration to an
    in-process MelissaServer."""

    def _fabric_and_router(self, config):
        ranks, inboxes, listeners = [], [], []
        for r in range(config.server_ranks):
            rank, inbox, listener = make_rank_endpoint(r, config)
            ranks.append(rank)
            inboxes.append(inbox)
            listeners.append(listener)
        addresses = tuple(l.address for l in listeners)
        router = _CannedRendezvous(config, addresses).router(name="shm-worker")
        return ranks, inboxes, listeners, router

    def test_straddles_match_inprocess_server(self, ncells, server_ranks):
        config = make_config(
            ncells=ncells, server_ranks=server_ranks, transport="shm"
        )
        ranks, inboxes, listeners, router = self._fabric_and_router(config)
        reference = MelissaServer(config)
        try:
            for rank in range(server_ranks):
                assert isinstance(router._channel(rank), ShmChannel)
            messages = [
                group_message(0, 0, 0, ncells),
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
            end = time.monotonic() + 5.0
            quiet = 0
            while quiet < 3 and time.monotonic() < end:
                moved = False
                for rank, inbox in zip(ranks, inboxes):
                    msg = inbox.try_recv()
                    if msg is not None:
                        rank.handle(msg, time.monotonic())
                        moved = True
                quiet = 0 if moved else quiet + 1
                if not moved:
                    time.sleep(0.01)
            for shm_rank, ref_rank in zip(ranks, reference.ranks):
                assert shm_rank.messages_processed == ref_rank.messages_processed
                assert shm_rank.staged_entries == ref_rank.staged_entries
                np.testing.assert_array_equal(
                    shm_rank.sobol.variance_map(0), ref_rank.sobol.variance_map(0)
                )
        finally:
            router.close()
            for listener in listeners:
                listener.close()
