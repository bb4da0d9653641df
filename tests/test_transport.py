"""Tests for messages, bounded channels, and the router."""

import numpy as np
import pytest

from repro.mesh.partition import BlockPartition
from repro.transport import (
    BoundedChannel,
    ChannelClosed,
    FieldMessage,
    Router,
    redistribution_plan,
    total_stats,
)


class TestFieldMessage:
    def make(self, **kw):
        args = dict(
            group_id=3, member=1, timestep=5, cell_lo=10, cell_hi=14,
            data=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        args.update(kw)
        return FieldMessage(**args)

    def test_roundtrip_bytes(self):
        msg = self.make()
        back = FieldMessage.from_bytes(msg.to_bytes())
        assert back.group_id == 3 and back.member == 1 and back.timestep == 5
        assert (back.cell_lo, back.cell_hi) == (10, 14)
        np.testing.assert_array_equal(back.data, msg.data)

    def test_nbytes_matches_wire(self):
        msg = self.make()
        assert msg.nbytes == len(msg.to_bytes())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            self.make(data=np.zeros(3))

    def test_negative_ids(self):
        with pytest.raises(ValueError):
            self.make(timestep=-1)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            FieldMessage.from_bytes(b"\x00" * 100)

    def test_2d_data_rejected(self):
        with pytest.raises(ValueError):
            FieldMessage(0, 0, 0, 0, 4, np.zeros((2, 2)))


class TestBoundedChannel:
    def msg(self, n=8):
        return FieldMessage(0, 0, 0, 0, n, np.zeros(n))

    def test_fifo_order(self):
        ch = BoundedChannel()
        for i in range(5):
            ch.try_send(("m", i))
        assert [m[1] for m in ch.drain()] == list(range(5))

    def test_try_send_respects_capacity(self):
        m = self.msg()
        ch = BoundedChannel(capacity_bytes=2 * m.nbytes)
        assert ch.try_send(m)
        assert ch.try_send(m)
        assert not ch.try_send(m)  # full
        assert ch.stats.send_blocks == 1
        ch.drain()
        assert ch.try_send(m)  # space freed

    def test_oversized_message_admitted_when_empty(self):
        big = FieldMessage(0, 0, 0, 0, 100, np.zeros(100))
        ch = BoundedChannel(capacity_bytes=8)
        assert ch.try_send(big)  # would deadlock forever otherwise
        assert not ch.try_send(big)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedChannel(capacity_bytes=0)

    def test_try_recv_empty(self):
        ch = BoundedChannel()
        assert ch.drain() == []
        assert ch.stats.messages_received == 0

    def test_stats_accounting(self):
        m = self.msg()
        ch = BoundedChannel()
        ch.try_send(m)
        ch.try_send(m)
        assert ch.stats.messages_sent == 2
        assert ch.stats.bytes_sent == 2 * m.nbytes
        assert ch.stats.high_water_bytes == 2 * m.nbytes
        ch.drain()
        assert ch.stats.messages_received == 2
        assert ch.pending_bytes == 0

    def test_close_semantics(self):
        ch = BoundedChannel()
        ch.try_send("x")
        ch.close()
        with pytest.raises(ChannelClosed):
            ch.try_send("y")
        assert not ch.can_accept(1)
        assert ch.drain() == ["x"]  # drain allowed
        assert ch.drain() == []

    def test_control_messages_use_default_size(self):
        ch = BoundedChannel(capacity_bytes=100)
        assert ch.try_send("tiny")
        assert ch.pending_bytes == 64


class TestRouter:
    def make_router(self, ncells=20, nserver=3, capacity=None):
        return Router(BlockPartition(ncells, nserver), channel_capacity_bytes=capacity)

    def test_whole_field_delivery_covers_every_rank(self):
        """A whole-field message is split into one chunk per server rank
        and the chunks cover the field exactly."""
        router = self.make_router(ncells=20, nserver=3)
        field = np.arange(20.0)
        assert router.deliver(FieldMessage(0, 1, 2, 0, 20, field))
        rebuilt = np.full(20, np.nan)
        for rank, ch in router.inbound.items():
            [chunk] = ch.drain()
            assert chunk.member == 1 and chunk.timestep == 2
            lo, hi = router.server_partition.range_of(rank)
            assert (chunk.cell_lo, chunk.cell_hi) == (lo, hi)
            rebuilt[lo:hi] = chunk.data
        np.testing.assert_array_equal(rebuilt, field)

    def test_backpressure_returns_undelivered(self):
        router = self.make_router(ncells=20, nserver=1, capacity=100)
        msg = FieldMessage(0, 0, 0, 0, 20, np.zeros(20))
        assert router.deliver(msg)  # fits (oversized-empty rule)
        refused = FieldMessage(0, 0, 1, 0, 20, np.zeros(20))
        assert not router.deliver(refused)
        assert router.inbound[0].pending_messages == 1
        # drain, then retry succeeds
        router.inbound[0].drain()
        assert router.deliver(refused)

    def test_deliver_splits_straddling_message(self):
        """A message spanning a partition boundary is split at the
        fenceposts instead of being routed whole by its first cell."""
        router = self.make_router(ncells=20, nserver=3)  # fenceposts 0,7,14,20
        msg = FieldMessage(group_id=0, member=0, timestep=0,
                          cell_lo=5, cell_hi=16, data=np.arange(11.0))
        assert router.deliver(msg)
        rebuilt = np.full(20, np.nan)
        for rank, ch in router.inbound.items():
            for got in ch.drain():
                lo, hi = router.server_partition.range_of(rank)
                assert lo <= got.cell_lo < got.cell_hi <= hi
                rebuilt[got.cell_lo:got.cell_hi] = got.data
        np.testing.assert_array_equal(rebuilt[5:16], np.arange(11.0))
        assert np.isnan(rebuilt[:5]).all() and np.isnan(rebuilt[16:]).all()

    def test_deliver_split_respects_backpressure(self):
        router = self.make_router(ncells=20, nserver=2, capacity=100)
        # fill rank 1's buffer so the second chunk cannot be delivered
        blocker = FieldMessage(0, 0, 0, 10, 20, np.zeros(10))
        assert router.deliver(blocker)
        straddle = FieldMessage(0, 0, 1, 5, 15, np.zeros(10))
        assert not router.deliver(straddle)
        for ch in router.inbound.values():
            ch.drain()
        assert router.deliver(straddle)  # retry after drain succeeds

    def test_deliver_out_of_range_rejected(self):
        router = self.make_router(ncells=20, nserver=2)
        msg = FieldMessage(0, 0, 0, 15, 25, np.zeros(10))
        with pytest.raises(ValueError):
            router.deliver(msg)

    def test_total_stats(self):
        router = self.make_router(ncells=20, nserver=2)
        assert router.deliver(FieldMessage(0, 0, 0, 0, 20, np.zeros(20)))
        stats = total_stats(router.inbound.values())
        assert stats["messages_sent"] == 2  # split across 2 server ranks
        assert stats["bytes_sent"] > 0

    def test_close(self):
        router = self.make_router()
        router.close()
        with pytest.raises(ChannelClosed):
            router.inbound[0].try_send("x")


class TestRedistributionPlan:
    def test_plan_alias(self):
        plan = redistribution_plan(BlockPartition(10, 2), BlockPartition(10, 5))
        assert len(plan) == 2
        # client rank 0 owns [0,5) -> server ranks 0,1,2 ([0,2),[2,4),[4,5))
        assert plan[0] == [(0, 0, 2), (1, 2, 4), (2, 4, 5)]
