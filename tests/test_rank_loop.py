"""One thread per server rank (ISSUE 17): the rank drives the data
listener's loop body itself and folds straight from the ring.

* a frame is acknowledged — the ring's head advanced, the TCP credit
  granted — only after the sink returned, so acknowledged = handled;
* a ring payload is lent (a read-only view of its slot) and never kept;
* the consumer looks at its rings for a bounded time before it parks, so
  a frame published inside the look costs no doorbell, and a parked
  consumer costs exactly one;
* heartbeats come from inside the drain, control frames are seen in the
  turn they arrive, and the rank process has no data-plane thread.

Nothing here is paced by ``sleep()``: the tests drive ``turn()`` by hand,
inject the producer at the exact point of the consumer's loop they are
about (its yield, its park), or wait on blocking socket reads.
"""

import socket
import threading
import time

import numpy as np
import pytest

from net_util import Inbox, InboxListener, retry_on_eaddrinuse
from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.core.server import ServerRank
from repro.faults import ProcessFault
from repro.mesh.partition import BlockPartition
from repro.net import channel as net_channel
from repro.net import serve as net_serve
from repro.net import shm as net_shm
from repro.net.channel import DataListener, open_data_channel
from repro.net.coordinator import study_fingerprint
from repro.net.framing import (
    Doorbell,
    FrameConnection,
    encode_frame,
    frame_nbytes,
)
from repro.net.shm import MIN_RING_BYTES, ShmRing, read_ring_frame
from repro.runtime.distributed import DistributedRuntime
from repro.runtime.sequential import SequentialRuntime
from repro.sobol import IshigamiFunction
from repro.transport.message import (
    FieldMessage,
    GroupFieldMessage,
    Heartbeat,
    owned,
    split_by_partition,
)

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 16
FABRICS = ["tcp", "shm"]


def make_config(ngroups=6, ntimesteps=2, ncells=NCELLS, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    kw.setdefault("server_ranks", 1)
    # a pinned backend: the bit-for-bit comparisons run the same on any host
    kw.setdefault("kernel", "einsum")
    kw.setdefault("fold_threads", 1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps,
        ncells=ncells, seed=7, **kw,
    )
    return fn, config


def group_frame(config, group, step, lo=0, hi=None, seed=0):
    hi = config.ncells if hi is None else hi
    rng = np.random.default_rng(1000 * seed + 10 * group + step)
    return GroupFieldMessage(
        group, step, lo, hi, rng.standard_normal((config.group_size, hi - lo))
    )


def connect(listener, transport, **kw):
    """Open a data channel against a hand-driven listener: the dial (and
    the shm negotiation) runs on a helper thread while this one turns
    the loop — blocking in ``select``, not sleeping."""
    out = []
    dial = threading.Thread(
        target=lambda: out.append(
            open_data_channel(listener.address, transport=transport, **kw)
        ),
        daemon=True,
    )
    dial.start()
    deadline = time.monotonic() + 10.0
    while dial.is_alive():
        assert time.monotonic() < deadline, "negotiation never finished"
        listener.turn(0.05)
    assert out, "open_data_channel failed"
    if transport == "shm":  # the client's ack may still be on the wire
        turn_until(
            listener, lambda: any(c.ring for c in listener._conns.values())
        )
    return out[0]


def turn_until(listener, done, timeout=10.0):
    """Turn the loop (blocking in its ``select``) until ``done()``."""
    deadline = time.monotonic() + timeout
    while not done():
        assert time.monotonic() < deadline, "the loop never got there"
        listener.turn(0.05)


# --------------------------------------------------------------------- #
# (i) the acknowledgement moves only after the sink returned
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", FABRICS)
def test_a_raising_sink_leaves_the_frame_unacknowledged(transport):
    fn, config = make_config()
    first, second = group_frame(config, 0, 0), group_frame(config, 1, 0)
    size = frame_nbytes(first)
    seen = []

    def sink(msg):
        if msg.group_id == 1:
            raise RuntimeError("handle failed")
        seen.append(msg.group_id)

    listener = DataListener(sink, transport=transport)
    channel = connect(listener, transport)
    try:
        assert channel.try_send(first) and channel.try_send(second)
        assert channel.acked() == 0  # nothing is acknowledged unhandled
        with pytest.raises(RuntimeError, match="handle failed"):
            while True:
                listener.turn(5.0)
        assert seen == [0]
        # the handled frame is acknowledged (the grant went out before the
        # error left the loop) ...
        assert channel.wait_acked(size, timeout=5.0)
        # ... the one whose sink raised is not, and the worker's cursor
        # stays behind it
        assert channel.acked() == size < channel.sent()
        assert listener.stats.messages_received == 1
        if transport == "shm":
            # the head never moved past it: the ring still holds the frame
            listener.sink = lambda msg: seen.append(msg.group_id)
            turn_until(listener, lambda: seen == [0, 1])
            assert channel.wait_acked(2 * size, timeout=5.0)
    finally:
        channel.close()
        listener.close()


@pytest.mark.parametrize("transport", FABRICS)
def test_inside_the_sink_the_frame_is_not_yet_acknowledged(transport):
    fn, config = make_config()
    frames = [group_frame(config, g, 0) for g in range(5)]
    size = frame_nbytes(frames[0])
    state = {"handled": 0, "early": []}
    listener = DataListener(transport=transport)
    channel = connect(listener, transport)

    def sink(msg):
        # at most the frames the sink already returned from are acknowledged
        if channel.acked() > state["handled"] * size:
            state["early"].append(msg.group_id)
        state["handled"] += 1

    listener.sink = sink
    try:
        for msg in frames:
            assert channel.try_send(msg)
        turn_until(listener, lambda: state["handled"] == len(frames))
        assert state["early"] == []
        assert channel.wait_acked(channel.sent(), timeout=5.0)
    finally:
        channel.close()
        listener.close()


# --------------------------------------------------------------------- #
# (ii) acknowledged = handled
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", FABRICS)
def test_wait_acked_implies_the_rank_counted_the_frame(transport):
    """A worker thread streams frames and checks, at the instant each
    ``wait_acked`` returns, that ``messages_processed`` already counts
    every frame behind the mark."""
    fn, config = make_config(ngroups=12, ntimesteps=1)
    rank = ServerRank(0, config, BlockPartition(config.ncells, 1))
    listener = DataListener(
        lambda msg: rank.handle(msg, time.monotonic()), transport=transport
    )
    channel = connect(listener, transport)
    behind = []

    def worker():
        for group in range(config.ngroups):
            channel.send(group_frame(config, group, 0), timeout=10.0)
            assert channel.wait_acked(channel.sent(), timeout=10.0)
            if rank.messages_processed < group + 1:
                behind.append((group, rank.messages_processed))

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    try:
        turn_until(listener, lambda: not thread.is_alive())
        assert behind == []
        assert rank.messages_processed == config.ngroups
        assert listener.stats.messages_received == config.ngroups
    finally:
        channel.close()
        listener.close()


# --------------------------------------------------------------------- #
# (iii) a borrowed payload is never kept
# --------------------------------------------------------------------- #
class TestBorrowedPayloads:
    def _ring_pair(self):
        ring = ShmRing.create(MIN_RING_BYTES)
        return ring, ShmRing.attach(ring.name)

    def _close(self, *rings):
        for ring in rings:
            ring.close()
        rings[0].unlink()

    def test_the_decoder_lends_a_read_only_view_of_the_slot(self):
        fn, config = make_config()
        producer, consumer = self._ring_pair()
        try:
            for msg in (
                group_frame(config, 0, 0),
                FieldMessage(0, 1, 0, 0, 8, np.arange(8.0)),
            ):
                producer.write(encode_frame(msg))
                got, total = read_ring_frame(consumer)
                assert not got.data.flags.writeable and not got.data.flags.owndata
                np.testing.assert_array_equal(got.data, msg.data)
                kept = owned(got)
                assert kept.data.flags.writeable and kept is not got
                consumer.advance(total)
                consumer._dmv[:] = b"\xff" * consumer.capacity  # slot reused
                np.testing.assert_array_equal(kept.data, msg.data)
                del got
            own = group_frame(config, 1, 0)
            assert owned(own) is own  # an owned payload is kept as it is
            assert owned({"op": "next"}) == {"op": "next"}
        finally:
            self._close(producer, consumer)

    def test_a_payload_that_wraps_the_ring_end_is_copied_out(self):
        producer, consumer = self._ring_pair()
        try:
            ncells = (MIN_RING_BYTES // 8) // 3  # three frames pass the end
            wrapped = 0
            for i in range(4):
                msg = FieldMessage(i, 0, 0, 0, ncells, np.full(ncells, float(i)))
                producer.write(encode_frame(msg))
                got, total = read_ring_frame(consumer)
                np.testing.assert_array_equal(got.data, msg.data)
                wrapped += got.data.flags.owndata
                assert got.data.flags.owndata == got.data.flags.writeable
                del got
                consumer.advance(total)
            assert wrapped == 1
        finally:
            self._close(producer, consumer)

    def _fed_through_a_ring(self, config, frames, decode):
        """A rank fed ``frames`` one by one out of a ring whose data
        region is overwritten after every ``advance``."""
        rank = ServerRank(0, config, BlockPartition(config.ncells, 1))
        producer, consumer = self._ring_pair()
        try:
            for msg in frames:
                producer.write(encode_frame(msg))
                got, total = decode(consumer)
                rank.handle(got, 0.0)
                del got
                consumer.advance(total)
                consumer._dmv[:] = b"\xff" * consumer.capacity
            return rank.index_maps()
        finally:
            self._close(producer, consumer)

    def _reference(self, config, frames):
        rank = ServerRank(0, config, BlockPartition(config.ncells, 1))
        for msg in frames:
            rank.handle(msg, 0.0)
        return rank.index_maps()

    @pytest.mark.parametrize("halves", [False, True], ids=["whole", "halves"])
    def test_slot_overwritten_after_advance_does_not_reach_the_state(self, halves):
        """Whole-partition frames take the by-reference fold when owned;
        lent, they must be staged — the engine holds a payload until its
        micro-batch flushes, long after the head moved on."""
        fn, config = make_config(ngroups=5, ntimesteps=2)
        frames = []
        for group in range(config.ngroups):
            for step in range(config.ntimesteps):
                whole = group_frame(config, group, step)
                frames += (
                    [whole.slice(0, NCELLS // 2), whole.slice(NCELLS // 2, NCELLS)]
                    if halves else [whole]
                )
        got = self._fed_through_a_ring(config, frames, read_ring_frame)
        want = self._reference(config, frames)
        for name in ("first", "total", "variance", "mean"):
            np.testing.assert_array_equal(got[name], want[name])

    def test_without_the_borrow_mark_the_overwrite_corrupts_the_state(self):
        """The mutation check of the test above: hand the rank the same
        slots as *writeable* views — what a decoder that does not mark
        what it lends would produce — and the by-reference fold keeps
        them past ``advance``: the overwrite shows up in the maps."""
        fn, config = make_config(ngroups=5, ntimesteps=2)
        frames = [
            group_frame(config, group, step)
            for group in range(config.ngroups)
            for step in range(config.ntimesteps)
        ]

        def unmarked(ring):
            msg, total = read_ring_frame(ring)
            offset = total - msg.data.nbytes
            start = net_shm._DATA_OFFSET + (ring.head() + offset) % ring.capacity
            view = np.frombuffer(
                ring._shm.buf, dtype=np.float64, count=msg.data.size, offset=start
            ).reshape(msg.data.shape)
            assert view.flags.writeable
            return GroupFieldMessage(
                msg.group_id, msg.timestep, msg.cell_lo, msg.cell_hi, view
            ), total

        rank_maps = None
        try:
            rank_maps = self._fed_through_a_ring(config, frames, unmarked)
        except BufferError:
            pass  # the kept views even pin the mapping
        want = self._reference(config, frames)
        assert rank_maps is None or not all(
            np.array_equal(rank_maps[name], want[name], equal_nan=True)
            for name in ("first", "total", "variance", "mean")
        )

    def test_the_threaded_sink_copies_before_it_enqueues(self):
        inbox = Inbox()
        listener = InboxListener(inbox, transport="shm")
        channel = open_data_channel(listener.address, transport="shm")
        try:
            sent = [FieldMessage(0, m, 0, 0, 8, np.full(8, float(m))) for m in range(40)]
            for msg in sent:
                channel.send(msg, timeout=5.0)
            channel.flush(timeout=5.0)  # every head has moved on
            for msg in sent:
                got = inbox.recv(timeout=5.0)
                assert got.data.flags.writeable and got.data.flags.owndata
                np.testing.assert_array_equal(got.data, msg.data)
        finally:
            channel.close()
            listener.close()


@pytest.mark.parametrize("client_ranks", [1, 2], ids=["whole", "halves"])
def test_shm_study_is_bit_identical_to_sequential(client_ranks):
    """One worker streams the groups in order, so every fold sees the
    operands the sequential run sees — through ring views that are gone
    by the time the engine folds its micro-batch (80 KB frames: the
    1 MiB ring wraps several times within one batch of 16 groups)."""
    shape = dict(
        ngroups=40, ntimesteps=3, ncells=2048, client_ranks=client_ranks,
        heartbeat_interval=0.2,
    )
    fn, config = make_config(**shape)

    def factory(params, sim_id):
        return VectorFieldSimulation(
            fn, params, config.ncells, ntimesteps=config.ntimesteps,
            simulation_id=sim_id,
        )

    reference = SequentialRuntime(config, factory).run()
    fn, config = make_config(**shape)
    runtime = retry_on_eaddrinuse(
        lambda: DistributedRuntime(config, factory, nworkers=1, transport="shm")
    )
    results = runtime.run(timeout=120.0)
    assert results.groups_integrated == config.ngroups
    for name in ("first_order", "total_order", "variance", "mean"):
        np.testing.assert_array_equal(
            getattr(results, name), getattr(reference, name), err_msg=name
        )
    stats = runtime.coordinator.rank_channel_stats[0]
    assert stats["messages_received"] == (
        config.ngroups * config.ntimesteps * client_ranks
    )
    assert (stats["recv_blocks"], stats["blocked_seconds"]) == (0, 0.0)
    assert 0 < stats["high_water_bytes"]


# --------------------------------------------------------------------- #
# (iv) spin-then-park
# --------------------------------------------------------------------- #
class _ShmRig:
    """A hand-driven listener with one negotiated ring, the doorbells
    its producer sends counted at the producer."""

    def __init__(self, monkeypatch):
        self.handled = []
        self.listener = DataListener(self.handled.append, transport="shm")
        self.channel = connect(self.listener, "shm")
        self.doorbells = 0
        send_frame = net_shm.send_frame

        def counting(sock, msg):
            self.doorbells += isinstance(msg, Doorbell)
            return send_frame(sock, msg)

        monkeypatch.setattr(net_shm, "send_frame", counting)
        self.looks = 0
        look = self.listener._look

        def counted_look(rings, timeout):
            self.looks += 1
            return look(rings, timeout)

        self.listener._look = counted_look

    def publish(self, n=1):
        for i in range(n):
            assert self.channel.try_send(
                FieldMessage(0, i, 0, 0, 8, np.full(8, float(i)))
            )

    def close(self):
        self.channel.close()
        self.listener.close()


class TestSpinThenPark:
    def test_a_frame_published_inside_the_look_rings_no_doorbell(self, monkeypatch):
        rig = _ShmRig(monkeypatch)
        yields = []

        def producer_runs():  # the consumer yields the core: the producer runs
            yields.append(1)
            if len(yields) == 1:
                rig.publish()

        monkeypatch.setattr(net_channel.os, "sched_yield", producer_runs)
        try:
            assert rig.listener.turn(5.0) == 1
            assert len(rig.handled) == 1
            assert rig.doorbells == 0
            assert rig.looks == 1
        finally:
            rig.close()

    def test_a_parked_consumer_gets_exactly_one_doorbell(self, monkeypatch):
        rig = _ShmRig(monkeypatch)
        select = rig.listener._sel.select
        parks = []

        def parking_select(timeout=None):
            if timeout != 0:  # the park: the producer publishes a burst now
                parks.append(timeout)
                assert rig.channel._ring.consumer_waiting
                if len(parks) == 1:
                    rig.publish(3)
            return select(timeout)

        rig.listener._sel.select = parking_select
        try:
            assert rig.listener.turn(5.0) == 3
            assert rig.doorbells == 1
            assert len(parks) == 1 and rig.looks == 1
            assert not rig.channel._ring.consumer_waiting
            # awake again: what it finds on its own costs nothing more
            rig.publish(2)
            assert rig.listener.turn(5.0) == 2
            assert rig.doorbells == 1
        finally:
            rig.close()

    def test_an_idle_rank_looks_once_per_wake_up(self, monkeypatch):
        rig = _ShmRig(monkeypatch)
        select = rig.listener._sel.select
        parks = []

        def parking_select(timeout=None):
            if timeout != 0:
                parks.append(timeout)
            return select(timeout)

        rig.listener._sel.select = parking_select
        try:
            for n in range(1, 4):  # each turn: one look, then one park
                assert rig.listener.turn(0.01) == 0
                assert (rig.looks, len(parks)) == (n, n)
            assert rig.listener.turn(0.0) == 0  # a poll neither looks nor parks
            assert (rig.looks, len(parks)) == (3, 3)
            assert rig.doorbells == 0
        finally:
            rig.close()

    def test_a_listener_without_rings_does_not_look(self):
        listener = DataListener(lambda msg: None, transport="tcp")
        looked = []
        listener._look = lambda rings, timeout: looked.append(1)
        try:
            assert listener.turn(0.01) == 0
            assert looked == []
        finally:
            listener.close()

    def test_the_look_is_bounded(self):
        assert 50e-6 <= net_shm.LOOK_BEFORE_PARK_S <= 1e-3


# --------------------------------------------------------------------- #
# (v) + (vi) the rank process: one thread, beats from inside the drain,
# control frames seen in the turn they arrive
# --------------------------------------------------------------------- #
class _RankUnderTest:
    """``run_server_rank`` on a thread of this process against a canned
    coordinator: the test holds the other end of the control socket."""

    def __init__(self, config, monkeypatch, **kwargs):
        self.turns = []  # [start, end, frames] per DataListener.turn
        self.listeners = []
        turn = DataListener.turn
        rig = self

        def recorded_turn(listener, timeout=None):
            if listener not in rig.listeners:
                rig.listeners.append(listener)
            entry = [time.time(), None, 0]
            rig.turns.append(entry)
            try:
                entry[2] = turn(listener, timeout)
                return entry[2]
            finally:
                entry[1] = time.time()

        monkeypatch.setattr(DataListener, "turn", recorded_turn)
        server = socket.create_server(("127.0.0.1", 0))
        self.threads_before = set(threading.enumerate())
        self.outcome = []
        self.thread = threading.Thread(
            target=lambda: self.outcome.append(net_serve.run_server_rank(
                0, config, server.getsockname()[:2], **kwargs
            )),
            name="rank-under-test", daemon=True,
        )
        self.thread.start()
        server.settimeout(10.0)
        sock, _ = server.accept()
        server.close()
        self.ctrl = FrameConnection(sock)
        register = self.ctrl.recv(timeout=10.0)
        assert register["op"] == "register"
        assert register["fingerprint"] == study_fingerprint(config)
        self.address = tuple(register["address"])
        self.ctrl.send({"op": "registered"})

    def frames_until(self, op, timeout=20.0):
        """Control frames up to and including the first dict frame ``op``
        (blocking reads)."""
        frames = []
        while True:
            frames.append(self.ctrl.recv(timeout=timeout))
            if isinstance(frames[-1], dict) and frames[-1].get("op") == op:
                return frames

    def finish(self):
        self.ctrl.close()  # the coordinator hangs up: the rank stops lingering
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()
        assert self.outcome == [0]


@pytest.mark.parametrize("transport", FABRICS)
def test_a_backlog_behind_a_straggler_never_starves_the_heartbeat(
    transport, monkeypatch
):
    fn, config = make_config(
        ngroups=30, ntimesteps=1, transport=transport, heartbeat_interval=0.05,
    )
    rank = _RankUnderTest(
        config, monkeypatch, fault=ProcessFault("straggler", delay=0.02)
    )
    channel = open_data_channel(rank.address, transport=transport)
    try:
        for group in range(config.ngroups):  # all at once: a backlog
            channel.send(group_frame(config, group, 0), timeout=10.0)
        assert channel.wait_acked(channel.sent(), timeout=30.0)
        rank.ctrl.send({"op": "finalize"})
        frames = rank.frames_until("rank_state")
        state = frames[-1]
        assert state["state"]["messages_processed"] == config.ngroups
        assert state["channel_stats"]["messages_received"] == config.ngroups
        beats = [f.time for f in frames if isinstance(f, Heartbeat)]
        # the drain of the backlog is a few long turns (0.02 s per frame);
        # beats sent from inside one of them prove the heartbeat does not
        # wait for the drain to end
        inside = [
            sum(start < t < end for t in beats)
            for start, end, handled in rank.turns if handled >= 5
        ]
        assert inside and max(inside) >= 2, (inside, rank.turns)
    finally:
        channel.close()
        rank.finish()


def test_control_frames_are_seen_in_the_turn_they_arrive(monkeypatch):
    """No data traffic at all and a heartbeat far away: the rank sleeps
    in one ``select`` over all its sockets, and ``forget`` / ``finalize``
    wake that very turn (a rank that polled its control socket between
    turns would sit out the heartbeat interval first)."""
    fn, config = make_config(heartbeat_interval=60.0)
    forgotten = []
    forget = ServerRank.forget_group

    def recorded_forget(self, group_id):
        forgotten.append((group_id, len(rank.turns), time.time()))
        return forget(self, group_id)

    monkeypatch.setattr(ServerRank, "forget_group", recorded_forget)
    rank = _RankUnderTest(config, monkeypatch)
    try:
        sent = time.time()
        rank.ctrl.send({"op": "forget", "group_id": 3})
        rank.ctrl.send({"op": "finalize"})
        frames = rank.frames_until("rank_state", timeout=20.0)
        assert frames[-1]["rank"] == 0
        (gid, turn_index, when), = forgotten
        assert gid == 3
        assert when - sent < 20.0
        # the turn that handled it was already parked (or about to park)
        # with the 60 s heartbeat as its only deadline
        start, end, handled = rank.turns[turn_index - 1]
        assert handled == 0 and end is not None and end - start < 20.0
        assert len(rank.turns) <= 4
    finally:
        rank.finish()


@pytest.mark.parametrize("transport", FABRICS)
def test_the_rank_starts_no_data_plane_thread(transport, monkeypatch):
    fn, config = make_config(ngroups=4, ntimesteps=1, transport=transport)
    rank = _RankUnderTest(config, monkeypatch)
    serving = set(threading.enumerate()) - rank.threads_before
    channel = open_data_channel(rank.address, transport=transport)
    try:
        for group in range(config.ngroups):
            channel.send(group_frame(config, group, 0), timeout=10.0)
        assert channel.wait_acked(channel.sent(), timeout=10.0)
        # the rank thread itself is all the rank added, and the client
        # side of this test (the channel) added none
        assert serving == {rank.thread}
        assert set(threading.enumerate()) - rank.threads_before == serving
        rank.ctrl.send({"op": "finalize"})
        rank.frames_until("rank_state")
    finally:
        channel.close()
        rank.finish()


def test_only_start_gives_the_listener_a_thread():
    """A listener starts no thread; only the tests' inbox harness runs
    its turn on one."""
    before = set(threading.enumerate())
    listener = DataListener(lambda msg: None)
    assert set(threading.enumerate()) == before
    listener.close()
    threaded = InboxListener(Inbox())
    try:
        assert threaded._thread.is_alive()
    finally:
        threaded.close()
    assert not threaded._thread.is_alive()


# --------------------------------------------------------------------- #
# BlockPartition.spans is computed once per (lo, hi)
# --------------------------------------------------------------------- #
class TestSpansTable:
    def test_spans_are_remembered_and_immutable(self):
        partition = BlockPartition(12, 3)
        first = partition.spans(3, 10)
        assert first == ((0, 3, 4), (1, 4, 8), (2, 8, 10))
        assert isinstance(first, tuple)
        assert partition.spans(3, 10) is first
        with pytest.raises(ValueError):
            partition.spans(5, 13)
        assert (5, 13) not in partition._spans_table
        # frozen-dataclass semantics are untouched by the table
        assert partition == BlockPartition(12, 3)
        assert hash(partition) == hash(BlockPartition(12, 3))

    def test_the_table_is_bounded(self):
        from repro.mesh import partition as module

        partition = BlockPartition(2 * module._SPANS_TABLE_SIZE, 2)
        for lo in range(module._SPANS_TABLE_SIZE + 10):
            partition.spans(lo, lo + 1)
        assert len(partition._spans_table) <= module._SPANS_TABLE_SIZE
        assert partition.spans(0, 1) == ((0, 0, 1),)

    def test_single_chunk_split_is_still_the_message_itself(self):
        fn, config = make_config()
        partition = BlockPartition(NCELLS, 2)
        msg = group_frame(config, 0, 0, lo=0, hi=NCELLS // 2)
        for _ in range(2):  # computed, then remembered
            assert split_by_partition(msg, partition) == [(0, msg)]
            assert split_by_partition(msg, partition)[0][1] is msg
        whole = group_frame(config, 0, 0)
        chunks = split_by_partition(whole, partition)
        assert [(r, c.cell_lo, c.cell_hi) for r, c in chunks] == [
            (0, 0, NCELLS // 2), (1, NCELLS // 2, NCELLS),
        ]
