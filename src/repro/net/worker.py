"""Group-worker process main + the TCP :class:`SocketRouter`.

This is what ``repro work`` runs (and what the loopback
:class:`~repro.runtime.distributed.DistributedRuntime` forks): a worker
that pulls group ids from the coordinator, runs each
:class:`~repro.core.group.GroupExecutor` to completion, and streams
field messages to the server ranks over direct socket channels.

The worker never waits on a round trip it does not need (the paper's
groups stream without waiting on the server, Sec. 4.1.3).  The
coordinator answers each ``next`` with a **lease** of one or more
groups, which the worker runs in order.  When a group's last frame has
been handed to the channels, the worker records each channel's *sent*
cursor and moves on at once; the finished group stays **held** until
every receiving rank's *acknowledged* cursor has passed its mark — the
ranks have then handled each of its frames — and only then is it
reported, on the ``done`` list of the ``{"op": "next", "done": [...]}``
request that follows the lease: one control frame per lease.

One thread owns the worker, channels included: no fabric thread moves a
frame behind its back, so a TCP channel's backlog moves whenever the
worker calls in — a ``deliver``, an ``acked`` look, or one of the three
waits.  Each waits on an event, none on a timer, and each beats in
heartbeat-sized slices:

* a suspended (``BLOCKED``) group waits for the rank to make room in the
  channel that refused its frame (:data:`SUSPEND_WAIT_S` is only the
  ceiling); that wait is the channel's suspended time,
  ``blocked_seconds``;
* ``next`` is a long poll: one ``poll()`` over the control connection
  and every data socket that still holds a backlog
  (:meth:`SocketRouter.wait_ctrl`).  A coordinator with nothing to hand
  out yet keeps the request and answers it when that changes — unless
  the worker still holds unacknowledged groups, in which case it is told
  to ``settle``: wait for the ranks' cursors, then ask again;
* with :data:`MAX_HELD_GROUPS` held, it waits for the oldest.

A worker holds at most :data:`MAX_HELD_GROUPS` groups — leased, running,
or sent and unacknowledged — so that bounds what a worker loss costs.

The :class:`SocketRouter` is the socket implementation of
:class:`~repro.transport.base.TransportClient`: the server partition
comes from the study configuration and the rank address table from the
lease, so there is no handshake round trip.  Data channels are opened
lazily — only to the ranks whose cell ranges the worker's messages
actually intersect, the paper's N x M pattern — and kept open across
the worker's successive groups.

Fault injection: a :class:`~repro.faults.ProcessFault` (the ``--fault``
spec of ``repro work``, or the forked worker's entry in a plan's
``worker_faults``) can make this worker SIGKILL itself after N delivered
messages, hang silently (zombie), or deliver each message ``delay``
seconds slower (straggler) — the worker half of the chaos suite, driving
the coordinator's resubmission, reaping, and straggler-speculation
machinery.
"""

from __future__ import annotations

import os
import select
import time
import traceback
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.faults import FaultInjector, ProcessFault

from repro.core.config import StudyConfig
from repro.core.group import (
    GroupExecutor,
    GroupState,
    SimulationFactory,
    SimulationGroup,
)
from repro.mesh.partition import BlockPartition
from repro.net.channel import open_data_channel
from repro.transport.channel import ChannelClosed, total_stats
from repro.net.coordinator import MAX_HELD_GROUPS, study_fingerprint, study_id
from repro.net.framing import (
    ConnectionLost,
    FrameConnection,
    ProtocolError,
    connect_with_retry,
    frame_nbytes,
    peer_field,
)
from repro.sampling.pickfreeze import draw_design
from repro.telemetry.logs import get_logger
from repro.telemetry.registry import delta as _metrics_delta
from repro.telemetry.tracer import span_record
from repro.transport.message import Heartbeat, split_by_partition

#: ceiling of one wait of a suspended group for its rank to make room;
#: the wait returns as soon as the room is there
SUSPEND_WAIT_S = 0.005


class SocketRouter:
    """Socket-backed client transport (implements ``TransportClient``).

    The server partition comes from ``config``, as it does for every
    process of the study.  Each rank's data address comes from a lease
    (:meth:`take_ranks`); from then on one data channel per intersecting
    rank is opened on first use — the fabric (shared-memory ring vs TCP
    framing) is negotiated per channel by
    :func:`~repro.net.channel.open_data_channel` according to
    ``config.transport``.  ``deliver`` splits along the server partition
    like every other transport and applies the all-or-nothing probe so a
    retried whole message cannot re-send chunks that already landed.
    """

    def __init__(
        self,
        ctrl: FrameConnection,
        config: StudyConfig,
        name: str = "worker",
        fault: Optional[FaultInjector] = None,
    ):
        self._ctrl = ctrl
        self.config = config
        self.name = name
        self._fault = fault
        self.server_partition = BlockPartition(config.ncells, config.server_ranks)
        #: each rank's data address, from a lease (None before one)
        self.addresses: Optional[Tuple[Tuple[str, int], ...]] = None
        self.channels: Dict[int, Any] = {}  # rank -> negotiated Channel
        # (channel, frame bytes) of the chunk the last deliver could
        # not place: what a suspended group waits on
        self._refused: Optional[Tuple[Any, int]] = None

    # ------------------------------------------------------------------ #
    def take_ranks(self, lease: dict) -> None:
        """Check a lease's rank address table — one (host, port) per
        server rank — and adopt it if this router has none."""
        ranks = peer_field(lease, "ranks", (list, tuple))
        if len(ranks) != self.config.server_ranks or not all(
            isinstance(address, (list, tuple))
            and [type(part) for part in address] == [str, int]
            for address in ranks
        ):
            raise ProtocolError(
                f"'group' frame's 'ranks' is not one (host, port) for each "
                f"of {self.config.server_ranks} server ranks: {ranks!r}"
            )
        if self.addresses is None:
            self.addresses = tuple(tuple(address) for address in ranks)

    # ------------------------------------------------------------------ #
    def _channel(self, rank: int):
        channel = self.channels.get(rank)
        if channel is None:
            try:
                # hint: the widest chunk this worker can push to one rank
                # is a full group-field slab over the rank's cell slice
                max_frame = 8 * self.config.group_size * self.config.ncells + 256
                channel = open_data_channel(
                    self.addresses[rank],
                    transport=getattr(self.config, "transport", "auto"),
                    send_hwm_bytes=self.config.channel_capacity_bytes,
                    name=f"{self.name}->rank{rank}",
                    max_frame_hint=max_frame,
                )
            except (OSError, TimeoutError) as exc:
                # a stale address from before a rank respawn: surface it
                # as a dead channel so the group-interrupt path drops the
                # table and takes the next lease's, instead of failing
                # the worker
                raise ChannelClosed(
                    f"{self.name}: server rank {rank} unreachable at "
                    f"{self.addresses[rank]}"
                ) from exc
            self.channels[rank] = channel
        return channel

    def payload(self, nmembers: int, lo: int, hi: int) -> np.ndarray:
        """A new slab (a claimed shared-memory ring slot could stand here)."""
        return np.empty((nmembers, hi - lo))

    def deliver(self, msg) -> bool:
        chunks = split_by_partition(msg, self.server_partition)
        if len(chunks) > 1:
            for rank, chunk in chunks:
                channel, nbytes = self._channel(rank), frame_nbytes(chunk)
                if not channel.can_accept(nbytes):
                    self._refused = (channel, nbytes)
                    return False
        for rank, chunk in chunks:
            channel = self._channel(rank)
            if not channel.try_send(chunk):
                self._refused = (channel, frame_nbytes(chunk))
                return False
        # the fault counts whole delivered messages, so it fires only
        # after every partition chunk was handed to its channel
        if self._fault is not None:
            self._fault.on_message()
        return True

    # ------------------------------------------------------------------ #
    def wait_progress(self, timeout: float) -> None:
        """A suspended (``BLOCKED``) group's wait: return as soon as the
        chunk the last ``deliver`` could not place fits its channel —
        the receiving rank's progress, not a timer — with ``timeout`` as
        the ceiling.  Raises :class:`ChannelClosed` if that rank died."""
        if self._refused is not None:
            channel, nbytes = self._refused
            self._refused = None
            channel.wait_accept(nbytes, timeout)

    def wait_ctrl(self, timeout: float) -> bool:
        """The ``next`` long poll: True once a control frame is readable,
        False after ``timeout``.  Meanwhile the data channels' backlogs
        move as their ranks grant room — one ``poll()`` over the control
        connection and every data socket that still holds a backlog."""
        deadline = time.monotonic() + timeout
        while True:
            poller = select.poll()
            poller.register(self._ctrl, select.POLLIN)
            moving = {}
            for channel in self.channels.values():
                events = channel.wait_events()
                if events:
                    poller.register(channel, events)
                    moving[channel.fileno()] = channel
            remaining = max(0.0, deadline - time.monotonic())
            ready = [fd for fd, _ in poller.poll(1000.0 * remaining)]
            if self._ctrl.fileno() in ready:
                return True
            if not ready:
                return False
            for fd in ready:
                moving[fd].move()

    def marks(self) -> Dict[Any, int]:
        """Per-channel sent cursors right now.  Taken when a group's last
        frame was handed over, they are what :meth:`wait_acked` compares
        the ranks' progress against."""
        return {channel: channel.sent() for channel in self.channels.values()}

    def acked(self, marks: Dict[Any, int]) -> bool:
        """Has every rank passed its mark (non-blocking)?  Every frame
        sent before the marks were taken has then been handled by a rank."""
        for channel, cursor in marks.items():
            if channel.acked() < cursor:
                if channel.broken:
                    raise ChannelClosed(f"{channel.name}: connection failed")
                return False
        return True

    def wait_acked(
        self, marks: Dict[Any, int], timeout: Optional[float] = None
    ) -> bool:
        """Block until every rank passed its mark; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for channel, cursor in marks.items():
            remaining = None if deadline is None else deadline - time.monotonic()
            if not channel.wait_acked(cursor, remaining):
                return False
        return True

    def flush(self, timeout: Optional[float] = None) -> None:
        """Wait until every channel's frames are credited by its rank."""
        if not self.wait_acked(self.marks(), timeout):
            raise TimeoutError(
                f"{self.name}: frames not yet credited after {timeout}s"
            )

    def any_broken(self) -> bool:
        """Did any open data channel lose its rank?"""
        return any(channel.broken for channel in self.channels.values())

    def reset(self) -> None:
        """Close every channel and drop the rank address table.

        This is the client half of the respawn protocol: after a server
        rank dies, its old data address is garbage.  The coordinator
        sends no lease until the respawned rank has registered its fresh
        address, so the next lease's table is adopted and channels are
        re-opened lazily against it.
        """
        self.close()
        self.addresses = None

    def close(self) -> None:
        for channel in self.channels.values():
            channel.close()
        self.channels.clear()
        self._refused = None


def settle_held(
    router, held: Deque[Tuple[int, Dict[Any, int]]], done: List[int],
    at_least: int, timeout: float, beat, beat_interval: float, name: str,
) -> None:
    """Move to ``done`` the ``held`` (group id, sent cursors) every
    receiving rank has passed the marks of — the delivery guarantee
    behind ``done``.  Blocks until ``at_least`` of them moved (0: never
    blocks), calling ``beat`` every ``beat_interval`` seconds: a long
    back-pressured drain must not look like control-plane silence to the
    coordinator.  Each group gets ``timeout`` seconds from the moment the
    one before it moved, so a slow rank draining a long list is not
    mistaken for a lost acknowledgement."""
    moved = 0
    deadline = time.monotonic() + timeout
    while held:
        group_id, marks = held[0]
        if not router.acked(marks):
            if moved >= at_least:
                break
            if not router.wait_acked(marks, timeout=beat_interval):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"{name}: group {group_id} not acknowledged by "
                        f"the server ranks after {timeout}s"
                    )
                beat()
                continue
        held.popleft()
        done.append(group_id)
        moved += 1
        deadline = time.monotonic() + timeout


# --------------------------------------------------------------------- #
def run_worker(
    config: StudyConfig,
    factory: SimulationFactory,
    coordinator_address,
    name: str = "",
    heartbeat_interval=None,
    design=None,
    fault: Optional[ProcessFault] = None,
    elastic: bool = False,
) -> int:
    """Pull groups from the coordinator and run them to completion.

    ``fault``, when given, is injected into this worker.
    ``elastic=True`` marks the worker retirable: the coordinator may send
    it a ``retire`` op when the queue drains, and it exits like ``done``.
    """
    if heartbeat_interval is None:
        heartbeat_interval = config.heartbeat_interval
    if design is None:
        design = draw_design(
            config.space, config.ngroups, seed=config.seed,
            method=config.sampling_method,
        )
    name = name or f"worker-{os.getpid()}"
    log = get_logger("work", worker=name, study=study_id(config))
    injector = None if fault is None else FaultInjector(fault)
    ctrl = connect_with_retry(tuple(coordinator_address))
    router = SocketRouter(ctrl, config, name=name, fault=injector)
    try:
        ctrl.send({
            "op": "hello",
            "worker": name,
            "pid": os.getpid(),
            "elastic": elastic,
            "fingerprint": study_fingerprint(config),
        })
        welcome = ctrl.recv(timeout=30.0)
        if not (isinstance(welcome, dict) and welcome.get("op") == "welcome"):
            raise RuntimeError(f"coordinator rejected worker {name}: {welcome!r}")
        log.info("joined study", extra={"repro_ids": {"pid": os.getpid()}})

        # same switch as serve.py: metric deltas piggyback on heartbeats
        # only when the coordinator's welcome says telemetry is on
        telemetry_on = bool(welcome.get("telemetry"))
        reg = _telemetry.REGISTRY
        if telemetry_on:
            _telemetry.enable()
            # forked loopback workers inherit the runtime registry; reset
            # so heartbeat deltas carry only this worker's own series
            reg.reset()
        h_group = reg.histogram(
            "repro_worker_group_seconds",
            "wall seconds per simulation group on this worker",
        )
        g_bytes_sent = reg.gauge(
            "repro_worker_bytes_sent",
            "field-data bytes this worker has pushed to server ranks",
        )
        g_blocked = reg.gauge(
            "repro_worker_blocked_seconds",
            "seconds this worker spent suspended on full data channels",
        )
        g_blocks = reg.gauge(
            "repro_worker_send_blocks",
            "channel suspensions (dual-HWM back-pressure) on this worker",
        )
        spans: list = []
        last_snapshot = None

        last_beat = time.monotonic()

        def beat() -> None:
            nonlocal last_beat, last_snapshot
            payload = None
            if telemetry_on:
                stats = total_stats(router.channels.values())
                g_bytes_sent.set(stats["bytes_sent"], worker=name)
                g_blocked.set(stats["blocked_seconds"], worker=name)
                g_blocks.set(stats["send_blocks"], worker=name)
                snapshot = reg.snapshot()
                changes = _metrics_delta(last_snapshot, snapshot)
                last_snapshot = snapshot
                if changes or spans:
                    payload = {"metrics": changes, "spans": spans[:]}
                    spans.clear()
            ctrl.send(Heartbeat(sender=name, time=time.time(), metrics=payload))
            last_beat = time.monotonic()

        # groups whose last frame was handed to the channels but whose
        # frames the ranks have not all acknowledged yet, oldest first:
        # (group id, per-channel sent cursors at hand-over)
        held: Deque[Tuple[int, Dict[Any, int]]] = deque()
        # ... and those acknowledged since the last ``next`` frame
        done: List[int] = []

        def settle(at_least: int) -> None:
            settle_held(
                router, held, done, at_least, config.group_timeout, beat,
                heartbeat_interval, name,
            )

        def interrupted(unfinished=()) -> None:
            """A server rank died (Sec. 4.2.3).  Nothing this worker still
            holds can be proven delivered any more: drop every attempt —
            the sent ones and the ``unfinished`` rest of the lease — tell
            the coordinator (it requeues them without charging their
            retry budget), and drop the rank address table so the next
            lease's is adopted: the coordinator sends none until the
            respawned rank has registered its fresh address."""
            router.reset()
            lost = [group_id for group_id, _ in held]
            held.clear()
            lost.extend(unfinished)
            for group_id in lost:
                log.warning(
                    "group interrupted by a dead rank channel",
                    extra={"repro_ids": {"group": group_id}},
                )
                ctrl.send({"op": "group_interrupted", "group_id": group_id})

        in_group = False
        while True:
            if injector is not None:
                injector.check()
            try:
                settle(1 if len(held) >= MAX_HELD_GROUPS else 0)
            except ChannelClosed:
                interrupted()
                continue
            # one control frame per lease: the request for the next one
            # carries the ids acknowledged since the last request
            ctrl.send({"op": "next", "done": done})
            done.clear()
            # long poll: the coordinator answers when it has something to
            # say, which may take a while (a straggler elsewhere, rank
            # states still coming in) — keep beating, and moving the
            # channels' backlogs, meanwhile
            while not router.wait_ctrl(heartbeat_interval):
                beat()
            frame = ctrl.recv()
            op = frame.get("op") if isinstance(frame, dict) else None
            if op in ("done", "retire"):
                # retire: the elastic pool is draining and this worker is
                # surplus — leave exactly like a completed study
                break
            if op == "settle":
                # nothing to hand out while this worker still holds
                # unacknowledged groups: wait for the ranks, then ask again
                try:
                    settle(len(held))
                except ChannelClosed:
                    interrupted()
                continue
            if op == "error":
                raise RuntimeError(f"coordinator error: {frame['error']}")
            if op != "group":
                raise RuntimeError(f"unexpected assignment frame: {frame!r}")
            # the lease: run its groups in order.  The coordinator counts
            # every one as held from now on, so a vanished coordinator
            # anywhere in it is a real failure (non-zero exit)
            router.take_ranks(frame)
            lease = deque(int(gid) for gid in frame["group_ids"])
            in_group = True
            while lease:
                group_id = lease.popleft()
                if router.any_broken():
                    # a rank died since the last group: hand the rest of
                    # the lease back instead of burning its first
                    # delivery on a dead channel
                    interrupted([group_id, *lease])
                    break
                group_started = time.time()
                try:
                    executor = GroupExecutor(
                        SimulationGroup.from_design(design, group_id),
                        factory,
                        config,
                        router,
                    )
                    executor.initialize()
                    while executor.state != GroupState.FINISHED:
                        state = executor.process_step()
                        if state == GroupState.BLOCKED:
                            # ZeroMQ-style suspension: both buffers full.
                            # Wait for the rank to make room, not a timer
                            router.wait_progress(SUSPEND_WAIT_S)
                        if time.monotonic() - last_beat >= heartbeat_interval:
                            beat()
                except ChannelClosed:
                    # the running group and the unstarted rest of the
                    # lease go back to the queue, none charged a retry
                    interrupted([group_id, *lease])
                    break
                # every frame is handed over; the group is reported done
                # on a later ``next``, once the ranks have passed these marks
                held.append((group_id, router.marks()))
                group_seconds = time.time() - group_started
                if telemetry_on:
                    h_group.observe(group_seconds, worker=name)
                    spans.append(span_record(
                        f"simulate group {group_id}", "worker",
                        group_started, time.time(), tid=name,
                        args={"group": group_id},
                    ))
                log.info(
                    "group sent in %.3fs", group_seconds,
                    extra={"repro_ids": {"group": group_id}},
                )
            in_group = False
        try:
            # final metric flush, then the goodbye carries this worker's
            # aggregate send-side ChannelStats for the end-of-run summary
            if telemetry_on:
                beat()
            ctrl.send({
                "op": "bye", "channel_stats": total_stats(router.channels.values()),
            })
        except (ConnectionLost, OSError):
            pass  # coordinator already gone: nothing left to say
        log.info("leaving study")
        return 0
    except (ConnectionLost, OSError):
        # the coordinator went away.  Between leases (a parked ``next``,
        # waiting for acknowledgements) that is how a completed study
        # looks to a straggling worker — exit cleanly; mid-lease it is a
        # real failure.
        return 1 if in_group else 0
    except BaseException:
        try:
            ctrl.send({"op": "error", "error": traceback.format_exc()})
        except (ConnectionLost, OSError):
            pass
        raise
    finally:
        router.close()
        ctrl.close()
