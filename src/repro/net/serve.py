"""Server-rank process main: one :class:`ServerRank` behind a TCP door.

This is what ``repro serve --rank K`` runs (and what the loopback
:class:`~repro.runtime.distributed.DistributedRuntime` forks): a single
Melissa Server rank as an independent OS process.  It

* opens a :class:`~repro.net.channel.DataListener` (the rank's ZeroMQ
  PULL socket) whose sink is :meth:`ServerRank.handle`,
* registers its data address with the coordinator, which names it in
  every work lease — including which groups its restored checkpoint
  already contains, so a respawned rank lets the coordinator requeue
  exactly the groups the restored statistics are missing (Sec. 4.2.3),
* runs **one loop on one thread**: each :meth:`DataListener.turn` is a
  ``select`` over the data sockets, the rings' doorbells and the
  coordinator's control socket, and every decoded frame goes straight
  into ``handle`` — a ring frame as a borrowed view of its slot, the
  head advancing (TCP: the credit granted) only after ``handle``
  returned, so staging is the one copy on the rank and "acknowledged"
  means "staged or folded".  The only timeout is the time to the next
  heartbeat or checkpoint; heartbeats are also emitted from inside the
  drain, and control ops (``forget`` on a group fault, ``finalize`` at
  the end of the study) are answered in the turn they arrive,
* checkpoints its rank state independently of every other rank
  (Sec. 4.2.3 — per-rank files, restored at startup so a restarted
  ``repro serve`` resumes its integrated statistics before new workers
  connect),
* ships its state + batched index maps + convergence scalar back to the
  coordinator, then **lingers**: it keeps turning the same loop
  until the coordinator closes the control connection, so replays from a
  respawn-requeued group still land somewhere (replay protection
  discards them; the reported state stays exact).

Fault injection: a :class:`~repro.faults.ProcessFault` (the ``--fault``
spec of ``repro serve``, or the rank's entry in a plan's
``rank_faults``) can make this rank SIGKILL itself mid-study, hang
silently (zombie), or slow down (straggler) — the faults the chaos suite
and the CI smoke leg drive through the supervisor's kill-and-respawn
protocol.  :class:`~repro.faults.FaultInjector` counts handled messages.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional

from repro import telemetry as _telemetry
from repro.core.checkpoint import CheckpointManager
from repro.core.config import StudyConfig
from repro.core.server import ServerRank
from repro.faults import FaultInjector, ProcessFault
from repro.mesh.partition import BlockPartition
from repro.net.channel import DataListener
from repro.net.coordinator import study_fingerprint, study_id
from repro.net.framing import ConnectionLost, connect_with_retry
from repro.telemetry.logs import get_logger
from repro.telemetry.registry import delta as _metrics_delta
from repro.telemetry.tracer import span_record
from repro.transport.message import Heartbeat


def run_server_rank(
    rank_idx: int,
    config: StudyConfig,
    coordinator_address,
    data_host: str = "127.0.0.1",
    data_port: int = 0,
    checkpoint_dir=None,
    heartbeat_interval=None,
    fault: Optional[ProcessFault] = None,
    local_ranks: int = 1,
) -> int:
    """Run one server rank to study completion; returns an exit code.
    ``fault``, when given, is injected into this rank."""
    if heartbeat_interval is None:
        heartbeat_interval = config.heartbeat_interval
    log = get_logger("serve", rank=rank_idx, study=study_id(config))
    injector = None if fault is None else FaultInjector(fault)
    partition = BlockPartition(config.ncells, config.server_ranks)
    rank = ServerRank(rank_idx, config, partition, local_ranks=local_ranks)
    manager = CheckpointManager(checkpoint_dir) if checkpoint_dir else None
    restore_seconds = None
    if manager is not None:
        t0 = time.perf_counter()
        if manager.restore_rank(rank, config):
            # restarted rank: integrated statistics survive; replay
            # protection absorbs whatever reconnecting workers re-send
            restore_seconds = time.perf_counter() - t0
            log.info(
                "restored checkpoint in %.3fs (%d finished groups)",
                restore_seconds, len(rank.finished_groups),
            )
    listener = DataListener(
        host=data_host,
        port=data_port,
        recv_hwm_bytes=config.channel_capacity_bytes,
        transport=getattr(config, "transport", "auto"),
    )
    ctrl = connect_with_retry(tuple(coordinator_address))
    sender = f"server-rank-{rank_idx}"
    try:
        ctrl.send({
            "op": "register",
            "rank": rank_idx,
            "address": listener.address,
            "fingerprint": study_fingerprint(config),
            "pid": os.getpid(),
            # what the restored statistics already contain — the
            # coordinator requeues every done/in-flight group NOT in here
            "finished": sorted(rank.finished_groups),
        })
        ack = ctrl.recv(timeout=30.0)
        if not (isinstance(ack, dict) and ack.get("op") == "registered"):
            raise RuntimeError(f"coordinator rejected rank {rank_idx}: {ack!r}")
        log.info("registered with coordinator", extra={"repro_ids": {"pid": os.getpid()}})

        # the coordinator acks with telemetry=True when it aggregates
        # metrics, and only then do we turn the registry on and piggyback
        # metric deltas on heartbeats
        telemetry_on = bool(ack.get("telemetry"))
        reg = _telemetry.REGISTRY
        if telemetry_on:
            _telemetry.enable()
            # loopback ranks are forked from the runtime process and
            # inherit its registry contents (coordinator counters, and on
            # respawn a mid-study snapshot); shipping those back would
            # double-count, so this process starts from a clean slate
            reg.reset()
        rank_label = str(rank_idx)
        g_ci_width = reg.gauge(
            "repro_rank_max_ci_width",
            "live convergence scalar: widest Sobol confidence interval "
            "on this rank's partition",
        )
        g_fold_threads = reg.gauge(
            "repro_fold_threads",
            "fold-pool width per server rank",
        )
        h_checkpoint = reg.histogram(
            "repro_rank_checkpoint_seconds",
            "checkpoint save/restore seconds per rank",
        )
        if telemetry_on and restore_seconds is not None:
            h_checkpoint.observe(restore_seconds, rank=rank_label, op="restore")
        spans: list = []
        last_snapshot = None
        # the convergence scalar is a full CI-width reduction — cheap at
        # 1/s but not per-message, so it gets its own throttle
        ci_interval = max(heartbeat_interval * 2.0, 1.0)
        last_ci = -ci_interval

        last_beat = time.monotonic()
        last_checkpoint = time.monotonic()

        def maybe_beat() -> None:
            # called after every frame too: a sustained backlog (or a
            # straggler's per-message delay) must never starve the
            # heartbeat, or the supervisor would kill a busy-but-live
            # rank as a zombie
            nonlocal last_beat, last_snapshot, last_ci
            now = time.monotonic()
            if now - last_beat >= heartbeat_interval:
                payload = None
                if telemetry_on:
                    g_fold_threads.set(
                        float(rank.sobol.active_fold_threads), rank=rank_label
                    )
                    if now - last_ci >= ci_interval:
                        g_ci_width.set(
                            float(rank.sobol.max_interval_width()),
                            rank=rank_label,
                        )
                        last_ci = now
                    snapshot = reg.snapshot()
                    changes = _metrics_delta(last_snapshot, snapshot)
                    last_snapshot = snapshot
                    if changes or spans:
                        payload = {"metrics": changes, "spans": spans[:]}
                        spans.clear()
                ctrl.send(
                    Heartbeat(sender=sender, time=time.time(), metrics=payload)
                )
                last_beat = now

        def on_frame(msg) -> None:
            rank.handle(msg, time.monotonic())
            if injector is not None:
                injector.on_message()
            maybe_beat()

        finalize = lingering = False

        def on_control() -> None:
            nonlocal finalize
            while True:
                frame = ctrl.recv()  # ConnectionLost: the coordinator hung up
                if isinstance(frame, dict) and not lingering:
                    op = frame.get("op")
                    if op == "forget":
                        gid = int(frame["group_id"])
                        rank.forget_group(gid)
                        log.info(
                            "forgot staged partials",
                            extra={"repro_ids": {"group": gid}},
                        )
                    elif op == "finalize":
                        finalize = True
                    elif op == "error":
                        raise RuntimeError(
                            f"coordinator error: {frame.get('error')}"
                        )
                if not ctrl.poll(0.0):
                    return

        listener.sink = on_frame
        listener.watch(ctrl, on_control)
        while not finalize:
            if injector is not None:
                injector.check()
            # sleep until a socket or a doorbell has something, at most
            # until the next heartbeat or checkpoint is due
            due = last_beat + heartbeat_interval
            if manager is not None:
                due = min(due, last_checkpoint + config.checkpoint_interval)
            listener.turn(max(0.0, due - time.monotonic()))
            maybe_beat()
            now = time.monotonic()
            if (
                manager is not None
                and now - last_checkpoint >= config.checkpoint_interval
            ):
                t0 = time.perf_counter()
                manager.save_rank(rank, config)
                saved = time.perf_counter() - t0
                if telemetry_on:
                    h_checkpoint.observe(saved, rank=rank_label, op="save")
                    spans.append(span_record(
                        "checkpoint save", "rank",
                        time.time() - saved, time.time(), tid=sender,
                    ))
                log.debug("checkpoint saved in %.3fs", saved)
                last_checkpoint = now

        # a group only counts as done once this rank acknowledged its
        # frames, and acknowledged means handled: nothing is left to drain
        maps = rank.index_maps()
        width = float(rank.sobol.max_interval_width())
        if manager is not None:
            t0 = time.perf_counter()
            manager.save_rank(rank, config)
            if telemetry_on:
                h_checkpoint.observe(
                    time.perf_counter() - t0, rank=rank_label, op="save"
                )
        # final flush so the coordinator's study view includes this
        # rank's complete accounting even if no further beat would fire
        last_beat = -1e18
        maybe_beat()
        ctrl.send({
            "op": "rank_state",
            "rank": rank_idx,
            "state": rank.checkpoint_state(),
            "maps": maps,
            "width": width,
            # what the loop counted.  A rank has no buffer of its own to
            # suspend on: suspension is measured where it happens, in the
            # senders' send_blocks / blocked_seconds
            "channel_stats": {
                "messages_received": listener.stats.messages_received,
                "bytes_received": listener.stats.bytes_received,
                "recv_blocks": 0,
                "blocked_seconds": 0.0,
                "high_water_bytes": listener.stats.high_water_bytes,
            },
        })
        log.info(
            "rank state shipped (%d messages, %d discarded, width %.4g)",
            rank.messages_processed, rank.messages_discarded, width,
        )
        # linger until the coordinator hangs up.  If another rank dies
        # after this one reported, workers re-run the requeued groups and
        # re-send to EVERY intersecting rank, this one included; all of it
        # is a replay of an integrated timestep (a group only counts as
        # done once each rank acknowledged its frames), so handling it is a
        # pure discard and the reported state stays exact — what matters is
        # that the channels keep acknowledging so the re-run can finish.
        # Control frames (repeat finalize, forget) are read and ignored.
        lingering = True
        listener.sink = lambda msg: rank.handle(msg, time.monotonic())
        try:
            while True:
                listener.turn()
        except (ConnectionLost, OSError):
            log.info("coordinator hung up; exiting")
            return 0
    except BaseException:
        try:
            ctrl.send({"op": "error", "error": traceback.format_exc()})
        except (ConnectionLost, OSError):
            pass
        raise
    finally:
        listener.close()
        ctrl.close()
