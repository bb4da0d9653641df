"""Distributed study coordination: the work queue and the rank table.

In the paper a starting simulation group contacts the *server's rank 0*,
which replies with the server-side data partition so the group can open
direct channels to exactly the intersecting ranks (Sec. 4.1.3).  Here
every process derives the partition from the fingerprinted config, so
the only news is where each rank listens, and every lease carries it.
The :class:`Coordinator` serves one TCP control port and owns the
launcher-side bookkeeping of Sec. 4.2.2:

* **server ranks** register their data-listener addresses and, at the
  end of the study, ship their rank state (+ batched index maps and
  convergence scalar) back;
* **group workers** request work.  One control frame per *lease*:
  ``{"op": "next", "done": [...]}`` asks for more work and carries the
  ids of the groups whose every frame the receiving ranks have
  acknowledged (handled: staged or folded) since the last request; the
  reply ``{"op": "group", "group_ids": [...], "ranks": [...]}`` leases
  one or more groups (see :meth:`_assign`) and names each rank's data
  address; none goes out while a rank is unregistered.  A worker asks
  as soon as its lease's last frame is handed to its channels, so it
  **holds** several groups at once — leased, running, or sent but not
  yet acknowledged, at most :data:`MAX_HELD_GROUPS` — and every held
  group is in flight for all bookkeeping below: worker
  loss resubmits each, a rank respawn marks each attempt stale, the
  first completion settles duplicates, the study is not settled while
  any is held.  One table holds every attempt: worker id -> {group id ->
  :class:`Attempt`}, stamped with the turn that leased it; an attempt
  ends in :meth:`Coordinator._release` and nowhere else.  ``next`` is a
  **long poll**: when there is nothing to hand out yet (a rank not
  registered, groups settled but rank states missing, speculation not
  due) the request is parked and answered in the loop turn whose event
  resolves it (a rank registration or state, a requeue, a departed
  worker; for the time-based verdicts, the heartbeat the parked worker
  keeps sending) — except that a worker still holding unacknowledged
  groups is told to ``settle`` (wait for the ranks, then ask again) so
  its completions never wait on a timer;
* **fault tolerance** — a worker that disappears (closed control
  connection, e.g. a killed process, or a stale heartbeat) has every
  group it held resubmitted to the remaining workers, up to
  ``config.max_group_retries`` times; server ranks are told to forget
  the dead instance's staged partials and replay protection discards
  whatever the resubmitted run re-sends of already-integrated timesteps;
* **server-rank supervision** (Sec. 4.2.3, the launcher protocol) —
  when a :class:`~repro.net.supervisor.RankSupervisor` is attached, a
  server rank whose control connection drops or whose heartbeat goes
  silent is killed and respawned from its per-rank checkpoint.  The
  replacement re-registers with a fresh data address and reports which
  groups its restored statistics already contain; the coordinator
  requeues every group the restored state is missing (data integrated
  after the last checkpoint died with the old process) and workers
  re-run them — replay protection on the surviving ranks discards the
  duplicates, so the statistics stay exact;
* **straggler-aware scheduling** — when a
  :class:`~repro.scheduler.policy.SchedulingPolicy` is attached, group
  completions feed per-worker EWMA throughput.  An idle worker facing an
  empty queue may *speculatively* re-run the longest-overdue in-flight
  group (running past a multiple of the fleet-median duration): both
  copies stream byte-identical data, each (group, timestep) integrates
  exactly once per rank, and the first completion report wins — the loser
  is settled silently and its residual frames are replay-discarded, so
  speculation needs ``discard_on_replay`` and never perturbs any
  exact-merge statistic;
* **elastic pool resize** — a :class:`~repro.net.supervisor.PoolSupervisor`
  spawns extra workers while queue depth exceeds the high-water mark
  (checked every loop turn) and retires elastic workers asking for
  work below the low-water mark (the paper's Fig. 6 elastic ramp, driven
  by the live queue instead of the batch scheduler).

**One thread.**  The coordinator is a single ``selectors`` loop that
:meth:`Coordinator.wait` runs on the caller's thread: every frame,
verdict, respawn and fork happens there, so its state needs no lock.
Between turns the loop sleeps until a peer is readable or the next
*silence* deadline — a peer that never said hello, a heartbeat going
stale, the wait's own timeout — and never on a fixed poll.  Each turn
reads the clock once, as its ``now``, and every verdict and record of
the turn uses it; only the loop shell and setup read ``time``.

The coordinator is transport policy only — statistics never flow through
it; field data goes worker -> rank over the direct data channels.
"""

from __future__ import annotations

import hashlib
import selectors
import time
import socket
from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.core.config import StudyConfig
from repro.net.framing import (
    ConnectionLost,
    FrameReader,
    ProtocolError,
    peer_field,
    send_frame,
)
from repro.telemetry.logs import get_logger, ids
from repro.transport.message import Heartbeat

#: most groups one worker holds — leased, running, or sent but not yet
#: acknowledged.  Both sides read it: the coordinator never leases past
#: it, and a worker holding this many waits for the oldest before asking
#: again, so a worker loss resubmits at most this many groups.
MAX_HELD_GROUPS = 8


class Attempt(NamedTuple):
    """One group a worker holds: leased, running, or sent but not yet
    acknowledged by the ranks."""

    #: the ``now`` of the turn that leased it
    started: float
    #: a speculative copy of a group another worker holds too
    speculative: bool = False
    #: in flight when a rank respawned: its completion proves nothing for
    #: the restored rank, so only the requeued copy may settle the group
    stale: bool = False


class StudyAborted(RuntimeError):
    """A participant failed in a way the study cannot recover from."""


class _Peer:
    """One control connection multiplexed onto the coordinator loop.

    A reap ends a connection with :meth:`close` — a ``shutdown``, which
    the next ``select`` reports as EOF, so the one loss path runs for
    it; ``shutdown`` also reaches peers whose descriptor a forked
    replacement process inherited.
    """

    __slots__ = (
        "sock", "peername", "reader", "kind", "rank", "wid",
        "hello_deadline",
    )

    def __init__(self, sock: socket.socket, peername: str):
        self.sock = sock
        self.peername = peername
        self.reader = FrameReader()
        self.kind: Optional[str] = None  # None (pre-hello), "rank", "worker"
        self.rank: Optional[int] = None
        self.wid: Optional[int] = None
        self.hello_deadline: Optional[float] = None

    def send(self, msg: Any) -> None:
        try:
            send_frame(self.sock, msg)
        except (OSError, ConnectionError) as exc:
            raise ConnectionLost(str(exc)) from exc

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def study_id(config: StudyConfig) -> str:
    """Short stable id naming this study in logs and dashboards."""
    return hashlib.sha1(
        repr(sorted(study_fingerprint(config).items())).encode()
    ).hexdigest()[:12]


def study_fingerprint(config: StudyConfig) -> dict:
    """Facts every participant must agree on to join a study."""
    return {
        "ncells": config.ncells,
        "ntimesteps": config.ntimesteps,
        "nparams": config.nparams,
        "ngroups": config.ngroups,
        "seed": config.seed,
        "server_ranks": config.server_ranks,
        "sampling_method": config.sampling_method,
        "statistics": list(config.statistics),
    }


def channel_stats(frame: dict) -> Optional[dict]:
    """The optional ``channel_stats`` of a peer's ``bye`` or
    ``rank_state``: counter name -> number, else the peer's
    :class:`ProtocolError`."""
    stats = peer_field(frame, "channel_stats", dict, None)
    if stats is not None and not all(
        type(name) is str and type(value) in (int, float)
        for name, value in stats.items()
    ):
        raise ProtocolError(
            f"{frame.get('op')!r} frame has a malformed 'channel_stats'"
        )
    return stats


class Coordinator:
    """The work-queue + rank-table process (the ``repro launch`` core).

    Its outputs are frames to its peers and the kill/spawn requests it
    makes of its supervisors; it signals no process itself.  Tests kill
    a worker by giving it a crash :class:`~repro.faults.ProcessFault`.

    Parameters
    ----------
    config:
        The authoritative study configuration.
    host, port:
        Control endpoint to bind (port 0 = ephemeral).
    worker_timeout:
        Heartbeat staleness (seconds) after which a worker holding a
        group is declared dead and its group resubmitted; defaults to
        ``config.group_timeout``.
    supervisor:
        Optional :class:`~repro.net.supervisor.RankSupervisor`.  Without
        one, a dead server rank aborts the study (pre-supervision
        behaviour); with one, the rank is killed and respawned from its
        checkpoint and the study continues.  Heartbeat staleness for
        zombie detection lives on the supervisor's policy.
    policy:
        Optional :class:`~repro.scheduler.policy.SchedulingPolicy`.
        Without one the queue is plain FIFO; with one, completions feed
        per-worker EWMA throughput and the policy may speculate straggler
        groups.
        Speculation requires ``config.discard_on_replay`` — exactness of
        duplicate completions rests on it.
    pool:
        Optional :class:`~repro.net.supervisor.PoolSupervisor` for
        elastic pool resize (spawn on deep queue, retire elastic workers
        on drained queue).
    """

    def __init__(
        self,
        config: StudyConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_timeout: Optional[float] = None,
        supervisor=None,
        policy=None,
        pool=None,
        telemetry=None,
        tracer=None,
    ):
        if policy is not None and policy.config.speculate and not config.discard_on_replay:
            raise ValueError(
                "speculative re-execution requires discard_on_replay=True: "
                "first-completion-wins is only exact because ranks discard "
                "the losing copy's replayed timesteps"
            )
        self.config = config
        self.fingerprint = study_fingerprint(config)
        self.worker_timeout = (
            config.group_timeout if worker_timeout is None else worker_timeout
        )
        self.supervisor = supervisor
        self.policy = policy
        self.pool = pool
        # observability (ISSUE 8): `telemetry` is an optional
        # StudyTelemetry aggregating the metric deltas that ranks and
        # workers piggyback on heartbeats (its presence is the on/off
        # switch sent in the registration acks); `tracer` records the group
        # lifecycle + fault/elastic instants for --trace.  The event
        # timeline and final channel-stats frames are collected
        # unconditionally — they are bounded and feed the launch
        # end-of-run summary even with telemetry off.
        self.telemetry = telemetry
        self.tracer = tracer
        self.study_id = study_id(config)
        self.events: List[Tuple[float, str, str]] = []
        self.worker_channel_stats: Dict[str, dict] = {}
        self.rank_channel_stats: Dict[int, dict] = {}
        # the one clock: each turn's monotonic ``now``, and the offset
        # that turns it into wall-clock time for the timeline and tracer
        self._now = time.monotonic()
        self._wall_offset = time.time() - self._now
        self._rank_last_beat: Dict[int, float] = {}
        self._log = get_logger("coordinator", study=self.study_id)
        reg = _telemetry.REGISTRY
        self._m_queue_depth = reg.gauge(
            "repro_queue_depth", "groups waiting for a worker")
        self._m_in_flight = reg.gauge(
            "repro_in_flight",
            "group attempts held by workers (running or sent but not yet "
            "acknowledged by the ranks)")
        self._m_workers_active = reg.gauge(
            "repro_workers_active", "connected group workers")
        self._m_staleness = reg.gauge(
            "repro_heartbeat_staleness_seconds",
            "seconds since each peer's last heartbeat")
        self._m_groups_done = reg.counter(
            "repro_groups_done", "groups settled (first completion wins)")
        self._m_resubmits = reg.counter(
            "repro_group_resubmits", "groups requeued after a worker death")
        self._m_interrupted = reg.counter(
            "repro_groups_interrupted",
            "group attempts aborted by a server-rank death")
        self._m_spec_fired = reg.counter(
            "repro_speculations_fired", "speculative duplicate attempts issued")
        self._m_spec_won = reg.counter(
            "repro_speculations_won",
            "groups settled first by their speculative copy")
        self._m_rank_respawns = reg.counter(
            "repro_rank_respawns", "server-rank respawns (launcher protocol)")
        self._m_requeued_respawn = reg.counter(
            "repro_requeued_after_respawn",
            "groups requeued because a respawned rank's state missed them")
        self._m_elastic_spawned = reg.gauge(
            "repro_elastic_spawned", "elastic workers forked so far")
        self._m_elastic_retired = reg.gauge(
            "repro_elastic_retired", "elastic workers retired so far")
        self._listener = socket.create_server((host, port), backlog=64)
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        # single multiplexed control plane, driven by wait(): selectors
        # scales past FD_SETSIZE, and peers that dial in before wait()
        # runs queue in the listen backlog
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, "listener")
        self._peers: Set[_Peer] = set()  # registered in the selector
        self._detached: List[_Peer] = []  # done reading, fd kept open
        # ``next`` requests _assign has no answer for yet (worker id ->
        # peer): re-evaluated at the end of every loop turn, so the one
        # whose event resolves them also answers them
        self._parked_next: Dict[int, _Peer] = {}

        self._pending = deque(range(config.ngroups))
        # worker id -> {group id -> attempt} for every group it holds,
        # oldest first: sent but not yet acknowledged by the ranks, then
        # the one it is running and the rest of its lease
        self._held: Dict[int, Dict[int, Attempt]] = {}
        self._retries: Dict[int, int] = {}
        self.done: Set[int] = set()
        self.abandoned: List[int] = []
        self.resubmitted: List[int] = []
        self.interrupted: List[int] = []  # groups aborted by a rank death
        self.rank_respawns: List[int] = []  # ranks that re-registered
        self.requeued_after_respawn: List[int] = []
        # speculation bookkeeping: re-issued group ids, groups settled
        # first by their speculative copy, attempts ended because another
        # copy settles their group; then elastic-pool state
        self.speculated: List[int] = []
        self.speculation_wins = 0
        self.duplicates_discarded = 0
        self.retired_workers: List[int] = []
        self._worker_elastic: Dict[int, bool] = {}
        self._retired_wids: Set[int] = set()
        self._rank_generations: Dict[int, int] = {}
        self._assign_count = 0  # groups handed out, speculative included
        self._leases = 0  # ``group`` replies carrying them
        self._rank_addresses: Dict[int, Tuple[str, int]] = {}
        self._rank_conns: Dict[int, Any] = {}
        self.rank_states: Dict[int, dict] = {}
        self.rank_maps: Dict[int, dict] = {}
        self.rank_widths: Dict[int, float] = {}
        self._worker_names: Dict[int, str] = {}
        self._last_seen: Dict[int, float] = {}
        self._worker_conns: Dict[int, Any] = {}
        self._next_worker_id = 0
        self._errors: List[str] = []
        self._finalized = False
        self._closed = False

    # ------------------------------------------------------------------ #
    def start(self) -> "Coordinator":
        """Open the study (the control port already listens); :meth:`wait`
        runs it."""
        if self.supervisor is not None:
            # seed liveness for every expected rank: a serve process that
            # dies BEFORE it ever registers (bind failure, bad restore,
            # OOM kill) has no connection to drop, so only staleness from
            # this baseline can expose it for respawn
            for rank in range(self.config.server_ranks):
                self.supervisor.beat(rank, self._now)
        self._event(
            "study_started",
            f"{self.config.ngroups} groups drawn, "
            f"{self.config.server_ranks} server ranks",
        )
        return self

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #
    def _event(self, kind: str, detail: str = "") -> None:
        """Study event: timeline entry + optional tracer instant.

        The timeline is always recorded (bounded by study events, and the
        launch end-of-run summary prints it); the tracer instant only
        exists under ``--trace``.
        """
        now = self._now + self._wall_offset
        self.events.append((now, kind, detail))
        if self.tracer is not None:
            self.tracer.instant(
                kind, "event", t=now, tid="coordinator",
                args={"detail": detail} if detail else None,
            )
        self._log.info("%s %s", kind, detail, extra=ids(event=kind))

    def _refresh_gauges(self) -> None:
        """Update point-in-time gauges (every loop turn)."""
        if not _telemetry.REGISTRY.enabled:
            return
        self._m_queue_depth.set(len(self._pending))
        self._m_in_flight.set(sum(map(len, self._held.values())))
        self._m_workers_active.set(len(self._worker_conns))
        for wid, last in self._last_seen.items():
            name = self._worker_names.get(wid, f"worker {wid}")
            self._m_staleness.set(self._now - last, peer=name)
        for rank, last in self._rank_last_beat.items():
            self._m_staleness.set(self._now - last, peer=f"server-rank-{rank}")
        if self.pool is not None:
            self._m_elastic_spawned.set(self.pool.spawned_total)
            self._m_elastic_retired.set(self.pool.retired_total)

    def study_view(self) -> dict:
        """Live study facts for dashboard frames (``repro top``).

        The metrics exporters call this from their own threads while the
        loop runs: it only takes ``len()`` of containers and whole-dict
        copies, each a single step under the GIL, so it needs no lock and
        never iterates a container the loop is changing.
        """
        leases, assigned = self._leases, self._assign_count
        view = {
            "fingerprint": self.study_id,
            "ngroups": self.config.ngroups,
            "groups_done": len(self.done),
            "queue_depth": len(self._pending),
            "in_flight": sum(map(len, list(self._held.values()))),
            "workers_active": len(self._worker_conns),
            "speculated": len(self.speculated),
            "resubmitted": len(self.resubmitted),
            "interrupted": len(self.interrupted),
            "rank_respawns": len(self.rank_respawns),
            "abandoned": len(self.abandoned),
            "leases": leases,
            "groups_per_lease": assigned / leases if leases else 0.0,
        }
        if self.policy is not None:
            view["ewma"] = {
                self._worker_names.get(w, str(w)): round(s, 4)
                for w, s in dict(self.policy.ewma).items()
            }
        return view

    # ------------------------------------------------------------------ #
    # lifecycle: wait() is the event loop
    # ------------------------------------------------------------------ #
    def wait(self, timeout: float = 300.0) -> None:
        """Run the study on this thread until every rank reported its
        state, then close the coordinator.

        Raises a descriptive :class:`TimeoutError` naming the unfinished
        groups and unreported ranks, or :class:`StudyAborted` on a fatal
        participant failure.
        """
        nranks = self.config.server_ranks
        try:
            over = self._run_until(
                lambda: bool(self._errors) or len(self.rank_states) == nranks,
                time.monotonic() + timeout,
            )
            if self._errors:
                raise StudyAborted(
                    "distributed study failed:\n" + "\n".join(self._errors)
                )
            if not over:
                raise TimeoutError(self._timeout_message(timeout))
            self._drain_worker_goodbyes()
        finally:
            self.close()

    def _drain_worker_goodbyes(self, grace: float = 0.35) -> None:
        """Give connected workers a moment to hear ``done`` and say
        ``bye`` before :meth:`close` cuts them off.

        The ``bye`` frame carries each worker's final send-side
        :class:`~repro.transport.channel.ChannelStats` (and, under
        telemetry, its last metric delta rides the preceding heartbeat),
        so closing eagerly would lose the end-of-run accounting.  Bounded:
        a worker that never comes back (killed, zombie, mid-straggle)
        cannot stall shutdown past ``grace`` seconds — the workers'
        ``next`` requests are parked, ``done`` goes out in the loop turn
        that takes the last rank state in, and the turn that reads the
        last ``bye`` ends this wait, so the healthy case drains in one
        round trip.
        """
        self._run_until(
            lambda: not self._worker_conns, time.monotonic() + grace
        )

    def _run_until(self, done: Callable[[], bool], deadline: float) -> bool:
        """Run loop turns until ``done()`` (True) or ``deadline`` passes
        (False).  Each ``select`` sleeps until a peer is readable or the
        next silence deadline, whichever comes first."""
        while not done():
            now = time.monotonic()
            if now >= deadline:
                return False
            events = self._sel.select(self._next_wakeup(deadline) - now)
            self._turn(events, time.monotonic())
        return True

    def _next_wakeup(self, deadline: float) -> float:
        """The earliest instant a turn is due although no peer spoke:
        ``deadline``, a peer's hello deadline, or the heartbeat of a
        worker holding groups or of a watched rank going stale.
        Verdicts that only change with time for a *parked* ``next``
        (speculation due, elastic cooldown) need no entry: the parked
        worker heartbeats, and each beat is a turn."""
        due = [deadline]
        due.extend(
            p.hello_deadline for p in self._peers if p.hello_deadline is not None
        )
        due.extend(
            self._last_seen[wid] + self.worker_timeout
            for wid in self._held
            if wid in self._last_seen
        )
        if self.supervisor is not None:
            policy = self.supervisor.policy
            due.extend(
                last + policy.timeout
                for rank, last in policy.last_heartbeat.items()
                if rank not in self.rank_states
            )
        return min(due)

    def _timeout_message(self, timeout: float) -> str:
        """Deadline-breach report naming the unfinished groups and the
        server ranks that never shipped their state."""
        unfinished = sorted(
            set(range(self.config.ngroups)) - set(self.done) - set(self.abandoned)
        )
        silent = sorted(set(range(self.config.server_ranks)) - set(self.rank_states))
        shown = ", ".join(map(str, unfinished[:12]))
        if len(unfinished) > 12:
            shown += f", ... ({len(unfinished)} total)"
        return (
            f"distributed study did not finish within {timeout:.1f}s: "
            f"{len(unfinished)} group(s) unfinished [{shown}]; "
            f"server rank(s) not reported: {silent}"
        )

    def _groups_settled(self) -> bool:
        return (
            not self._pending
            and not self._held
            and len(self.done) + len(self.abandoned) == self.config.ngroups
        )

    def _finalize_ranks(self) -> None:
        self._finalized = True
        self._event("finalize", "every group settled; collecting rank states")
        for rank, conn in list(self._rank_conns.items()):
            try:
                conn.send({"op": "finalize"})
            except ConnectionLost:
                # with supervision the loop sees the rank's EOF and
                # respawns it; the replacement is re-finalized
                if self.supervisor is None:
                    self._errors.append(f"server rank {rank} lost before finalize")

    def _reap_stale_workers(self) -> None:
        for wid in list(self._held):
            last = self._last_seen.get(wid, self._now)
            if self._now - last > self.worker_timeout:
                conn = self._worker_conns.get(wid)
                if conn is not None:
                    conn.close()  # shutdown: the loop sees EOF and resubmits

    def _reap_stale_ranks(self) -> List[int]:
        """Flag heartbeat-silent ranks.

        A connected zombie has its control connection shut down, so the
        next turn runs its loss path (kill + respawn).  A stale rank with
        NO connection — it died before ever registering — is returned
        for the turn to respawn directly; its liveness entry is dropped
        so the verdict fires once (the replacement's registration
        re-arms tracking).  A rank that already shipped its state is
        lingering on purpose and is never reaped.
        """
        if self.supervisor is None:
            return []
        orphans: List[int] = []
        for rank in self.supervisor.stale_ranks(self._now):
            if rank in self.rank_states:
                continue
            conn = self._rank_conns.get(rank)
            if conn is not None:
                conn.close()
            else:
                self.supervisor.policy.forget(rank)
                orphans.append(rank)
        return orphans

    def close(self) -> None:
        """Shut every control connection down and release the sockets
        (idempotent; :meth:`wait` ends with it)."""
        if self._closed:
            return
        self._closed = True
        for peer in list(self._peers) + self._detached:
            peer.close()  # shutdown: also reaches fds a fork inherited
            try:
                peer.sock.close()
            except OSError:
                pass
        self._peers.clear()
        self._detached.clear()
        self._sel.close()
        self._listener.close()

    # ------------------------------------------------------------------ #
    # connection handling: one selectors event loop for every peer
    # ------------------------------------------------------------------ #
    def _turn(self, events, now: float) -> None:
        """One loop turn: dispatch what is readable, run the deadline
        work and the study-level verdicts (finalize, stale peers,
        elastic ramp-up), then answer every parked ``next`` the turn
        resolved.  ``now`` is the turn's one clock reading."""
        self._now = now
        for key, _ in events:
            if key.data == "listener":
                self._accept_ready()
            else:
                self._pump_peer(key.data)
        for peer in list(self._peers):
            if peer.hello_deadline is not None and now > peer.hello_deadline:
                self._drop_fd(peer)  # never said hello
        if self._groups_settled() and not self._finalized:
            self._finalize_ranks()
        self._reap_stale_workers()
        for rank in self._reap_stale_ranks():
            self._respawn_lost_rank(rank)
        if self.pool is not None:
            # elastic ramp-up; the ramp-down half lives in _assign, where
            # an elastic worker asking for work against a drained queue
            # is told to retire instead
            self.pool.maybe_spawn(
                len(self._pending), len(self._worker_conns), self._now
            )
        self._refresh_gauges()
        if self._parked_next:
            self._serve_parked_next()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer_addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            peer = _Peer(sock, f"{peer_addr[0]}:{peer_addr[1]}")
            peer.hello_deadline = self._now + self.worker_timeout
            self._peers.add(peer)
            self._sel.register(sock, selectors.EVENT_READ, peer)

    def _pump_peer(self, peer: _Peer) -> None:
        """Read and dispatch a peer's frames.  A frame that does not
        decode, or a control dict with a missing or mistyped field, is
        the peer's protocol error: that peer is lost, the study goes on."""
        try:
            frames = peer.reader.pump(peer.sock)
        except (ConnectionLost, ProtocolError, OSError, ValueError):
            self._peer_lost(peer)
            return
        try:
            for frame in frames:
                if not self._dispatch(peer, frame):
                    return  # the peer finished, detached, or was dropped
        except ProtocolError:
            self._peer_lost(peer)

    def _dispatch(self, peer: _Peer, frame: Any) -> bool:
        """Route one frame; False when the peer should pump no further."""
        if peer.kind is None:
            return self._handle_hello(peer, frame)
        if peer.kind == "rank":
            return self._on_rank_frame(peer, frame)
        return self._on_worker_frame(peer, frame)

    def _handle_hello(self, peer: _Peer, hello: Any) -> bool:
        if not isinstance(hello, dict):
            self._drop_fd(peer)
            return False
        if hello.get("fingerprint") != self.fingerprint:
            self._errors.append(
                f"{hello.get('op')} from {peer.peername} joined with a "
                f"mismatched study configuration: {hello.get('fingerprint')}"
                f" != {self.fingerprint}"
            )
            try:
                peer.send({"op": "error", "error": "study fingerprint mismatch"})
            except ConnectionLost:
                pass
            self._drop_fd(peer)
            return False
        peer.hello_deadline = None
        if hello.get("op") == "register":
            return self._register_rank(peer, hello)
        if hello.get("op") == "hello":
            return self._register_worker(peer, hello)
        self._drop_fd(peer)
        return False

    # -- loop-side peer lifecycle -------------------------------------- #
    def _drop_fd(self, peer: _Peer) -> None:
        """Remove a peer from the loop and close its descriptor."""
        self._peers.discard(peer)
        try:
            self._sel.unregister(peer.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            peer.sock.close()
        except OSError:
            pass

    def _detach(self, peer: _Peer) -> None:
        """Stop reading a peer but keep its socket open: a lingering rank
        that reported its state, or one that shipped a fatal error,
        stays connected until the coordinator itself closes."""
        self._peers.discard(peer)
        try:
            self._sel.unregister(peer.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._detached.append(peer)

    def _peer_lost(self, peer: _Peer) -> None:
        """EOF/reset/protocol violation on a registered peer, or a
        worker's last frame or failed send: close; resubmit what a worker
        held and forget it, or run a rank's loss path."""
        kind, rank, wid = peer.kind, peer.rank, peer.wid
        self._drop_fd(peer)
        if kind == "rank":
            self._on_rank_lost(rank, peer)
        elif kind == "worker":
            self._resubmit_if_assigned(wid)
            self._forget_worker(wid)

    # ------------------------------------------------------------------ #
    def _register_rank(self, peer: _Peer, hello: dict) -> bool:
        rank = peer_field(hello, "rank", int)
        if not 0 <= rank < self.config.server_ranks:
            raise ProtocolError(f"no server rank {rank} in this study")
        address = tuple(peer_field(hello, "address", (tuple, list)))
        if [type(part) for part in address] != [str, int]:
            raise ProtocolError(f"rank {rank} sent no (host, port) address")
        # the supervisor signals this pid: only a real one, or none
        pid = peer_field(hello, "pid", (int, type(None)), None)
        if pid is not None and (isinstance(pid, bool) or pid <= 0):
            raise ProtocolError(f"rank {rank} sent pid {pid!r}")
        self._note_rank_registration(rank, hello)
        peer.kind, peer.rank = "rank", rank
        self._rank_addresses[rank] = address
        self._rank_conns[rank] = peer
        if self.supervisor is not None:
            self.supervisor.watch(rank, pid)
            # registration counts as liveness: a rank that hangs
            # before its first heartbeat must still look stale later
            self.supervisor.beat(rank, self._now)
        try:
            peer.send({
                "op": "registered",
                # senders attach telemetry payloads to their heartbeats
                # only when we can ingest them
                "telemetry": self.telemetry is not None,
            })
        except ConnectionLost:
            self._peer_lost(peer)
            return False
        return True

    def _on_rank_frame(self, peer: _Peer, frame: Any) -> bool:
        rank = peer.rank
        if isinstance(frame, Heartbeat):
            if self.supervisor is not None:
                self.supervisor.beat(rank, self._now)
            self._rank_last_beat[rank] = self._now
            if frame.metrics is not None and self.telemetry is not None:
                self.telemetry.ingest(frame.sender, frame.metrics)
            return True
        if isinstance(frame, dict) and frame.get("op") == "rank_state":
            stats = channel_stats(frame)
            self.rank_widths[rank] = peer_field(frame, "width", (int, float))
            self.rank_maps[rank] = peer_field(frame, "maps", dict)
            # last: a rank is reported once its state is in
            self.rank_states[rank] = peer_field(frame, "state", dict)
            if stats is not None:
                self.rank_channel_stats[rank] = stats
            self._event("rank_state", f"rank {rank} reported")
            if self.supervisor is not None:
                # the rank now lingers (silent by design) to absorb
                # respawn-requeued replays; stop watching its heartbeat
                self.supervisor.policy.forget(rank)
            if self.supervisor is None:
                # unsupervised: a reported rank's eventual exit is
                # normal — stop reading it (its EOF must not be treated
                # as a loss) but keep the socket open as before
                self._detach(peer)
                return False
            # supervised: keep reading so a lingering rank's death is
            # still observed — replays of another rank's requeued groups
            # must have somewhere to land, so the corpse needs a
            # replacement like any other rank
            return True
        if isinstance(frame, dict) and frame.get("op") == "error":
            self._errors.append(f"server rank {rank} failed:\n{frame.get('error')}")
            self._detach(peer)
            return False
        return True  # unknown rank frames are ignored, as before

    def _note_rank_registration(self, rank: int, hello: dict) -> None:
        """Respawn bookkeeping for a (re-)registering rank.

        A re-registration is the second half of the launcher protocol:
        the replacement process restored its checkpoint and told us which
        groups that state already contains (``finished``).  Every group
        the coordinator considers done or in flight that the restored
        state is missing lost data with the old process — requeue it;
        replay protection on the other ranks discards the duplicates.
        """
        restored = {
            self._group_id(g)
            for g in peer_field(hello, "finished", (tuple, list), ())
        }
        pid = hello.get("pid")
        generation = self._rank_generations.get(rank, -1) + 1
        self._rank_generations[rank] = generation
        if generation == 0:
            self._event("rank_registered", f"rank {rank} (pid {pid})")
            return
        self.rank_respawns.append(rank)
        self._m_rank_respawns.inc(rank=str(rank))
        self._event(
            "rank_respawned",
            f"rank {rank} generation {generation} (pid {pid})",
        )
        at_risk = self.done.union(*self._held.values())
        requeue = sorted(g for g in at_risk if g not in restored)
        for gid in requeue:
            self.done.discard(gid)
            if gid not in self._pending:
                self._pending.append(gid)
        # held attempts of requeued groups (running, or sent and waiting
        # for acknowledgement) may still "complete" on pre-crash credits
        # the restored rank never integrated; mark them stale so their
        # ``done`` report cannot settle the group
        missing = set(requeue)
        for held in self._held.values():
            for gid in missing.intersection(held):
                held[gid] = held[gid]._replace(stale=True)
        self.requeued_after_respawn.extend(requeue)
        if requeue:
            self._m_requeued_respawn.inc(len(requeue))
            self._event(
                "requeued_after_respawn",
                f"rank {rank} restore missed groups {requeue}",
            )
        # whether or not anything was requeued, the replacement has never
        # seen a finalize — arm the next turn to send it again (lingering
        # ranks ignore the repeat)
        self._finalized = False

    def _on_rank_lost(self, rank: int, conn: Any) -> None:
        """A server rank's control connection died: abort (no supervisor)
        or kill-and-respawn (Sec. 4.2.3).

        With supervision this also covers a *lingering* rank — one whose
        state is already in.  Its death would strand the re-sends of any
        later respawn-requeued group, so it gets a replacement too; the
        collected state is dropped and the replacement (restoring the
        final checkpoint) re-reports an identical one.
        """
        if self._closed or len(self.rank_states) == self.config.server_ranks:
            # shutting down, or every state is in (the study is over and
            # wait() is about to close us): nothing to recover
            return
        if self.supervisor is None and rank in self.rank_states:
            return  # unsupervised: a reported rank's exit is normal
        if self._rank_conns.get(rank) is not conn:
            return  # superseded by a newer registration
        del self._rank_conns[rank]
        # no lease goes out until the replacement registers its fresh
        # data address
        self._rank_addresses.pop(rank, None)
        if self.supervisor is None:
            self._errors.append(
                f"server rank {rank} disconnected before reporting its state"
            )
            return
        self.rank_states.pop(rank, None)
        self.rank_maps.pop(rank, None)
        self.rank_widths.pop(rank, None)
        self.supervisor.policy.forget(rank)
        self._respawn_lost_rank(rank)

    def _respawn_lost_rank(self, rank: int) -> None:
        """Kill-and-respawn one dead rank."""
        try:
            self.supervisor.respawn(rank)
        except Exception as exc:  # budget exceeded or the spawner failed
            self._errors.append(
                f"server rank {rank} died and could not be respawned: {exc}"
            )

    # ------------------------------------------------------------------ #
    def _register_worker(self, peer: _Peer, hello: dict) -> bool:
        wid = self._next_worker_id
        self._next_worker_id += 1
        self._worker_names[wid] = str(hello.get("worker", f"worker-{wid}"))
        self._worker_conns[wid] = peer
        self._worker_elastic[wid] = bool(hello.get("elastic"))
        self._last_seen[wid] = self._now
        peer.kind, peer.wid = "worker", wid
        name = self._worker_names[wid]
        self._event("worker_joined", name + (" (elastic)" if hello.get("elastic") else ""))
        try:
            peer.send({
                "op": "welcome", "worker_id": wid,
                "telemetry": self.telemetry is not None,
            })
        except ConnectionLost:
            self._peer_lost(peer)
            return False
        return True

    def _on_worker_frame(self, peer: _Peer, frame: Any) -> bool:
        wid = peer.wid
        name = self._worker_names.get(wid, str(wid))
        self._last_seen[wid] = self._now
        try:
            if isinstance(frame, Heartbeat):
                if frame.metrics is not None and self.telemetry is not None:
                    self.telemetry.ingest(frame.sender, frame.metrics)
                return True
            if not isinstance(frame, dict):
                raise StudyAborted(f"unexpected frame from {name}: {frame!r}")
            op = frame.get("op")
            if op == "next":
                # the request carries the groups the ranks acknowledged
                # since the worker's last one: the receiving ranks have
                # handled every frame of each
                done = peer_field(frame, "done", (list, tuple), ())
                for gid in [self._group_id(g) for g in done]:
                    self._mark_done(wid, gid)
                if not self._answer_next(peer):
                    self._parked_next[wid] = peer
            elif op == "group_interrupted":
                # the worker aborted the group because a server rank
                # died under it; requeue without charging the group's
                # retry budget (the group is not at fault)
                gid = self._group_id(peer_field(frame, "group_id", int))
                self._requeue_interrupted(wid, gid)
            elif op == "error":
                self._errors.append(f"worker {name} failed:\n{frame.get('error')}")
                self._peer_lost(peer)
                return False
            elif op == "bye":
                stats = channel_stats(frame)
                if stats is not None:
                    self.worker_channel_stats[name] = stats
                self._peer_lost(peer)
                return False
            else:
                raise StudyAborted(f"unknown op from {name}: {op!r}")
            return True
        except ConnectionLost:
            self._peer_lost(peer)
            return False
        except StudyAborted as exc:
            self._errors.append(str(exc))
            self._peer_lost(peer)
            return False

    def _forget_worker(self, wid: int) -> None:
        """Drop a departed worker's liveness/speed state so elastic
        active-worker counts and the fleet EWMA describe only the living."""
        self._parked_next.pop(wid, None)
        departed = self._worker_conns.pop(wid, None) is not None
        self._last_seen.pop(wid, None)
        if departed and not self._closed:
            self._event("worker_left", str(self._worker_names.get(wid, wid)))
        elastic = self._worker_elastic.pop(wid, False)
        retired = wid in self._retired_wids
        self._retired_wids.discard(wid)
        if self.policy is not None:
            self.policy.worker_left(wid)
        if elastic and not retired and self.pool is not None:
            self.pool.worker_lost(self._now)

    def _group_id(self, gid: Any) -> int:
        """A group id a peer sent: anything but one of this study's
        groups is the peer's :class:`ProtocolError`."""
        if not isinstance(gid, int) or not 0 <= gid < self.config.ngroups:
            raise ProtocolError(f"no group {gid!r} in this study")
        return gid

    def _answer_next(self, peer: _Peer) -> bool:
        """Answer a worker's ``next`` if :meth:`_assign` has a verdict
        for it; False means "not yet" — the request stays parked (long
        poll) until a state change resolves it.  A worker that still
        holds unacknowledged groups is never parked: it is told to
        ``settle`` them (wait for the ranks, then ask again), so every
        completion reaches the coordinator without a timer.  Every lease
        names each rank's data address, so while a rank is unregistered
        the verdict is ``idle``."""
        wid = peer.wid
        ranks = [self._rank_addresses.get(r) for r in range(self.config.server_ranks)]
        reply = {"op": "idle"} if None in ranks else self._assign(wid)
        if reply["op"] == "group":
            reply["ranks"] = ranks
        if reply["op"] == "idle":
            if wid not in self._held:
                return False
            reply = {"op": "settle"}
        peer.send(reply)
        return True

    def _serve_parked_next(self) -> None:
        """Re-evaluate every parked ``next`` (end of each loop turn: the
        event that was just dispatched — a rank state, a requeue, a
        departed worker — or the tick, for the time-based verdicts, may
        have resolved it)."""
        for wid, peer in list(self._parked_next.items()):
            if peer not in self._peers:
                del self._parked_next[wid]  # the worker left while waiting
                continue
            try:
                if self._answer_next(peer):
                    del self._parked_next[wid]
            except ConnectionLost:
                self._peer_lost(peer)

    def _is_held(self, gid: int) -> bool:
        return any(gid in held for held in self._held.values())

    def _hold(self, wid: int, gid: int, speculative: bool = False) -> None:
        self._held.setdefault(wid, {})[gid] = Attempt(self._now, speculative)
        self._assign_count += 1

    def _release(self, wid: int, gid: int, outcome: str) -> Optional[Attempt]:
        """End one held attempt — the one place an attempt ends: emit
        its tracer span, feed a completion's duration to the policy's
        EWMA, count a settled duplicate.  None if the worker did not
        hold the group."""
        held = self._held.get(wid)
        attempt = held.pop(gid, None) if held else None
        if attempt is None:
            return None
        if not held:
            del self._held[wid]
        if self.tracer is not None:
            self.tracer.complete(
                f"group {gid}", "assigned",
                attempt.started + self._wall_offset,
                self._now + self._wall_offset,
                tid=self._worker_names.get(wid, f"worker {wid}"),
                args={"group": gid, "outcome": outcome},
            )
        if outcome in ("done", "speculation-won") and self.policy is not None:
            self.policy.completed(wid, self._now - attempt.started)
        elif outcome in ("settled-by-duplicate", "stale", "superseded-by-requeue"):
            # another copy settles (or will settle) the group
            self.duplicates_discarded += 1
        return attempt

    def _assign(self, wid: int):
        """Next work item for a worker: a lease of groups, a speculative
        re-run of a straggling group, a retire order (elastic drain),
        done, or an ``idle`` verdict — nothing to say yet; never sent,
        the request is parked (see :meth:`_answer_next`).

        A lease is ``min(MAX_HELD_GROUPS - groups the worker holds,
        pending // (2 * live workers))`` groups, at least one, each a held
        attempt from now on; half the queue stays for the rest of the
        fleet.  A group the worker still holds (a stale attempt whose
        copy a rank respawn requeued) stays queued for a later lease.
        With a scheduling policy the lease is one group: its clock starts
        at the lease, so groups queued behind a longer lease would look
        overdue and draw speculative copies."""
        held = self._held.get(wid, {})
        if (
            self.pool is not None
            and self._worker_elastic.get(wid)
            and wid not in self._retired_wids
            # a retiring worker leaves at once: it must hold nothing
            and not held
            and self.pool.offer_retire(
                len(self._pending), len(self._worker_conns), self._now
            )
        ):
            # elastic ramp-down: the queue is drained below the low water
            # mark, so this extra worker leaves instead of idling (its
            # bye or EOF runs the usual teardown)
            self._retired_wids.add(wid)
            self.retired_workers.append(wid)
            self._event(
                "worker_retired",
                f"{self._worker_names.get(wid, wid)} (queue drained)",
            )
            return {"op": "retire"}
        if self._groups_settled():
            # workers may only leave once every rank has shipped its
            # state: a rank dying during finalize requeues groups, and
            # someone has to still be around to run them
            if len(self.rank_states) == self.config.server_ranks:
                return {"op": "done"}
            return {"op": "idle"}
        if not self._pending:
            # stale attempts and done groups are not worth a second copy
            live = [
                (holder, gid, attempt.started)
                for holder, attempts in self._held.items()
                for gid, attempt in attempts.items()
                if not attempt.stale and gid not in self.done
            ]
            gid = None if self.policy is None else self.policy.speculation_candidate(
                wid, live, len(self.speculated), self._now
            )
            if gid is None:
                # workers still hold groups that may yet be resubmitted;
                # stay around
                return {"op": "idle"}
            # straggler re-execution: hand the overdue group to this idle
            # worker too; first completion wins
            self._hold(wid, gid, speculative=True)
            self._leases += 1
            self.speculated.append(gid)
            self._m_spec_fired.inc()
            self._event(
                "speculation",
                f"group {gid} re-issued to {self._worker_names.get(wid, wid)}",
            )
            return {"op": "group", "group_ids": [gid]}
        size = 1 if self.policy is not None else max(1, min(
            MAX_HELD_GROUPS - len(held),
            len(self._pending) // (2 * max(1, len(self._worker_conns))),
        ))
        gids: List[int] = []
        skipped: List[int] = []
        while self._pending and len(gids) < size:
            gid = self._pending.popleft()
            (skipped if gid in held else gids).append(gid)
        self._pending.extendleft(reversed(skipped))
        if not gids:
            return {"op": "idle"}
        for gid in gids:
            self._hold(wid, gid)
        self._leases += 1
        return {"op": "group", "group_ids": gids}

    def _mark_done(self, wid: int, gid: int) -> None:
        attempt = self._held.get(wid, {}).get(gid)
        if attempt is not None and attempt.stale:
            # this attempt was in flight when a rank respawned: its
            # "completion" may rest on credits the dead rank never
            # integrated, so only the requeued copy settles the group
            self._release(wid, gid, "stale")
            return
        if gid in self._pending:
            # a respawn requeued this group while the worker was
            # finishing it; the queued duplicate still runs (the
            # respawned rank needs the re-sent data), so the completion
            # settles nothing
            self._release(wid, gid, "superseded-by-requeue")
            return
        speculative = attempt is not None and attempt.speculative
        if gid not in self.done:
            self.done.add(gid)
            self._m_groups_done.inc()
            if speculative:
                self._m_spec_won.inc()
                self.speculation_wins += 1
        self._release(wid, gid, "speculation-won" if speculative else "done")
        # first completion wins: settle every other running copy of this
        # group.  The winner's report proves each rank credited (and
        # pre-finalize drains) every byte, so the statistics already
        # contain the group; the losers' residual frames are
        # replay-discarded during the ranks' linger phase.  No forget
        # broadcast — the losers' staged partials are orphaned
        # (group, timestep) entries the discard path drops on its own.
        for other, held in list(self._held.items()):
            sibling = held.get(gid)
            if sibling is not None and not sibling.stale:
                self._release(other, gid, "settled-by-duplicate")

    def _requeue_interrupted(self, wid: int, gid: int) -> None:
        """A rank died under a running group: re-run it, free of charge.

        Unlike :meth:`_resubmit_if_assigned` this does not count against
        ``max_group_retries`` — the group did nothing wrong — and it
        dedupes against the respawn requeue, which may have already put
        the same group back in the queue.
        """
        attempt = self._release(wid, gid, "interrupted")
        self.interrupted.append(gid)
        self._m_interrupted.inc()
        self._event(
            "group_interrupted",
            f"group {gid} aborted on "
            f"{self._worker_names.get(wid, wid)} (rank died under it)",
        )
        if (attempt is not None and attempt.stale) or self._is_held(gid):
            # a stale attempt needs no requeue (the respawn already queued
            # a copy) and neither does a speculation sibling (the other
            # copy is still running and settles the group itself).  NO
            # forget broadcast either: that copy may already be
            # mid-stream, and dropping its staged partials would leave a
            # (group, timestep) forever incomplete on the surviving ranks
            return
        if gid not in self.done and gid not in self._pending:
            self._pending.append(gid)
        self._broadcast_forget(gid)

    def _resubmit_if_assigned(self, wid: int) -> None:
        """Sec. 4.2.2 fault path: the worker died holding groups — the
        rest of its lease, the one it was running, and those it had sent
        whose frames the ranks had not acknowledged (a dead worker's
        outbox is gone, so none can be proven delivered)."""
        name = self._worker_names.get(wid, wid)
        for gid in list(self._held.get(wid, ())):
            stale = self._release(wid, gid, "worker-lost").stale
            if gid in self.done or self._is_held(gid):
                # settled already, or a speculation sibling still runs
                # it: its stream must keep landing, so no forget
                # broadcast — and no retry charge or requeue for a death
                # the group survives
                continue
            if stale or gid in self._pending:
                # a rank respawn already requeued this group; the queued
                # copy will re-run it — don't double-queue or charge the
                # group's retry budget for a death that isn't its fault
                continue
            self._retries[gid] = self._retries.get(gid, 0) + 1
            if self._retries[gid] > self.config.max_group_retries:
                self.abandoned.append(gid)
                self._event(
                    "group_abandoned",
                    f"group {gid} out of retries after {name} died",
                )
            else:
                self.resubmitted.append(gid)
                self._pending.append(gid)
                self._m_resubmits.inc()
                self._event(
                    "group_resubmitted", f"group {gid} requeued ({name} died)"
                )
            # the ranks drop the dead instance's staged partials;
            # integrated timesteps stay and replay protection discards
            # their re-sends, so the resubmitted run is exact
            self._broadcast_forget(gid)

    def _broadcast_forget(self, gid: int) -> None:
        """Tell every rank to drop a group's staged partials."""
        for conn in list(self._rank_conns.values()):
            try:
                conn.send({"op": "forget", "group_id": gid})
            except ConnectionLost:
                pass
