"""Pipelined group hand-off: the asynchronous ``done`` report and the
long-poll ``next`` (ISSUE 16).

The coordinator answers ``next`` with a lease of one or more groups; a
worker asks again as soon as the last frame of its lease is handed to its
channels, and reports a group done — on the ``done`` list of a later
``next`` — only once every receiving rank's acknowledged cursor has
passed the mark it took then.  The coordinator treats every group a
worker holds (leased, running, or sent and unacknowledged) as in flight,
and parks a ``next`` it cannot answer yet instead of telling the worker
to sleep and retry.

Nothing here is paced by ``sleep()``: the coordinator has no thread of
its own, so a test runs its loop on the test thread — until a predicate
holds, or turn by turn — and otherwise blocks on socket reads; the
settle deadline runs on a fake clock.  The one poll is bounded: the
rank-death test waits for the worker's socket to see the dead rank's EOF.
"""

import socket
import struct
import threading
import time
from collections import deque

import numpy as np
import pytest

from net_util import (
    Inbox, InboxListener, held_at_worker_loss, retry_on_eaddrinuse,
)
from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.core.launcher import RankRespawnPolicy
from repro.faults import FaultPlan, ProcessFault
from repro.net import coordinator as coordinator_module
from repro.net import worker as worker_module
from repro.net.coordinator import (
    MAX_HELD_GROUPS,
    Coordinator,
    _Peer,
    study_fingerprint,
)
from repro.net.framing import ConnectionLost, connect_with_retry, frame_nbytes
from repro.net.supervisor import RankSupervisor
from repro.net.worker import run_worker
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.scheduler.policy import SchedulingPolicy, parse_scheduling
from repro.sobol import IshigamiFunction
from repro.transport.message import GroupFieldMessage

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 8


def make_config(ngroups=6, ntimesteps=1, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    kw.setdefault("server_ranks", 1)
    kw.setdefault("heartbeat_interval", 0.1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps,
        ncells=NCELLS, seed=5, **kw,
    )
    return fn, config


def wait_for(coordinator, predicate, timeout=20.0, slice_s=0.05):
    """Run the coordinator's loop on this thread until ``predicate``.

    The loop checks ``predicate`` after every turn; a predicate on state
    outside the coordinator (a thread's event) may turn true while no
    peer speaks, so the loop runs in ``slice_s`` slices."""
    deadline = time.monotonic() + timeout
    while not coordinator._run_until(
        predicate, min(deadline, time.monotonic() + slice_s)
    ):
        assert time.monotonic() < deadline, (
            "coordinator never reached the expected state"
        )


class _RecordingInbox(Inbox):
    """Rank inbox that counts, per group, the frames that entered it."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.entered = {}

    def _enqueue(self, msg, size):  # called with the channel lock held
        if isinstance(msg, GroupFieldMessage):
            self.entered[msg.group_id] = self.entered.get(msg.group_id, 0) + 1
        super()._enqueue(msg, size)


def register_fake_rank(coordinator, config, address):
    """Register a data address as server rank 0 (keeps the control
    connection: an unsupervised rank that hangs up aborts the study)."""
    ctrl = connect_with_retry(coordinator.address)
    ctrl.send({
        "op": "register", "rank": 0, "address": address,
        "fingerprint": study_fingerprint(config), "pid": None,
        "finished": [],
    })
    wait_for(coordinator, lambda: 0 in coordinator._rank_addresses)
    assert ctrl.recv(timeout=10.0)["op"] == "registered"
    return ctrl


# --------------------------------------------------------------------- #
# (i) the worker runs ahead; ``done`` never runs ahead of the inbox
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("transport", ["tcp", "shm"])
def test_worker_runs_ahead_but_done_never_precedes_delivery(transport):
    """With the rank's inbox held full the worker moves on to later
    groups, yet no group is ever reported done before all of its frames
    are in that inbox — checked at the instant of every report."""
    fn, probe = make_config()
    frame = frame_nbytes(GroupFieldMessage(
        0, 0, 0, NCELLS, np.zeros((probe.group_size, NCELLS))
    ))
    fn, config = make_config(
        channel_capacity_bytes=frame + 16, transport=transport
    )
    frames_per_group = config.ntimesteps  # one client rank, one server rank
    inbox = _RecordingInbox(capacity_bytes=frame + 16, name="held-full")
    listener = InboxListener(inbox, recv_hwm_bytes=frame + 16, transport=transport)
    coordinator = retry_on_eaddrinuse(lambda: Coordinator(config).start())
    early = []  # (group, frames in the inbox) of any premature report
    mark_done = coordinator._mark_done

    def checked_mark_done(wid, gid):
        with inbox._lock:
            entered = inbox.entered.get(gid, 0)
        if entered != frames_per_group:
            early.append((gid, entered))
        mark_done(wid, gid)

    coordinator._mark_done = checked_mark_done
    rank_ctrl = register_fake_rank(coordinator, config, listener.address)
    outcome = []

    def factory(params, sim_id):
        return VectorFieldSimulation(
            fn, params, NCELLS, ntimesteps=config.ntimesteps,
            simulation_id=sim_id,
        )

    worker = threading.Thread(
        target=lambda: outcome.append(run_worker(
            config, factory, coordinator.address, name="ahead",
        )),
        daemon=True,
    )
    drain = threading.Event()

    def release_pipeline():
        """The rank side: once told, take the frames one at a time."""
        if drain.wait(20.0):
            for _ in range(config.ngroups * frames_per_group):
                inbox.recv(timeout=20.0)

    drainer = threading.Thread(target=release_pipeline, daemon=True)
    drainer.start()
    worker.start()
    try:
        # nobody drains the inbox: it admits one frame and stays full.
        # The worker must still be handed a third group ...
        wait_for(coordinator, lambda: coordinator._assign_count >= 3)
        held = list(coordinator._held.get(0, ()))
        # ... while the second one's frame cannot have been acknowledged
        assert sum(inbox.entered.values()) <= 1
        assert coordinator.done <= {0}
        assert len(held) >= 2 and 1 in held
        # every report is checked against the inbox by the hook above
        drain.set()
        wait_for(coordinator, lambda: len(coordinator.done) == config.ngroups)
        assert early == []
        assert coordinator._held == {}
    finally:
        drain.set()
        coordinator.close()
        worker.join(timeout=20.0)
        drainer.join(timeout=20.0)
        listener.close()
        rank_ctrl.close()
    assert not worker.is_alive()
    assert outcome == [0]  # between leases, a vanished coordinator is a clean exit


# --------------------------------------------------------------------- #
# (iii) + bookkeeping: every held attempt counts as in flight
# --------------------------------------------------------------------- #
class TestHeldGroupsBookkeeping:
    def _holding_two(self):
        fn, config = make_config(ngroups=4)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        # 4 pending, one worker: a lease of 4 // 2 = 2 groups
        reply = coordinator._assign(0)
        assert reply == {"op": "group", "group_ids": [0, 1]}
        return coordinator

    def test_rank_respawn_marks_every_held_attempt_stale(self):
        coordinator = self._holding_two()
        try:
            coordinator._note_rank_registration(0, {"pid": 1})
            # generation 1: the replacement restored nothing
            coordinator._note_rank_registration(0, {"pid": 2, "finished": []})
            assert {
                (wid, gid)
                for wid, held in coordinator._held.items()
                for gid, attempt in held.items()
                if attempt.stale
            } == {(0, 0), (0, 1)}
            assert sorted(coordinator.requeued_after_respawn) == [0, 1]
            # neither report may settle its group: only the requeued
            # copies can prove the restored rank has the data
            coordinator._mark_done(0, 0)
            coordinator._mark_done(0, 1)
            assert coordinator.done == set()
            assert coordinator._held == {}
            assert {0, 1} <= set(coordinator._pending)
        finally:
            coordinator.close()

    def test_worker_loss_resubmits_each_held_group_once(self):
        coordinator = self._holding_two()
        try:
            coordinator._resubmit_if_assigned(0)
            assert coordinator.resubmitted == [0, 1]
            assert coordinator._retries == {0: 1, 1: 1}
            assert coordinator._held == {}
            assert list(coordinator._pending) == [2, 3, 0, 1]
        finally:
            coordinator.close()

    def test_study_is_not_settled_while_a_sent_group_is_unacknowledged(self):
        fn, config = make_config(ngroups=2)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        try:
            coordinator._assign(0)
            coordinator._assign(0)
            coordinator._mark_done(0, 1)  # acknowledgements may overtake
            assert not coordinator._groups_settled()
            assert coordinator.study_view()["in_flight"] == 1
            coordinator._mark_done(0, 0)
            assert coordinator._groups_settled()
            assert coordinator.study_view()["in_flight"] == 0
        finally:
            coordinator.close()

    def test_in_flight_counts_attempts_not_workers(self):
        coordinator = self._holding_two()
        try:
            coordinator._assign(1)
            assert coordinator.study_view()["in_flight"] == 3
        finally:
            coordinator.close()

    def test_stale_worker_holding_only_sent_groups_is_reaped(self):
        """A silent worker is reaped for what it holds, running or not."""
        coordinator = self._holding_two()
        closed = []

        class Conn:
            def close(self):
                closed.append(True)

        try:
            coordinator.worker_timeout = 5.0
            coordinator._worker_conns[0] = Conn()
            coordinator._last_seen[0] = time.monotonic() - 60.0
            coordinator._reap_stale_workers()
            assert closed == [True]
        finally:
            coordinator._worker_conns.clear()
            coordinator.close()

    def test_elastic_worker_is_not_retired_while_it_holds_groups(self):
        from repro.net.supervisor import PoolSupervisor
        from repro.scheduler.policy import ElasticPoolPolicy

        fn, config = make_config(ngroups=1)
        pool = PoolSupervisor(
            spawner=lambda index: None,
            policy=ElasticPoolPolicy(
                parse_scheduling("elastic:cooldown=0.001")
            ),
        )
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config, pool=pool))
        try:
            pool.maybe_spawn(9, 1, now=0.0)
            coordinator._worker_conns = {0: object(), 5: object()}
            coordinator._worker_elastic[5] = True
            reply = coordinator._assign(5)
            assert reply == {"op": "group", "group_ids": [0]}
            # the queue is drained, but group 0 is still unacknowledged
            again = coordinator._assign(5)
            assert again["op"] == "idle"
            coordinator._mark_done(5, 0)
            retire = coordinator._assign(5)
            assert retire == {"op": "retire"}
        finally:
            coordinator._worker_conns.clear()
            coordinator.close()


# --------------------------------------------------------------------- #
# (v) long-poll ``next``: parked, then answered by the resolving event
# --------------------------------------------------------------------- #
def leased(conn):
    """The group ids of the lease ``conn`` reads next."""
    reply = conn.recv(timeout=10.0)
    assert reply["op"] == "group", reply
    return reply["group_ids"]


class _TurnDriver:
    """Runs a never-started coordinator's loop one turn at a time, so a
    test can say *which* turn answered a request.

    No lease goes out before every rank has registered, so the driver
    seeds the rank address table unless ``seed_ranks`` is False."""

    def __init__(self, coordinator, clock=time.monotonic, seed_ranks=True):
        self.coordinator = coordinator
        self.clock = clock
        if seed_ranks:
            for rank in range(coordinator.config.server_ranks):
                coordinator._rank_addresses[rank] = ("127.0.0.1", 1 + rank)

    def turn(self, timeout=10.0):
        """One select + dispatch; asserts something was readable."""
        events = self.coordinator._sel.select(timeout)
        assert events, "nothing became readable"
        self.coordinator._turn(events, self.clock())

    def join(self, name):
        """Connect a fake worker and complete its hello."""
        conn = connect_with_retry(self.coordinator.address)
        conn.send({
            "op": "hello", "worker": name, "pid": None, "elastic": False,
            "fingerprint": self.coordinator.fingerprint,
        })
        self.turn()  # accept
        self.turn()  # hello -> welcome
        welcome = conn.recv(timeout=10.0)
        assert welcome["op"] == "welcome"
        return conn, welcome["worker_id"]

    def ask(self, conn, done=()):
        conn.send({"op": "next", "done": list(done)})
        self.turn()


class TestLongPollNext:
    def test_parked_next_is_answered_in_the_turn_that_resolves_it(self):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = b = None
        try:
            a, wid_a = driver.join("a")
            b, wid_b = driver.join("b")
            driver.ask(a)
            assert leased(a) == [0]
            # nothing to hand out, nothing held: parked, not answered
            driver.ask(b)
            assert list(coordinator._parked_next) == [wid_b]
            assert not b.poll(0.0)
            # the resolving event: worker a vanishes, its group requeues.
            # The turn that sees the EOF also answers b.
            a.close()
            a = None
            driver.turn()
            assert coordinator.resubmitted == [0]
            # (no further turn runs: what b reads was sent in that one)
            assert coordinator._parked_next == {}
            assert leased(b) == [0]
        finally:
            for conn in (a, b):
                if conn is not None:
                    conn.close()
            coordinator.close()

    def test_worker_holding_groups_is_told_to_settle_not_parked(self):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = None
        try:
            a, wid = driver.join("a")
            driver.ask(a)
            assert a.recv(timeout=10.0)["op"] == "group"
            driver.ask(a)  # group 0 sent, not yet acknowledged
            assert a.recv(timeout=10.0) == {"op": "settle"}
            assert coordinator._parked_next == {}
            driver.ask(a, done=[0])  # acknowledged: now it can be parked
            assert coordinator.done == {0}
            assert list(coordinator._parked_next) == [wid]
            assert not a.poll(0.0)
        finally:
            if a is not None:
                a.close()
            coordinator.close()

    def test_done_is_sent_in_the_turn_the_last_rank_state_arrives(self):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = rank = None
        try:
            a, wid = driver.join("a")
            driver.ask(a)
            assert a.recv(timeout=10.0)["op"] == "group"
            driver.ask(a, done=[0])
            assert list(coordinator._parked_next) == [wid]
            rank = connect_with_retry(coordinator.address)
            rank.send({
                "op": "register", "rank": 0, "address": ("127.0.0.1", 1),
                "fingerprint": coordinator.fingerprint, "pid": None,
                "finished": [],
            })
            driver.turn()  # accept
            driver.turn()  # register
            assert rank.recv(timeout=10.0)["op"] == "registered"
            assert not a.poll(0.0)  # a registration resolves nothing
            rank.send({"op": "rank_state", "rank": 0, "state": {},
                       "maps": {}, "width": 0.0})
            driver.turn()
            assert coordinator._parked_next == {}
            assert a.recv(timeout=10.0) == {"op": "done"}
        finally:
            for conn in (a, rank):
                if conn is not None:
                    conn.close()
            coordinator.close()

    def test_no_lease_goes_out_before_the_last_rank_registers(self):
        """A lease names every rank's data address, so none goes out
        while a rank is missing; the turn that registers the last one
        answers the parked ``next``, with the full table."""
        fn, config = make_config(ngroups=2, server_ranks=2)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator, seed_ranks=False)
        a = rank0 = rank1 = None
        try:
            a, wid = driver.join("a")
            rank0 = register_rank_by_turns(driver, 0, ("127.0.0.1", 7001))
            driver.ask(a)
            assert list(coordinator._parked_next) == [wid]
            assert not a.poll(0.0)
            rank1 = register_rank_by_turns(driver, 1, ("127.0.0.1", 7002))
            # (no further turn runs: what a reads was sent in that one)
            assert coordinator._parked_next == {}
            reply = a.recv(timeout=10.0)
            assert reply["group_ids"] == [0]
            assert reply["ranks"] == [("127.0.0.1", 7001), ("127.0.0.1", 7002)]
        finally:
            for conn in (a, rank0, rank1):
                if conn is not None:
                    conn.close()
            coordinator.close()

    def test_no_lease_between_a_rank_loss_and_its_reregistration(self):
        """A lost rank's address leaves the table: no lease goes out
        until the replacement registers, and the next one names the
        replacement's fresh address."""
        fn, config = make_config(ngroups=4)
        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=1, timeout=60.0, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor)
        )
        driver = _TurnDriver(coordinator, seed_ranks=False)
        a = old = new = None
        try:
            a, wid = driver.join("a")
            old = register_rank_by_turns(driver, address=("127.0.0.1", 7001))
            driver.ask(a)
            reply = a.recv(timeout=10.0)
            assert reply["group_ids"] == [0, 1]
            assert reply["ranks"] == [("127.0.0.1", 7001)]
            old.close()
            old = None
            driver.turn()  # the rank's EOF: its replacement is spawned
            assert spawned == [0]
            assert coordinator._rank_addresses == {}
            driver.ask(a, done=[0, 1])
            assert list(coordinator._parked_next) == [wid]
            assert not a.poll(0.0)
            new = register_rank_by_turns(driver, address=("127.0.0.1", 7002))
            assert coordinator._parked_next == {}
            reply = a.recv(timeout=10.0)
            assert reply["group_ids"] == [2, 3]
            assert reply["ranks"] == [("127.0.0.1", 7002)]
            # the replacement restored nothing: 0 and 1 run again later
            assert coordinator.requeued_after_respawn == [0, 1]
        finally:
            for conn in (a, old, new):
                if conn is not None:
                    conn.close()
            coordinator.close()


# --------------------------------------------------------------------- #
# one thread: wait() is the loop, and it sleeps until something is due
# --------------------------------------------------------------------- #
def log_selects(coordinator):
    """Record the timeout of every ``select`` the coordinator's loop makes."""
    timeouts = []
    select = coordinator._sel.select

    def logged(timeout=None):
        timeouts.append(timeout)
        return select(timeout)

    coordinator._sel.select = logged
    return timeouts


def register_rank_by_turns(driver, rank_id=0, address=("127.0.0.1", 1), pid=None):
    """Register a fake rank through two driven turns."""
    rank = connect_with_retry(driver.coordinator.address)
    rank.send({
        "op": "register", "rank": rank_id, "address": address,
        "fingerprint": driver.coordinator.fingerprint, "pid": pid,
        "finished": [],
    })
    driver.turn()  # accept
    driver.turn()  # register
    assert rank.recv(timeout=10.0)["op"] == "registered"
    return rank


class TestOneThread:
    def test_the_coordinator_starts_no_thread(self):
        fn, config = make_config(ngroups=1)
        before = set(threading.enumerate())
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config).start())
        try:
            assert set(threading.enumerate()) == before
        finally:
            coordinator.close()

    def test_an_idle_wait_is_one_select_to_its_deadline(self):
        """Nothing connects and nothing is watched: the loop sleeps once,
        straight to the wait's own deadline, instead of polling."""
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config).start())
        timeouts = log_selects(coordinator)
        with pytest.raises(TimeoutError, match=r"1 group\(s\) unfinished"):
            coordinator.wait(timeout=0.3)
        assert len(timeouts) == 1
        assert timeouts[0] == pytest.approx(0.3, abs=0.05)

    def test_wakeup_is_the_earliest_silence_deadline(self):
        fn, config = make_config(ngroups=4)
        supervisor = RankSupervisor(
            spawner=lambda rank: None,
            policy=RankRespawnPolicy(nranks=1, timeout=7.0, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(
            config, worker_timeout=5.0, supervisor=supervisor
        ))
        ours, theirs = socket.socketpair()
        far = 1000.0
        try:
            assert coordinator._next_wakeup(far) == far
            supervisor.beat(0, 100.0)  # rank 0 goes stale at 107
            assert coordinator._next_wakeup(far) == 107.0
            coordinator._last_seen[1] = 10.0  # holds nothing: never reaped
            coordinator._assign(0)
            coordinator._last_seen[0] = 90.0  # holds groups: stale at 95
            assert coordinator._next_wakeup(far) == 95.0
            peer = _Peer(ours, "pre-hello")
            peer.hello_deadline = 93.0
            coordinator._peers.add(peer)
            assert coordinator._next_wakeup(far) == 93.0
            assert coordinator._next_wakeup(50.0) == 50.0
            coordinator._peers.clear()
            coordinator._held.clear()
            # a rank that shipped its state lingers silently on purpose
            coordinator.rank_states[0] = {}
            assert coordinator._next_wakeup(far) == far
        finally:
            coordinator.close()
            ours.close()
            theirs.close()

    def test_finalize_goes_out_in_the_turn_the_last_group_settles(self):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = rank = None
        try:
            a, wid = driver.join("a")
            rank = register_rank_by_turns(driver)
            driver.ask(a)
            assert leased(a) == [0]
            assert not rank.poll(0.0)
            driver.ask(a, done=[0])  # settles the last group
            # (no further turn runs: what the rank reads was sent in that one)
            assert rank.recv(timeout=10.0) == {"op": "finalize"}
            assert list(coordinator._parked_next) == [wid]
        finally:
            for conn in (a, rank):
                if conn is not None:
                    conn.close()
            coordinator.close()

    def test_wait_returns_on_the_last_bye_not_after_the_grace(self):
        """The healthy end of a study: the last rank state is read, the
        parked worker is told ``done`` in that turn, and the turn that
        reads its ``bye`` ends wait() — well inside the 0.35 s grace."""
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = rank = None
        try:
            a, wid = driver.join("a")
            rank = register_rank_by_turns(driver)
            driver.ask(a)
            a.recv(timeout=10.0)
            driver.ask(a, done=[0])
            assert rank.recv(timeout=10.0) == {"op": "finalize"}

            def worker_leaves():
                assert a.recv(timeout=10.0) == {"op": "done"}
                a.send({"op": "bye", "channel_stats": {"bytes_sent": 7}})

            leaver = threading.Thread(target=worker_leaves, daemon=True)
            leaver.start()
            rank.send({"op": "rank_state", "rank": 0, "state": {},
                       "maps": {}, "width": 0.0})
            t0 = time.monotonic()
            coordinator.wait(timeout=10.0)
            elapsed = time.monotonic() - t0
            leaver.join(timeout=10.0)
            assert coordinator.worker_channel_stats == {"a": {"bytes_sent": 7}}
            assert elapsed < 0.3
        finally:
            for conn in (a, rank):
                if conn is not None:
                    conn.close()
            coordinator.close()


# --------------------------------------------------------------------- #
# one clock: a turn's verdicts and records read only its ``now``
# --------------------------------------------------------------------- #
class _NoClock:
    """Stands in for the coordinator module's ``time``: any read is a
    verdict that bypassed the turn's ``now``."""

    def __getattr__(self, name):
        raise AssertionError(f"a turn read time.{name} instead of its now")


class TestOneClock:
    def _driven(self, monkeypatch, ngroups, policy=None):
        """A coordinator whose turns run on a scripted clock, with the
        module's ``time`` gone (construction already read it)."""
        fn, config = make_config(ngroups=ngroups)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(
            config, worker_timeout=5.0, policy=policy
        ))
        monkeypatch.setattr(coordinator_module, "time", _NoClock())
        clock = [0.0]
        return coordinator, _TurnDriver(coordinator, lambda: clock[0]), clock

    def test_hello_deadline(self, monkeypatch):
        coordinator, driver, clock = self._driven(monkeypatch, ngroups=1)
        silent = None
        try:
            silent = connect_with_retry(coordinator.address)
            driver.turn()  # accepted at 0: hello due by 5
            coordinator._turn([], 4.9)
            assert len(coordinator._peers) == 1
            coordinator._turn([], 5.1)
            assert coordinator._peers == set()
            with pytest.raises(ConnectionLost):
                silent.recv(timeout=10.0)
        finally:
            if silent is not None:
                silent.close()
            coordinator.close()

    def test_lease_done_and_silent_worker_reap(self, monkeypatch):
        coordinator, driver, clock = self._driven(monkeypatch, ngroups=4)
        a = None
        try:
            a, wid = driver.join("a")
            driver.ask(a)
            assert leased(a) == [0, 1]
            clock[0] = 1.0
            driver.ask(a, done=[0])  # last heard from at 1
            assert coordinator.done == {0}
            assert leased(a) == [2]
            coordinator._turn([], 5.9)
            assert wid in coordinator._worker_conns
            coordinator._turn([], 6.1)  # silent past the 5 s timeout
            driver.turn()  # the reap's shutdown, seen as EOF
            assert wid not in coordinator._worker_conns
            assert coordinator.resubmitted == [1, 2]
        finally:
            if a is not None:
                a.close()
            coordinator.close()

    def test_speculation_verdict_flips_with_the_scripted_now(self, monkeypatch):
        policy = SchedulingPolicy(parse_scheduling("speculate:multiple=2,min_done=1"))
        coordinator, driver, clock = self._driven(monkeypatch, 2, policy)
        a = b = None
        try:
            a, _ = driver.join("a")
            b, wid_b = driver.join("b")
            driver.ask(a)
            assert leased(a) == [0]
            driver.ask(b)
            assert leased(b) == [1]
            clock[0] = 1.0
            driver.ask(b, done=[1])  # median 1 s: group 0 is due at 2 s
            assert list(coordinator._parked_next) == [wid_b]
            coordinator._turn([], 1.9)
            assert not b.poll(0.0)
            coordinator._turn([], 2.1)
            assert leased(b) == [0]
            assert coordinator.speculated == [0]
            assert coordinator._held[wid_b][0].started == 2.1
        finally:
            for conn in (a, b):
                if conn is not None:
                    conn.close()
            coordinator.close()


# --------------------------------------------------------------------- #
# a peer's malformed frame or control dict drops that peer, not the loop
# --------------------------------------------------------------------- #
class TestMalformedPeers:
    def test_undecodable_frame_drops_only_its_peer(self):
        """A ``Q`` frame — a tag no frame carries, so it does not
        decode: the peer that sent it is dropped and the study still
        finishes."""
        fn, config = make_config(ngroups=4, server_ranks=2)

        def factory(params, sim_id):
            return VectorFieldSimulation(fn, params, NCELLS, simulation_id=sim_id)

        runtime = retry_on_eaddrinuse(
            lambda: DistributedRuntime(config, factory, nworkers=1)
        )
        bad = socket.create_connection(runtime.start())
        try:
            bad.sendall(struct.pack("<I", 4) + b"Q" + bytes([1, 2, 3]))
            results = runtime.wait(timeout=60.0)
        finally:
            bad.close()
        assert results.groups_integrated == 4

    def test_register_without_rank_drops_only_that_peer(self):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        bad = a = None
        try:
            bad = connect_with_retry(coordinator.address)
            bad.send({
                "op": "register", "address": ("127.0.0.1", 1),
                "fingerprint": coordinator.fingerprint, "pid": None,
                "finished": [],
            })
            driver.turn()  # accept
            driver.turn()  # the register frame: no rank
            with pytest.raises(ConnectionLost):
                bad.recv(timeout=10.0)
            assert coordinator._rank_conns == {} and not coordinator._errors
            a, _ = driver.join("a")  # the loop still serves
            driver.ask(a)
            assert leased(a) == [0]
        finally:
            for conn in (bad, a):
                if conn is not None:
                    conn.close()
            coordinator.close()

    @pytest.mark.parametrize("pid", [-1, True, "7"], ids=["negative", "bool", "str"])
    def test_register_with_a_bad_pid_drops_only_that_peer(self, pid):
        """The supervisor signals the pid a rank registers with, so only
        a positive int (or none) is one: ``-1`` would signal every
        process the user may signal, ``True`` pid 1."""
        fn, config = make_config(ngroups=1)
        killed = []
        supervisor = RankSupervisor(
            spawner=lambda rank: None,
            policy=RankRespawnPolicy(nranks=1, timeout=60.0, max_respawns=2),
            kill=lambda pid, sig: killed.append(pid),
        )
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor)
        )
        driver = _TurnDriver(coordinator, seed_ranks=False)
        bad = rank = None
        try:
            bad = connect_with_retry(coordinator.address)
            bad.send({
                "op": "register", "rank": 0, "address": ("127.0.0.1", 1),
                "fingerprint": coordinator.fingerprint, "pid": pid,
                "finished": [],
            })
            driver.turn()  # accept
            driver.turn()  # the register frame: a pid that is none
            with pytest.raises(ConnectionLost):
                bad.recv(timeout=10.0)
            assert coordinator._rank_conns == {} and not coordinator._errors
            assert killed == []
            # the loop still serves: a well-formed rank registers, and its
            # loss signals its own pid only
            rank = register_rank_by_turns(driver, pid=4242)
            rank.close()
            rank = None
            driver.turn()
            assert killed == [4242]
        finally:
            for conn in (bad, rank):
                if conn is not None:
                    conn.close()
            coordinator.close()

    @pytest.mark.parametrize("stats", [["not", "a", "dict"], {"bytes_sent": "7"}],
                             ids=["list", "str-value"])
    @pytest.mark.parametrize("op", ["bye", "rank_state"])
    def test_malformed_channel_stats_is_not_stored(self, op, stats, capsys):
        """A peer's ``channel_stats`` feeds the end-of-run summary: one
        that is not counter name -> number drops that peer, is not
        stored, and the summary still prints."""
        from repro.cli import _print_observability_summary

        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator, seed_ranks=False)
        peer = None
        try:
            if op == "bye":
                peer, _ = driver.join("a")
                peer.send({"op": "bye", "channel_stats": stats})
            else:
                peer = register_rank_by_turns(driver)
                peer.send({"op": "rank_state", "rank": 0, "state": {},
                           "maps": {}, "width": 0.0, "channel_stats": stats})
            driver.turn()
            with pytest.raises(ConnectionLost):
                peer.recv(timeout=10.0)
            assert coordinator.worker_channel_stats == {}
            assert coordinator.rank_channel_stats == {}
            assert coordinator.rank_states == {}
            _print_observability_summary(coordinator)
            assert "run timeline" in capsys.readouterr().out
        finally:
            if peer is not None:
                peer.close()
            coordinator.close()

    @pytest.mark.parametrize(
        "frame",
        [{"op": "group_interrupted"}, {"op": "next", "done": 5}],
        ids=["group_interrupted-without-group_id", "next-with-int-done"],
    )
    def test_malformed_worker_dict_tears_that_worker_down(self, frame):
        fn, config = make_config(ngroups=1)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        driver = _TurnDriver(coordinator)
        a = None
        try:
            a, wid = driver.join("a")
            driver.ask(a)
            assert leased(a) == [0]
            a.send(frame)
            driver.turn()
            with pytest.raises(ConnectionLost):
                a.recv(timeout=10.0)
            assert wid not in coordinator._worker_conns
            assert coordinator.resubmitted == [0]
            assert list(coordinator._pending) == [0]
            assert not coordinator._errors
        finally:
            if a is not None:
                a.close()
            coordinator.close()


# --------------------------------------------------------------------- #
# leases: one ``next`` round trip hands out several groups
# --------------------------------------------------------------------- #
class TestLeaseSize:
    @pytest.mark.parametrize(
        "ngroups, workers, already_held, policy, expected",
        [
            (64, 1, 0, None, MAX_HELD_GROUPS),  # deep queue, one worker
            (64, 1, 5, None, MAX_HELD_GROUPS - 5),  # the bound counts held
            (3, 2, 0, None, 1),  # 3 // (2 * 2) == 0, but never less than 1
            (64, 1, 0, "speculate", 1),  # a policy's clock: one at a time
        ],
    )
    def test_lease_size(self, ngroups, workers, already_held, policy, expected):
        fn, config = make_config(ngroups=ngroups)
        kw = {}
        if policy is not None:
            kw["policy"] = SchedulingPolicy(parse_scheduling(policy))
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config, **kw))
        try:
            coordinator._worker_conns = {w: object() for w in range(workers)}
            for _ in range(already_held):
                coordinator._hold(0, coordinator._pending.pop())
            reply = coordinator._assign(0)
            assert reply == {"op": "group", "group_ids": list(range(expected))}
            assert list(coordinator._held[0])[-expected:] == reply["group_ids"]
            assert coordinator.study_view()["in_flight"] == already_held + expected
        finally:
            coordinator._worker_conns = {}
            coordinator.close()


def loopback_run(ngroups, nworkers, **kw):
    fn, config = make_config(ngroups=ngroups, server_ranks=2)

    def factory(params, sim_id):
        return VectorFieldSimulation(fn, params, NCELLS, simulation_id=sim_id)

    runtime = retry_on_eaddrinuse(
        lambda: DistributedRuntime(config, factory, nworkers=nworkers, **kw)
    )
    results = runtime.run(timeout=120.0)
    reference = SequentialRuntime(config, factory).run()
    np.testing.assert_allclose(
        results.total_order, reference.total_order, rtol=1e-10, atol=1e-12
    )
    return runtime, results


class TestLeaseLifecycle:
    def test_sigkilled_worker_lease_is_resubmitted_exactly_once(
        self, monkeypatch
    ):
        """Worker 0 SIGKILLs itself on its first delivered message, inside
        the first group of its first lease (24 groups, at most 2 workers:
        at least 3 per lease): it dies holding all of that lease, and each
        of its groups is resubmitted exactly once."""
        lost = held_at_worker_loss(monkeypatch)
        plan = FaultPlan(worker_faults={0: ProcessFault("crash", after_messages=1)})
        runtime, results = loopback_run(24, 2, fault_plan=plan)
        coordinator = runtime.coordinator
        assert len(lost) == 1 and len(lost[0]) >= 3, lost
        assert coordinator.resubmitted == lost[0]
        assert coordinator.abandoned == []
        assert results.groups_integrated == 24

    def test_study_view_counts_leases(self):
        runtime, results = loopback_run(12, 1)
        view = runtime.coordinator.study_view()
        assert 1 <= view["leases"] < 12
        assert view["groups_per_lease"] == pytest.approx(12 / view["leases"])
        assert results.groups_integrated == 12

    def test_rank_death_mid_lease_interrupts_the_unstarted_rest(
        self, monkeypatch
    ):
        """The worker leases all 8 groups; rank 0 dies while group 2 runs.
        Groups 0-1 (sent), 2 (running) and 3-7 (never started) all come
        back as ``group_interrupted``, and none is charged a retry."""
        fn, config = make_config(ngroups=2 * MAX_HELD_GROUPS)
        reached, gate = threading.Event(), threading.Event()
        routers = []

        class RecordingRouter(worker_module.SocketRouter):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                routers.append(self)

        class GatedSim(VectorFieldSimulation):
            def advance(self):
                group_id = self.simulation_id // config.group_size
                if group_id == 2 and not reached.is_set():
                    reached.set()
                    gate.wait(20.0)
                    # group 2's delivery must be the one to find the
                    # rank gone, not the next group's up-front check
                    deadline = time.monotonic() + 20.0
                    while not routers[0].any_broken():
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                return super().advance()

        def factory(params, sim_id):
            return GatedSim(fn, params, NCELLS, simulation_id=sim_id)

        supervisor = RankSupervisor(
            spawner=lambda rank: None,
            policy=RankRespawnPolicy(nranks=1, timeout=60.0, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        listener = InboxListener(Inbox(name="rank0"))
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor).start()
        )
        rank_ctrl = register_fake_rank(coordinator, config, listener.address)
        worker = threading.Thread(
            target=worker_module.run_worker,
            args=(config, factory, coordinator.address),
            kwargs={"name": "leased"},
            daemon=True,
        )
        monkeypatch.setattr(worker_module, "SocketRouter", RecordingRouter)
        try:
            worker.start()
            wait_for(coordinator, reached.is_set)
            assert list(coordinator._held) == [0]
            assert list(coordinator._held[0]) == list(range(MAX_HELD_GROUPS))
            # the rank dies: its control connection (the coordinator
            # sends no lease until it re-registers) and its data port
            rank_ctrl.close()
            listener.close()
            gate.set()
            wait_for(
                coordinator,
                lambda: len(coordinator.interrupted) >= MAX_HELD_GROUPS,
            )
            assert coordinator.interrupted == list(range(MAX_HELD_GROUPS))
            assert coordinator._retries == {}
            assert coordinator.resubmitted == []
        finally:
            gate.set()
            coordinator.close()
            worker.join(timeout=20.0)
            listener.close()
            rank_ctrl.close()
        assert not worker.is_alive()


# --------------------------------------------------------------------- #
# settle: each held group gets its own ``group_timeout``
# --------------------------------------------------------------------- #
class _Clock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


class _AckingRouter:
    """Each held group's mark is the clock time its ack arrives."""

    def __init__(self, clock):
        self.clock = clock

    def acked(self, mark):
        return self.clock.now >= mark

    def wait_acked(self, mark, timeout):
        self.clock.now = min(mark, self.clock.now + timeout)
        return self.acked(mark)


class TestSettleDeadline:
    TIMEOUT, BEAT = 1.0, 0.1

    def _settle(self, monkeypatch, ack_times):
        """Settle groups acked at ``ack_times``; (done, clock at exit,
        beats, the TimeoutError or None)."""
        clock = _Clock()
        monkeypatch.setattr(worker_module, "time", clock)
        done, beats, error = [], [], None
        try:
            worker_module.settle_held(
                _AckingRouter(clock), deque(enumerate(ack_times)), done,
                len(ack_times), self.TIMEOUT, lambda: beats.append(clock.now),
                self.BEAT, "w",
            )
        except TimeoutError as exc:
            error = exc
        finally:
            monkeypatch.undo()
        return done, clock.now, beats, error

    def test_acks_spaced_under_the_timeout_never_raise(self, monkeypatch):
        """Four acks 0.6 x group_timeout apart: the last arrives 2.4
        timeouts after the call, but no single group waited a full one."""
        ack_times = [0.6 * self.TIMEOUT * (i + 1) for i in range(4)]
        done, now, beats, error = self._settle(monkeypatch, ack_times)
        assert error is None
        assert done == [0, 1, 2, 3]
        assert now == pytest.approx(ack_times[-1])
        assert beats  # a long drain keeps beating

    def test_a_group_never_acked_raises_after_one_timeout(self, monkeypatch):
        acked_at = 0.6 * self.TIMEOUT
        done, now, beats, error = self._settle(
            monkeypatch, [acked_at, float("inf")]
        )
        assert done == [0]
        assert error is not None and "group 1 not acknowledged" in str(error)
        # group 1's clock starts when group 0 moves, not at the call
        assert acked_at + self.TIMEOUT <= now
        assert now <= acked_at + self.TIMEOUT + 1.5 * self.BEAT
