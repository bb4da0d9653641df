"""Pipelined group hand-off: the asynchronous ``done`` report and the
long-poll ``next`` (ISSUE 16).

A worker asks for its next group as soon as the last frame of the current
one is handed to its channels, and reports a group done — on the ``done``
list of a later ``next`` — only once every receiving rank's acknowledged
cursor has passed the mark it took then.  The coordinator treats every
group a worker holds (running, or sent and unacknowledged) as in flight,
and parks a ``next`` it cannot answer yet instead of telling the worker
to sleep and retry.

Nothing here is paced by ``sleep()``: the tests wait on the coordinator's
own condition variable, on blocking socket reads, or drive the
coordinator's loop turn by turn.
"""

import threading
import time

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.net.channel import DataListener
from repro.net.coordinator import Coordinator, study_fingerprint
from repro.net.framing import connect_with_retry, frame_nbytes
from repro.net.worker import run_worker
from repro.scheduler.policy import SchedulingPolicy, parse_scheduling
from repro.sobol import IshigamiFunction
from repro.transport.channel import BoundedChannel
from repro.transport.message import GroupFieldMessage

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


def wait_for(coordinator, predicate, timeout=20.0):
    """Block on the coordinator's own state-change condition."""
    with coordinator._changed:
        assert coordinator._changed.wait_for(predicate, timeout), (
            "coordinator never reached the expected state"
        )


class _RecordingInbox(BoundedChannel):
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
    listener = DataListener(
        recv_hwm_bytes=frame + 16, transport=transport
    ).start(inbox)
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
            env_fault=False,
        )),
        daemon=True,
    )
    worker.start()
    try:
        # nobody drains the inbox: it admits one frame and stays full.
        # The worker must still be handed a third group ...
        wait_for(coordinator, lambda: coordinator._assign_count >= 3)
        with coordinator._changed:
            held = list(coordinator._assigned.get(0, ()))
            done = set(coordinator.done)
        # ... while the second one's frame cannot have been acknowledged
        assert sum(inbox.entered.values()) <= 1
        assert done <= {0}
        assert len(held) >= 2 and 1 in held
        # release the pipeline one frame at a time; every report is
        # checked against the inbox by the hook above
        for _ in range(config.ngroups * frames_per_group):
            inbox.recv(timeout=20.0)
        wait_for(coordinator, lambda: len(coordinator.done) == config.ngroups)
        assert early == []
        assert coordinator._assigned == {}
    finally:
        coordinator.close()
        worker.join(timeout=20.0)
        listener.close()
        rank_ctrl.close()
    assert not worker.is_alive()
    assert outcome == [0]  # between groups, a vanished coordinator is a clean exit


# --------------------------------------------------------------------- #
# (iii) + bookkeeping: every held attempt counts as in flight
# --------------------------------------------------------------------- #
class TestHeldGroupsBookkeeping:
    def _holding_two(self):
        fn, config = make_config(ngroups=4)
        coordinator = retry_on_eaddrinuse(lambda: Coordinator(config))
        for expected in (0, 1):
            reply, _ = coordinator._assign(0)
            assert reply == {"op": "group", "group_id": expected}
        return coordinator

    def test_rank_respawn_marks_every_held_attempt_stale(self):
        coordinator = self._holding_two()
        try:
            with coordinator._changed:
                coordinator._note_rank_registration(0, {"pid": 1})
                # generation 1: the replacement restored nothing
                coordinator._note_rank_registration(0, {"pid": 2, "finished": []})
            assert coordinator._stale_attempts == {(0, 0), (0, 1)}
            assert sorted(coordinator.requeued_after_respawn) == [0, 1]
            # neither report may settle its group: only the requeued
            # copies can prove the restored rank has the data
            coordinator._mark_done(0, 0)
            coordinator._mark_done(0, 1)
            assert coordinator.done == set()
            assert coordinator._assigned == {}
            assert {0, 1} <= set(coordinator._pending)
        finally:
            coordinator.close()

    def test_worker_loss_resubmits_each_held_group_once(self):
        coordinator = self._holding_two()
        try:
            coordinator._resubmit_if_assigned(0)
            assert coordinator.resubmitted == [0, 1]
            assert coordinator._retries == {0: 1, 1: 1}
            assert coordinator._assigned == {}
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
            with coordinator._changed:
                assert not coordinator._groups_settled()
            assert coordinator.study_view()["in_flight"] == 1
            coordinator._mark_done(0, 0)
            with coordinator._changed:
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
            with coordinator._changed:
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
            reply, _ = coordinator._assign(5)
            assert reply == {"op": "group", "group_id": 0}
            # the queue is drained, but group 0 is still unacknowledged
            again, _ = coordinator._assign(5)
            assert again["op"] == "idle"
            coordinator._mark_done(5, 0)
            retire, _ = coordinator._assign(5)
            assert retire == {"op": "retire"}
        finally:
            coordinator._worker_conns.clear()
            coordinator.close()


# --------------------------------------------------------------------- #
# (v) long-poll ``next``: parked, then answered by the resolving event
# --------------------------------------------------------------------- #
class _TurnDriver:
    """Runs a never-started coordinator's loop one turn at a time, so a
    test can say *which* turn answered a request."""

    def __init__(self, coordinator):
        self.coordinator = coordinator

    def turn(self, timeout=10.0):
        """One select + dispatch; asserts something was readable."""
        events = self.coordinator._sel.select(timeout)
        assert events, "nothing became readable"
        self.coordinator._turn(events, time.monotonic())

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
            assert a.recv(timeout=10.0) == {"op": "group", "group_id": 0}
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
            assert b.recv(timeout=10.0) == {"op": "group", "group_id": 0}
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

    def test_held_back_worker_is_served_when_every_faster_worker_leaves(self):
        """Work stealing parks a demonstrably slow worker's request; the
        departure of the fast fleet must release it (no deadlock on a
        vanished fleet, and no timer involved)."""
        fn, config = make_config(ngroups=2)
        policy = SchedulingPolicy(parse_scheduling("steal:ratio=2"))
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, policy=policy)
        )
        driver = _TurnDriver(coordinator)
        slow = fast = None
        try:
            slow, wid_slow = driver.join("slow")
            fast, wid_fast = driver.join("fast")
            # what three completions each would have taught the policy
            policy.ewma.update({wid_fast: 1.0, wid_slow: 10.0})
            policy.completions.update({wid_fast: 3, wid_slow: 3})
            policy._durations.extend([1.0, 1.0, 1.0])
            driver.ask(fast)
            assert fast.recv(timeout=10.0) == {"op": "group", "group_id": 0}
            # the slow worker asks for the queue tail: held back (parked)
            driver.ask(slow)
            assert list(coordinator._parked_next) == [wid_slow]
            assert not slow.poll(0.0)
            assert policy.holds >= 1
            # the fast worker leaves: its running group requeues, and the
            # same turn hands the held-back worker the head of the queue
            fast.close()
            fast = None
            driver.turn()
            assert coordinator._parked_next == {}
            assert slow.recv(timeout=10.0) == {"op": "group", "group_id": 1}
            assert list(coordinator._pending) == [0]
        finally:
            for conn in (slow, fast):
                if conn is not None:
                    conn.close()
            coordinator.close()
