"""Scheduling-policy layer unit tests (ISSUE 7).

Pure-policy verdicts (EWMA throughput, speculation candidates, elastic
watermarks), the PoolSupervisor executor, and the
coordinator's speculation/retire accounting driven through stub calls —
including the two satellite guarantees: ``group_interrupted`` requeues
never charge the group's retry budget, and a speculative duplicate
completion is discarded without touching any statistic state
(bit-exact).
"""

import pickle

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro.core import MelissaServer, StudyConfig
from repro.net.coordinator import Coordinator
from repro.net.supervisor import PoolSupervisor
from repro.sampling import ParameterSpace, Uniform
from repro.scheduler.policy import (
    ElasticPoolPolicy,
    SchedulingConfig,
    SchedulingPolicy,
    parse_scheduling,
)
from repro.transport.message import GroupFieldMessage


def make_config(ngroups=4, ncells=8, server_ranks=2, nparams=2, **kw):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(nparams)),
        distributions=tuple(Uniform(0, 1) for _ in range(nparams)),
    )
    return StudyConfig(
        space=space, ngroups=ngroups, ntimesteps=2, ncells=ncells,
        server_ranks=server_ranks, client_ranks=1, **kw,
    )


# --------------------------------------------------------------------- #
# spec grammar + config validation
# --------------------------------------------------------------------- #
class TestParseScheduling:
    def test_bare_clauses(self):
        cfg = parse_scheduling("speculate;elastic")
        assert cfg.speculate and cfg.elastic
        assert cfg.enabled

    def test_fifo_is_the_default(self):
        cfg = parse_scheduling("fifo")
        assert cfg == SchedulingConfig()
        assert not cfg.enabled

    def test_clause_parameters_map_to_fields(self):
        cfg = parse_scheduling(
            "speculate:multiple=2.5,min_done=1,budget=4,alpha=0.5"
        )
        assert cfg.multiple == 2.5
        assert cfg.min_done == 1
        assert cfg.speculation_budget == 4  # per-kind 'budget' key
        assert cfg.alpha == 0.5

    def test_elastic_parameters(self):
        cfg = parse_scheduling(
            "elastic:high=6,low=2,max=3,budget=5,min=2,cooldown=0.25"
        )
        assert cfg.high_water == 6 and cfg.low_water == 2
        assert cfg.max_extra == 3 and cfg.spawn_budget == 5
        assert cfg.min_workers == 2 and cfg.cooldown == 0.25
        assert not cfg.speculate  # other clauses stay off

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown scheduling clause"):
            parse_scheduling("turbo")
        with pytest.raises(ValueError, match="unknown scheduling clause"):
            parse_scheduling("speculate;steal")
        with pytest.raises(ValueError, match="unknown speculate parameter"):
            parse_scheduling("speculate:delay=1")
        with pytest.raises(ValueError, match="malformed"):
            parse_scheduling("speculate:multiple")
        with pytest.raises(ValueError, match="'fifo' takes no parameters"):
            parse_scheduling("fifo:x=1")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulingConfig(multiple=1.0)
        with pytest.raises(ValueError):
            SchedulingConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SchedulingConfig(high_water=2, low_water=2)
        with pytest.raises(ValueError):
            SchedulingConfig(min_workers=0)
        with pytest.raises(ValueError):
            SchedulingConfig(cooldown=0.0)


class TestStudyConfigIntegration:
    def test_spec_string_is_canonicalized(self):
        config = make_config(scheduling="speculate;elastic:high=6")
        assert isinstance(config.scheduling, SchedulingConfig)
        assert config.scheduling.speculate
        assert config.scheduling.high_water == 6

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="scheduling"):
            make_config(scheduling=3)

    def test_speculation_requires_discard_on_replay(self):
        with pytest.raises(ValueError, match="discard_on_replay"):
            make_config(scheduling="speculate", discard_on_replay=False)

    def test_coordinator_guards_injected_policy_too(self):
        # the policy can be handed to the coordinator directly (CLI
        # external mode) — the exactness precondition must still hold
        config = make_config(discard_on_replay=False)
        policy = SchedulingPolicy(parse_scheduling("speculate"))
        with pytest.raises(ValueError, match="discard_on_replay"):
            Coordinator(config, policy=policy)

    def test_scheduling_not_in_study_fingerprint(self):
        """Coordinator-side policy only: a worker started without the
        scheduling flags must still join the study."""
        from repro.net.coordinator import study_fingerprint

        plain = make_config()
        scheduled = make_config(scheduling="speculate;elastic")
        assert study_fingerprint(plain) == study_fingerprint(scheduled)


# --------------------------------------------------------------------- #
# SchedulingPolicy verdicts
# --------------------------------------------------------------------- #
def spec_policy(spec="speculate:multiple=2,min_done=1"):
    return SchedulingPolicy(parse_scheduling(spec))


class TestSchedulingPolicy:
    def test_ewma_tracks_completions(self):
        policy = spec_policy("speculate:alpha=0.3,min_done=1")
        policy.completed(0, 4.0)
        assert policy.ewma[0] == 4.0  # first sample seeds the EWMA
        policy.completed(0, 6.0)
        assert policy.ewma[0] == pytest.approx(0.3 * 6.0 + 0.7 * 4.0)
        assert policy.completions[0] == 2

    def test_median_needs_min_done_samples(self):
        policy = spec_policy("speculate:min_done=3")
        for duration in [1.0, 9.0]:
            policy.completed(0, duration)
        assert policy.median_duration() is None
        policy.completed(0, 2.0)
        assert policy.median_duration() == 2.0

    # the attempt-level observations live in the coordinator's attempt
    # table: these drive it and check what reaches the policy

    def test_completion_never_started_is_ignored(self):
        coordinator, policy = attempt_fixture()
        try:
            coordinator._mark_done(7, 3)
            assert policy.ewma == {}
        finally:
            coordinator.close()

    def test_discarded_counts_only_started_attempts(self):
        coordinator, policy = attempt_fixture()
        try:
            reply = coordinator._assign(0)
            (gid,) = reply["group_ids"]
            coordinator._release(0, gid, "settled-by-duplicate")
            # second settle of the same attempt: no-op
            coordinator._release(0, gid, "settled-by-duplicate")
            assert coordinator.duplicates_discarded == 1
            coordinator._now = 1.0
            coordinator._mark_done(0, gid)
            assert policy.ewma == {}  # clock stopped
        finally:
            coordinator.close()

    def test_worker_left_clears_its_state(self):
        coordinator, policy = attempt_fixture()
        try:
            coordinator._assign(0)  # group 0
            coordinator._now = 1.0
            coordinator._mark_done(0, 0)
            assert policy.ewma == {0: 1.0}
            coordinator._assign(0)  # group 1
            coordinator._resubmit_if_assigned(0)  # the worker's loss path
            coordinator._forget_worker(0)
            assert 0 not in policy.ewma and 0 not in policy.completions
            coordinator._now = 9.0
            coordinator._mark_done(0, 1)
            assert 0 not in policy.ewma
        finally:
            coordinator.close()

    def test_speculation_candidate_picks_longest_overdue(self):
        policy = spec_policy("speculate:multiple=2,min_done=1")
        policy.completed(0, 1.0)  # median 1.0 -> threshold 2.0
        attempts = [(1, 4, 1.0), (2, 5, 2.0)]
        # group 4 has been running 9s, group 5 8s: both overdue, 4 wins
        assert policy.speculation_candidate(3, attempts, 0, now=10.0) == 4
        # a worker never speculates its own group
        assert policy.speculation_candidate(1, attempts, 0, now=10.0) == 5

    def test_speculation_candidate_edge_cases(self):
        policy = spec_policy("speculate:multiple=2,min_done=1,budget=1")
        policy.completed(0, 1.0)
        # a group with two running copies is never re-issued again
        two_copies = [(1, 4, 1.0), (3, 4, 1.0)]
        assert policy.speculation_candidate(2, two_copies, 0, now=50.0) is None
        # not yet past the threshold
        one_copy = [(1, 4, 1.0)]
        assert policy.speculation_candidate(2, one_copy, 0, now=2.5) is None
        # budget exhausted
        assert policy.speculation_candidate(2, one_copy, 1, now=50.0) is None

    def test_speculation_off_or_untrusted_median(self):
        fifo = SchedulingPolicy(SchedulingConfig())
        assert fifo.speculation_candidate(0, [(1, 4, 0.0)], 0, now=100.0) is None
        policy = spec_policy("speculate:min_done=2")
        assert policy.speculation_candidate(0, [(1, 4, 0.0)], 0, now=100.0) is None


# --------------------------------------------------------------------- #
# elastic pool: policy + supervisor
# --------------------------------------------------------------------- #
def elastic_config(**kw):
    base = dict(elastic=True, high_water=2, low_water=1, max_extra=2,
                spawn_budget=3, min_workers=1, cooldown=1.0)
    base.update(kw)
    return SchedulingConfig(**base)


class TestElasticPoolPolicy:
    def test_watermarks_and_cooldown(self):
        policy = ElasticPoolPolicy(elastic_config())
        assert not policy.want_spawn(2, 1, now=0.0)  # depth == high: no
        assert policy.want_spawn(3, 1, now=0.0)
        policy.record_spawn(0.0)
        assert not policy.want_spawn(5, 2, now=0.5)  # cooling
        assert policy.want_spawn(5, 2, now=1.5)
        policy.record_spawn(1.5)
        assert not policy.want_spawn(5, 3, now=3.0)  # max_extra live

    def test_spawn_budget_survives_losses(self):
        policy = ElasticPoolPolicy(elastic_config())
        policy.record_spawn(0.0)
        policy.record_spawn(2.0)
        policy.extra_lost(3.0)  # a death frees the slot, not the spend
        assert policy.want_spawn(9, 2, now=4.0)
        policy.record_spawn(4.0)
        assert policy.spawned == 3
        assert not policy.want_spawn(9, 2, now=9.0)  # budget spent

    def test_retire_respects_floor_and_live_extras(self):
        policy = ElasticPoolPolicy(elastic_config())
        assert not policy.want_retire(0, 3, now=0.0)  # no live extra yet
        policy.record_spawn(0.0)
        assert not policy.want_retire(1, 3, now=2.0)  # depth == low: no
        assert not policy.want_retire(0, 1, now=2.0)  # at min_workers
        assert policy.want_retire(0, 3, now=2.0)
        policy.record_retire(2.0)
        assert not policy.want_retire(0, 3, now=4.0)  # no extras left

    def test_death_is_not_a_resize_action(self):
        policy = ElasticPoolPolicy(elastic_config())
        policy.record_spawn(0.0)
        policy.extra_lost(1.1)
        # the cooldown clock still dates from the spawn, not the loss
        assert policy.want_spawn(9, 1, now=1.2)

    def test_disabled_config_never_resizes(self):
        policy = ElasticPoolPolicy(SchedulingConfig())
        assert not policy.want_spawn(100, 1, now=0.0)
        assert not policy.want_retire(0, 100, now=0.0)


class TestPoolSupervisor:
    def test_spawns_with_sequential_indices(self):
        spawned = []
        pool = PoolSupervisor(
            spawner=spawned.append,
            policy=ElasticPoolPolicy(elastic_config(cooldown=0.001)),
        )
        assert pool.maybe_spawn(9, 1, now=0.0)
        assert pool.maybe_spawn(9, 2, now=1.0)
        assert not pool.maybe_spawn(9, 3, now=2.0)  # max_extra reached
        assert spawned == [0, 1]
        assert pool.spawned_total == 2

    def test_retire_then_slot_reuse(self):
        spawned = []
        pool = PoolSupervisor(
            spawner=spawned.append,
            policy=ElasticPoolPolicy(elastic_config()),
        )
        pool.maybe_spawn(9, 1, now=0.0)
        assert pool.offer_retire(0, 2, now=2.0)
        assert pool.retired_total == 1
        assert not pool.offer_retire(0, 2, now=4.0)  # nothing left to retire
        assert pool.maybe_spawn(9, 1, now=6.0)  # budget allows a respawn
        assert spawned == [0, 1]

    def test_worker_lost_frees_slot(self):
        pool = PoolSupervisor(
            spawner=lambda index: None,
            policy=ElasticPoolPolicy(elastic_config(max_extra=1)),
        )
        assert pool.maybe_spawn(9, 1, now=0.0)
        assert not pool.maybe_spawn(9, 2, now=2.0)  # slot occupied
        pool.worker_lost(now=2.5)
        assert pool.maybe_spawn(9, 1, now=4.0)


# --------------------------------------------------------------------- #
# coordinator accounting (stub-driven, no processes)
# --------------------------------------------------------------------- #
def stub_coordinator(config, **kw):
    return retry_on_eaddrinuse(lambda: Coordinator(config, **kw))


def attempt_fixture():
    """Coordinator with a speculation policy on a scripted clock."""
    policy = spec_policy()
    coordinator = stub_coordinator(make_config(ngroups=8), policy=policy)
    coordinator._now = 0.0
    return coordinator, policy


class _StubConn:
    def close(self):
        pass


class TestInterruptedNeverCharged:
    def test_interrupted_requeues_do_not_touch_retry_budget(self):
        """ISSUE 7 satellite: a group aborted by a rank death is requeued
        free of charge — even with a zero retry budget, and repeatedly."""
        config = make_config(ngroups=2, max_group_retries=0)
        coordinator = stub_coordinator(config)
        try:
            for _ in range(4):
                reply = coordinator._assign(0)
                assert reply["op"] == "group"
                for gid in reply["group_ids"]:
                    coordinator._requeue_interrupted(0, gid)
            assert coordinator._retries == {}
            assert coordinator.abandoned == []
            assert len(coordinator.interrupted) == 4
            assert sorted(coordinator._pending) == [0, 1]
        finally:
            coordinator.close()

    def test_worker_death_does_charge(self):
        """Contrast: a dead worker's resubmission IS a retry — the budget
        distinction is what the satellite pins down."""
        config = make_config(ngroups=2, max_group_retries=0)
        coordinator = stub_coordinator(config)
        try:
            reply = coordinator._assign(0)
            coordinator._resubmit_if_assigned(0)
            assert coordinator._retries == {gid: 1 for gid in reply["group_ids"]}
            assert coordinator.abandoned == reply["group_ids"]
        finally:
            coordinator.close()


def speculation_fixture(config=None):
    """Coordinator with wid0 holding g0 far past the speculation
    threshold and wid1's completion of g1 seeding the fleet median."""
    config = config or make_config(ngroups=2)
    policy = SchedulingPolicy(parse_scheduling("speculate:multiple=2,min_done=1"))
    coordinator = stub_coordinator(config, policy=policy)
    coordinator._now = 0.0  # the turn's clock, scripted
    r0 = coordinator._assign(0)
    r1 = coordinator._assign(1)
    assert (r0["group_ids"], r1["group_ids"]) == ([0], [1])
    coordinator._now = 1.0  # g1 ran 1s -> median 1s, threshold 2s
    coordinator._mark_done(1, 1)
    coordinator._now = 10.0  # g0 is 10s in: overdue
    return coordinator, policy


class TestSpeculationAccounting:
    def test_idle_worker_receives_speculative_copy(self):
        coordinator, policy = speculation_fixture()
        try:
            reply = coordinator._assign(1)
            assert reply == {"op": "group", "group_ids": [0]}
            assert coordinator.speculated == [0]
            assert coordinator._held[1][0].speculative
            # with the duplicate in flight, nobody gets a third copy
            reply2 = coordinator._assign(2)
            assert reply2["op"] == "idle"
        finally:
            coordinator.close()

    def test_original_wins_duplicate_settled_silently(self):
        coordinator, policy = speculation_fixture()
        try:
            coordinator._assign(1)  # wid1 takes the speculative copy
            coordinator._mark_done(0, 0)  # the original finishes first
            assert coordinator.done == {0, 1}
            assert coordinator._held == {}
            assert coordinator.duplicates_discarded == 1
            assert coordinator.speculation_wins == 0
            # the loser's late report settles nothing and feeds no EWMA
            ewma = dict(policy.ewma)
            completions = dict(policy.completions)
            coordinator._mark_done(1, 0)
            assert policy.ewma == ewma
            assert policy.completions == completions
            assert coordinator.done == {0, 1}
        finally:
            coordinator.close()

    def test_speculative_copy_wins_counts_a_win(self):
        coordinator, policy = speculation_fixture()
        try:
            coordinator._assign(1)
            coordinator._mark_done(1, 0)  # the rescue finishes first
            assert coordinator.done == {0, 1}
            assert coordinator.speculation_wins == 1
            assert coordinator.duplicates_discarded == 1  # the original, settled
            assert coordinator._held == {}
        finally:
            coordinator.close()

    def test_dead_duplicate_charges_nothing(self):
        """Either copy dying while its sibling runs must not requeue,
        charge the retry budget, or broadcast a forget (the survivor's
        staged partials must keep landing)."""
        config = make_config(ngroups=2, max_group_retries=0)
        coordinator, policy = speculation_fixture(config)
        try:
            coordinator._assign(1)
            coordinator._resubmit_if_assigned(1)  # the rescue worker dies
            assert coordinator._retries == {}
            assert coordinator.resubmitted == []
            assert 0 not in coordinator._pending
            # the original still owns the group and settles it
            coordinator._mark_done(0, 0)
            assert coordinator.done == {0, 1}
        finally:
            coordinator.close()

    def test_dead_original_leaves_speculative_copy_running(self):
        config = make_config(ngroups=2, max_group_retries=0)
        coordinator, policy = speculation_fixture(config)
        try:
            coordinator._assign(1)
            coordinator._resubmit_if_assigned(0)  # the straggler dies
            assert coordinator._retries == {}
            assert coordinator.abandoned == []
            coordinator._mark_done(1, 0)
            assert coordinator.done == {0, 1}
        finally:
            coordinator.close()

    def test_interrupted_duplicate_does_not_requeue(self):
        """group_interrupted from one copy while the sibling runs: no
        requeue (the sibling settles it), no forget broadcast."""
        coordinator, policy = speculation_fixture()
        try:
            coordinator._assign(1)
            coordinator._rank_conns[0] = _StubConn()  # would crash on send
            coordinator._requeue_interrupted(1, 0)
            assert 0 not in coordinator._pending
            coordinator._mark_done(0, 0)
            assert coordinator.done == {0, 1}
        finally:
            coordinator._rank_conns.clear()
            coordinator.close()


class TestElasticRetireAccounting:
    def test_elastic_worker_retired_exactly_once(self):
        config = make_config(ngroups=1)
        pool = PoolSupervisor(
            spawner=lambda index: None,
            policy=ElasticPoolPolicy(elastic_config(cooldown=0.001)),
        )
        coordinator = stub_coordinator(config, pool=pool)
        try:
            pool.maybe_spawn(9, 1, now=0.0)  # one live extra
            coordinator._worker_conns = {0: _StubConn(), 5: _StubConn()}
            coordinator._worker_elastic[5] = True
            reply = coordinator._assign(0)  # drains the queue
            assert reply["op"] == "group"
            retire = coordinator._assign(5)
            assert retire == {"op": "retire"}
            assert coordinator.retired_workers == [5]
            assert pool.retired_total == 1
            # asking again (late duplicate 'next') must not double-retire
            again = coordinator._assign(5)
            assert again["op"] == "idle"
        finally:
            coordinator.close()

    def test_forget_worker_frees_only_unretired_elastic_slots(self):
        config = make_config(ngroups=1)
        pool = PoolSupervisor(
            spawner=lambda index: None,
            policy=ElasticPoolPolicy(elastic_config(cooldown=0.001)),
        )
        coordinator = stub_coordinator(config, pool=pool)
        losses = []
        pool.worker_lost = lambda now=None: losses.append(1)
        try:
            coordinator._worker_conns = {0: _StubConn(), 5: _StubConn(),
                                         6: _StubConn()}
            coordinator._worker_elastic.update({5: True, 6: True})
            pool.maybe_spawn(9, 1, now=0.0)
            coordinator._assign(0)  # drain the queue so retire can fire
            coordinator._assign(5)  # retired through the protocol
            coordinator._forget_worker(5)
            assert losses == []  # a retired exit is not a loss
            coordinator._forget_worker(6)  # un-retired elastic death
            assert losses == [1]
            coordinator._forget_worker(0)  # plain workers never count
            assert losses == [1]
            assert coordinator._worker_conns == {}
        finally:
            coordinator.close()


# --------------------------------------------------------------------- #
# exactness: the duplicate's replayed stream is bit-discarded
# --------------------------------------------------------------------- #
class TestDuplicateStreamExactness:
    def test_replayed_group_leaves_statistic_state_bit_identical(self):
        """The speculation loser re-sends byte-identical messages; every
        rank must discard them leaving sobol/stats/last_integrated state
        byte-for-byte unchanged (pickled snapshot comparison)."""
        config = make_config(ngroups=3, ncells=8, server_ranks=2)
        server = MelissaServer(config)
        rng = np.random.default_rng(11)
        messages = [
            GroupFieldMessage(
                gid, step, 0, config.ncells,
                rng.normal(size=(config.group_size, config.ncells)),
            )
            for gid in range(3)
            for step in range(config.ntimesteps)
        ]
        for msg in messages:
            assert server.handle(msg, now=0.0)

        def stat_bytes(rank):
            state = rank.checkpoint_state()
            return pickle.dumps(
                (state["sobol"], state["stats"], state["last_integrated"])
            )

        before = [stat_bytes(rank) for rank in server.ranks]
        # the loser replays group 1's whole stream (deterministic sims
        # re-send identical bytes; replay even with different bytes must
        # be discarded, so corrupt the payload to prove it never lands)
        for msg in messages:
            if msg.group_id != 1:
                continue
            poisoned = GroupFieldMessage(
                msg.group_id, msg.timestep, msg.cell_lo, msg.cell_hi,
                msg.data + 1e6,
            )
            assert not server.handle(poisoned, now=1.0)
        after = [stat_bytes(rank) for rank in server.ranks]
        assert before == after
        assert all(rank.messages_discarded > 0 for rank in server.ranks)
