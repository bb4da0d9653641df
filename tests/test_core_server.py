"""Tests for ServerRank / MelissaServer: staging, replay, timeouts, state."""

import numpy as np
import pytest

from repro.core import MelissaServer, StudyConfig
from repro.core.results import StudyResults
from repro.sampling import ParameterSpace, Uniform
from repro.transport.message import FieldMessage, GroupFieldMessage


def make_config(ncells=10, ntimesteps=3, nparams=2, server_ranks=2, **kw):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(nparams)),
        distributions=tuple(Uniform(0, 1) for _ in range(nparams)),
    )
    return StudyConfig(
        space=space, ngroups=5, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, **kw,
    )


def counts(rank):
    """Groups folded per timestep on one rank (reading flushes)."""
    return rank.sobol.state_dict()["counts"]


def group_message(group, step, lo, hi, nmembers=4, value=1.0):
    data = np.full((nmembers, hi - lo), value) + np.arange(nmembers)[:, None]
    return GroupFieldMessage(group_id=group, timestep=step, cell_lo=lo,
                             cell_hi=hi, data=data)


class TestStraddlingMessages:
    def test_server_handle_splits_at_partition_boundary(self):
        """A group message straddling the rank boundary used to be routed
        whole by cell_lo and die in _handle_slices; it must be split."""
        server = MelissaServer(make_config(ncells=10, server_ranks=2))
        # ranks own [0,5) and [5,10); this message covers [3, 8)
        assert server.handle(group_message(0, 0, 3, 8), now=0.0)
        assert server.ranks[0].messages_processed == 1
        assert server.ranks[1].messages_processed == 1
        # complete the remaining cells and check integration on both ranks
        server.handle(group_message(0, 0, 0, 3), now=0.1)
        server.handle(group_message(0, 0, 8, 10), now=0.2)
        assert counts(server.ranks[0])[0] == 1
        assert counts(server.ranks[1])[0] == 1

    def test_field_message_straddle(self):
        server = MelissaServer(make_config(ncells=10, server_ranks=2))
        for member in range(4):
            msg = FieldMessage(group_id=1, member=member, timestep=0,
                               cell_lo=0, cell_hi=10, data=np.arange(10.0))
            assert server.handle(msg, now=0.0)
        for rank in server.ranks:
            assert counts(rank)[0] == 1

    def test_rank_still_rejects_foreign_cells(self):
        server = MelissaServer(make_config(ncells=10, server_ranks=2))
        with pytest.raises(ValueError):
            server.ranks[1].handle(group_message(0, 0, 3, 8), now=0.0)


class TestStagingAndIntegration:
    def test_complete_message_integrates_immediately(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]  # owns cells [0, 5)
        assert rank.handle(group_message(0, 0, 0, 5), now=1.0)
        assert counts(rank)[0] == 1
        assert rank.staged_entries == 0
        assert rank.last_integrated[0] == 0

    def test_partial_coverage_stages(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 3), now=1.0)
        assert rank.staged_entries == 1
        assert counts(rank)[0] == 0
        rank.handle(group_message(0, 0, 3, 5), now=2.0)
        assert rank.staged_entries == 0
        assert counts(rank)[0] == 1

    def test_single_member_messages_assemble(self):
        """Direct (non-two-stage) mode: p+2 FieldMessages per timestep."""
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        for member in range(4):
            msg = FieldMessage(group_id=0, member=member, timestep=0,
                               cell_lo=0, cell_hi=5,
                               data=np.full(5, float(member)))
            rank.handle(msg, now=1.0)
        assert counts(rank)[0] == 1

    def test_interleaved_groups(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 3), 1.0)
        rank.handle(group_message(1, 0, 0, 5), 1.0)
        rank.handle(group_message(0, 0, 3, 5), 2.0)
        assert counts(rank)[0] == 2

    def test_out_of_partition_cells_rejected(self):
        server = MelissaServer(make_config())
        with pytest.raises(ValueError):
            server.ranks[0].handle(group_message(0, 0, 3, 7), 1.0)

    def test_bad_timestep_rejected(self):
        server = MelissaServer(make_config(ntimesteps=3))
        with pytest.raises(ValueError):
            server.ranks[0].handle(group_message(0, 9, 0, 5), 1.0)

    def test_bad_member_rejected(self):
        server = MelissaServer(make_config())
        msg = FieldMessage(0, 11, 0, 0, 5, np.zeros(5))
        with pytest.raises(ValueError):
            server.ranks[0].handle(msg, 1.0)

    def test_unknown_message_type(self):
        server = MelissaServer(make_config())
        with pytest.raises(TypeError):
            server.ranks[0].handle("junk", 1.0)

    def test_general_stats_on_a_and_b(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5, value=2.0), 1.0)
        # A member value 2.0, B member 3.0 -> mean 2.5 after one group
        moments = rank.stats.instances_at(0)[0]
        np.testing.assert_allclose(moments.mean, 2.5)
        assert moments.count == 2

    def test_general_stats_disabled(self):
        server = MelissaServer(make_config(statistics=[]))
        assert not server.ranks[0].stats
        server.ranks[0].handle(group_message(0, 0, 0, 5), 1.0)


class TestDiscardOnReplay:
    def test_replayed_timestep_discarded(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        assert not rank.handle(group_message(0, 0, 0, 5), 2.0)  # replay
        assert rank.messages_discarded == 1
        assert counts(rank)[0] == 1

    def test_restarted_group_skips_seen_steps(self):
        server = MelissaServer(make_config(ntimesteps=3))
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        rank.handle(group_message(0, 1, 0, 5), 2.0)
        # group restarts and resends from timestep 0
        assert not rank.handle(group_message(0, 0, 0, 5), 10.0)
        assert not rank.handle(group_message(0, 1, 0, 5), 11.0)
        assert rank.handle(group_message(0, 2, 0, 5), 12.0)
        assert 0 in rank.finished_groups
        for step in range(3):
            assert counts(rank)[step] == 1

    def test_replay_disabled_mode(self):
        server = MelissaServer(make_config(discard_on_replay=False))
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        assert rank.handle(group_message(0, 0, 0, 5), 2.0)  # double count!
        assert counts(rank)[0] == 2


class TestAccounting:
    def test_finished_requires_final_timestep(self):
        cfg = make_config(ntimesteps=2)
        server = MelissaServer(cfg)
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        assert 0 in rank.running_groups()
        rank.handle(group_message(0, 1, 0, 5), 2.0)
        assert 0 in rank.finished_groups
        assert 0 not in rank.running_groups()

    def test_global_finished_needs_all_ranks(self):
        cfg = make_config(ntimesteps=1)
        server = MelissaServer(cfg)
        server.ranks[0].handle(group_message(0, 0, 0, 5), 1.0)
        assert server.finished_groups() == set()  # rank 1 has nothing
        server.ranks[1].handle(group_message(0, 0, 5, 10), 1.0)
        assert server.finished_groups() == {0}

    def test_timeout_detection(self):
        server = MelissaServer(make_config())
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), now=10.0)
        assert rank.check_timeouts(now=100.0, timeout=300.0) == []
        assert rank.check_timeouts(now=311.0, timeout=300.0) == [0]

    def test_finished_group_never_times_out(self):
        server = MelissaServer(make_config(ntimesteps=1))
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), now=10.0)
        assert rank.check_timeouts(now=1e6, timeout=300.0) == []

    def test_forget_group_clears_liveness_keeps_stats(self):
        server = MelissaServer(make_config(ntimesteps=3))
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        rank.handle(group_message(0, 1, 0, 3), 2.0)  # staged partial
        assert rank.staged_entries == 1
        server.forget_group(0)
        assert rank.staged_entries == 0
        assert rank.last_integrated[0] == 0  # stats retained
        assert rank.check_timeouts(1e6, 300.0) == []  # liveness reset

    def test_provenance_report(self):
        server = MelissaServer(make_config(ntimesteps=1))
        server.handle(group_message(0, 0, 0, 5), 1.0)
        server.handle(group_message(0, 0, 5, 10), 1.0)
        report = server.provenance_report()
        assert report["groups_started"] == 1
        assert report["groups_finished"] == 1
        assert report["messages_processed"] == 2
        assert report["messages_discarded"] == 0

    def test_memory_accounting(self):
        cfg = make_config(ncells=10, ntimesteps=3, nparams=2)
        server = MelissaServer(cfg)
        # stacked engine: (4p + 4) rows * cells * steps, summed over ranks
        assert server.memory_floats() == (4 * 2 + 4) * 10 * 3


class TestResultAssembly:
    def test_maps_concatenate_across_ranks(self):
        cfg = make_config(ncells=10, ntimesteps=1, server_ranks=2)
        server = MelissaServer(cfg)
        rng = np.random.default_rng(0)
        for g in range(20):
            data = rng.normal(size=(4, 10))
            server.handle(GroupFieldMessage(g, 0, 0, 5, data[:, :5]), 1.0)
            server.handle(GroupFieldMessage(g, 0, 5, 10, data[:, 5:]), 1.0)
        results = StudyResults.from_server(server)
        s_map = results.first_order_map(0, 0)
        assert s_map.shape == (10,)
        assert np.isfinite(s_map).all()
        assert results.variance[0].shape == (10,)
        assert np.isfinite(server.max_interval_width())

    def test_split_equals_single_rank(self):
        """Partitioned server must produce identical statistics to a
        single-rank server fed the same groups."""
        rng = np.random.default_rng(1)
        fields = rng.normal(size=(15, 4, 10))
        cfg2 = make_config(ncells=10, ntimesteps=1, server_ranks=2)
        cfg1 = make_config(ncells=10, ntimesteps=1, server_ranks=1)
        split = MelissaServer(cfg2)
        single = MelissaServer(cfg1)
        for g in range(15):
            split.handle(GroupFieldMessage(g, 0, 0, 5, fields[g][:, :5]), 1.0)
            split.handle(GroupFieldMessage(g, 0, 5, 10, fields[g][:, 5:]), 1.0)
            single.handle(GroupFieldMessage(g, 0, 0, 10, fields[g]), 1.0)
        got, want = StudyResults.from_server(split), StudyResults.from_server(single)
        np.testing.assert_allclose(got.first_order, want.first_order, rtol=1e-12)
        np.testing.assert_allclose(got.variance, want.variance, rtol=1e-12)


class TestCheckpointState:
    def test_rank_state_roundtrip(self):
        server = MelissaServer(make_config(ntimesteps=2))
        rank = server.ranks[0]
        rank.handle(group_message(0, 0, 0, 5), 1.0)
        rank.handle(group_message(1, 0, 0, 5), 1.5)
        state = rank.checkpoint_state()

        fresh = MelissaServer(make_config(ntimesteps=2)).ranks[0]
        fresh.restore_state(state)
        assert fresh.last_integrated == rank.last_integrated
        assert fresh.groups_seen == rank.groups_seen
        np.testing.assert_array_equal(
            fresh.sobol.index_maps_at(0), rank.sobol.index_maps_at(0)
        )
        # continuing both produces identical results
        fresh.handle(group_message(2, 0, 0, 5), 3.0)
        rank.handle(group_message(2, 0, 0, 5), 3.0)
        np.testing.assert_array_equal(
            fresh.sobol.index_maps_at(0), rank.sobol.index_maps_at(0)
        )

    def test_restore_wrong_rank_rejected(self):
        server = MelissaServer(make_config())
        state = server.ranks[0].checkpoint_state()
        with pytest.raises(ValueError):
            server.ranks[1].restore_state(state)


def sobol_state(rank):
    """The co-moment state of one rank, pending buffers folded in."""
    rank.sobol.flush()
    return rank.sobol._counts, rank.sobol._mean, rank.sobol._m2, rank.sobol._cxy


class TestWholePartitionFastPath:
    """A message covering the rank's whole range with every member is
    folded by reference; anything else is staged exactly as before."""

    def test_payload_is_folded_by_reference(self):
        rank = MelissaServer(make_config()).ranks[0]  # owns cells [0, 5)
        msg = group_message(0, 1, 0, 5)
        assert rank.handle(msg, now=1.0)
        assert rank.sobol._staged[1][-1] is msg.data
        assert rank.staged_entries == 0
        assert rank.messages_processed == 1

    def test_partial_message_is_copied(self):
        rank = MelissaServer(make_config()).ranks[0]
        first, second = group_message(0, 0, 0, 3), group_message(0, 0, 3, 5)
        rank.handle(first, 1.0)
        rank.handle(second, 1.0)
        folded = rank.sobol._staged[0][-1]
        assert not np.shares_memory(folded, first.data)
        assert not np.shares_memory(folded, second.data)
        np.testing.assert_array_equal(folded, np.hstack([first.data, second.data]))

    def test_whole_and_cut_messages_are_bit_identical(self):
        rng = np.random.default_rng(7)
        fields = rng.normal(size=(40, 3, 4, 5))  # group, step, member, cell
        whole = MelissaServer(make_config(server_ranks=1, ncells=5)).ranks[0]
        cut = MelissaServer(make_config(server_ranks=1, ncells=5)).ranks[0]
        for g in range(40):
            for t in range(3):
                whole.handle(GroupFieldMessage(g, t, 0, 5, fields[g, t]), 1.0)
                cut.handle(GroupFieldMessage(g, t, 0, 2, fields[g, t][:, :2]), 1.0)
                assert cut.staged_entries == 1
                cut.handle(GroupFieldMessage(g, t, 2, 5, fields[g, t][:, 2:]), 1.0)
        assert whole.staged_entries == cut.staged_entries == 0
        for got, ref in zip(sobol_state(cut), sobol_state(whole)):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(cut.stats.instances_at(2), whole.stats.instances_at(2)):
            np.testing.assert_array_equal(got.mean, ref.mean)

    def test_whole_message_joins_a_staged_partial(self):
        """A partial entry under the same key means slices are in flight:
        the whole message must complete that entry, not bypass it."""
        rank = MelissaServer(make_config()).ranks[0]
        rank.handle(group_message(0, 0, 0, 3, value=9.0), 1.0)
        msg = group_message(0, 0, 0, 5)
        assert rank.handle(msg, 2.0)
        assert rank.staged_entries == 0
        folded = rank.sobol._staged[0][-1]
        assert folded is not msg.data
        np.testing.assert_array_equal(folded, msg.data)
        assert counts(rank)[0] == 1  # reading folds

    def test_repeated_and_overlapping_slices_count_each_cell_once(self):
        rank = MelissaServer(make_config()).ranks[0]
        rank.handle(group_message(0, 0, 0, 3), 1.0)
        rank.handle(group_message(0, 0, 0, 3), 1.0)  # duplicate chunk
        rank.handle(group_message(0, 0, 1, 4), 1.0)  # overlaps both sides
        assert rank.staged_entries == 1  # cell 4 still missing
        assert counts(rank)[0] == 0
        rank.handle(group_message(0, 0, 4, 5), 1.0)
        assert rank.staged_entries == 0
        assert counts(rank)[0] == 1

    def test_members_beyond_the_group_rejected_before_staging(self):
        rank = MelissaServer(make_config()).ranks[0]
        with pytest.raises(ValueError, match="members"):
            rank.handle(group_message(0, 0, 0, 5, nmembers=5), 1.0)
        assert rank.staged_entries == 0

    def test_forget_then_replay_is_exact(self):
        rng = np.random.default_rng(3)
        fields = rng.normal(size=(6, 3, 4, 5))
        clean = MelissaServer(make_config()).ranks[0]
        faulted = MelissaServer(make_config()).ranks[0]
        for g in range(6):
            for t in range(3):
                clean.handle(GroupFieldMessage(g, t, 0, 5, fields[g, t]), 1.0)
        for g in range(6):
            for t in range(3):
                if g == 2 and t == 1:
                    # group 2 dies with half of timestep 1 delivered ...
                    faulted.handle(
                        GroupFieldMessage(g, t, 0, 2, fields[g, t][:, :2]), 1.0
                    )
                    break
                faulted.handle(GroupFieldMessage(g, t, 0, 5, fields[g, t]), 1.0)
        # ... is forgotten, and its restart replays from timestep 0
        faulted.forget_group(2)
        assert faulted.staged_entries == 0
        outcomes = [
            faulted.handle(GroupFieldMessage(2, t, 0, 5, fields[2, t]), 2.0)
            for t in range(3)
        ]
        assert outcomes == [False, True, True]
        for got, ref in zip(sobol_state(faulted), sobol_state(clean)):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)
