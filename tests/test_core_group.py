"""Tests for SimulationGroup / GroupExecutor / FunctionSimulation."""

import numpy as np
import pytest

from repro.core import GroupExecutor, SimulationGroup, StudyConfig
from repro.core.group import FunctionSimulation, GroupCrashed, GroupState
from repro.faults import DuplicateDelivery, FaultPlan
from repro.mesh.partition import BlockPartition
from repro.runtime import SequentialRuntime
from repro.sampling import ParameterSpace, Uniform, draw_design
from repro.transport import Router, total_stats
from repro.transport.message import FieldMessage, GroupFieldMessage


def make_space(p=2):
    return ParameterSpace(
        names=tuple(f"x{i}" for i in range(p)),
        distributions=tuple(Uniform(0, 1) for _ in range(p)),
    )


def make_config(p=2, ncells=6, ntimesteps=3, **kw):
    defaults = dict(server_ranks=2, client_ranks=2)
    defaults.update(kw)
    return StudyConfig(
        space=make_space(p), ngroups=4, ntimesteps=ntimesteps, ncells=ncells,
        **defaults,
    )


class ArraySimulation:
    """Test member emitting params.sum() + timestep on every cell."""

    def __init__(self, params, sim_id, ncells=6, ntimesteps=3):
        self.params = np.asarray(params)
        self.ntimesteps = ntimesteps
        self._ncells = ncells
        self._next = 0
        self.simulation_id = sim_id

    @property
    def ncells(self):
        return self._ncells

    @property
    def finished(self):
        return self._next >= self.ntimesteps

    def advance(self):
        step = self._next
        self._next += 1
        return step, np.full(self._ncells, self.params.sum() + step)


def array_factory(params, sim_id):
    return ArraySimulation(params, sim_id)


class TestSimulationGroup:
    def test_from_design(self):
        design = draw_design(make_space(3), 5, seed=0)
        group = SimulationGroup.from_design(design, 2)
        assert group.size == 5
        assert group.nparams == 3
        np.testing.assert_array_equal(group.member_parameters[0], design.a[2])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SimulationGroup(group_id=0, member_parameters=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            SimulationGroup(group_id=-1, member_parameters=np.zeros((4, 2)))


class TestFunctionSimulation:
    def test_emits_constant_scalar(self):
        sim = FunctionSimulation(lambda x: x.sum(axis=1), np.array([1.0, 2.0]),
                                 ntimesteps=3)
        steps = []
        while not sim.finished:
            step, field = sim.advance()
            steps.append(step)
            np.testing.assert_allclose(field, [3.0])
        assert steps == [0, 1, 2]
        with pytest.raises(RuntimeError):
            sim.advance()

    def test_ncells_is_one(self):
        sim = FunctionSimulation(lambda x: x.sum(axis=1), np.array([1.0]))
        assert sim.ncells == 1


class TestGroupExecutorLifecycle:
    def make_executor(self, config=None, **kw):
        config = config or make_config()
        router = Router(BlockPartition(config.ncells, config.server_ranks),
                        channel_capacity_bytes=config.channel_capacity_bytes)
        design = draw_design(config.space, config.ngroups, seed=1)
        group = SimulationGroup.from_design(design, 0)
        return GroupExecutor(group, array_factory, config, router, **kw), router

    def test_initialize_connects(self):
        executor, _ = self.make_executor()
        executor.initialize()
        assert executor.state == GroupState.RUNNING
        with pytest.raises(RuntimeError):
            executor.initialize()

    def test_step_before_initialize(self):
        executor, _ = self.make_executor()
        with pytest.raises(RuntimeError):
            executor.process_step()

    def test_full_run_disconnects_and_finishes(self):
        executor, _ = self.make_executor()
        executor.initialize()
        states = []
        while executor.state != GroupState.FINISHED:
            states.append(executor.process_step())
        assert executor.timesteps_sent == 3
        with pytest.raises(RuntimeError):
            executor.process_step()

    def test_messages_cover_all_cells_every_step(self):
        config = make_config(ncells=6, server_ranks=2, client_ranks=3)
        executor, router = self.make_executor(config)
        executor.initialize()
        executor.process_step()
        got = np.zeros(6, dtype=int)
        for ch in router.inbound.values():
            for msg in ch.drain():
                assert isinstance(msg, GroupFieldMessage)
                assert msg.nmembers == 4  # p + 2
                got[msg.cell_lo:msg.cell_hi] += 1
        assert (got == 1).all()

    def test_member_field_values(self):
        executor, router = self.make_executor()
        executor.initialize()
        executor.process_step()
        group = executor.group
        for ch in router.inbound.values():
            for msg in ch.drain():
                for m in range(4):
                    expected = group.member_parameters[m].sum() + 0  # step 0
                    np.testing.assert_allclose(msg.data[m], expected)


class TestTwoStageAblation:
    def test_two_stage_message_count(self):
        config = make_config(two_stage_transfer=True, client_ranks=2, server_ranks=2)
        executor, router = (
            TestGroupExecutorLifecycle().make_executor(config)
        )
        executor.initialize()
        executor.process_step()
        total = sum(ch.pending_messages for ch in router.inbound.values())
        # client partition [0,3),[3,6) vs server [0,3),[3,6): aligned -> 2
        assert total == 2

    def test_direct_mode_multiplies_messages(self):
        config = make_config(two_stage_transfer=False, client_ranks=2, server_ranks=2)
        executor, router = (
            TestGroupExecutorLifecycle().make_executor(config)
        )
        executor.initialize()
        executor.process_step()
        total = sum(ch.pending_messages for ch in router.inbound.values())
        assert total == 2 * 4  # (p+2) times more
        for ch in router.inbound.values():
            for msg in ch.drain():
                assert isinstance(msg, FieldMessage)


class TestBackpressure:
    def test_blocked_group_does_not_advance(self):
        # capacity: one aligned message (~3 cells * 4 members * 8B + header)
        config = make_config(channel_capacity_bytes=200, client_ranks=1,
                             server_ranks=1)
        executor, router = TestGroupExecutorLifecycle().make_executor(config)
        executor.initialize()
        assert executor.process_step() == GroupState.RUNNING  # fits (empty)
        state = executor.process_step()
        assert state == GroupState.BLOCKED
        sent_before = executor.timesteps_sent
        assert executor.process_step() == GroupState.BLOCKED  # still stuck
        assert executor.timesteps_sent == sent_before
        # drain the server side; group resumes
        router.inbound[0].drain()
        assert executor.process_step() in (GroupState.RUNNING, GroupState.BLOCKED)
        assert executor.timesteps_sent == sent_before + 1


class TestFaultHooks:
    def test_crash_at_timestep(self):
        executor, _ = TestGroupExecutorLifecycle().make_executor(
            fail_at_timestep=1
        )
        executor.initialize()
        executor.process_step()  # timestep 0 ok
        with pytest.raises(GroupCrashed):
            executor.process_step()
        assert executor.state == GroupState.CRASHED

    def test_zombie_sends_nothing(self):
        executor, router = TestGroupExecutorLifecycle().make_executor(zombie=True)
        executor.initialize()
        while executor.state != GroupState.FINISHED:
            executor.process_step()
        assert executor.messages_emitted == 0
        assert all(ch.pending_messages == 0 for ch in router.inbound.values())

    def test_straggler_advances_slower(self):
        executor, router = TestGroupExecutorLifecycle().make_executor(
            straggler_factor=3
        )
        executor.initialize()
        for _ in range(3):
            executor.process_step()
        assert executor.timesteps_sent == 1  # only every 3rd call advances
        for ch in router.inbound.values():
            ch.drain()

    def test_invalid_straggler(self):
        with pytest.raises(ValueError):
            TestGroupExecutorLifecycle().make_executor(straggler_factor=0)

    def test_wrong_cell_count_rejected(self):
        config = make_config(ncells=7, server_ranks=1, client_ranks=1)
        router = Router(BlockPartition(7, 1))
        design = draw_design(config.space, 4, seed=1)
        group = SimulationGroup.from_design(design, 0)
        executor = GroupExecutor(group, array_factory, config, router)
        with pytest.raises(ValueError):
            executor.initialize()  # ArraySimulation emits 6 cells


class TestPayloadSlabs:
    """The executor fills one fresh slab per plan entry and that slab is
    the message payload."""

    make_executor = TestGroupExecutorLifecycle.make_executor

    def drain(self, router):
        return [msg for ch in router.inbound.values() for msg in ch.drain()]

    def test_payload_is_an_owned_contiguous_slab(self):
        config = make_config(ncells=6, server_ranks=2, client_ranks=3)
        executor, router = self.make_executor(config)
        executor.initialize()
        executor.process_step()
        messages = self.drain(router)
        # client [0,2) [2,4) [4,6) x server [0,3) [3,6): the middle client
        # rank straddles, so 4 intersections
        assert sorted((m.cell_lo, m.cell_hi) for m in messages) == [
            (0, 2), (2, 3), (3, 4), (4, 6)
        ]
        for msg in messages:
            assert msg.data.flags.c_contiguous and msg.data.base is None

    def test_slabs_are_never_reused(self):
        executor, router = self.make_executor()
        executor.initialize()
        executor.process_step()
        first = self.drain(router)
        kept = [msg.data.copy() for msg in first]
        executor.process_step()
        second = self.drain(router)
        for old, copy in zip(first, kept):
            np.testing.assert_array_equal(old.data, copy)
            assert not any(np.shares_memory(old.data, new.data) for new in second)

    def test_plan_follows_the_routers_partition_object(self):
        executor, router = self.make_executor()
        executor.initialize()
        assert executor._redistribution_plan() is executor._redistribution_plan()
        executor.process_step()
        assert len(self.drain(router)) == 2
        # a router that re-learnt the partition (rank respawn) shows a new object
        router.server_partition = BlockPartition(6, 1)
        executor.process_step()
        assert sorted(
            (m.cell_lo, m.cell_hi) for m in self.drain(router)
        ) == [(0, 3), (3, 6)]
        assert executor._plan_partition is router.server_partition

    def test_direct_mode_rows_are_the_member_fields(self):
        config = make_config(two_stage_transfer=False)
        executor, router = self.make_executor(config)
        executor.initialize()
        executor.process_step()
        for msg in self.drain(router):
            expected = executor.group.member_parameters[msg.member].sum()
            np.testing.assert_array_equal(
                msg.data, np.full(msg.cell_hi - msg.cell_lo, expected)
            )


class TestMemberOutputValidation:
    def executor_for(self, factory):
        config = make_config()
        router = Router(BlockPartition(config.ncells, config.server_ranks))
        design = draw_design(config.space, config.ngroups, seed=1)
        return GroupExecutor(
            SimulationGroup.from_design(design, 0), factory, config, router
        )

    def test_every_members_cell_count_is_checked(self):
        def factory(params, sim_id):
            return ArraySimulation(params, sim_id, ncells=5 if sim_id == 2 else 6)

        with pytest.raises(ValueError, match="member 2 produces 5 cells"):
            self.executor_for(factory).initialize()

    @pytest.mark.parametrize("bad", [3.0, np.array([3.0]), np.zeros((1, 6))])
    def test_field_that_would_broadcast_is_rejected(self, bad):
        class Broadcasting(ArraySimulation):
            def advance(self):
                step, field = super().advance()
                return step, bad if self.simulation_id == 1 else field

        executor = self.executor_for(Broadcasting)
        executor.initialize()
        with pytest.raises(ValueError, match="member 1 of group 0"):
            executor.process_step()


class RampMember:
    """Multi-cell member whose output is its own state array, overwritten
    in place by the next ``advance`` (a solver returning internal state)
    unless ``copy`` is set."""

    def __init__(self, params, sim_id, ncells, ntimesteps, copy):
        self.ntimesteps = ntimesteps
        self.simulation_id = sim_id
        self._value = float(np.sin(params).sum())
        self._ramp = np.linspace(0.5, 1.5, ncells)
        self._state = np.empty(ncells)
        self._copy = copy
        self._next = 0

    @property
    def ncells(self):
        return self._state.size

    @property
    def finished(self):
        return self._next >= self.ntimesteps

    def advance(self):
        step = self._next
        self._next += 1
        np.multiply(self._ramp, self._value + 0.1 * step, out=self._state)
        return step, self._state.copy() if self._copy else self._state


def run_ramp_study(client_ranks=1, server_ranks=1, copy=True, fault_plan=None,
                   channel_capacity_bytes=None, **runtime_kw):
    config = make_config(
        p=3, ncells=7, ntimesteps=4, client_ranks=client_ranks,
        server_ranks=server_ranks, channel_capacity_bytes=channel_capacity_bytes,
    )
    runtime = SequentialRuntime(
        config,
        lambda params, sim_id: RampMember(params, sim_id, 7, 4, copy),
        fault_plan=fault_plan, **runtime_kw,
    )
    return runtime.run(max_time=50_000), runtime


def assert_same_maps(got, ref, rtol):
    for name in ("first_order", "total_order", "variance", "mean"):
        np.testing.assert_allclose(
            getattr(got, name), getattr(ref, name), rtol=rtol, atol=1e-13,
            err_msg=name,
        )
    for name, ref_map in ref.statistics.items():
        np.testing.assert_allclose(
            got.statistics[name], ref_map, rtol=rtol, atol=1e-13, err_msg=name
        )


class TestStudyDataPath:
    """Whole studies over the aligned, partial and straddling layouts."""

    @pytest.mark.parametrize("client_ranks", [1, 2, 3])
    @pytest.mark.parametrize("server_ranks", [1, 2, 3])
    def test_every_layout_matches_one_by_one(self, client_ranks, server_ranks):
        reference, _ = run_ramp_study()
        results, runtime = run_ramp_study(client_ranks, server_ranks)
        assert results.groups_integrated == 4
        assert runtime.server.provenance_report()["staged_entries"] == 0
        assert_same_maps(results, reference, rtol=1e-10)

    def test_duplicated_whole_partition_messages_integrate_once(self):
        """Also under back-pressure: a full channel cannot swallow the
        duplicate, so replay protection discards it there too."""
        plan = FaultPlan(duplicate_deliveries=[DuplicateDelivery(1)])
        for capacity in (None, 600):
            reference, _ = run_ramp_study(channel_capacity_bytes=capacity)
            results, runtime = run_ramp_study(
                fault_plan=plan, channel_capacity_bytes=capacity
            )
            # one per timestep
            assert results.provenance["messages_discarded"] == 4, capacity
            assert runtime.server.ranks[0].sobol.state_dict()["counts"][0] == 4
            assert_same_maps(results, reference, rtol=0)

    @pytest.mark.parametrize(
        "runtime_kw",
        [{}, {"steps_per_tick": 3},
         {"steps_per_tick": 3, "channel_capacity_bytes": 600}],
        ids=["plain", "three-steps-per-tick", "blocked"],
    )
    def test_member_reusing_its_output_array(self, runtime_kw):
        """The executor's copy happens before the member advances again,
        also when steps pile up in the channel or the group is suspended."""
        reference, _ = run_ramp_study(2, 2, copy=True, **runtime_kw)
        results, runtime = run_ramp_study(2, 2, copy=False, **runtime_kw)
        if "channel_capacity_bytes" in runtime_kw:
            assert total_stats(runtime.router.inbound.values())["send_blocks"] > 0
        assert results.groups_integrated == 4
        assert_same_maps(results, reference, rtol=0)
