"""End-to-end tests of the sequential runtime, including fault recovery.

The gold standard throughout: a faulted study must produce *identical*
statistics to an unfaulted run of the same seed, because restarts replay
the same pick-freeze rows and discard-on-replay deduplicates them.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import SensitivityStudy
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.convergence import ConvergenceController
from repro.core.group import FunctionSimulation
from repro.core.server import MelissaServer
from repro.faults import (
    DuplicateDelivery,
    FaultPlan,
    GroupCrash,
    GroupStraggler,
    GroupZombie,
    ServerCrash,
)
from repro.runtime import SequentialRuntime
from repro.runtime.sequential import StudyIncomplete
from repro.sampling import ParameterSpace, Uniform, draw_design
from repro.sobol import IshigamiFunction, martinez_indices
from repro.transport import total_stats


def ishigami_config(ngroups=30, **kw):
    fn = IshigamiFunction()
    defaults = dict(
        ntimesteps=2, ncells=1, server_ranks=1, client_ranks=1,
        group_timeout=30.0, zombie_timeout=30.0, server_timeout=30.0,
        checkpoint_interval=20.0,
    )
    defaults.update(kw)
    return fn, StudyConfig(space=fn.space(), ngroups=ngroups, seed=5, **defaults)


def ishigami_factory(fn, ntimesteps=2):
    def factory(params, sim_id):
        return FunctionSimulation(fn, params, ntimesteps=ntimesteps,
                                  simulation_id=sim_id)
    return factory


def run_study(config, fn, fault_plan=None, checkpoint_dir=None, **kw):
    runtime = SequentialRuntime(
        config, ishigami_factory(fn, config.ntimesteps),
        fault_plan=fault_plan, checkpoint_dir=checkpoint_dir, **kw,
    )
    return runtime.run(max_time=50_000), runtime


class TestCleanRun:
    def test_all_groups_integrated(self):
        fn, config = ishigami_config(30)
        results, runtime = run_study(config, fn)
        assert results.groups_integrated == 30
        assert results.provenance["messages_discarded"] == 0
        assert results.abandoned_groups == []
        assert len(runtime.timeline) > 0

    def test_matches_direct_estimator(self):
        fn, config = ishigami_config(50)
        results, _ = run_study(config, fn)
        design = draw_design(fn.space(), 50, seed=5)
        first, total = martinez_indices(
            fn(design.a), fn(design.b),
            np.stack([fn(design.c_matrix(k)) for k in range(3)]),
        )
        # both timesteps carry the same scalar -> same indices
        for t in range(2):
            np.testing.assert_allclose(results.first_order[:, t, 0], first, rtol=1e-9)
            np.testing.assert_allclose(results.total_order[:, t, 0], total, rtol=1e-9)

    def test_deterministic_reruns(self):
        fn, config1 = ishigami_config(20)
        _, config2 = ishigami_config(20)
        r1, _ = run_study(config1, fn)
        r2, _ = run_study(config2, fn)
        np.testing.assert_array_equal(r1.first_order, r2.first_order)

    def test_timeline_shape(self):
        fn, config = ishigami_config(10, total_nodes=12, nodes_per_group=4)
        _, runtime = run_study(config, fn)
        peak = max(s.running_groups for s in runtime.timeline)
        assert peak <= (12 - config.server_nodes) // 4
        assert runtime.timeline[-1].finished_groups == 10

    def test_time_budget_enforced(self):
        fn, config = ishigami_config(10)
        runtime = SequentialRuntime(config, ishigami_factory(fn, 2))
        with pytest.raises(StudyIncomplete):
            runtime.run(max_time=1.0)

    def test_invalid_parameters(self):
        fn, config = ishigami_config(5)
        with pytest.raises(ValueError):
            SequentialRuntime(config, ishigami_factory(fn, 2), tick=0.0)
        with pytest.raises(ValueError):
            SequentialRuntime(
                config, ishigami_factory(fn, 2),
                fault_plan=FaultPlan(server_crashes=[ServerCrash(at_time=5.0)]),
            )  # no checkpoint dir


class TestGroupCrashRecovery:
    def test_crashed_group_restarted_stats_exact(self):
        fn, config = ishigami_config(15)
        plan = FaultPlan(group_crashes=[GroupCrash(group_id=3, at_timestep=1)])
        faulted, runtime = run_study(config, fn, fault_plan=plan)
        clean, _ = run_study(ishigami_config(15)[1], fn)
        assert faulted.groups_integrated == 15
        np.testing.assert_allclose(
            faulted.first_order, clean.first_order, rtol=1e-12
        )
        # the replayed timestep was discarded
        assert faulted.provenance["messages_discarded"] >= 1
        assert runtime.launcher.records[3].retries == 1

    def test_multiple_crashes_same_group(self):
        fn, config = ishigami_config(10, max_group_retries=3)
        plan = FaultPlan(group_crashes=[
            GroupCrash(group_id=2, at_timestep=1, on_attempt=0),
            GroupCrash(group_id=2, at_timestep=1, on_attempt=1),
        ])
        results, runtime = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 10
        assert runtime.launcher.records[2].retries == 2

    def test_retry_exhaustion_abandons_group(self):
        fn, config = ishigami_config(8, max_group_retries=1)
        plan = FaultPlan(group_crashes=[
            GroupCrash(group_id=1, at_timestep=0, on_attempt=a) for a in range(3)
        ])
        results, _ = run_study(config, fn, fault_plan=plan)
        assert results.abandoned_groups == [1]
        assert results.groups_integrated == 7  # the rest completed

    def test_crash_at_step_zero(self):
        fn, config = ishigami_config(6)
        plan = FaultPlan(group_crashes=[GroupCrash(group_id=0, at_timestep=0)])
        results, _ = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 6


class TestZombieRecovery:
    def test_zombie_detected_and_restarted(self):
        fn, config = ishigami_config(10)
        plan = FaultPlan(group_zombies=[GroupZombie(group_id=4)])
        results, runtime = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 10
        assert runtime.launcher.records[4].retries == 1
        clean, _ = run_study(ishigami_config(10)[1], fn)
        np.testing.assert_allclose(results.first_order, clean.first_order,
                                   rtol=1e-12)


class TestStraggler:
    def test_slow_group_still_completes(self):
        fn, config = ishigami_config(8, group_timeout=1000.0)
        plan = FaultPlan(group_stragglers=[GroupStraggler(group_id=2, factor=5)])
        results, _ = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 8

    def test_extreme_straggler_times_out_and_restarts(self):
        # straggler so slow the inter-message timeout fires; the restarted
        # attempt (no fault on attempt 1) finishes the group
        fn, config = ishigami_config(
            6, ntimesteps=4, group_timeout=10.0, zombie_timeout=10.0
        )
        plan = FaultPlan(group_stragglers=[GroupStraggler(group_id=1, factor=50)])
        results, runtime = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 6
        assert runtime.launcher.records[1].retries >= 1


class TestWalltimeKill:
    def test_scheduler_walltime_kill_triggers_restart(self):
        """A straggler that exceeds its job walltime is killed by the
        batch scheduler; the fault protocol restarts the group and the
        retried (non-straggling) instance completes the study exactly.
        """
        fn, config = ishigami_config(
            8, ntimesteps=5, group_walltime=12.0,
            group_timeout=8.0, zombie_timeout=8.0,
        )
        plan = FaultPlan(group_stragglers=[GroupStraggler(group_id=2, factor=8)])
        results, runtime = run_study(config, fn, fault_plan=plan)
        assert results.groups_integrated == 8
        assert runtime.launcher.records[2].retries >= 1
        # the straggler's first job really was walltime-killed or cancelled
        from repro.scheduler import JobState

        states = {
            j.state
            for j in runtime.scheduler.jobs.values()
            if j.name.startswith("group-2")
        }
        assert JobState.TIMEOUT in states or JobState.CANCELLED in states
        clean, _ = run_study(ishigami_config(8, ntimesteps=5)[1], fn)
        np.testing.assert_allclose(results.first_order, clean.first_order,
                                   rtol=1e-12)


class TestDuplicateDelivery:
    def test_duplicates_do_not_bias_statistics(self):
        fn, config = ishigami_config(12)
        plan = FaultPlan(duplicate_deliveries=[DuplicateDelivery(group_id=0),
                                               DuplicateDelivery(group_id=5)])
        faulted, _ = run_study(config, fn, fault_plan=plan)
        clean, _ = run_study(ishigami_config(12)[1], fn)
        assert faulted.groups_integrated == 12
        np.testing.assert_allclose(faulted.first_order, clean.first_order,
                                   rtol=1e-12)
        assert faulted.provenance["messages_discarded"] >= 1


class TestServerCrashRecovery:
    def test_server_restart_from_checkpoint_exact(self, tmp_path):
        fn, config = ishigami_config(
            25, ntimesteps=10, checkpoint_interval=3.0,
            server_timeout=8.0, total_nodes=24,
        )
        plan = FaultPlan(server_crashes=[ServerCrash(at_time=6.0)])
        faulted, runtime = run_study(
            config, fn, fault_plan=plan, checkpoint_dir=tmp_path
        )
        clean, _ = run_study(ishigami_config(25, ntimesteps=10)[1], fn)
        assert runtime.launcher.server_restarts == 1
        assert faulted.groups_integrated == 25
        np.testing.assert_allclose(faulted.first_order, clean.first_order,
                                   rtol=1e-12)

    def test_groups_finished_after_checkpoint_are_rerun(self, tmp_path):
        """Regression: groups that completed AFTER the last checkpoint are
        lost from the restored statistics; the launcher must roll back its
        finished list and re-run them (Sec. 4.2.3), or the study silently
        loses rows."""
        fn, config = ishigami_config(
            12, ntimesteps=4, checkpoint_interval=2.0, server_timeout=6.0,
            total_nodes=50,  # all groups run at once, finish together
        )
        # crash shortly after the first wave completes (~t=6)
        plan = FaultPlan(server_crashes=[ServerCrash(at_time=7.0)])
        faulted, runtime = run_study(
            config, fn, fault_plan=plan, checkpoint_dir=tmp_path
        )
        assert faulted.groups_integrated == 12  # nothing lost
        clean, _ = run_study(
            ishigami_config(12, ntimesteps=4, total_nodes=50)[1], fn
        )
        np.testing.assert_allclose(faulted.first_order, clean.first_order,
                                   rtol=1e-12)

    def test_two_server_crashes(self, tmp_path):
        fn, config = ishigami_config(
            20, ntimesteps=12, checkpoint_interval=3.0, server_timeout=6.0,
            total_nodes=18,
        )
        plan = FaultPlan(server_crashes=[ServerCrash(at_time=5.0),
                                         ServerCrash(at_time=30.0)])
        results, runtime = run_study(
            config, fn, fault_plan=plan, checkpoint_dir=tmp_path
        )
        assert runtime.launcher.server_restarts == 2
        assert results.groups_integrated == 20

    def test_recovery_releases_the_crashed_server_before_reading(
        self, tmp_path, monkeypatch
    ):
        """The launcher's read of the checkpoint never overlaps the
        crashed server: it is unreachable (refcount, not the cyclic GC)
        before the first rank file is loaded."""
        fn, config = ishigami_config(
            25, ntimesteps=10, checkpoint_interval=3.0,
            server_timeout=8.0, total_nodes=24,
        )
        runtime = SequentialRuntime(
            config, ishigami_factory(fn, 10), checkpoint_dir=tmp_path,
            fault_plan=FaultPlan(server_crashes=[ServerCrash(at_time=6.0)]),
        )
        crashed, alive_at_read = [], []
        recover = runtime._recover_server

        def watched(now):
            crashed.append(weakref.ref(runtime.server))
            recover(now)

        load = CheckpointManager.load_rank_state

        def spied(manager, rank, cfg):
            if crashed:
                alive_at_read.append(crashed[-1]() is not None)
            return load(manager, rank, cfg)

        monkeypatch.setattr(runtime, "_recover_server", watched)
        monkeypatch.setattr(CheckpointManager, "load_rank_state", spied)
        gc.disable()
        try:
            results = runtime.run(max_time=50_000)
        finally:
            gc.enable()
        assert len(crashed) == 1 and results.groups_integrated == 25
        assert alive_at_read and not any(alive_at_read)

    def test_recovery_refuses_missing_or_foreign_rank_files(self, tmp_path):
        fn, config = ishigami_config(6, ncells=4, server_ranks=2)
        manager = CheckpointManager(tmp_path)
        manager.save(MelissaServer(config))
        for path in manager.slot_paths(1):
            path.unlink(missing_ok=True)
        runtime = SequentialRuntime(
            config, ishigami_factory(fn), checkpoint_dir=tmp_path
        )
        with pytest.raises(FileNotFoundError, match="rank 1"):
            runtime._recover_server(0.0)
        # the fingerprint check stays: a rank file of another study
        _, other = ishigami_config(6, ncells=4, server_ranks=2, ntimesteps=3)
        manager.save_rank(MelissaServer(other).ranks[1], other)
        with pytest.raises(ValueError, match="incompatible study"):
            runtime._recover_server(0.0)


class TestConvergenceStop:
    def test_early_stop_cancels_outstanding(self):
        fn, config = ishigami_config(
            500, total_nodes=10, nodes_per_group=2,
            convergence_threshold=0.9,  # very loose: stops quickly
            convergence_check_interval=5.0,
        )
        runtime = SequentialRuntime(
            config, ishigami_factory(fn, config.ntimesteps),
            convergence=ConvergenceController(threshold=0.9, min_groups=10),
        )
        results = runtime.run(max_time=50_000)
        assert runtime.stopped_early
        assert results.groups_integrated < 500
        assert results.groups_integrated >= 10
        assert runtime.launcher.cancelled_groups  # work was cancelled


class TestBackpressureEndToEnd:
    def test_tiny_buffers_still_complete_exactly(self):
        fn, config = ishigami_config(15, channel_capacity_bytes=256)
        throttled, _ = run_study(config, fn)
        clean, _ = run_study(ishigami_config(15)[1], fn)
        assert throttled.groups_integrated == 15
        np.testing.assert_allclose(throttled.first_order, clean.first_order,
                                   rtol=1e-12)

    def test_blocked_time_visible_in_timeline(self):
        fn, config = ishigami_config(
            10, channel_capacity_bytes=256, total_nodes=64,
        )
        _, runtime = run_study(config, fn)
        # the router was replaced on restarts; use the live one
        assert runtime.router is not None
        stats = total_stats(runtime.router.inbound.values())
        assert stats["send_blocks"] > 0  # back-pressure actually happened


class TestStudyFacade:
    def test_for_function_runs(self):
        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=100, seed=3)
        results = study.run()
        assert results.groups_integrated == 100
        assert study.results is results

    def test_for_function_requires_space(self):
        with pytest.raises(ValueError):
            SensitivityStudy.for_function(lambda x: x.sum(axis=1), ngroups=5)

    def test_for_function_explicit_space(self):
        space = ParameterSpace(names=("a", "b"),
                               distributions=(Uniform(0, 1), Uniform(0, 1)))
        study = SensitivityStudy.for_function(
            lambda x: x[:, 0] + 2 * x[:, 1], ngroups=200, space=space, seed=0
        )
        results = study.run()
        # additive model: S2/S1 ~ 4
        s = results.first_order[:, 0, 0]
        assert s[1] > s[0]

    def test_unknown_runtime(self):
        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=5)
        for name in ("quantum", "threaded", "process"):
            with pytest.raises(ValueError, match="unknown runtime"):
                study.run(runtime=name)

    def test_tube_bundle_facade(self):
        from repro.solver import TubeBundleCase

        case = TubeBundleCase(nx=16, ny=8, ntimesteps=3, total_time=0.5)
        study = SensitivityStudy.for_tube_bundle(
            case, ngroups=3, server_ranks=2, client_ranks=2
        )
        results = study.run()
        assert results.groups_integrated == 3
        assert results.first_order.shape == (6, 3, 128)


class TestColdStart:
    def test_sequential_tube_study_imports_neither_scipy_nor_the_socket_stack(self):
        """A sequential study loads only what it runs: the flow solve needs
        no SciPy and the distributed runtime is imported on first use."""
        script = (
            "import sys\n"
            "from repro import SensitivityStudy\n"
            "from repro.solver import TubeBundleCase\n"
            "case = TubeBundleCase(nx=16, ny=8, ntimesteps=3)\n"
            "r = SensitivityStudy.for_tube_bundle(case, ngroups=2, seed=3).run()\n"
            "assert r.groups_integrated == 2\n"
            "print(sorted(m for m in sys.modules if m == 'scipy'\n"
            "      or m.startswith(('scipy.', 'repro.net', 'repro.runtime.distributed'))))\n"
            "from repro.runtime import DistributedRuntime\n"
            "print(DistributedRuntime.__module__)\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["[]", "repro.runtime.distributed"]
