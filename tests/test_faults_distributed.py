"""Fault-injection through the real socket path (ISSUE 4 acceptance).

Server-rank crash / zombie / straggler ``FaultPlan``s drive the live
launcher protocol: the supervisor SIGKILLs what is left of a dead rank,
respawns ``repro serve --rank K`` from its checkpoint, the coordinator
requeues whatever the restored statistics are missing, and workers
reconnect to the fresh address their next lease names.  The chaos
parity tests assert the surviving study matches the sequential runtime
to rtol 1e-10.
"""

import re
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from net_util import held_at_worker_loss, retry_on_eaddrinuse, seeded_rng
from repro import SensitivityStudy
from repro.cli import build_parser
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.group import VectorFieldSimulation
from repro.core.launcher import (
    LauncherEvent,
    RankRespawnPolicy,
    RespawnBudgetExceeded,
)
from repro.faults import (
    FaultInjector, FaultPlan, GroupCrash, ProcessFault, parse_fault,
)
from repro.faults import plan as fault_plan_module
from repro.net.coordinator import StudyAborted
from repro.net.supervisor import RankSupervisor
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sobol import IshigamiFunction

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 32


def make_config(ngroups=24, ncells=NCELLS, server_ranks=2, ntimesteps=2, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    kw.setdefault("heartbeat_interval", 0.1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, seed=17, **kw,
    )
    return fn, config


class VectorSim(VectorFieldSimulation):
    delay = 0.0

    def __init__(self, fn, params, ntimesteps=1, simulation_id=0):
        super().__init__(fn, params, NCELLS, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)

    def advance(self):
        if self.delay:
            time.sleep(self.delay)
        return super().advance()


class SlowVectorSim(VectorSim):
    """Slow enough that a mid-study rank kill interrupts in-flight groups."""

    delay = 0.01


def vector_factory(fn, ntimesteps=2, cls=VectorSim):
    def factory(params, sim_id):
        return cls(fn, params, ntimesteps=ntimesteps, simulation_id=sim_id)
    return factory


def run_distributed(config, fn, cls=VectorSim, timeout=120.0, **kw):
    """Loopback distributed run with EADDRINUSE-safe construction."""
    runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
        config, vector_factory(fn, ntimesteps=config.ntimesteps, cls=cls), **kw
    ))
    return runtime, runtime.run(timeout=timeout)


def sequential_reference(ngroups, server_ranks=2, ntimesteps=2, **kw):
    fn, config = make_config(ngroups, server_ranks=server_ranks,
                             ntimesteps=ntimesteps, **kw)
    return SequentialRuntime(
        config, vector_factory(fn, ntimesteps=ntimesteps)
    ).run()


def assert_parity(distributed, sequential):
    np.testing.assert_allclose(
        distributed.first_order, sequential.first_order, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        distributed.total_order, sequential.total_order, rtol=1e-10, atol=1e-12
    )
    np.testing.assert_allclose(
        distributed.variance, sequential.variance, rtol=1e-10
    )
    np.testing.assert_allclose(distributed.mean, sequential.mean, rtol=1e-10)


class TestServerRankCrash:
    def test_sigkill_rank_mid_study_matches_sequential(self, tmp_path):
        """ISSUE 4 acceptance: a server rank SIGKILLed mid-study is
        respawned from its checkpoint, workers reconnect, and the study
        still matches the sequential runtime to rtol 1e-10."""
        fn, config = make_config(24, server_ranks=2, checkpoint_interval=0.05)
        plan = FaultPlan(rank_faults={1: ProcessFault("crash", after_messages=8)})
        runtime, results = run_distributed(
            config, fn, cls=SlowVectorSim, nworkers=2,
            checkpoint_dir=tmp_path, fault_plan=plan,
        )
        assert runtime.coordinator.rank_respawns == [1]
        assert runtime.supervisor.total_respawns == 1
        assert results.groups_integrated == 24
        assert results.abandoned_groups == []
        assert_parity(results, sequential_reference(24))

    def test_crash_without_checkpoints_requeues_everything(self):
        """No checkpoint directory: the respawned rank restores nothing,
        so the coordinator requeues every settled group and the re-run
        rebuilds the rank's partition exactly."""
        fn, config = make_config(16, server_ranks=2)
        plan = FaultPlan(rank_faults={0: ProcessFault("crash", after_messages=6)})
        runtime, results = run_distributed(
            config, fn, cls=SlowVectorSim, nworkers=2, fault_plan=plan,
        )
        assert runtime.coordinator.rank_respawns == [0]
        # at least the groups done at crash time had to be re-run
        assert runtime.coordinator.requeued_after_respawn
        assert results.groups_integrated == 16
        assert_parity(results, sequential_reference(16))

    def test_combined_worker_kill_and_rank_crash(self, tmp_path):
        """Both Sec. 4.2 fault paths in one study: a SIGKILLed group
        worker (coordinator resubmission) AND a SIGKILLed server rank
        (supervisor respawn) — the interleaving must still be exact."""
        fn, config = make_config(16, server_ranks=2, checkpoint_interval=0.05)
        plan = FaultPlan(
            rank_faults={0: ProcessFault("crash", after_messages=6)},
            worker_faults={0: ProcessFault("crash", after_messages=1)},
        )
        runtime, results = run_distributed(
            config, fn, cls=SlowVectorSim, nworkers=3,
            checkpoint_dir=tmp_path, fault_plan=plan,
        )
        assert runtime.coordinator.rank_respawns == [0]
        assert results.groups_integrated == 16
        assert results.abandoned_groups == []
        assert_parity(results, sequential_reference(16))

    def test_respawn_budget_zero_aborts_loudly(self, tmp_path):
        fn, config = make_config(12, server_ranks=2, max_rank_respawns=0)
        plan = FaultPlan(rank_faults={1: ProcessFault("crash", after_messages=4)})
        with pytest.raises(StudyAborted, match="respawn budget"):
            run_distributed(config, fn, cls=SlowVectorSim, nworkers=2,
                            checkpoint_dir=tmp_path, fault_plan=plan,
                            timeout=60.0)

    def test_unsupervised_rank_death_aborts(self):
        """supervise=False restores the pre-supervision contract: a dead
        rank fails the study with a descriptive error."""
        fn, config = make_config(12, server_ranks=2)
        plan = FaultPlan(rank_faults={0: ProcessFault("crash", after_messages=4)})
        with pytest.raises(StudyAborted, match="disconnected before reporting"):
            run_distributed(config, fn, cls=SlowVectorSim, nworkers=2,
                            fault_plan=plan, supervise=False, timeout=60.0)


class TestServerRankZombie:
    def test_zombie_rank_detected_killed_and_respawned(self, tmp_path):
        """A hung rank (alive, silent) is only observable through
        heartbeat staleness; the supervisor must SIGKILL the stuck pid
        before the replacement can take over."""
        fn, config = make_config(16, server_ranks=2, checkpoint_interval=0.05)
        plan = FaultPlan(rank_faults={0: ProcessFault("zombie", after_messages=4)})
        runtime, results = run_distributed(
            config, fn, nworkers=2, checkpoint_dir=tmp_path,
            fault_plan=plan, rank_timeout=3.0, timeout=120.0,
        )
        assert runtime.coordinator.rank_respawns == [0]
        assert runtime.supervisor.killed_pids, "zombie pid was never killed"
        assert results.groups_integrated == 16
        assert_parity(results, sequential_reference(16))


class TestServerRankStraggler:
    def test_straggler_rank_slows_but_never_respawns(self):
        """A slow rank still heartbeats: the supervisor must NOT fire
        (killing a straggler would be the paper's false-positive case)."""
        fn, config = make_config(12, server_ranks=2)
        plan = FaultPlan(
            rank_faults={1: ProcessFault("straggler", delay=0.01)}
        )
        # generous staleness margin: on a loaded 1-vCPU runner a LIVE
        # rank can be starved off-CPU for a while; the assertion is that
        # a straggler never respawns, so the margin must absorb that
        runtime, results = run_distributed(
            config, fn, nworkers=2, fault_plan=plan, rank_timeout=4.0,
        )
        assert runtime.coordinator.rank_respawns == []
        assert runtime.supervisor.total_respawns == 0
        assert results.groups_integrated == 12
        assert_parity(results, sequential_reference(12))


class TestFacadeAndValidation:
    def test_study_facade_accepts_server_fault_plan(self, tmp_path):
        fn, config = make_config(10, server_ranks=2, checkpoint_interval=0.05)
        study = SensitivityStudy(config, vector_factory(fn, cls=SlowVectorSim))
        plan = FaultPlan(rank_faults={1: ProcessFault("crash", after_messages=3)})
        results = study.run(
            runtime="distributed", fault_plan=plan, nworkers=2,
            checkpoint_dir=tmp_path, timeout=120.0,
        )
        assert results.groups_integrated == 10
        assert study.driver.coordinator.rank_respawns == [1]
        np.testing.assert_allclose(
            results.first_order, sequential_reference(10).first_order,
            rtol=1e-10, atol=1e-12,
        )

    def test_distributed_runtime_rejects_group_faults(self):
        fn, config = make_config(6)
        plan = FaultPlan(group_crashes=[GroupCrash(0, at_timestep=0)])
        with pytest.raises(ValueError, match="socket processes"):
            DistributedRuntime(config, vector_factory(fn), fault_plan=plan)

    def test_sequential_rejects_server_rank_faults(self):
        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=4)
        plan = FaultPlan(rank_faults={0: ProcessFault("crash")})
        with pytest.raises(ValueError, match="distributed"):
            study.run(runtime="sequential", fault_plan=plan)

    def test_sequential_facade_rejects_worker_faults(self):
        fn, config = make_config(4)
        study = SensitivityStudy(config, vector_factory(fn))
        plan = FaultPlan(worker_faults={0: ProcessFault("crash", after_messages=1)})
        with pytest.raises(ValueError, match="distributed"):
            study.run(fault_plan=plan)

    @pytest.mark.parametrize("plan", [
        FaultPlan(rank_faults={0: ProcessFault("crash")}),
        FaultPlan(worker_faults={0: ProcessFault("crash")}),
    ], ids=["rank", "worker"])
    def test_sequential_runtime_refuses_process_faults(self, plan):
        """The runtime that has no serve or work process refuses a
        process fault itself, not only through the facade."""
        fn, config = make_config(4)
        with pytest.raises(ValueError, match="distributed runtime"):
            SequentialRuntime(config, vector_factory(fn), fault_plan=plan)

    def test_each_forked_process_gets_its_own_fault(self):
        """Rank K runs with ``rank_faults[K]``, forked worker i with
        ``worker_faults[i]``, everyone else clean."""
        fn, config = make_config(6)
        forked = {}

        class RecordingProcess:
            pid = None

            def __init__(self, target, args, kwargs, name, daemon):
                forked[name] = kwargs.get("fault")

            def start(self):
                pass

            def is_alive(self):
                return False

        zombie = ProcessFault("zombie", after_messages=2)
        straggler = ProcessFault("straggler", delay=0.5)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, vector_factory(fn), nworkers=3,
            fault_plan=FaultPlan(rank_faults={1: zombie}, worker_faults={2: straggler}),
        ))
        runtime._ctx = SimpleNamespace(Process=RecordingProcess)
        try:
            runtime.start()
        finally:
            runtime._shutdown()
        assert forked == {
            "repro-serve-0": None, "repro-serve-1": zombie,
            "repro-work-0": None, "repro-work-1": None, "repro-work-2": straggler,
        }


class TestFaultSpecParsing:
    """One grammar for ``repro serve --fault`` and ``repro work --fault``."""

    def test_crash_spec(self):
        assert parse_fault("crash:after=40") == ProcessFault("crash", after_messages=40)

    def test_zombie_default_after(self):
        assert parse_fault("zombie") == ProcessFault("zombie", after_messages=0)

    def test_straggler_spec(self):
        assert parse_fault("straggler:delay=0.25") == ProcessFault(
            "straggler", delay=0.25
        )

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault("explode")
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault("flakey")
        with pytest.raises(ValueError, match="missing 'delay'"):
            parse_fault("straggler")
        with pytest.raises(ValueError, match="unknown fault parameter"):
            parse_fault("crash:when=5")
        with pytest.raises(ValueError, match="unknown fault parameter"):
            parse_fault("crash:delay=1")
        with pytest.raises(ValueError, match="malformed"):
            parse_fault("crash:after")

    @pytest.mark.parametrize("spec", [
        "straggler:delay=nan", "straggler:delay=inf",
        "crash:after=x", "straggler:delay=x",
    ])
    def test_bad_values_are_refused_naming_the_spec(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_fault(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProcessFault("straggler", delay=0.0)
        with pytest.raises(ValueError, match="delay"):
            ProcessFault("straggler", delay=float("nan"))
        with pytest.raises(ValueError):
            ProcessFault("crash", after_messages=-1)
        with pytest.raises(ValueError, match="unknown fault kind"):
            ProcessFault("explode")


class TestRespawnHygiene:
    def test_rank_dead_before_first_registration_is_respawned(self):
        """A serve process that dies before it ever registers has no
        connection to drop — only the seeded heartbeat baseline can
        expose it, and the loop must wake for it and respawn it directly."""
        from repro.net.coordinator import Coordinator

        fn, config = make_config(4, server_ranks=1)
        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=1, timeout=0.4, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor).start()
        )
        try:
            # nothing ever registers; the stub replacement doesn't either,
            # so the supervisor respawns once (the budget), catches the
            # replacement going silent too, and aborts on the second
            # verdict instead of stalling until the study timeout
            with pytest.raises(StudyAborted, match="could not be respawned"):
                coordinator.wait(timeout=10.0)
            assert spawned == [0]
        finally:
            coordinator.close()


class _StubConn:
    def close(self):
        pass


class TestLingeringRankDeath:
    def test_lingering_rank_death_is_recovered(self):
        """A rank that already shipped its state but dies while another
        rank's requeued groups are still in flight must be replaced: its
        collected state is dropped (the replacement re-reports an
        identical one from the final checkpoint) and its stale address
        removed so re-runs don't dial a corpse."""
        from repro.net.coordinator import Coordinator

        fn, config = make_config(4, server_ranks=2)
        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=2, timeout=5.0, max_respawns=2),
            kill=lambda pid, sig: None,
        )
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor).start()
        )
        try:
            conn = _StubConn()  # identity is all the loss path needs
            coordinator._rank_conns[0] = conn
            coordinator._rank_addresses[0] = ("127.0.0.1", 1)
            coordinator.rank_states[0] = {"stub": True}
            coordinator.rank_maps[0] = {}
            coordinator.rank_widths[0] = 0.0
            coordinator._on_rank_lost(0, conn)
            assert spawned == [0]
            assert 0 not in coordinator.rank_states
            assert 0 not in coordinator._rank_addresses
        finally:
            coordinator.close()

    def test_lingering_death_after_study_complete_is_ignored(self):
        """Once every rank state is in, the study is over — a lingering
        corpse must not be respawned or its state dropped (wait() is
        about to assemble results from it)."""
        from repro.net.coordinator import Coordinator

        fn, config = make_config(4, server_ranks=1)
        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=1, timeout=5.0, max_respawns=2),
            kill=lambda pid, sig: None,
        )
        coordinator = retry_on_eaddrinuse(
            lambda: Coordinator(config, supervisor=supervisor).start()
        )
        try:
            conn = _StubConn()
            coordinator._rank_conns[0] = conn
            coordinator.rank_states[0] = {"stub": True}
            coordinator._on_rank_lost(0, conn)
            assert spawned == []
            assert coordinator.rank_states == {0: {"stub": True}}
        finally:
            coordinator.close()


class TestSupervisorUnit:
    def test_kills_tracked_pid_then_spawns(self):
        killed, spawned = [], []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=2, timeout=5.0, max_respawns=2),
            kill=lambda pid, sig: killed.append((pid, sig)),
        )
        supervisor.watch(1, 4242)
        supervisor.respawn(1, 10.0)
        assert killed == [(4242, 9)]
        assert spawned == [1]
        assert supervisor.total_respawns == 1
        assert supervisor.policy.events[0][1] is LauncherEvent.RANK_RESPAWNED

    def test_budget_exhaustion_raises_before_spawning(self):
        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=1, timeout=5.0, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        supervisor.respawn(0, 10.0)
        with pytest.raises(RespawnBudgetExceeded):
            supervisor.respawn(0, 11.0)
        assert spawned == [0]

    def test_vanished_pid_is_not_fatal(self):
        def kill(pid, sig):
            raise ProcessLookupError

        spawned = []
        supervisor = RankSupervisor(
            spawner=spawned.append,
            policy=RankRespawnPolicy(nranks=1, timeout=5.0, max_respawns=3),
            kill=kill,
        )
        supervisor.watch(0, 777)
        supervisor.respawn(0, 10.0)
        assert spawned == [0]
        assert supervisor.killed_pids == []

    def test_respawn_reads_the_turns_clock(self):
        """The respawn record and the re-armed heartbeat both carry the
        ``now`` of the coordinator turn that decided it."""
        supervisor = RankSupervisor(
            spawner=lambda rank: None,
            policy=RankRespawnPolicy(nranks=1, timeout=5.0, max_respawns=1),
            kill=lambda pid, sig: None,
        )
        supervisor.respawn(0, 42.5)
        assert supervisor.policy.events == [
            (42.5, LauncherEvent.RANK_RESPAWNED, 0)
        ]
        assert supervisor.policy.last_heartbeat == {0: 42.5}


class TestRespawnPolicyUnit:
    def test_staleness_detection(self):
        policy = RankRespawnPolicy(nranks=2, timeout=1.0, max_respawns=3)
        policy.record_heartbeat(0, now=10.0)
        policy.record_heartbeat(1, now=11.5)
        assert policy.stale_ranks(now=11.2) == [0]
        assert policy.stale_ranks(now=13.0) == [0, 1]
        policy.forget(0)
        assert policy.stale_ranks(now=13.0) == [1]

    def test_budget_accounting(self):
        policy = RankRespawnPolicy(nranks=1, timeout=1.0, max_respawns=2)
        assert policy.may_respawn(0)
        policy.record_respawn(0, now=0.0)
        policy.record_respawn(0, now=1.0)
        assert not policy.may_respawn(0)
        with pytest.raises(RespawnBudgetExceeded, match="budget"):
            policy.record_respawn(0, now=2.0)
        assert policy.total_respawns == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RankRespawnPolicy(nranks=0, timeout=1.0)
        with pytest.raises(ValueError):
            RankRespawnPolicy(nranks=1, timeout=0.0)
        with pytest.raises(ValueError):
            RankRespawnPolicy(nranks=1, timeout=1.0, max_respawns=-1)


class TestCheckpointSurvival:
    def test_respawned_rank_restores_checkpointed_statistics(self, tmp_path):
        """After the crash-respawn cycle the on-disk checkpoints match
        the final reported statistics (save_rank ran on the replacement
        process too)."""
        fn, config = make_config(16, server_ranks=2, checkpoint_interval=0.05)
        plan = FaultPlan(rank_faults={1: ProcessFault("crash", after_messages=6)})
        runtime, results = run_distributed(
            config, fn, cls=SlowVectorSim, nworkers=2,
            checkpoint_dir=tmp_path, fault_plan=plan,
        )
        assert runtime.coordinator.rank_respawns == [1]
        _, config2 = make_config(16, server_ranks=2, checkpoint_interval=0.05)
        restored = CheckpointManager(tmp_path).restore(config2)
        np.testing.assert_allclose(
            restored.assemble_maps()["first"], results.first_order,
            rtol=1e-12, atol=1e-15,
        )


def test_seeded_rng_is_deterministic():
    a = seeded_rng("faults-distributed").normal(size=4)
    b = seeded_rng("faults-distributed").normal(size=4)
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# ISSUE 7: group-worker chaos (crash / zombie / straggler) + scheduling
# --------------------------------------------------------------------- #
class TestWorkerFaultSpecParsing:
    """The worker side of the one grammar: ``repro work --fault`` reads a
    :class:`ProcessFault`, the plan maps it to a forked worker's index,
    and the worker's :class:`FaultInjector` fires it per delivered
    message."""

    @staticmethod
    def work_fault(spec):
        return build_parser().parse_args(
            ["work", "--coordinator", "h:1", "--fault", spec]
        ).fault

    class Fired(Exception):
        """Raised where the real fault would SIGKILL or hang the process."""

    @classmethod
    def injector(cls, fault, monkeypatch):
        """An injector whose SIGKILL and sleeps are recorded, not done."""
        calls = []

        def kill(pid, sig):
            calls.append(("kill", pid, sig))
            raise cls.Fired

        def sleep(seconds):
            calls.append(("sleep", seconds))
            if seconds >= 3600:  # the zombie's hang
                raise cls.Fired

        monkeypatch.setattr(fault_plan_module, "os", SimpleNamespace(
            getpid=lambda: 4242, kill=kill,
        ))
        monkeypatch.setattr(fault_plan_module, "time", SimpleNamespace(sleep=sleep))
        return FaultInjector(fault), calls

    def test_crash_spec(self, monkeypatch):
        fault = self.work_fault("crash:after=5")
        assert fault == ProcessFault("crash", after_messages=5)
        plan = FaultPlan(worker_faults={1: fault})
        assert plan.worker_faults.get(0) is None and plan.socket_only
        injector, calls = self.injector(fault, monkeypatch)
        injector.check()
        for _ in range(4):
            injector.on_message()
        assert calls == []
        with pytest.raises(self.Fired):
            injector.on_message()
        assert calls == [("kill", 4242, signal.SIGKILL)]

    def test_zombie_default_after(self, monkeypatch):
        fault = self.work_fault("zombie")
        assert fault == ProcessFault("zombie", after_messages=0)
        injector, calls = self.injector(fault, monkeypatch)
        # after=0: the worker hangs before its first delivered message
        with pytest.raises(self.Fired):
            injector.check()
        assert calls == [("sleep", 3600)]

    def test_straggler_spec(self, monkeypatch):
        fault = self.work_fault("straggler:delay=0.25")
        assert fault == ProcessFault("straggler", delay=0.25)
        injector, calls = self.injector(fault, monkeypatch)
        for _ in range(3):
            injector.on_message()
            injector.check()
        # slowed on every message, never killed or hung
        assert calls == [("sleep", 0.25)] * 3

    def test_malformed_specs_rejected(self, capsys):
        for spec, message in [
            ("crash:after", "malformed"),
            ("straggler", "missing 'delay'"),
            ("flakey", "unknown fault kind"),
            ("crash:delay=1", "unknown fault parameter"),
        ]:
            with pytest.raises(SystemExit) as exc:
                self.work_fault(spec)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_spec_validation(self, capsys):
        with pytest.raises(ValueError):
            ProcessFault("straggler", delay=0.0)
        with pytest.raises(ValueError):
            ProcessFault("crash", after_messages=-1)
        for spec in ("straggler:delay=0", "crash:after=-1"):
            with pytest.raises(SystemExit) as exc:
                self.work_fault(spec)
            assert exc.value.code == 2
            assert spec in capsys.readouterr().err


class TestWorkerCrash:
    def test_sigkilled_worker_group_resubmitted_exactly(self):
        """A worker SIGKILLed mid-delivery drops its control connection;
        the coordinator resubmits the in-flight group to a survivor and
        replay protection keeps statistics exact."""
        fn, config = make_config(12)
        plan = FaultPlan(worker_faults={0: ProcessFault("crash", after_messages=3)})
        runtime, results = run_distributed(
            config, fn, cls=SlowVectorSim, nworkers=3, fault_plan=plan,
        )
        assert runtime.coordinator.resubmitted  # the kill really hit
        assert runtime.coordinator.abandoned == []
        assert results.groups_integrated == 12
        assert_parity(results, sequential_reference(12))

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_sigkilled_worker_holding_several_groups_resubmits_each_once(
        self, transport, monkeypatch
    ):
        """A worker holds its whole lease — the groups it sent but has
        not reported yet, the one it runs, the ones it has not started —
        so when it is SIGKILLed mid-lease the coordinator knows exactly
        what it loses: each of those groups is resubmitted exactly once
        and the maps still equal the sequential run.  One delivered
        message of a 1-timestep study falls inside the worker's first
        group, so it dies holding all of its first lease.  Either worker
        may ask first: with 24 groups and 2 workers the first lease is at
        least 24 // 4 = 6 groups and the second at least 16 // 4 = 4."""
        lost = held_at_worker_loss(monkeypatch)
        fn, config = make_config(24, ntimesteps=1, transport=transport)
        plan = FaultPlan(worker_faults={0: ProcessFault("crash", after_messages=1)})
        runtime, results = run_distributed(
            config, fn, nworkers=2, fault_plan=plan,
        )
        # only the killed worker held groups, all of its lease
        assert len(lost) == 1 and len(lost[0]) >= 3, lost
        assert runtime.coordinator.resubmitted == lost[0]
        assert runtime.coordinator.abandoned == []
        assert runtime.coordinator.rank_respawns == []
        assert results.groups_integrated == 24
        assert_parity(results, sequential_reference(24, ntimesteps=1))


class TestWorkerZombie:
    def test_zombie_worker_reaped_and_group_rerun(self):
        """A worker that goes silent (no heartbeats, no frames) is reaped
        on worker-staleness and its group re-run elsewhere."""
        fn, config = make_config(8, group_timeout=2.0)
        plan = FaultPlan(worker_faults={1: ProcessFault("zombie", after_messages=1)})
        runtime, results = run_distributed(
            config, fn, cls=VectorSim, nworkers=2, fault_plan=plan, timeout=60.0,
        )
        assert runtime.coordinator.resubmitted
        assert results.groups_integrated == 8
        assert_parity(results, sequential_reference(8))


class TestStragglerSpeculation:
    def test_speculation_rescues_straggler_within_2x_clean_wall(self):
        """ISSUE 7 acceptance: 2 ranks x 3 workers with one straggler
        worker finishes within 2x the fault-free wall when speculation is
        on, speculative copies demonstrably fire, the duplicate is
        discarded, and statistics stay exact (rtol 1e-10)."""
        fn, config = make_config(12)
        t0 = time.monotonic()
        _, clean = run_distributed(config, fn, nworkers=3)
        clean_wall = time.monotonic() - t0

        fn, config = make_config(
            12, scheduling="speculate:multiple=2,min_done=2"
        )
        plan = FaultPlan(worker_faults={0: ProcessFault("straggler", delay=0.5)})
        t0 = time.monotonic()
        runtime, straggled = run_distributed(
            config, fn, nworkers=3, fault_plan=plan, timeout=60.0,
        )
        straggled_wall = time.monotonic() - t0

        assert runtime.coordinator.speculated, "speculation never fired"
        assert runtime.coordinator.duplicates_discarded >= 1
        assert straggled.groups_integrated == 12
        # +1s absorbs process startup noise on loaded CI machines
        assert straggled_wall < 2.0 * clean_wall + 1.0, (
            f"straggled {straggled_wall:.2f}s vs clean {clean_wall:.2f}s"
        )
        reference = sequential_reference(12)
        assert_parity(clean, reference)
        assert_parity(straggled, reference)

    def test_run_returns_without_waiting_out_the_losing_copy(self):
        """The straggler sits inside a 5 s step of a copy that lost to a
        speculative one.  The results are final once the ranks report,
        so ``run`` returns well inside that step instead of waiting the
        losing copy out."""
        fn, config = make_config(
            12, scheduling="speculate:multiple=2,min_done=2"
        )
        plan = FaultPlan(worker_faults={0: ProcessFault("straggler", delay=5.0)})
        runtime, results = run_distributed(
            config, fn, nworkers=3, fault_plan=plan, timeout=60.0,
        )
        returned = time.time()
        (finalized,) = [
            t for t, kind, _ in runtime.coordinator.events if kind == "finalize"
        ]
        assert runtime.coordinator.speculated, "speculation never fired"
        assert returned - finalized < 2.0
        assert results.groups_integrated == 12
        assert_parity(results, sequential_reference(12))


class MediumVectorSim(VectorSim):
    """Slow enough that a single worker backs the queue up past the
    elastic high watermark, fast enough to keep the test short."""

    delay = 0.04


class TestElasticPool:
    def test_pool_spawns_under_load_and_retires_on_drain(self):
        """ISSUE 7 acceptance: the elastic pool demonstrably spawns AND
        retires extra workers within one study."""
        fn, config = make_config(
            16, scheduling="elastic:high=3,low=2,max=2,budget=2,cooldown=0.05"
        )
        runtime, results = run_distributed(
            config, fn, cls=MediumVectorSim, nworkers=1, timeout=120.0,
        )
        assert runtime.pool.spawned_total >= 1
        assert runtime.pool.retired_total >= 1
        assert runtime.coordinator.retired_workers
        assert results.groups_integrated == 16
        assert_parity(results, sequential_reference(16))
