"""Integration tests: the socket-transport distributed runtime.

Acceptance (ISSUE 3): a loopback study with >= 2 server ranks and >= 2
group worker processes matches the sequential runtime to rtol 1e-10,
survives a worker killed mid-study (the group is resubmitted), and the
whole-study timeout names the unfinished work.
"""

import dataclasses
import multiprocessing as mp
import os
import re
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro import SensitivityStudy
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.group import FunctionSimulation, VectorFieldSimulation
from repro.core.server import MelissaServer, ServerRank
from repro.faults import FaultPlan, ProcessFault
from repro.mesh.partition import BlockPartition
from repro.net.coordinator import Coordinator, StudyAborted, study_fingerprint
from repro.net.framing import connect_with_retry
from repro.net.serve import run_server_rank
from repro.net.worker import run_worker
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sobol import IshigamiFunction
from repro.transport import ChannelStats, total_stats

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 32


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    """Pin numpy's legacy global RNG per test: socket tests fork worker
    processes that inherit whatever the parent's global state happens to
    be, so an unseeded consumer anywhere would make reruns diverge."""
    np.random.seed(zlib.crc32(request.node.nodeid.encode()) % 2**32)


def start_coordinator(config, **kw):
    """Bind-and-start with the shared EADDRINUSE retry (port 0 binds
    cannot collide, but the helper keeps any future fixed-port test from
    reintroducing the flake class)."""
    return retry_on_eaddrinuse(lambda: Coordinator(config, **kw).start())


def make_config(ngroups=24, ncells=NCELLS, server_ranks=2, ntimesteps=2, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, seed=9, **kw,
    )
    return fn, config


class VectorSim(VectorFieldSimulation):
    """Library ramp member pinned to NCELLS, with an optional per-step
    delay for the fault-injection and timeout tests."""

    delay = 0.0

    def __init__(self, fn, params, ntimesteps=1, simulation_id=0):
        super().__init__(fn, params, NCELLS, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)

    def advance(self):
        if self.delay:
            time.sleep(self.delay)
        return super().advance()


class SlowVectorSim(VectorSim):
    delay = 0.01


class StuckSim(VectorSim):
    delay = 30.0


def vector_factory(fn, ntimesteps=2, cls=VectorSim):
    def factory(params, sim_id):
        return cls(fn, params, ntimesteps=ntimesteps, simulation_id=sim_id)
    return factory


class TestDistributedRuntime:
    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_loopback_parity_with_sequential(self, transport):
        """ISSUE 3 acceptance: >= 2 ranks x >= 2 workers over loopback
        reproduce the sequential statistics to rtol 1e-10 — on both the
        TCP framing path and the negotiated shared-memory ring."""
        fn, config = make_config(24, server_ranks=2)
        distributed = DistributedRuntime(
            config, vector_factory(fn), nworkers=2, transport=transport
        ).run(timeout=120.0)
        _, config2 = make_config(24, server_ranks=2)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        assert distributed.groups_integrated == 24
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

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_a_suspended_worker_reports_its_blocked_time(self, transport):
        """The ``fabric_*`` shape — one rank, one worker — with a channel
        budget of about one frame and a rank that takes 10 ms per frame:
        the worker suspends, and the ``bye`` frame's ``channel_stats``
        count the time it spent suspended, not only how often."""
        fn, config = make_config(
            12, server_ranks=1, channel_capacity_bytes=2048
        )
        runtime = DistributedRuntime(
            config, vector_factory(fn), nworkers=1, transport=transport,
            fault_plan=FaultPlan(
                rank_faults={0: ProcessFault("straggler", delay=0.01)}
            ),
        )
        assert runtime.run(timeout=120.0).groups_integrated == 12
        (stats,) = runtime.coordinator.worker_channel_stats.values()
        assert stats["send_blocks"] > 0
        assert stats["blocked_seconds"] > 0.0

    def test_both_routers_report_the_same_channel_stats(self):
        """The worker's ``bye`` and the in-memory router sum the same
        counters: every ChannelStats field, over the same messages (bytes
        differ: a frame counts its header)."""
        fn, config = make_config(4, server_ranks=2)
        runtime = DistributedRuntime(config, vector_factory(fn), nworkers=1)
        assert runtime.run(timeout=120.0).groups_integrated == 4
        (sent,) = runtime.coordinator.worker_channel_stats.values()
        sequential = SequentialRuntime(config, vector_factory(fn))
        sequential.run()
        in_memory = total_stats(sequential.router.inbound.values())
        assert set(sent) == set(in_memory) == {
            f.name for f in dataclasses.fields(ChannelStats)
        }
        assert sent["messages_sent"] == in_memory["messages_sent"]

    def test_multi_rank_backpressure_parity(self):
        """4 ranks, tiny channel budget: credit-window suspension engages
        and the statistics still match the sequential driver."""
        fn, config = make_config(
            16, server_ranks=4, client_ranks=2, channel_capacity_bytes=2048
        )
        runtime = DistributedRuntime(config, vector_factory(fn), nworkers=3)
        distributed = runtime.run(timeout=120.0)
        _, config2 = make_config(16, server_ranks=4, client_ranks=2)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        assert distributed.groups_integrated == 16
        np.testing.assert_allclose(
            distributed.first_order, sequential.first_order, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            distributed.total_order, sequential.total_order, rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_survives_killed_worker(self, transport):
        """ISSUE 3 acceptance: SIGKILL a worker holding a group mid-study;
        the coordinator resubmits it and results stay exact — including
        when the dead worker held shared-memory rings."""
        fn, config = make_config(12, server_ranks=2)
        runtime = DistributedRuntime(
            config, vector_factory(fn, cls=SlowVectorSim), nworkers=2,
            fault_plan=FaultPlan(
                worker_faults={0: ProcessFault("crash", after_messages=1)}
            ),
            transport=transport,
        )
        distributed = runtime.run(timeout=120.0)
        assert runtime.coordinator.resubmitted, "no group was resubmitted"
        assert distributed.groups_integrated == 12
        assert distributed.abandoned_groups == []
        _, config2 = make_config(12, server_ranks=2)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        np.testing.assert_allclose(
            distributed.first_order, sequential.first_order, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            distributed.total_order, sequential.total_order, rtol=1e-10, atol=1e-12
        )

    def test_timeout_names_unfinished_work(self):
        fn, config = make_config(6, server_ranks=2)
        runtime = DistributedRuntime(
            config, vector_factory(fn, cls=StuckSim), nworkers=2
        )
        with pytest.raises(TimeoutError, match=r"group\(s\) unfinished"):
            runtime.run(timeout=2.0)

    def test_invalid_workers(self):
        fn, config = make_config(4)
        with pytest.raises(ValueError):
            DistributedRuntime(config, vector_factory(fn), nworkers=-1)

    def test_single_worker(self):
        fn, config = make_config(5)
        results = DistributedRuntime(
            config, vector_factory(fn), nworkers=1
        ).run(timeout=60.0)
        assert results.groups_integrated == 5

    def test_worker_failure_surfaces(self):
        """A raising simulation factory aborts the study with the worker's
        name and traceback, not after the full timeout."""
        fn, config = make_config(4)

        def exploding_factory(params, sim_id):
            raise RuntimeError("boom in worker")

        runtime = DistributedRuntime(config, exploding_factory, nworkers=2)
        start = time.monotonic()
        with pytest.raises(StudyAborted, match=r"worker worker-[01] failed") as excinfo:
            runtime.run(timeout=60.0)
        assert time.monotonic() - start < 30.0, "did not fail fast"
        assert "Traceback" in str(excinfo.value)
        assert "RuntimeError: boom in worker" in str(excinfo.value)

    def test_per_rank_checkpoints_written(self, tmp_path):
        """Every rank process checkpoints its own file; restoring them
        rebuilds the same statistics."""
        fn, config = make_config(10, server_ranks=2)
        runtime = DistributedRuntime(
            config, vector_factory(fn), nworkers=2, checkpoint_dir=tmp_path
        )
        results = runtime.run(timeout=120.0)
        manager = CheckpointManager(tmp_path)
        assert manager.exists()
        _, config2 = make_config(10, server_ranks=2)
        restored = manager.restore(config2)
        np.testing.assert_allclose(
            restored.assemble_maps()["first"], results.first_order,
            rtol=1e-12, atol=1e-15,
        )


class TestCoordinatorOnly:
    """``nworkers=0``: the runtime forks nothing up front and the ranks
    and workers dial in — the ``repro launch`` path without
    ``--local-workers``."""

    def test_nothing_forked_and_timeout_names_silent_ranks(self):
        fn, config = make_config(4, server_ranks=2)
        runtime = DistributedRuntime(
            config, vector_factory(fn), nworkers=0, supervise=False
        )
        with pytest.raises(
            TimeoutError, match=re.escape("server rank(s) not reported: [0, 1]")
        ):
            runtime.run(timeout=1.0)
        assert runtime.server_procs == runtime.worker_procs == []

    def test_dialed_in_participants_with_forked_respawn(self, tmp_path):
        """Ranks and workers started outside the runtime; rank 0 crashes
        and its replacement is forked by the runtime from its checkpoint.
        The statistics still match the sequential runtime."""
        fn, config = make_config(16, server_ranks=2, checkpoint_interval=0.05)
        runtime = DistributedRuntime(
            config, vector_factory(fn, cls=SlowVectorSim), nworkers=0,
            supervise=True, checkpoint_dir=tmp_path,
        )
        address = runtime.start()
        ctx = mp.get_context("fork")
        crash = ProcessFault("crash", after_messages=6)
        outside = [
            ctx.Process(
                target=run_server_rank, args=(rank, config, address),
                kwargs={"checkpoint_dir": tmp_path,
                        "fault": crash if rank == 0 else None},
                daemon=True,
            )
            for rank in range(2)
        ] + [
            ctx.Process(
                target=run_worker,
                args=(config, vector_factory(fn, cls=SlowVectorSim), address),
                kwargs={"name": f"outside-{i}"},
                daemon=True,
            )
            for i in range(2)
        ]
        try:
            for proc in outside:
                proc.start()
            distributed = runtime.wait(60.0)
        finally:
            for proc in outside:
                if proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5.0)
        assert runtime.coordinator.rank_respawns == [0]
        assert [p.name for p in runtime.server_procs] == ["repro-serve-0"]
        assert runtime.worker_procs == []
        assert distributed.groups_integrated == 16
        _, config2 = make_config(16, server_ranks=2)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        np.testing.assert_allclose(
            distributed.first_order, sequential.first_order, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            distributed.total_order, sequential.total_order, rtol=1e-10, atol=1e-12
        )


class TestParallelReductions:
    """The rank processes compute their own index maps and convergence
    scalar; the parent must see values identical to recomputing from the
    restored server state (it only concatenates / max-reduces)."""

    def test_shipped_maps_match_restored_server(self):
        fn, config = make_config(36, server_ranks=3,
                                 channel_capacity_bytes=16384)
        runtime = DistributedRuntime(config, vector_factory(fn), nworkers=3)
        results = runtime.run(timeout=60.0)
        # recompute everything serially from the restored rank states
        recomputed = runtime.server.assemble_maps()
        np.testing.assert_array_equal(results.first_order, recomputed["first"])
        np.testing.assert_array_equal(results.total_order, recomputed["total"])
        np.testing.assert_array_equal(results.variance, recomputed["variance"])
        np.testing.assert_array_equal(results.mean, recomputed["mean"])

    def test_shipped_width_matches_parent_reduction(self):
        fn, config = make_config(30, server_ranks=2)
        runtime = DistributedRuntime(config, vector_factory(fn), nworkers=2)
        results = runtime.run(timeout=60.0)
        assert results.max_interval_width == pytest.approx(
            runtime.server.max_interval_width(), rel=1e-12
        )


class TestStudyFacade:
    def test_distributed_runtime_via_facade(self):
        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=10, seed=3)
        results = study.run(runtime="distributed", nworkers=2, timeout=120.0)
        assert results.groups_integrated == 10
        sequential = SensitivityStudy.for_function(fn, ngroups=10, seed=3).run()
        np.testing.assert_allclose(
            results.first_order, sequential.first_order, rtol=1e-10
        )

    def test_distributed_rejects_faults(self):
        from repro.faults import FaultPlan, GroupZombie

        fn = IshigamiFunction()
        study = SensitivityStudy.for_function(fn, ngroups=5)
        with pytest.raises(ValueError):
            study.run(runtime="distributed",
                      fault_plan=FaultPlan(group_zombies=[GroupZombie(0)]))


class TestCoordinatorProtocol:
    def test_fingerprint_mismatch_rejected(self):
        fn, config = make_config(4)
        coordinator = start_coordinator(config)
        try:
            _, other = make_config(4, ntimesteps=5)
            ctrl = connect_with_retry(coordinator.address)
            ctrl.send({
                "op": "hello", "worker": "impostor", "pid": None,
                "fingerprint": study_fingerprint(other),
            })
            # wait() runs the loop that reads the hello and replies
            with pytest.raises(StudyAborted, match="mismatched study"):
                coordinator.wait(timeout=5.0)
            reply = ctrl.recv(timeout=5.0)
            assert reply["op"] == "error"
            ctrl.close()
        finally:
            coordinator.close()

    def test_fingerprint_covers_the_study_shape(self):
        _, config = make_config(4)
        fp = study_fingerprint(config)
        assert fp["ncells"] == NCELLS
        assert fp["server_ranks"] == config.server_ranks
        assert fp["ngroups"] == 4


class TestPerRankCheckpointAPI:
    def test_save_restore_single_rank(self, tmp_path):
        """A rank checkpoints and restores independently — the reconnect
        path a distributed serve process uses."""
        from repro.transport.message import GroupFieldMessage

        fn, config = make_config(4, server_ranks=2)
        partition = BlockPartition(config.ncells, config.server_ranks)
        rank = ServerRank(1, config, partition)
        lo, hi = partition.range_of(1)
        data = np.ones((config.group_size, hi - lo)) + np.arange(
            config.group_size
        )[:, None]
        rank.handle(
            GroupFieldMessage(group_id=0, timestep=0, cell_lo=lo, cell_hi=hi,
                              data=data),
            now=0.0,
        )
        manager = CheckpointManager(tmp_path)
        manager.save_rank(rank, config)
        assert any(path.exists() for path in manager.slot_paths(1))
        assert not any(path.exists() for path in manager.slot_paths(0))

        fresh = ServerRank(1, config, partition)
        assert manager.restore_rank(fresh, config)
        np.testing.assert_array_equal(
            fresh.sobol.mean_map(0), rank.sobol.mean_map(0)
        )
        assert fresh.last_integrated == rank.last_integrated

    def test_restore_rank_missing_returns_false(self, tmp_path):
        fn, config = make_config(4, server_ranks=2)
        partition = BlockPartition(config.ncells, config.server_ranks)
        rank = ServerRank(0, config, partition)
        assert not CheckpointManager(tmp_path).restore_rank(rank, config)

    def test_rank_fingerprint_mismatch_rejected(self, tmp_path):
        fn, config = make_config(4, server_ranks=2)
        partition = BlockPartition(config.ncells, config.server_ranks)
        rank = ServerRank(0, config, partition)
        manager = CheckpointManager(tmp_path)
        manager.save_rank(rank, config)
        _, other = make_config(4, server_ranks=2, ntimesteps=7)
        fresh = ServerRank(0, other, BlockPartition(other.ncells, 2))
        with pytest.raises(ValueError, match="incompatible study"):
            manager.restore_rank(fresh, other)


class TestCLI:
    def test_parser_accepts_distributed_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([
            "serve", "--study", "vector", "--rank", "1",
            "--coordinator", "127.0.0.1:7707", "--server-ranks", "2",
        ])
        assert args.rank == 1 and args.func.__name__ == "_cmd_serve"
        args = parser.parse_args([
            "work", "--study", "vector", "--coordinator", "127.0.0.1:7707",
        ])
        assert args.func.__name__ == "_cmd_work"
        with pytest.raises(SystemExit):  # elastic workers are forked, not flagged
            parser.parse_args([
                "work", "--study", "vector", "--coordinator", "127.0.0.1:7707",
                "--elastic",
            ])
        args = parser.parse_args([
            "launch", "--study", "vector", "--local-workers", "2",
        ])
        assert args.local_workers == 2

    def test_launch_local_workers_end_to_end(self, capsys):
        """The loopback CLI path: launch forks 2 ranks + 2 workers."""
        from repro.cli import main

        code = main([
            "launch", "--study", "vector", "--groups", "8", "--cells", "16",
            "--server-ranks", "2", "--local-workers", "2", "--timeout", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "groups integrated" in out or "8" in out

    def test_launch_local_workers_publishes_address_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--address-file`` works with ``--local-workers`` too: the file
        holds the bound address while the study runs."""
        from repro.cli import _parse_address, main
        from repro.runtime import distributed

        # a straggling worker keeps the study alive past the poll period
        straggler = ProcessFault("straggler", delay=0.05)
        monkeypatch.setattr(
            distributed, "run_worker",
            lambda *args, **kw: run_worker(*args, **dict(kw, fault=straggler)),
        )
        path = str(tmp_path / "rendezvous.addr")
        probed = []
        poller = threading.Thread(
            target=lambda: probed.append(_parse_address(f"@{path}", wait=30.0))
        )
        poller.start()
        code = main([
            "launch", "--study", "vector", "--groups", "8", "--cells", "16",
            "--server-ranks", "1", "--local-workers", "1",
            "--timeout", "60", "--address-file", path,
        ])
        poller.join(timeout=35.0)
        assert not poller.is_alive()
        assert code == 0
        out = capsys.readouterr().out
        host, port = probed[0]
        assert f"coordinator on {host}:{port} " in out
        assert open(path).read() == f"{host}:{port}\n"
        assert "Groups integrated: 8" in out

    def test_coordinator_only_launch_forks_elastic_workers(self, tmp_path, capsys):
        """The CI shape: serve and work run as separate programs against a
        launch with nothing forked up front; the launch's elastic pool
        still forks its extra workers from the launch process."""
        import repro
        from repro.cli import main

        path = str(tmp_path / "rendezvous.addr")
        # enough work that the queue stays deep through both spawns
        study = ["--study", "vector", "--groups", "120", "--cells", "16",
                 "--timesteps", "4", "--server-ranks", "1", "--seed", "11"]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cli = [sys.executable, "-m", "repro.cli"]
        outside = [
            subprocess.Popen(cli + ["serve", *study, "--rank", "0",
                                    "--coordinator", f"@{path}"], env=env),
            subprocess.Popen(cli + ["work", *study, "--coordinator", f"@{path}",
                                    "--fault", "straggler:delay=0.01"], env=env),
        ]
        try:
            code = main(["launch", *study, "--address-file", path,
                         "--elastic", "high=2,low=0,max=2,cooldown=0.05",
                         "--timeout", "60"])
            for proc in outside:
                proc.wait(timeout=30.0)
        finally:
            for proc in outside:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert code == 0
        out = capsys.readouterr().out
        assert "elastic workers spawned: 2" in out
        assert "Groups integrated: 120" in out
