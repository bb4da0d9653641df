"""The default statistic on a rank is read, not streamed.

``moments`` at order <= 2 on a server rank is the Chan combination of the
Sobol' engine's own A-row and B-row moments, so a default-catalog study
makes no ``IterativeMoments.update`` call on any rank: sequential, and
distributed over tcp and shm (the counter is shared memory, so the
forked ranks count into it).  Its mean / variance maps equal two-pass
NumPy over the pooled A and B rows at rtol 1e-10 through a checkpoint
hop, a virtual-time server crash and a worker SIGKILL.  Order 4 still
streams, and a format-3 checkpoint (whose moments rows held arrays) is
refused by name.
"""

import multiprocessing as mp
import pickle
import time
import zlib

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.group import VectorFieldSimulation
from repro.core.server import MelissaServer
from repro.faults import FaultPlan, ProcessFault, ServerCrash
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sampling import draw_design
from repro.sobol import IshigamiFunction
from repro.stats import IterativeMoments
from repro.transport.message import GroupFieldMessage

NCELLS = 32
RTOL, ATOL = 1e-10, 1e-12


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    np.random.seed(zlib.crc32(request.node.nodeid.encode()) % 2**32)


@pytest.fixture
def update_calls(monkeypatch):
    """``IterativeMoments.update`` calls made here or in any process
    forked after the patch."""
    calls = mp.get_context("fork").Value("q", 0)
    original = IterativeMoments.update

    def counted(self, sample):
        with calls.get_lock():  # ranks run concurrently
            calls.value += 1
        original(self, sample)

    monkeypatch.setattr(IterativeMoments, "update", counted)
    return calls


def make_config(ngroups, statistics=None, **kw):
    fn = IshigamiFunction()
    kw.setdefault("ntimesteps", 2)
    kw.setdefault("server_ranks", 2)
    kw.setdefault("client_ranks", 1)
    return fn, StudyConfig(
        space=fn.space(), ngroups=ngroups, ncells=NCELLS, seed=17,
        statistics=statistics, **kw,
    )


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
    """Slow enough that the injected worker SIGKILL lands mid-study."""

    delay = 0.01


def factory(fn, ntimesteps, cls=VectorSim):
    def make(params, sim_id):
        return cls(fn, params, ntimesteps=ntimesteps, simulation_id=sim_id)
    return make


def pooled_ab(fn, config):
    """``(T, 2N, ncells)``: every A and B member's field, as VectorSim
    computes it."""
    design = draw_design(config.space, config.ngroups, seed=config.seed,
                         method=config.sampling_method)
    y = np.concatenate([fn(design.a), fn(design.b)])
    ramp = np.linspace(0.0, 1.0, NCELLS)
    return np.stack([
        y[:, None] * (1.0 + ramp) + 0.05 * t * ramp
        for t in range(config.ntimesteps)
    ])


def assert_two_pass(results, fn, config):
    rows = pooled_ab(fn, config)
    stats = results.statistics
    np.testing.assert_allclose(stats["mean"], rows.mean(axis=1),
                               rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(stats["variance"], rows.var(axis=1, ddof=1),
                               rtol=RTOL, atol=ATOL)


class TestNothingStreamsOnTheRank:
    def test_sequential(self, update_calls):
        fn, config = make_config(20)
        assert config.statistics == ("moments:order=2",)
        results = SequentialRuntime(config, factory(fn, 2)).run()
        assert update_calls.value == 0
        assert_two_pass(results, fn, config)

    @pytest.mark.parametrize("transport", ["tcp", "shm"])
    def test_distributed(self, update_calls, transport):
        fn, config = make_config(16)
        results = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, factory(fn, 2), nworkers=2, transport=transport,
        )).run(timeout=120.0)
        assert results.groups_integrated == 16
        assert update_calls.value == 0
        assert_two_pass(results, fn, config)

    def test_the_counter_sees_forked_ranks(self, update_calls):
        """Order 4 streams: 2 rows x groups x timesteps per rank, counted
        across the fork, so the zeros above are not a blind counter."""
        fn, config = make_config(8, statistics=["moments:order=4"])
        results = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, factory(fn, 2), nworkers=1, transport="tcp",
        )).run(timeout=120.0)
        assert update_calls.value == 2 * 8 * 2 * config.server_ranks
        assert_two_pass(results, fn, config)


class TestExactThroughFaults:
    def test_checkpoint_hop(self):
        """Half the groups, a checkpoint_state hop into a fresh rank, the
        other half: the moments rows saved no arrays, and the accessors
        read the pooled moments of every group."""
        _, config = make_config(30, server_ranks=1, ntimesteps=3)
        rng = np.random.default_rng(4)
        data = rng.normal(loc=3.0, size=(30, 3, config.group_size, NCELLS))
        rank = MelissaServer(config).ranks[0]
        for g in range(13):
            for t in range(3):
                rank.handle(GroupFieldMessage(g, t, 0, NCELLS, data[g, t].copy()), 1.0)
        state = pickle.loads(pickle.dumps(rank.checkpoint_state()))
        assert state["stats"]["states"] == [[{"order": 2}] * 3]
        rank = MelissaServer(config).ranks[0]
        rank.restore_state(state)
        for g in range(13, 30):
            for t in range(3):
                rank.handle(GroupFieldMessage(g, t, 0, NCELLS, data[g, t].copy()), 2.0)
        for t in range(3):
            moments = rank.stats.instances_at(t)[0]
            pooled = data[:, t, :2].reshape(-1, NCELLS)
            assert moments.count == 60
            np.testing.assert_allclose(moments.mean, pooled.mean(axis=0),
                                       rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(moments.variance, pooled.var(axis=0, ddof=1),
                                       rtol=RTOL, atol=ATOL)

    def test_server_crash_with_restore(self, update_calls, tmp_path):
        fn, config = make_config(
            25, ntimesteps=10, checkpoint_interval=3.0, server_timeout=8.0,
            total_nodes=24, group_timeout=30.0, zombie_timeout=30.0,
        )
        runtime = SequentialRuntime(
            config, factory(fn, 10), checkpoint_dir=tmp_path,
            fault_plan=FaultPlan(server_crashes=[ServerCrash(at_time=6.0)]),
        )
        results = runtime.run(max_time=50_000)
        assert runtime.launcher.server_restarts == 1
        assert results.groups_integrated == 25
        assert update_calls.value == 0
        assert_two_pass(results, fn, config)

    def test_killed_worker(self, update_calls):
        fn, config = make_config(12)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, factory(fn, 2, cls=SlowVectorSim), nworkers=2,
            fault_plan=FaultPlan(
                worker_faults={0: ProcessFault("crash", after_messages=1)}
            ),
        ))
        results = runtime.run(timeout=120.0)
        assert runtime.coordinator.resubmitted, "no group was resubmitted"
        assert results.groups_integrated == 12
        assert update_calls.value == 0
        assert_two_pass(results, fn, config)


class TestStreamingAndFormats:
    def test_order4_unchanged(self, update_calls):
        """Order 4 still streams both rows per (group, timestep) and keeps
        its arrays in the checkpoint."""
        fn, config = make_config(20, statistics=["moments:order=4"])
        runtime = SequentialRuntime(config, factory(fn, 2))
        results = runtime.run()
        assert update_calls.value == 2 * 20 * 2 * config.server_ranks
        assert_two_pass(results, fn, config)
        assert {"skewness", "kurtosis"} <= set(results.statistic_names)
        saved = runtime.server.ranks[0].checkpoint_state()["stats"]["states"][0][0]
        assert saved["order"] == 4 and saved["count"] == 40
        assert saved["m4"].shape == (NCELLS // 2,)

    def test_format3_checkpoint_refused_by_name(self, tmp_path):
        """A format-3 file, whose moments rows carried their own arrays,
        fails on ``version`` before anything is read into the rank."""
        _, config = make_config(4, server_ranks=1)
        state = MelissaServer(config).ranks[0].checkpoint_state()
        state["stats"]["states"] = [[
            IterativeMoments((NCELLS,)).state_dict() for _ in range(2)
        ]]
        payload = {
            "fingerprint": {
                "version": 3, "ncells": NCELLS, "ntimesteps": 2,
                "nparams": config.nparams, "server_ranks": 1,
                "statistics": list(config.statistics),
            },
            "state": state,
        }
        manager = CheckpointManager(tmp_path)
        with open(manager.slot_paths(0)[0], "wb") as fh:
            pickle.dump(payload, fh)
        with pytest.raises(
            ValueError, match=r"incompatible study \(mismatched: version\)"
        ):
            manager.restore(config)
