"""Tests for StudyResults helpers and the disk-replay (postmortem) mode."""

import numpy as np
import pytest

from repro.classical import ClassicalStudy, replay_to_server
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.group import FunctionSimulation
from repro.core.results import StudyResults
from repro.core.server import MelissaServer
from repro.runtime import SequentialRuntime
from repro.sampling import ParameterSpace, Uniform
from repro.sobol import IshigamiFunction
from repro.transport.message import GroupFieldMessage


def make_config(ncells=6, ntimesteps=2, ngroups=8, **kw):
    space = ParameterSpace(
        names=("a", "b"), distributions=(Uniform(0, 1), Uniform(0, 1))
    )
    defaults = dict(server_ranks=2, client_ranks=1, seed=1)
    defaults.update(kw)
    return StudyConfig(
        space=space, ngroups=ngroups, ntimesteps=ntimesteps, ncells=ncells,
        **defaults,
    )


def fill_server(config, seed=0):
    server = MelissaServer(config)
    rng = np.random.default_rng(seed)
    for g in range(config.ngroups):
        for t in range(config.ntimesteps):
            data = rng.normal(size=(config.group_size, config.ncells))
            for rank in server.ranks:
                server.handle(
                    GroupFieldMessage(
                        g, t, rank.cell_lo, rank.cell_hi,
                        data[:, rank.cell_lo:rank.cell_hi],
                    ),
                    1.0,
                )
    return server


class TestStudyResults:
    def test_from_server_shapes(self):
        config = make_config()
        results = StudyResults.from_server(fill_server(config))
        assert results.first_order.shape == (2, 2, 6)
        assert results.total_order.shape == (2, 2, 6)
        assert results.variance.shape == (2, 6)
        assert results.groups_integrated == 8
        assert results.nparams == 2

    def test_interval_helpers(self):
        config = make_config(ngroups=30)
        results = StudyResults.from_server(fill_server(config))
        lo, hi = results.first_order_interval(0, 1)
        s = results.first_order_map(0, 1)
        finite = np.isfinite(s)
        # intervals are clipped to the index's valid range [0, 1], so they
        # contain the estimate projected into that range (a noise-driven
        # negative estimate is itself outside the valid range)
        s_valid = np.clip(s[finite], 0.0, 1.0)
        assert (lo[finite] <= s_valid).all()
        assert (s_valid <= hi[finite]).all()
        assert (lo[finite] >= 0.0).all() and (hi[finite] <= 1.0).all()
        lo_t, hi_t = results.total_order_interval(1, 0)
        assert lo_t.shape == (6,)

    def test_interaction_residual_map(self):
        config = make_config(ngroups=20)
        results = StudyResults.from_server(fill_server(config))
        resid = results.interaction_residual_map(0)
        assert resid.shape == (6,)

    def test_spatial_average_indices(self):
        config = make_config(ngroups=25)
        results = StudyResults.from_server(fill_server(config))
        s_avg, st_avg = results.spatial_average_indices(0)
        assert s_avg.shape == (2,)
        assert np.isfinite(s_avg).all()

    def test_spatial_average_all_below_floor(self):
        config = make_config(ngroups=10)
        results = StudyResults.from_server(fill_server(config))
        s_avg, st_avg = results.spatial_average_indices(0, variance_floor=1e9)
        assert np.isnan(s_avg).all()

    def test_summary_text(self):
        config = make_config()
        results = StudyResults.from_server(fill_server(config))
        results.abandoned_groups = [3]
        text = results.summary()
        assert "Groups integrated: 8" in text
        assert "Abandoned groups: [3]" in text


class TestDiskReplay:
    @pytest.fixture()
    def on_disk_ensemble(self, tmp_path):
        """A real ensemble written to disk by the classical phase 1."""
        fn = IshigamiFunction()
        config = StudyConfig(
            space=fn.space(), ngroups=6, ntimesteps=3, ncells=1,
            server_ranks=1, client_ranks=1, seed=13,
        )

        def factory(params, sim_id):
            return FunctionSimulation(fn, params, ntimesteps=3,
                                      simulation_id=sim_id)

        study = ClassicalStudy(config, factory, tmp_path)
        study.run_simulations()
        return config, factory, tmp_path

    def test_replay_matches_in_transit(self, on_disk_ensemble):
        config, factory, directory = on_disk_ensemble
        server = replay_to_server(directory, config)
        assert server.groups_integrated() == 6
        live = SequentialRuntime(config, factory, steps_per_tick=3).run()
        np.testing.assert_allclose(
            StudyResults.from_server(server).first_order[0], live.first_order[0],
            rtol=1e-10,
        )

    def test_replay_resume_from_checkpoint(self, on_disk_ensemble, tmp_path_factory):
        """Interrupt a replay, checkpoint, resume: replay protection skips
        the integrated timesteps and the result is exact."""
        config, factory, directory = on_disk_ensemble
        # full replay reference
        reference = replay_to_server(directory, config)
        # partial replay: only the first half of the files
        from repro.solver.writer import PostmortemReader
        from repro.transport.message import FieldMessage

        partial = MelissaServer(config)
        reader = PostmortemReader(directory)
        files = reader.list_files()
        for path in files[: len(files) // 2]:
            sim_id, timestep, field = reader.read(path)
            group_id, member = divmod(sim_id, config.group_size)
            rank = partial.ranks[0]
            rank.handle(
                FieldMessage(group_id, member, timestep, 0, 1, field),
                float(timestep),
            )
        ckpt = CheckpointManager(tmp_path_factory.mktemp("replay_ckpt"))
        ckpt.save(partial)
        # resume: restore and replay EVERYTHING from the start
        resumed = ckpt.restore(config)
        replay_to_server(directory, config, server=resumed)
        assert resumed.groups_integrated() == 6
        np.testing.assert_allclose(
            StudyResults.from_server(resumed).first_order_map(1, 2),
            StudyResults.from_server(reference).first_order_map(1, 2),
            rtol=1e-12,
        )
        # restarts caused discards (replayed integrated steps dropped)
        assert resumed.provenance_report()["messages_discarded"] > 0
