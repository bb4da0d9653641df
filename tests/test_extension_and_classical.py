"""Tests for convergence-driven study extension and the classical baseline."""

import numpy as np
import pytest

from repro.classical import ClassicalStudy
from repro.core import StudyConfig
from repro.core.convergence import ConvergenceController
from repro.core.group import FunctionSimulation
from repro.core.launcher import MelissaLauncher
from repro.runtime import SequentialRuntime
from repro.scheduler import BatchScheduler
from repro.sobol import IshigamiFunction
from repro.solver import TubeBundleCase


def ishigami_config(ngroups, **kw):
    fn = IshigamiFunction()
    defaults = dict(
        ntimesteps=1, ncells=1, server_ranks=1, client_ranks=1, seed=2,
        total_nodes=40, nodes_per_group=1, server_nodes=2,
    )
    defaults.update(kw)
    return fn, StudyConfig(space=fn.space(), ngroups=ngroups, **defaults)


def fn_factory(fn):
    def factory(params, sim_id):
        return FunctionSimulation(fn, params, ntimesteps=1, simulation_id=sim_id)
    return factory


class TestLauncherExtension:
    def test_extend_study_adds_rows_and_records(self):
        fn, config = ishigami_config(10)
        launcher = MelissaLauncher(config, BatchScheduler(40))
        new_ids = launcher.extend_study(5, now=100.0)
        assert new_ids == [10, 11, 12, 13, 14]
        assert launcher.total_groups == 15
        assert launcher.design.ngroups == 15
        assert not launcher.study_complete()

    def test_extension_rows_are_fresh(self):
        fn, config = ishigami_config(10)
        launcher = MelissaLauncher(config, BatchScheduler(40))
        a_before = launcher.design.a.copy()
        launcher.extend_study(5, now=0.0)
        np.testing.assert_array_equal(launcher.design.a[:10], a_before)
        # new rows are not copies of old rows
        for new_row in launcher.design.a[10:]:
            assert not any(np.allclose(new_row, old) for old in a_before)

    def test_extension_reproducible(self):
        fn, config = ishigami_config(10)
        l1 = MelissaLauncher(config, BatchScheduler(40))
        l2 = MelissaLauncher(config, BatchScheduler(40))
        l1.extend_study(4, now=0.0)
        l2.extend_study(4, now=0.0)
        np.testing.assert_array_equal(l1.design.a, l2.design.a)

    def test_invalid_extension(self):
        fn, config = ishigami_config(5)
        launcher = MelissaLauncher(config, BatchScheduler(40))
        with pytest.raises(ValueError):
            launcher.extend_study(0, now=0.0)


class TestRuntimeExtension:
    def test_study_grows_until_converged(self):
        """A deliberately tiny initial study must auto-extend until the
        CI target is met (the paper's on-the-fly row generation)."""
        fn, config = ishigami_config(
            20, convergence_threshold=0.35, convergence_check_interval=2.0,
        )
        controller = ConvergenceController(
            threshold=0.35, min_groups=20, extend_batch=40
        )
        runtime = SequentialRuntime(
            config, fn_factory(fn), convergence=controller
        )
        results = runtime.run(max_time=100_000)
        assert results.groups_integrated > 20  # it extended
        assert results.max_interval_width <= 0.35
        assert runtime.launcher.total_groups > 20

    def test_no_extension_when_threshold_met_initially(self):
        fn, config = ishigami_config(400)
        controller = ConvergenceController(
            threshold=0.9, min_groups=5, extend_batch=40
        )
        runtime = SequentialRuntime(
            config, fn_factory(fn), convergence=controller,
        )
        # loose threshold with convergence checking disabled in config:
        # the completion-time check must not extend a converged study
        results = runtime.run(max_time=100_000)
        assert runtime.launcher.total_groups == 400

    def test_extended_statistics_match_direct_computation(self):
        """After extension, results equal the two-pass estimator on the
        same extended design — extension introduces no bookkeeping drift."""
        from repro.sobol import martinez_indices

        fn, config = ishigami_config(
            15, convergence_threshold=0.5, convergence_check_interval=2.0,
        )
        controller = ConvergenceController(
            threshold=0.5, min_groups=15, extend_batch=15
        )
        runtime = SequentialRuntime(config, fn_factory(fn), convergence=controller)
        results = runtime.run(max_time=100_000)
        design = runtime.launcher.design
        first, _ = martinez_indices(
            fn(design.a), fn(design.b),
            np.stack([fn(design.c_matrix(k)) for k in range(3)]),
        )
        np.testing.assert_allclose(results.first_order[:, 0, 0], first, rtol=1e-9)


class TestClassicalStudy:
    @pytest.fixture(scope="class")
    def small_case(self):
        return TubeBundleCase(nx=16, ny=8, ntimesteps=3, total_time=0.5)

    def make_config(self, case, ngroups=3):
        return StudyConfig(
            space=case.parameter_space(), ngroups=ngroups,
            ntimesteps=case.ntimesteps, ncells=case.ncells,
            seed=4, server_ranks=2, client_ranks=1,
        )

    def factory(self, case):
        def factory(params, sim_id):
            return case.simulation(params, simulation_id=sim_id)
        return factory

    def test_classical_matches_in_transit(self, small_case, tmp_path):
        config = self.make_config(small_case)
        classical = ClassicalStudy(
            config, self.factory(small_case), tmp_path
        ).run()
        melissa = SequentialRuntime(
            config, self.factory(small_case), steps_per_tick=3
        ).run()
        for t in range(config.ntimesteps):
            np.testing.assert_allclose(
                classical.sobol.index_maps_at(t)[0],
                melissa.first_order[:, t],
                rtol=1e-10, equal_nan=True,
            )

    def test_byte_accounting(self, small_case, tmp_path):
        config = self.make_config(small_case, ngroups=2)
        report = ClassicalStudy(
            config, self.factory(small_case), tmp_path
        ).run()
        payload = config.ensemble_bytes()
        assert report.bytes_written >= payload
        assert report.bytes_read == report.bytes_written
        assert report.intermediate_bytes >= 2 * payload
        assert report.files_written == config.nsimulations * config.ntimesteps

    def test_shared_design_with_custom_design(self, small_case, tmp_path):
        from repro.sampling import draw_design

        config = self.make_config(small_case, ngroups=2)
        design = draw_design(config.space, 2, seed=99)
        study = ClassicalStudy(
            config, self.factory(small_case), tmp_path, design=design
        )
        np.testing.assert_array_equal(study.design.a, design.a)
        report = study.run()
        assert report.sobol.state_dict()["counts"][0] == 2
