"""CLI smoke tests + end-to-end higher-order server statistics.

The paper (Sec. 4.1) notes Melissa can be configured to compute other
iterative statistics on the A/B members — higher-order moments
(skewness, kurtosis), min/max, threshold exceedance.  The end-to-end test
here validates that path against batch NumPy/SciPy computations over the
actual member outputs.
"""

import numpy as np
import pytest

from repro import SensitivityStudy
from repro.cli import _resolve_study, build_parser, main
from repro.core import StudyConfig
from repro.core.group import FunctionSimulation
from repro.faults import ProcessFault
from repro.net.coordinator import Coordinator
from repro.runtime import SequentialRuntime
from repro.sobol import IshigamiFunction


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--groups", "150", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "groups integrated: 150" in out
        assert "x1" in out

    def test_campaign_runs(self, capsys):
        assert main(["campaign", "--server-nodes", "15"]) == 0
        out = capsys.readouterr().out
        assert "peak_running_groups" in out
        assert "56" in out

    def test_tube_runs(self, capsys):
        code = main([
            "tube", "--nx", "16", "--ny", "8", "--timesteps", "3",
            "--groups", "3", "--server-ranks", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S map: upper_concentration" in out

    @pytest.mark.parametrize("argv", [
        ["launch"],
        ["serve", "--rank", "0", "--coordinator", "h:1"],
        ["work", "--coordinator", "h:1"],
    ], ids=["launch", "serve", "work"])
    def test_default_distributed_invocation_builds_a_study(self, argv):
        study = _resolve_study(build_parser().parse_args(argv))
        assert isinstance(study, SensitivityStudy)

    @pytest.mark.parametrize("argv", [
        ["serve", "--rank", "0", "--coordinator", "h:1"],
        ["work", "--coordinator", "h:1"],
    ], ids=["serve", "work"])
    def test_fault_flag_parses_one_process_fault(self, argv):
        args = build_parser().parse_args(argv + ["--fault", "crash:after=10"])
        assert args.fault == ProcessFault("crash", after_messages=10)

    @pytest.mark.parametrize("spec", [
        "straggler:delay=nan", "straggler:delay=inf", "crash:after=x", "explode",
    ])
    def test_bad_fault_spec_is_a_usage_error(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["work", "--coordinator", "h:1", "--fault", spec]
            )
        assert exc.value.code == 2
        assert spec in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_metrics_interval_must_be_finite_and_positive(self, value, capsys):
        """At ``nan`` the metrics frame deadline would never be sane: a
        timer that never waits, or a ``select`` that raises."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["launch", "--metrics-interval", value])
        assert exc.value.code == 2
        assert "--metrics-interval" in capsys.readouterr().err
        config = StudyConfig(
            space=IshigamiFunction().space(), ngroups=1, ntimesteps=1, ncells=4,
            seed=1,
        )
        with pytest.raises(ValueError, match="metrics_interval"):
            Coordinator(config, metrics_interval=float(value))


class TestGeneralStatisticsEndToEnd:
    def run_study(self, statistics):
        fn = IshigamiFunction()
        config = StudyConfig(
            space=fn.space(), ngroups=120, ntimesteps=1, ncells=1,
            server_ranks=1, client_ranks=1, seed=6,
            statistics=statistics,
        )

        def factory(params, sim_id):
            return FunctionSimulation(fn, params, ntimesteps=1,
                                      simulation_id=sim_id)

        runtime = SequentialRuntime(config, factory)
        runtime.results = runtime.run()
        return runtime, fn, config

    def reference_ab_outputs(self, fn, config):
        """The A and B member outputs the server's general stats saw."""
        from repro.sampling import draw_design

        design = draw_design(config.space, config.ngroups, seed=config.seed)
        return np.concatenate([fn(design.a), fn(design.b)])

    def test_moments_match_batch(self):
        runtime, fn, config = self.run_study(
            ["moments:order=4", "extrema", "exceedance:thresholds=5.0"]
        )
        rank = runtime.server.ranks[0]
        moments = rank.stats.instances_at(0)[0]
        y = self.reference_ab_outputs(fn, config)
        assert moments.count == 2 * config.ngroups
        np.testing.assert_allclose(moments.mean, y.mean(), rtol=1e-10)
        np.testing.assert_allclose(moments.variance, y.var(ddof=1), rtol=1e-10)
        from scipy.stats import kurtosis, skew

        out = {key: value[0] for key, value in rank.stats.results().items()}
        np.testing.assert_allclose(out["skewness"], skew(y), rtol=1e-8)
        np.testing.assert_allclose(out["kurtosis"], kurtosis(y), rtol=1e-8)
        np.testing.assert_allclose(out["minimum"], y.min())
        np.testing.assert_allclose(out["maximum"], y.max())
        np.testing.assert_allclose(out["exceedance_5"], (y > 5.0).mean())

    def test_quantile_and_pair_maps_reach_results(self):
        """Catalog statistics flow through assembly into StudyResults."""
        runtime, fn, config = self.run_study(
            ["moments", "quantiles:qs=0.5:lo=-15:hi=15:bins=512", "sobol2"]
        )
        results = runtime.results
        y = self.reference_ab_outputs(fn, config)
        assert "quantile_0.5" in results.statistic_names
        np.testing.assert_allclose(
            results.statistic_map("quantile_0.5", 0),
            np.quantile(y, 0.5),
            atol=2 * 30.0 / 512,  # one sketch bin
        )
        # the Ishigami x1/x3 interaction is strong, x1/x2 is null
        i13 = results.statistic_map("sobol2_interaction_x1_x3", 0)
        i12 = results.statistic_map("sobol2_interaction_x1_x2", 0)
        assert i13 > 0.1
        assert abs(i12) < abs(i13)

    def test_general_stats_survive_checkpoint(self, tmp_path):
        from repro.core.checkpoint import CheckpointManager

        runtime, fn, config = self.run_study(["moments:order=3", "extrema"])
        manager = CheckpointManager(tmp_path)
        manager.save(runtime.server)
        restored = manager.restore(config)
        orig = runtime.server.ranks[0].stats.results()
        back = restored.ranks[0].stats.results()
        assert orig.keys() == back.keys()
        for key in orig:
            np.testing.assert_array_equal(orig[key], back[key])
