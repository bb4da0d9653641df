"""ISSUE 8 acceptance: telemetry through the real socket runtime.

A 2-rank x 2-worker loopback study with the full telemetry stack on
(registry + tracer + JSONL export) must leave the statistics bit-exact
versus a sequential run (rtol 1e-10), its coordinator-side group
counters must agree exactly with the ``StudyResults`` totals — including
through a worker SIGKILL mid-study — and the exported artifacts must be
machine-valid (JSONL frames parse; the trace file is Chrome trace-event
JSON with the expected spans).
"""

import json
import time
import zlib

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro import telemetry as _telemetry
from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.faults import FaultPlan, ProcessFault
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sobol import IshigamiFunction
from repro.telemetry.aggregate import series_value

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 24


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    np.random.seed(zlib.crc32(request.node.nodeid.encode()) % 2**32)


@pytest.fixture(autouse=True)
def _clean_registry():
    """The registry is a process-global singleton: a telemetry run leaves
    it enabled with accumulated series, which would bleed into the next
    test (and into in-process sequential baseline runs)."""
    _telemetry.disable()
    _telemetry.REGISTRY.reset()
    yield
    _telemetry.disable()
    _telemetry.REGISTRY.reset()


def make_config(ngroups=10, server_ranks=2, ntimesteps=2, **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps,
        ncells=NCELLS, server_ranks=server_ranks, seed=31, **kw,
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
    """Slow enough that the injected worker SIGKILL lands mid-study."""

    delay = 0.01


def vector_factory(fn, ntimesteps=2, cls=VectorSim):
    def factory(params, sim_id):
        return cls(fn, params, ntimesteps=ntimesteps, simulation_id=sim_id)
    return factory


def run_with_telemetry(config, fn, tmp_path, cls=VectorSim, **kw):
    runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
        config, vector_factory(fn, config.ntimesteps, cls=cls), nworkers=2,
        heartbeat_interval=0.05,
        telemetry=True,
        trace_file=tmp_path / "trace.json",
        metrics_file=tmp_path / "metrics.jsonl",
        metrics_interval=0.1,
        **kw,
    ))
    results = runtime.run(timeout=120.0)
    return runtime, results


class TestTelemetryParity:
    def test_counters_match_results_and_statistics_exact(self, tmp_path):
        fn, config = make_config()
        runtime, results = run_with_telemetry(config, fn, tmp_path)
        # capture before the baseline below runs: the sequential driver
        # shares this process's registry and would add its own folds
        snapshot = runtime.telemetry.combined()
        _, config2 = make_config()
        sequential = SequentialRuntime(
            config2, vector_factory(fn, config2.ntimesteps)
        ).run()

        assert results.groups_integrated == config.ngroups
        np.testing.assert_allclose(
            results.first_order, sequential.first_order,
            rtol=1e-10, atol=1e-12,
        )
        np.testing.assert_allclose(
            results.total_order, sequential.total_order,
            rtol=1e-10, atol=1e-12,
        )

        # coordinator-side counters describe exactly what the results do
        assert series_value(snapshot, "repro_groups_done") == float(
            results.groups_integrated
        )
        # discard-on-replay invariant, seen through the shipped counters:
        # each rank folds exactly one message per (group, timestep)
        folded = sum(
            series_value(snapshot, "repro_rank_messages_received", rank=str(r))
            - series_value(snapshot, "repro_rank_messages_discarded",
                           rank=str(r))
            for r in range(config.server_ranks)
        )
        expected = config.ngroups * config.ntimesteps * config.server_ranks
        assert folded == float(expected)

        # the piggybacked shipping reached the coordinator from every peer
        senders = runtime.telemetry.senders()
        assert any(s.startswith("server-rank-") for s in senders)
        assert any(s.startswith("worker-") for s in senders)

    def test_exported_artifacts_are_machine_valid(self, tmp_path):
        fn, config = make_config(ngroups=8)
        runtime, results = run_with_telemetry(config, fn, tmp_path)
        assert results.groups_integrated == config.ngroups

        # JSONL: every line parses; the final frame carries the finished
        # study (progress counts plus both worker and rank tables)
        lines = [
            json.loads(line)
            for line in (tmp_path / "metrics.jsonl").read_text().splitlines()
            if line.strip()
        ]
        assert lines, "metrics file has no frames"
        final = lines[-1]
        assert final["study"]["groups_done"] == config.ngroups
        assert final["study"]["ngroups"] == config.ngroups
        assert set(final["ranks"]) == {"0", "1"}
        assert final["workers"], "no worker table in the final frame"

        # trace: valid Chrome trace-event JSON with the study lifecycle
        trace = json.loads((tmp_path / "trace.json").read_text())
        events = trace["traceEvents"]
        assert all({"ph", "pid"} <= set(e) for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        group_spans = [e for e in complete if e["name"].startswith("group ")]
        assert {e["args"]["group"] for e in group_spans} == set(
            range(config.ngroups)
        )
        assert any(
            e["name"].startswith("simulate group ") for e in complete
        ), "workers shipped no simulate spans"
        instants = {e["name"] for e in events if e["ph"] == "i"}
        assert "study_started" in instants and "finalize" in instants

    def test_counters_exact_through_worker_sigkill(self, tmp_path):
        """A worker SIGKILLed mid-study: the resubmission is visible in
        the counters, and groups_done still matches the results total."""
        fn, config = make_config(ngroups=12)
        runtime, results = run_with_telemetry(
            config, fn, tmp_path, cls=SlowVectorSim,
            fault_plan=FaultPlan(
                worker_faults={0: ProcessFault("crash", after_messages=1)}
            ),
        )
        assert runtime.coordinator.resubmitted, "no group was resubmitted"
        assert results.groups_integrated == config.ngroups
        assert results.abandoned_groups == []
        snapshot = runtime.telemetry.combined()

        _, config2 = make_config(ngroups=12)
        sequential = SequentialRuntime(
            config2, vector_factory(fn, config2.ntimesteps)
        ).run()
        np.testing.assert_allclose(
            results.first_order, sequential.first_order,
            rtol=1e-10, atol=1e-12,
        )

        assert series_value(snapshot, "repro_groups_done") == float(
            config.ngroups
        )
        assert series_value(snapshot, "repro_group_resubmits") >= 1.0
        # the fault shows up on the always-on timeline too
        kinds = [kind for _, kind, _ in runtime.coordinator.events]
        assert "group_resubmitted" in kinds
        assert "worker_left" in kinds

    def test_telemetry_off_leaves_no_state_and_matches(self):
        """The default path ships nothing: no telemetry aggregate exists,
        statistics are identical, and the end-of-run accounting (channel
        stats, event timeline) still works."""
        fn, config = make_config(ngroups=6, ntimesteps=1)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, vector_factory(fn, 1), nworkers=2
        ))
        results = runtime.run(timeout=120.0)
        _, config2 = make_config(ngroups=6, ntimesteps=1)
        sequential = SequentialRuntime(config2, vector_factory(fn, 1)).run()
        assert runtime.telemetry is None
        assert results.groups_integrated == config.ngroups
        np.testing.assert_allclose(
            results.first_order, sequential.first_order,
            rtol=1e-10, atol=1e-12,
        )
        assert runtime.coordinator.rank_channel_stats
        assert any(
            kind == "finalize" for _, kind, _ in runtime.coordinator.events
        )
