"""ISSUE 6 acceptance: the statistics catalog under the distributed runtime.

Quantile/exceedance maps and the closed second-order Sobol' maps computed
through the socket runtime (2 server ranks x 2 worker processes, with a
worker SIGKILLed mid-study) must match a sequential run to rtol 1e-10 —
the catalog rides the same discard-on-replay + per-rank checkpoint
machinery as the first-order indices.  The statistics specs in the
checkpoint fingerprint are covered here too.
"""

import time
import zlib

import numpy as np
import pytest

from net_util import retry_on_eaddrinuse
from repro.core import StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.group import VectorFieldSimulation
from repro.core.server import ServerRank
from repro.faults import FaultPlan, ProcessFault
from repro.mesh.partition import BlockPartition
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sobol import IshigamiFunction
from repro.transport.message import GroupFieldMessage

# the borrow-rule tripwire: see conftest.poisoned_rings
pytestmark = pytest.mark.usefixtures("poisoned_rings")

NCELLS = 32

# the full exact-merge acceptance catalog: member statistics (moments,
# exceedance), a counting-sketch quantile map, and the group-aware pair
# maps.  The vector study's field stays within [-40, 40].
CATALOG = (
    "moments:order=2",
    "exceedance:thresholds=0.0+5.0",
    "quantiles:qs=0.25+0.5+0.9:bins=128:lo=-40:hi=40",
    "sobol2",
)


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    np.random.seed(zlib.crc32(request.node.nodeid.encode()) % 2**32)


def make_config(ngroups=16, server_ranks=2, ntimesteps=2, statistics=CATALOG,
                **kw):
    fn = IshigamiFunction()
    kw.setdefault("client_ranks", 1)
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=ntimesteps,
        ncells=NCELLS, server_ranks=server_ranks, seed=23,
        statistics=statistics, **kw,
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


def assert_statistics_match(a, b, rtol=1e-10, atol=1e-12):
    """Every catalog result map in StudyResults ``a`` matches ``b``."""
    assert a.statistic_names == b.statistic_names
    assert a.statistic_names, "no catalog statistics were produced"
    for name in a.statistic_names:
        np.testing.assert_allclose(
            a.statistics[name], b.statistics[name],
            rtol=rtol, atol=atol, equal_nan=True, err_msg=name,
        )


class TestDistributedCatalogParity:
    def test_catalog_parity_with_sequential(self):
        """2 ranks x 2 workers over loopback TCP reproduce every
        sequential catalog map to rtol 1e-10."""
        fn, config = make_config(16)
        distributed = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, vector_factory(fn), nworkers=2
        )).run(timeout=120.0)
        _, config2 = make_config(16)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        assert distributed.groups_integrated == 16
        assert_statistics_match(distributed, sequential)
        # the sketch maps are integer-count order-invariant: bit-exact
        for name in distributed.statistic_names:
            if name.startswith(("quantile_", "exceedance_")):
                np.testing.assert_array_equal(
                    distributed.statistics[name], sequential.statistics[name],
                    err_msg=name,
                )

    def test_catalog_survives_killed_worker(self):
        """ISSUE 6 acceptance: SIGKILL a worker holding a group mid-study;
        discard-on-replay keeps every catalog statistic exact."""
        fn, config = make_config(12)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, vector_factory(fn, cls=SlowVectorSim), nworkers=2,
            fault_plan=FaultPlan(
                worker_faults={0: ProcessFault("crash", after_messages=1)}
            ),
        ))
        distributed = runtime.run(timeout=120.0)
        assert runtime.coordinator.resubmitted, "no group was resubmitted"
        assert distributed.groups_integrated == 12
        _, config2 = make_config(12)
        sequential = SequentialRuntime(config2, vector_factory(fn)).run()
        assert_statistics_match(distributed, sequential)
        # spot-check the second-order pair maps specifically
        assert any(n.startswith("sobol2_interaction_")
                   for n in distributed.statistic_names)

    def test_catalog_survives_rank_checkpoint_restore(self, tmp_path):
        """Per-rank checkpointing carries pipeline state: restoring the
        rank files rebuilds identical catalog maps."""
        fn, config = make_config(10)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, vector_factory(fn), nworkers=2, checkpoint_dir=tmp_path
        ))
        results = runtime.run(timeout=120.0)
        _, config2 = make_config(10)
        restored = CheckpointManager(tmp_path).restore(config2)
        maps = restored.assemble_maps()["stats"]
        assert set(maps) == set(results.statistic_names)
        for name, arr in maps.items():
            np.testing.assert_allclose(
                arr, results.statistics[name],
                rtol=1e-12, atol=1e-15, equal_nan=True, err_msg=name,
            )


class TestV2FingerprintMigration:
    """The checkpoint fingerprint carries the canonical statistics specs
    (what format 3 added; the class keeps its name so the test keeps its id)."""

    SPECS = ("moments:order=3", "extrema", "exceedance:thresholds=5.0")

    def seeded_rank(self, config, ngroups=4):
        partition = BlockPartition(config.ncells, config.server_ranks)
        rank = ServerRank(0, config, partition)
        rng = np.random.default_rng(8)
        lo, hi = rank.cell_lo, rank.cell_hi
        for g in range(ngroups):
            for t in range(config.ntimesteps):
                data = rng.normal(size=(config.group_size, hi - lo))
                rank.handle(GroupFieldMessage(g, t, lo, hi, data), now=float(t))
        return rank, partition

    def test_statistics_mismatch_fails_loudly(self, tmp_path):
        _, config = make_config(server_ranks=1, statistics=self.SPECS)
        rank, _ = self.seeded_rank(config)
        manager = CheckpointManager(tmp_path)
        manager.save_rank(rank, config)
        _, other = make_config(server_ranks=1,
                               statistics=("moments:order=2",))
        fresh = ServerRank(0, other, BlockPartition(other.ncells, 1))
        with pytest.raises(ValueError, match="statistics"):
            manager.restore_rank(fresh, other)
