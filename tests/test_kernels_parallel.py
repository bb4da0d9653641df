"""ISSUE 10 acceptance: the multicore fold engine.

Threaded folds shard one rank's fold across disjoint, block-aligned cell
windows onto per-thread kernel instances.  Because every backend's
arithmetic is per-cell (reductions run over the batch dimension only),
the shard set enumerates the *identical* (lo, hi) windows the sequential
blocked loop does and writes disjoint state slices — so the suite pins
``fold_threads=N`` to ``fold_threads=1`` with ``assert_array_equal``,
not rtol: bit-exact, on every available backend, through ragged
partitions, checkpoint hops, and mid-fold merges.  The ``auto`` thread
rule (``min(usable_cpus // local_ranks, blocks)``, decided at
construction), the O(log) staging-overflow eviction, and the distributed
2-rank x 2-worker parity (including through a worker SIGKILL) are
covered here too.
"""

import os
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from net_util import retry_on_eaddrinuse
from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.faults import FaultPlan, ProcessFault
from repro.kernels import available_backends, parallel
from repro.kernels.einsum import EinsumKernel
from repro.runtime import DistributedRuntime, SequentialRuntime
from repro.sobol import IshigamiFunction
from repro.sobol.martinez import UbiquitousSobolField
from repro.stats.pipeline import StatisticsPipeline
from repro.stats.protocol import StatContext

NPARAMS = 3
NCELLS = 257  # deliberately not a multiple of any block size


@pytest.fixture(autouse=True)
def _deterministic_global_rng(request):
    np.random.seed(zlib.crc32(request.node.nodeid.encode()) % 2**32)


def feed(field, schedule, seed=7, ncells=NCELLS):
    """Adopt group buffers per (timestep, count) schedule, same stream
    for every field fed with the same seed."""
    rng = np.random.default_rng(seed)
    for t, count in schedule:
        for _ in range(count):
            field.update_group_buffer(
                t, rng.normal(size=(NPARAMS + 2, ncells))
            )
    return field


def assert_fields_identical(a, b):
    a.flush()
    b.flush()
    for name in ("_counts", "_mean", "_m2", "_cxy"):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


# --------------------------------------------------------------------- #
# thread-count selection
# --------------------------------------------------------------------- #
class TestThreadSelection:
    def test_validate_accepts_canonical_forms(self):
        assert parallel.validate_threads_spec(None) is None
        assert parallel.validate_threads_spec("auto") == "auto"
        assert parallel.validate_threads_spec(" AUTO ") == "auto"
        assert parallel.validate_threads_spec(4) == 4
        assert parallel.validate_threads_spec("4") == 4

    @pytest.mark.parametrize("bad", [0, -1, "0", "fast", 2.5, True])
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            parallel.validate_threads_spec(bad)

    def test_auto_rule_table(self, monkeypatch):
        """auto = min(usable_cpus // local_ranks, blocks), at construction."""
        table = [
            # cpus, local_ranks, ncells, block_cells -> threads
            (8, 1, 100_000, 8192, 8),   # 13 blocks: the CPU budget binds
            (8, 2, 100_000, 8192, 4),   # co-located ranks share the host
            (8, 1, 20_000, 8192, 3),    # never more threads than blocks
            (8, 1, 8192, 8192, 1),      # 1 block -> no pool
            (8, 1, 1, 8192, 1),
            (8, 8, 100_000, 8192, 1),
            (2, 3, 100_000, 8192, 1),   # local_ranks > cpus -> 1
            (1, 1, 100_000, 8192, 1),
            (2, 1, 257, 64, 2),
        ]
        for cpus, local_ranks, ncells, block, threads in table:
            row = (cpus, local_ranks, ncells, block)
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                raising=False,
            )
            assert parallel.resolve_threads(
                "auto", local_ranks, ncells, block) == threads, row
            field = UbiquitousSobolField(
                nparams=NPARAMS, ntimesteps=1, ncells=ncells,
                block_cells=block, kernel="einsum", local_ranks=local_ranks,
            )
            assert field.active_fold_threads == threads, row
            assert field.fold_plan == (
                ("einsum", threads, min(block, ncells)) if threads > 1
                else None
            ), row

    def test_rule_counts_the_affinity_mask(self, monkeypatch):
        """A rank pinned to one core of many must not run a fold pool."""
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        assert parallel.eager_threads("auto") == 1
        assert parallel.resolve_threads("auto", 1, 100_000, 8192) == 1
        # explicit counts pass through un-clamped
        assert parallel.resolve_threads(6, 99, 1, 8192) == 6

    def test_eager_threads(self, monkeypatch):
        # explicit counts pass through un-clamped; auto takes the clamp
        assert parallel.eager_threads(6, local_ranks=99) == 6
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        assert parallel.eager_threads("auto", local_ranks=1) == 4
        assert parallel.eager_threads("auto", local_ranks=8) == 1

    def test_config_canonicalizes_and_rejects(self):
        fn = IshigamiFunction()
        cfg = StudyConfig(space=fn.space(), ngroups=2, ntimesteps=1,
                          ncells=8, fold_threads="2")
        assert cfg.fold_threads == 2
        with pytest.raises(ValueError, match="fold_threads"):
            StudyConfig(space=fn.space(), ngroups=2, ntimesteps=1,
                        ncells=8, fold_threads="zero")


# --------------------------------------------------------------------- #
# deterministic sharding
# --------------------------------------------------------------------- #
class TestShardRanges:
    @given(
        ncells=st.integers(1, 5000),
        nthreads=st.integers(1, 16),
        block=st.integers(1, 1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_cover_disjoint_block_aligned(self, ncells, nthreads, block):
        shards = parallel.shard_ranges(ncells, nthreads, block)
        assert shards[0][0] == 0 and shards[-1][1] == ncells
        for (lo, hi), (lo2, _) in zip(shards, shards[1:]):
            assert hi == lo2
        for lo, hi in shards:
            assert lo < hi
            assert lo % block == 0  # every boundary is block-aligned
        assert len(shards) <= nthreads
        # deterministic: same inputs, same partition
        assert shards == parallel.shard_ranges(ncells, nthreads, block)

    def test_fewer_blocks_than_threads(self):
        assert parallel.shard_ranges(10, 8, 16) == [(0, 10)]

    def test_window_enumeration_matches_sequential(self):
        """The union of the shards' blocked inner loops is the exact
        window set of the sequential blocked loop — the structural
        bit-exactness argument, checked directly."""
        ncells, blk = 1000, 96
        sequential = [
            (b0, min(ncells, b0 + blk)) for b0 in range(0, ncells, blk)
        ]
        for nt in (1, 2, 3, 7):
            sharded = []
            for lo, hi in parallel.shard_ranges(ncells, nt, blk):
                sharded.extend(
                    (b0, min(hi, b0 + blk)) for b0 in range(lo, hi, blk)
                )
            assert sharded == sequential


# --------------------------------------------------------------------- #
# bit-exact parity
# --------------------------------------------------------------------- #
RAGGED = [(0, 3), (1, 9), (0, 6), (1, 1), (0, 8), (1, 5)]


class TestBitExactParity:
    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("nthreads", [2, 3, 5])
    def test_parity_all_backends_ragged(self, backend, nthreads):
        def build(threads):
            return UbiquitousSobolField(
                nparams=NPARAMS, ntimesteps=2, ncells=NCELLS,
                batch_size=8, max_staged=10, block_cells=64,
                kernel=backend, fold_threads=threads,
            )

        one = feed(build(1), RAGGED)
        many = feed(build(nthreads), RAGGED)
        assert many.active_fold_threads == min(nthreads, -(-NCELLS // 64))
        assert_fields_identical(one, many)

    def test_parity_through_checkpoint_hop(self):
        # from_state_dict restores with the default batch and block size,
        # so real multi-shard partitions need more cells than one default
        # block (4 blocks here); fold *batching* (unlike fold threading
        # or block size) legitimately perturbs results at reassociation
        # level — parity here must isolate the threads dimension
        ncells = 3 * UbiquitousSobolField.DEFAULT_BLOCK + 1

        def build(threads):
            return UbiquitousSobolField(
                nparams=NPARAMS, ntimesteps=2, ncells=ncells,
                kernel="einsum", fold_threads=threads,
            )

        one = feed(build(1), RAGGED, seed=1, ncells=ncells)
        one.flush()  # same fold boundary as the checkpointed run
        feed(one, RAGGED, seed=2, ncells=ncells)
        # threaded run hops through a checkpoint between the two halves
        # (and switches thread count across the hop — execution policy)
        half = feed(build(2), RAGGED, seed=1, ncells=ncells)
        assert half.active_fold_threads == 2
        restored = UbiquitousSobolField.from_state_dict(
            half.state_dict(), kernel="einsum", fold_threads=4
        )
        many = feed(restored, RAGGED, seed=2, ncells=ncells)
        assert many.active_fold_threads == 4
        assert_fields_identical(one, many)

    def test_parity_through_mid_fold_merge(self):
        def run(threads):
            a = feed(UbiquitousSobolField(
                nparams=NPARAMS, ntimesteps=2, ncells=NCELLS,
                batch_size=8, block_cells=64, kernel="einsum",
                fold_threads=threads,
            ), RAGGED, seed=3)
            b = feed(UbiquitousSobolField(
                nparams=NPARAMS, ntimesteps=2, ncells=NCELLS,
                batch_size=8, block_cells=64, kernel="einsum",
                fold_threads=threads,
            ), RAGGED, seed=4)
            # merge while b still holds staged-but-unfolded buffers
            assert b.staged_groups > 0
            a.merge(b)
            return a

        assert_fields_identical(run(1), run(3))

    @given(
        ncells=st.integers(8, 400),
        block=st.integers(4, 128),
        nthreads=st.integers(2, 6),
        nb=st.integers(1, 6),
        na=st.integers(0, 20),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_sharded_fold_window_equals_whole_window(
        self, ncells, block, nthreads, nb, na, seed
    ):
        """Property: fold_window over any block-aligned shard partition
        writes bit-identical state to one whole-window call."""
        rng = np.random.default_rng(seed)
        slabs = [rng.normal(size=(NPARAMS + 2, ncells)) for _ in range(nb)]

        def state():
            r = np.random.default_rng(seed + 1)
            mean = r.normal(size=(NPARAMS + 2, ncells))
            m2 = np.abs(r.normal(size=(NPARAMS + 2, ncells)))
            cxy = r.normal(size=(2, NPARAMS, ncells))
            return mean, m2, cxy

        blk = min(block, ncells)
        whole = state()
        kernel = EinsumKernel(NPARAMS, nb, blk)
        r1 = np.empty((2, NPARAMS, blk))
        parallel.fold_window(kernel, slabs, 0, ncells, *whole, na, r1)

        sharded = state()
        for lo, hi in parallel.shard_ranges(ncells, nthreads, blk):
            k = EinsumKernel(NPARAMS, nb, blk)  # per-shard instance
            s = np.empty((2, NPARAMS, blk))
            parallel.fold_window(k, slabs, lo, hi, *sharded, na, s)
        for got, want in zip(sharded, whole):
            np.testing.assert_array_equal(got, want)

    def test_pipeline_rows_parity(self):
        """StatisticsPipeline row dispatch over the shared pool is
        bit-exact vs sequential (rows are disjoint objects)."""
        specs = ("moments:order=2", "extrema", "exceedance:thresholds=0.0")
        ctx = StatContext(shape=(NCELLS,), nparams=NPARAMS,
                          parameter_names=("a", "b", "c"))

        def run(threads):
            pipe = StatisticsPipeline(specs, ctx, 2, fold_threads=threads)
            rng = np.random.default_rng(11)
            for t, count in RAGGED:
                for _ in range(count):
                    pipe.update(t, rng.normal(size=(NPARAMS + 2, NCELLS)))
            return pipe.results()

        one, four = run(1), run(4)
        assert one.keys() == four.keys()
        for name in one:
            np.testing.assert_array_equal(one[name], four[name], err_msg=name)


# --------------------------------------------------------------------- #
# staging-overflow eviction
# --------------------------------------------------------------------- #
class TestOverflowEviction:
    def test_overflow_folds_the_fullest_timestep(self):
        field = UbiquitousSobolField(
            nparams=NPARAMS, ntimesteps=4, ncells=16,
            batch_size=100, max_staged=6, fold_threads=1,
        )
        # t=2 is fullest (3 buffers) when the 7th adoption overflows
        feed(field, [(0, 1), (1, 2), (2, 3)], ncells=16)
        assert field.staged_groups == 6
        feed(field, [(3, 1)], ncells=16)
        assert int(field._counts[2]) == 3, "eviction must fold t=2"
        assert [len(s) for s in field._staged] == [1, 2, 0, 1]
        assert field.staged_groups == 4

    def test_eviction_tracks_shifting_maximum(self):
        field = UbiquitousSobolField(
            nparams=NPARAMS, ntimesteps=3, ncells=16,
            batch_size=100, max_staged=4, fold_threads=1,
        )
        feed(field, [(0, 2), (1, 2)], ncells=16)
        feed(field, [(1, 1)], ncells=16)  # overflow: t=1 fullest with 3
        assert int(field._counts[1]) == 3
        feed(field, [(2, 1), (2, 1)], ncells=16)
        feed(field, [(2, 1)], ncells=16)  # overflow again: now t=2 with 3
        assert int(field._counts[2]) == 3
        # heap went stale for t=1 twice over; state stays consistent
        assert field.staged_groups == len(field._staged[0]) + len(
            field._staged[1]
        ) + len(field._staged[2])

    def test_heap_is_compacted(self):
        field = UbiquitousSobolField(
            nparams=NPARAMS, ntimesteps=2, ncells=16,
            batch_size=4, fold_threads=1,
        )
        # thousands of adoptions fold away; the lazy heap must not grow
        # without bound on the non-overflow path
        feed(field, [(0, 4)] * 300, ncells=16)
        assert len(field._staged_heap) <= 4 * max(field.max_staged,
                                                  field.ntimesteps)


# --------------------------------------------------------------------- #
# explicit thread counts
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_explicit_threads_build_without_probe(self):
        field = UbiquitousSobolField(
            nparams=NPARAMS, ntimesteps=1, ncells=NCELLS, batch_size=8,
            kernel="einsum", fold_threads=3,
        )
        assert field.active_fold_threads == 3  # before any buffer is fed
        feed(field, [(0, 8)])
        assert field.active_fold_threads == 3


# --------------------------------------------------------------------- #
# distributed parity
# --------------------------------------------------------------------- #
DIST_NCELLS = 32


class DistVectorSim(VectorFieldSimulation):
    delay = 0.0

    def __init__(self, fn, params, ntimesteps=2, simulation_id=0):
        super().__init__(fn, params, DIST_NCELLS, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)

    def advance(self):
        if self.delay:
            time.sleep(self.delay)
        return super().advance()


class SlowDistVectorSim(DistVectorSim):
    delay = 0.01


def dist_config(fold_threads, ngroups=12):
    fn = IshigamiFunction()
    config = StudyConfig(
        space=fn.space(), ngroups=ngroups, ntimesteps=2, ncells=DIST_NCELLS,
        server_ranks=2, client_ranks=1, seed=23,
        fold_threads=fold_threads,
    )
    return fn, config


def dist_factory(fn, cls=DistVectorSim):
    def factory(params, sim_id):
        return cls(fn, params, simulation_id=sim_id)
    return factory


class TestDistributedParity:
    def test_two_ranks_two_workers_fold_threads_2(self):
        fn, config = dist_config(fold_threads=2)
        distributed = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, dist_factory(fn), nworkers=2
        )).run(timeout=120.0)
        _, config2 = dist_config(fold_threads=1)
        sequential = SequentialRuntime(config2, dist_factory(fn)).run()
        assert distributed.groups_integrated == 12
        np.testing.assert_allclose(
            distributed.first_order, sequential.first_order,
            rtol=1e-10, atol=1e-12, equal_nan=True,
        )
        np.testing.assert_allclose(
            distributed.total_order, sequential.total_order,
            rtol=1e-10, atol=1e-12, equal_nan=True,
        )

    def test_parity_survives_killed_worker(self):
        """ISSUE 10 acceptance: threaded folds stay exact through a
        worker SIGKILL + group resubmission."""
        fn, config = dist_config(fold_threads=2)
        runtime = retry_on_eaddrinuse(lambda: DistributedRuntime(
            config, dist_factory(fn, cls=SlowDistVectorSim), nworkers=2,
            fault_plan=FaultPlan(
                worker_faults={0: ProcessFault("crash", after_messages=1)}
            ),
        ))
        distributed = runtime.run(timeout=120.0)
        assert runtime.coordinator.resubmitted, "no group was resubmitted"
        assert distributed.groups_integrated == 12
        _, config2 = dist_config(fold_threads=1)
        sequential = SequentialRuntime(config2, dist_factory(fn)).run()
        np.testing.assert_allclose(
            distributed.first_order, sequential.first_order,
            rtol=1e-10, atol=1e-12, equal_nan=True,
        )
