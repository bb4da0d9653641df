"""Recycled payload slabs: a rank's Sobol' field hands out the slabs its
folds gave back, and only those.

``UbiquitousSobolField.payload`` issues ``(p+2, ncells)`` slabs; a fold
puts the ones the field issued on a free list of at most ``batch_size``.
These tests pin what that may never do — hand out a slab that is still
staged, reuse a caller's array or a view — and that a sequential study
allocates a bounded number of slabs instead of one per message.
"""

import random

import numpy as np
import pytest

from repro import SensitivityStudy, StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.sobol import GFunction
from repro.sobol.martinez import UbiquitousSobolField


def _state(field):
    field.flush()
    return field._counts, field._mean, field._m2, field._cxy


class TestBoundedAllocations:
    """Counted at the allocation site: every distinct array
    ``payload`` returns is one slab allocated."""

    @staticmethod
    def _allocations(monkeypatch, ngroups, total_nodes):
        fields, issued = {}, {}
        payload = UbiquitousSobolField.payload

        def counting(field):
            slab = payload(field)
            fields[id(field)] = field
            issued[id(slab)] = slab
            return slab

        monkeypatch.setattr(UbiquitousSobolField, "payload", counting)
        fn = GFunction()
        config = StudyConfig(
            space=fn.space(), ngroups=ngroups, ntimesteps=10, ncells=64,
            seed=3, server_ranks=2, total_nodes=total_nodes,
        )
        study = SensitivityStudy(
            config,
            lambda params, sim_id: VectorFieldSimulation(fn, params, 64, 10, sim_id),
        )
        study.run(runtime="sequential")
        assert len(fields) == config.server_ranks
        bound = sum(f.max_staged + f.batch_size for f in fields.values())
        return len(issued), bound

    def test_bound_is_the_same_at_n_and_2n_groups(self, monkeypatch):
        """With a few groups in flight per tick (16 nodes: three groups at
        a time) every rank holds at most max_staged staged slabs plus
        batch_size free ones, so the count does not grow with the study;
        one slab per message would be ngroups x ntimesteps per rank."""
        for ngroups in (60, 120):
            allocated, bound = self._allocations(monkeypatch, ngroups, 16)
            assert allocated <= bound < ngroups * 10

    def test_many_groups_in_flight_allocate_far_fewer_than_one_per_message(
        self, monkeypatch
    ):
        """At the default 64 nodes (15 groups at a time) folds return
        slabs in bursts the capped free list cannot all keep, so some are
        dropped and allocated again; still under a quarter of one per
        message."""
        for ngroups in (60, 120):
            allocated, _ = self._allocations(monkeypatch, ngroups, 64)
            assert allocated * 4 < 2 * ngroups * 10


class TestForeignArrays:
    def test_callers_arrays_and_views_are_never_reused(self):
        field = UbiquitousSobolField(2, 2, 6, batch_size=3, max_staged=4)
        rng = np.random.default_rng(0)
        foreign, issued = [], []
        for i in range(40):
            if i % 4 == 0:
                buf = rng.normal(size=(4, 6))  # a caller's own array
            elif i % 4 == 1:
                base = field.payload()
                base[...] = rng.normal(size=base.shape)
                buf = base[:, :]  # a view of an issued slab
            elif i % 4 == 2:
                buf = rng.normal(size=(6, 4)).T  # copied to C order on adoption
            else:
                buf = field.payload()
                buf[...] = rng.normal(size=buf.shape)
                issued.append(buf)
            if i % 4 != 3:
                foreign.append(buf)
            field.update_group_buffer(i % 2, buf)
        field.flush(0)
        field.flush(1)
        handed = [field.payload() for _ in range(2 * field.batch_size)]
        assert any(s is b for s in handed for b in issued)
        for slab in handed:
            assert slab.shape == (4, 6) and slab.flags.c_contiguous
            for buf in foreign:
                assert slab is not buf
                assert not np.shares_memory(slab, buf)

    def test_only_slabs_the_field_issued_come_back(self):
        field = UbiquitousSobolField(1, 1, 5, batch_size=2)
        mine = field.payload()
        mine[...] = 1.0
        field.update_group_buffer(0, mine)
        field.update_group_buffer(0, np.ones((3, 5)))
        assert field.payload() is mine
        assert field.payload() is not mine  # the free list held one slab

    def test_a_full_flush_keeps_no_slab_free(self):
        """A read of the whole state (results, checkpoint) lets the free
        slabs go, so they do not add to the memory results assembly
        takes."""
        field = UbiquitousSobolField(1, 2, 5, batch_size=2)
        mine = [field.payload() for _ in range(2)]
        for slab in mine:
            slab[...] = 1.0
            field.update_group_buffer(0, slab)
        field.flush()
        handed = [field.payload() for _ in range(2)]
        assert not any(h is slab for h in handed for slab in mine)


class TestNoStagedSlabHandedOut:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_interleaving_matches_independent_copies(self, seed):
        """payload -> fill -> adopt, interleaved with slabs held in flight,
        duplicate adoptions (a replayed delivery), partial flushes and
        max_staged evictions.  No slab is handed out while staged or in
        flight, at most batch_size are free, and the state equals that of
        a field fed copies."""
        rng = random.Random(seed)
        values = np.random.default_rng(seed)
        nparams, ntimesteps, ncells = 2, 3, 5
        field = UbiquitousSobolField(
            nparams, ntimesteps, ncells, batch_size=4, max_staged=6
        )
        twin = UbiquitousSobolField(
            nparams, ntimesteps, ncells, batch_size=4, max_staged=6
        )
        in_flight = []

        def adopt(t, slab):
            field.update_group_buffer(t, slab)
            twin.update_group_buffer(t, slab.copy())

        for _ in range(300):
            op = rng.random()
            if op < 0.45 or not in_flight:
                slab = field.payload()
                busy = [s for staged in field._staged for s in staged]
                busy += [s for _, s in in_flight]
                assert all(slab is not other for other in busy)
                slab[...] = values.normal(size=slab.shape)
                in_flight.append((rng.randrange(ntimesteps), slab))
            elif op < 0.85:
                t, slab = in_flight.pop(rng.randrange(len(in_flight)))
                adopt(t, slab)
                if rng.random() < 0.1:
                    adopt(t, slab)
            else:
                t = rng.randrange(ntimesteps)
                field.flush(t)
                twin.flush(t)
            assert len(field._free) <= field.batch_size
        for t, slab in in_flight:
            adopt(t, slab)
        for got, want in zip(_state(field), _state(twin)):
            assert np.array_equal(got, want)
