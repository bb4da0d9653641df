"""Tests for the structured mesh and block partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import BlockPartition, StructuredMesh, partition_cells


class TestStructuredMesh:
    def test_basic_2d(self):
        m = StructuredMesh(dims=(4, 3), lengths=(2.0, 1.5))
        assert m.ncells == 12
        assert m.ndim == 2
        assert m.spacing == (0.5, 0.5)
        assert m.cell_volume == pytest.approx(0.25)

    def test_basic_3d(self):
        m = StructuredMesh(dims=(2, 3, 4), lengths=(1.0, 1.0, 1.0))
        assert m.ncells == 24
        assert m.ndim == 3

    @pytest.mark.parametrize(
        "dims,lengths",
        [((4,), (1.0,)), ((0, 3), (1.0, 1.0)), ((2, 2), (1.0,)), ((2, 2), (0.0, 1.0))],
    )
    def test_invalid(self, dims, lengths):
        with pytest.raises(ValueError):
            StructuredMesh(dims=dims, lengths=lengths)

    def test_cell_centers(self):
        m = StructuredMesh(dims=(2, 2), lengths=(2.0, 2.0))
        centers = m.cell_centers()
        assert centers.shape == (4, 2)
        np.testing.assert_allclose(centers[0], [0.5, 0.5])
        np.testing.assert_allclose(centers[-1], [1.5, 1.5])

    def test_origin_offset(self):
        m = StructuredMesh(dims=(2, 2), lengths=(1.0, 1.0), origin=(10.0, -5.0))
        assert m.axis_coordinates(0)[0] == pytest.approx(10.25)
        assert m.axis_coordinates(1)[0] == pytest.approx(-4.75)

    def test_grid_flatten_roundtrip(self):
        m = StructuredMesh(dims=(3, 4), lengths=(1.0, 1.0))
        flat = np.arange(12.0)
        grid = m.to_grid(flat)
        assert grid.shape == (3, 4)
        np.testing.assert_array_equal(m.flatten(grid), flat)

    def test_to_grid_leading_axes(self):
        m = StructuredMesh(dims=(2, 3), lengths=(1.0, 1.0))
        stack = np.arange(2 * 6.0).reshape(2, 6)
        grid = m.to_grid(stack)
        assert grid.shape == (2, 2, 3)

    def test_to_grid_wrong_size(self):
        m = StructuredMesh(dims=(2, 3), lengths=(1.0, 1.0))
        with pytest.raises(ValueError):
            m.to_grid(np.zeros(7))
        with pytest.raises(ValueError):
            m.flatten(np.zeros((2, 4)))

    def test_cell_index(self):
        m = StructuredMesh(dims=(3, 4), lengths=(1.0, 1.0))
        assert m.cell_index(0, 0) == 0
        assert m.cell_index(1, 2) == 6  # C order: i * ny + j
        with pytest.raises(ValueError):
            m.cell_index(3, 0)
        with pytest.raises(ValueError):
            m.cell_index(0)

    def test_slice_plane(self):
        m = StructuredMesh(dims=(3, 4), lengths=(1.0, 1.0))
        flat = np.arange(12.0)
        row = m.slice_plane(flat, axis=0, index=1)
        np.testing.assert_array_equal(row, [4, 5, 6, 7])
        col = m.slice_plane(flat, axis=1, index=0)
        np.testing.assert_array_equal(col, [0, 4, 8])


class TestBlockPartition:
    def test_even_split(self):
        p = BlockPartition(ncells=12, nranks=3)
        assert [p.range_of(r) for r in range(3)] == [(0, 4), (4, 8), (8, 12)]

    def test_uneven_split_balanced(self):
        p = BlockPartition(ncells=10, nranks=3)
        sizes = [p.size_of(r) for r in range(3)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        assert sizes == [4, 3, 3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            BlockPartition(0, 1)
        with pytest.raises(ValueError):
            BlockPartition(5, 0)
        with pytest.raises(ValueError):
            BlockPartition(2, 3)
        p = BlockPartition(4, 2)
        with pytest.raises(ValueError):
            p.range_of(2)

    def test_owner_of(self):
        p = BlockPartition(ncells=10, nranks=3)
        assert p.owner_of(0) == 0
        assert p.owner_of(3) == 0
        assert p.owner_of(4) == 1
        assert p.owner_of(9) == 2
        with pytest.raises(ValueError):
            p.owner_of(10)

    def test_local_view_is_view(self):
        p = BlockPartition(ncells=8, nranks=2)
        field = np.arange(8.0)
        view = p.local_view(1, field)
        np.testing.assert_array_equal(view, [4, 5, 6, 7])
        view[0] = -1
        assert field[4] == -1  # shares memory

    def test_intersections_identity(self):
        p = BlockPartition(ncells=9, nranks=3)
        plan = p.intersections(p)
        for src, entries in enumerate(plan):
            assert entries == [(src, *p.range_of(src))]

    def test_intersections_n_to_m(self):
        src = BlockPartition(ncells=12, nranks=4)  # blocks of 3
        dst = BlockPartition(ncells=12, nranks=3)  # blocks of 4
        plan = src.intersections(dst)
        # src rank 1 owns [3,6): overlaps dst 0 ([0,4)) and dst 1 ([4,8))
        assert plan[1] == [(0, 3, 4), (1, 4, 6)]
        # coverage: every cell forwarded exactly once
        covered = np.zeros(12, dtype=int)
        for entries in plan:
            for _, lo, hi in entries:
                covered[lo:hi] += 1
        assert (covered == 1).all()

    def test_intersections_mismatch(self):
        with pytest.raises(ValueError):
            BlockPartition(10, 2).intersections(BlockPartition(12, 2))

    def test_partition_cells_helper(self):
        p = partition_cells(100, 7)
        assert p.offsets[-1] == 100

    def test_offsets_built_once_and_read_only(self):
        """Every routed message reads the fenceposts; they are computed
        once per (frozen) instance and shared, hence not writable."""
        p = BlockPartition(10, 3)
        assert p.offsets is p.offsets
        np.testing.assert_array_equal(p.offsets, [0, 4, 7, 10])
        with pytest.raises(ValueError):
            p.offsets[1] = 5
        assert p == BlockPartition(10, 3) and hash(p) == hash(BlockPartition(10, 3))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=20))
def test_property_partition_covers_exactly(ncells, nranks):
    nranks = min(nranks, ncells)
    p = BlockPartition(ncells, nranks)
    off = p.offsets
    assert off[0] == 0 and off[-1] == ncells
    sizes = np.diff(off)
    assert (sizes >= ncells // nranks).all()
    assert (sizes <= ncells // nranks + 1).all()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=200),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_property_redistribution_is_a_bijection(ncells, n_src, n_dst):
    n_src = min(n_src, ncells)
    n_dst = min(n_dst, ncells)
    src = BlockPartition(ncells, n_src)
    dst = BlockPartition(ncells, n_dst)
    covered = np.zeros(ncells, dtype=int)
    for s, entries in enumerate(src.intersections(dst)):
        lo_s, hi_s = src.range_of(s)
        for d, lo, hi in entries:
            assert lo_s <= lo < hi <= hi_s  # within source ownership
            lo_d, hi_d = dst.range_of(d)
            assert lo_d <= lo < hi <= hi_d  # within destination ownership
            covered[lo:hi] += 1
    assert (covered == 1).all()
