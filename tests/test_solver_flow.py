"""Tests for the streamfunction flow solver (the frozen velocity field)."""

import numpy as np
import pytest

from repro.mesh import StructuredMesh
from repro.solver.flow import Obstacle, corner_dirichlet, solve_streamfunction


@pytest.fixture(scope="module")
def channel_mesh():
    return StructuredMesh(dims=(24, 12), lengths=(2.0, 1.0))


@pytest.fixture(scope="module")
def open_channel(channel_mesh):
    return solve_streamfunction(channel_mesh, obstacles=(), inflow_speed=1.0)


@pytest.fixture(scope="module")
def bundle_flow(channel_mesh):
    obstacles = [Obstacle(0.9, 0.4, 1.1, 0.6)]
    return solve_streamfunction(channel_mesh, obstacles, inflow_speed=1.0)


class TestObstacle:
    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            Obstacle(1.0, 0.0, 0.5, 1.0)

    def test_contains_cells(self, channel_mesh):
        obs = Obstacle(0.9, 0.4, 1.1, 0.6)
        mask = obs.contains_cells(channel_mesh)
        assert mask.shape == (24, 12)
        assert mask.sum() > 0
        centers = channel_mesh.cell_centers()[mask.ravel()]
        assert (centers[:, 0] >= 0.9).all() and (centers[:, 0] <= 1.1).all()


class TestOpenChannel:
    def test_uniform_flow(self, open_channel):
        """No obstacles -> psi linear in y -> u = inflow everywhere, v = 0."""
        np.testing.assert_allclose(open_channel.u_east, 1.0, atol=1e-9)
        np.testing.assert_allclose(open_channel.v_north, 0.0, atol=1e-9)

    def test_divergence_free(self, open_channel):
        np.testing.assert_allclose(open_channel.divergence(), 0.0, atol=1e-12)

    def test_no_solid_cells(self, open_channel):
        assert not open_channel.solid.any()


class TestBundleFlow:
    def test_divergence_free_with_obstacle(self, bundle_flow):
        """The discrete div must vanish to machine precision, obstacle or not."""
        np.testing.assert_allclose(bundle_flow.divergence(), 0.0, atol=1e-10)

    def test_no_flux_into_obstacle(self, bundle_flow):
        """Faces adjoining solid cells carry zero normal velocity."""
        solid = bundle_flow.solid
        u, v = bundle_flow.u_east, bundle_flow.v_north
        si, sj = np.nonzero(solid)
        for i, j in zip(si, sj):
            assert abs(u[i, j]) < 1e-12  # west face
            assert abs(u[i + 1, j]) < 1e-12  # east face
            assert abs(v[i, j]) < 1e-12  # south face
            assert abs(v[i, j + 1]) < 1e-12  # north face

    def test_flow_accelerates_around_obstacle(self, bundle_flow):
        """Blockage pushes flow around the tube: off-tube speed > inflow."""
        assert bundle_flow.max_speed > 1.05

    def test_wall_streamlines(self, bundle_flow):
        """Zero normal velocity through top and bottom walls."""
        np.testing.assert_allclose(bundle_flow.v_north[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(bundle_flow.v_north[:, -1], 0.0, atol=1e-12)

    def test_global_mass_flux_conserved(self, bundle_flow):
        """Volume flux through every vertical cross-section is identical."""
        dy = bundle_flow.mesh.spacing[1]
        fluxes = bundle_flow.u_east.sum(axis=1) * dy
        np.testing.assert_allclose(fluxes, fluxes[0], rtol=1e-9)

    def test_cell_velocity_shapes(self, bundle_flow):
        u, v = bundle_flow.cell_velocity()
        assert u.shape == (24, 12)
        assert v.shape == (24, 12)

    def test_symmetric_obstacle_symmetric_flow(self, channel_mesh):
        """Centered obstacle in a symmetric channel -> up/down symmetric u."""
        flow = solve_streamfunction(
            channel_mesh, [Obstacle(0.9, 0.375, 1.1, 0.625)], inflow_speed=1.0
        )
        u = flow.u_east
        np.testing.assert_allclose(u, u[:, ::-1], atol=1e-9)


class TestValidation:
    def test_requires_2d(self):
        m3 = StructuredMesh(dims=(4, 4, 4), lengths=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            solve_streamfunction(m3)

    def test_inflow_scaling(self, channel_mesh):
        f1 = solve_streamfunction(channel_mesh, (), inflow_speed=1.0)
        f2 = solve_streamfunction(channel_mesh, (), inflow_speed=2.5)
        np.testing.assert_allclose(f2.u_east, 2.5 * f1.u_east)


class TestDirectSolve:
    """The block elimination solves the discrete system exactly to rounding."""

    @staticmethod
    def _case(name):
        from repro.solver.tube_bundle import _staggered_bundle

        if name == "tall":  # ny > nx: the blocks run along the other axis
            return (StructuredMesh(dims=(10, 26), lengths=(1.0, 2.0)),
                    [Obstacle(0.3, 0.8, 0.7, 1.2)])
        nx, ny = {"bundle-64x32": (64, 32), "bundle-16x8": (16, 8)}[name]
        return (StructuredMesh(dims=(nx, ny), lengths=(2.0, 1.0)),
                _staggered_bundle(2.0, 1.0, 4, 4, 0.45))

    @pytest.mark.parametrize("name", ["bundle-64x32", "tall", "bundle-16x8"])
    def test_residual_and_fixed_corners(self, name):
        mesh, obstacles = self._case(name)
        psi = solve_streamfunction(mesh, obstacles).psi
        dirichlet, _ = corner_dirichlet(mesh, obstacles)
        fixed = ~np.isnan(dirichlet)
        assert 0 < fixed.sum() < fixed.size
        np.testing.assert_array_equal(psi[fixed], dirichlet[fixed])
        wx, wy = 1.0 / mesh.spacing[0] ** 2, 1.0 / mesh.spacing[1] ** 2
        p = psi
        residual = (2.0 * (wx + wy) * p[1:-1, 1:-1]
                    - wx * (p[:-2, 1:-1] + p[2:, 1:-1])
                    - wy * (p[1:-1, :-2] + p[1:-1, 2:]))
        free = ~fixed[1:-1, 1:-1]
        assert free.any()
        bound = 1e-12 * 2.0 * (wx + wy) * np.abs(psi).max()
        assert np.abs(residual[free]).max() <= bound

    def test_matches_a_dense_solve_of_the_assembled_system(self):
        mesh, obstacles = self._case("bundle-16x8")
        dirichlet, _ = corner_dirichlet(mesh, obstacles)
        ncx, ncy = dirichlet.shape
        fixed = ~np.isnan(dirichlet)
        wx, wy = 1.0 / mesh.spacing[0] ** 2, 1.0 / mesh.spacing[1] ** 2
        index = np.arange(ncx * ncy).reshape(ncx, ncy)
        a = np.zeros((index.size, index.size))
        b = np.where(fixed, dirichlet, 0.0).ravel()
        for i in range(ncx):
            for j in range(ncy):
                row = index[i, j]
                if fixed[i, j]:
                    a[row, row] = 1.0
                    continue
                a[row, row] = 2.0 * (wx + wy)
                for (ni, nj), w in (((i - 1, j), wx), ((i + 1, j), wx),
                                    ((i, j - 1), wy), ((i, j + 1), wy)):
                    a[row, index[ni, nj]] = -w
        dense = np.linalg.solve(a, b).reshape(ncx, ncy)
        psi = solve_streamfunction(mesh, obstacles).psi
        np.testing.assert_allclose(psi, dense, rtol=0, atol=1e-12 * np.abs(dense).max())
