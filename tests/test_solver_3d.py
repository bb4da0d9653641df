"""Tests for the 3-D extruded solver and hexahedral tube-bundle case."""

import copy

import numpy as np
import pytest

from repro import SensitivityStudy
from repro.kernels import cext
from repro.mesh import StructuredMesh
from repro.solver import AdvectionDiffusion3D, ScalarSimulation, TubeBundleCase3D
from repro.solver.flow import solve_streamfunction
from repro.solver.tube_bundle import InjectionParameters
from solver_reference import (
    FluxForm3D,
    assert_matches,
    assert_same_run,
    numpy_step,
    pickle_round_trip,
    run_member,
)

NON_FINITE = [float("nan"), float("inf")]


def must_not_step(t):
    raise AssertionError("a non-finite dt reached the substep loop")


@pytest.fixture(scope="module")
def case3d():
    return TubeBundleCase3D(nx=20, ny=10, nz=6, ntimesteps=4, total_time=0.8)


def mid_params(**overrides):
    base = dict(
        upper_concentration=1.0, lower_concentration=1.0,
        upper_width=0.2, lower_width=0.2,
        upper_duration=1.0, lower_duration=1.0,
    )
    base.update(overrides)
    return InjectionParameters(**base)


def vec(p):
    return np.array([
        p.upper_concentration, p.lower_concentration,
        p.upper_width, p.lower_width,
        p.upper_duration, p.lower_duration,
    ])


class TestIntegrator3D:
    def test_validation(self):
        mesh = StructuredMesh(dims=(8, 4), lengths=(2.0, 1.0))
        flow = solve_streamfunction(mesh, (), inflow_speed=1.0)
        with pytest.raises(ValueError):
            AdvectionDiffusion3D(flow, nz=0)
        with pytest.raises(ValueError):
            AdvectionDiffusion3D(flow, nz=2, depth=0.0)
        with pytest.raises(ValueError):
            AdvectionDiffusion3D(flow, nz=2, diffusivity=-1.0)

    def test_zero_inlet_stays_zero(self, case3d):
        integ = case3d.integrator
        c = integ.initial_condition()
        nz = case3d.mesh.dims[2]
        integ.step(c, 0.2, lambda t: np.zeros((10, nz)), 0.0)
        np.testing.assert_allclose(c, 0.0, atol=1e-14)

    def test_maximum_principle_3d(self, case3d):
        integ = case3d.integrator
        p = mid_params()
        c = integ.initial_condition()
        integ.step(c, 0.6, lambda t: case3d.inlet_profile(p, t), 0.0)
        assert c.min() >= -1e-12
        assert c.max() <= 1.0 + 1e-9

    def test_solid_columns_stay_clean(self, case3d):
        integ = case3d.integrator
        p = mid_params()
        c = integ.initial_condition()
        integ.step(c, 0.6, lambda t: case3d.inlet_profile(p, t), 0.0)
        np.testing.assert_allclose(c[integ.solid], 0.0, atol=1e-14)

    def test_pure_advection_conserves_dye(self):
        mesh = StructuredMesh(dims=(24, 6), lengths=(4.0, 1.0))
        flow = solve_streamfunction(mesh, (), inflow_speed=1.0)
        integ = AdvectionDiffusion3D(flow, nz=4, depth=1.0, diffusivity=0.0)
        c = integ.initial_condition()
        c[4:8, :, 1:3] = 1.0
        total0 = integ.total_dye(c)
        integ.step(c, 0.4, lambda t: np.zeros((6, 4)), 0.0)
        assert integ.total_dye(c) == pytest.approx(total0, rel=1e-9)

    def test_spanwise_diffusion_spreads_dye(self, case3d):
        """Dye injected in the central z band must reach the side layers
        by diffusion — the genuinely 3-D behaviour."""
        integ = case3d.integrator
        p = mid_params()
        c = integ.initial_condition()
        integ.step(c, case3d.total_time, lambda t: case3d.inlet_profile(p, t), 0.0)
        edge_layers = c[:, :, [0, -1]]
        center_layers = c[:, :, c.shape[2] // 2]
        assert center_layers.max() > edge_layers.max() > 1e-6

    def test_z_symmetry(self, case3d):
        """Centered spanwise injection in a z-symmetric domain -> the dye
        field is symmetric about the mid-depth plane."""
        integ = case3d.integrator
        p = mid_params()
        c = integ.initial_condition()
        integ.step(c, 0.5, lambda t: case3d.inlet_profile(p, t), 0.0)
        np.testing.assert_allclose(c, c[:, :, ::-1], atol=1e-12)

    def test_member_run_matches_flux_form(self, case3d):
        p = mid_params(upper_concentration=0.9, lower_concentration=0.6,
                       upper_duration=0.35, lower_duration=0.55)
        fields = case3d.simulation(vec(p)).run_to_completion()
        reference = ScalarSimulation(
            FluxForm3D(case3d.integrator),
            lambda t: case3d.inlet_profile(p, t),
            case3d.ntimesteps,
            case3d.output_interval,
        ).run_to_completion()
        assert_matches(fields, reference)

    @pytest.mark.parametrize("dt", NON_FINITE)
    def test_step_rejects_non_finite_dt(self, case3d, dt):
        c = case3d.integrator.initial_condition()
        with pytest.raises(ValueError, match="finite"):
            case3d.integrator.step(c, dt, must_not_step, 0.0)


SWITCHING_OFF = mid_params(upper_concentration=0.9, lower_concentration=0.6,
                           upper_duration=0.35, lower_duration=0.55)


class TestCompiledLoop3D:
    """The C loop takes the z pair like the planar two: equal bits."""

    @pytest.mark.skipif(cext.stencil_library() is None, reason="no C compiler")
    def test_member_run_matches_numpy_step(self, case3d):
        v = vec(SWITCHING_OFF)
        assert_same_run(
            run_member(case3d.simulation(v)),
            run_member(numpy_step(case3d.simulation(v))),
        )

    def test_members_run_without_a_compiler(self, case3d, monkeypatch):
        v = vec(SWITCHING_OFF)
        default = run_member(case3d.simulation(v))
        monkeypatch.setattr(cext, "stencil_library", lambda: None)
        assert_same_run(run_member(case3d.simulation(v)), default)

    @pytest.mark.parametrize("round_trip", [pickle_round_trip, copy.deepcopy])
    def test_case_round_trip(self, case3d, round_trip):
        v = vec(SWITCHING_OFF)
        assert_same_run(
            run_member(round_trip(case3d).simulation(v)),
            run_member(case3d.simulation(v)),
        )


class TestCase3D:
    def test_geometry(self, case3d):
        assert case3d.mesh.ndim == 3
        assert case3d.ncells == 20 * 10 * 6
        assert case3d.bytes_per_timestep() == case3d.ncells * 8

    def test_inlet_profile_shape_and_span(self, case3d):
        prof = case3d.inlet_profile(mid_params(), 0.0)
        assert prof.shape == (10, 6)
        # injection confined to the central half of the depth
        assert prof[:, 0].max() == 0.0
        assert prof[:, 3].max() > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TubeBundleCase3D(nx=8, ny=4, nz=2, ntimesteps=0)
        with pytest.raises(ValueError):
            TubeBundleCase3D(nx=8, ny=4, nz=2, injector_span=0.0)

    @pytest.mark.parametrize("name, value", [
        ("upper_concentration", float("nan")),
        ("upper_duration", float("nan")),
        ("upper_width", float("inf")),
    ])
    def test_non_finite_parameter(self, case3d, name, value):
        with pytest.raises(ValueError, match=name):
            case3d.simulation(vec(mid_params(**{name: value})))

    @pytest.mark.parametrize("total_time", NON_FINITE)
    def test_non_finite_total_time(self, total_time):
        with pytest.raises(ValueError, match="finite"):
            TubeBundleCase3D(nx=8, ny=4, nz=2, ntimesteps=2, total_time=total_time)

    def test_member_profile_is_inlet_profile_at_every_switch(self, case3d):
        p = mid_params(upper_duration=0.35, lower_duration=0.55)
        profile_fn = case3d.simulation(vec(p)).inlet_profile_fn
        for duration in (p.upper_duration, p.lower_duration):
            off = duration * case3d.total_time
            for t in (np.nextafter(off, -np.inf), off, np.nextafter(off, np.inf)):
                cached = profile_fn(t)
                np.testing.assert_array_equal(cached, case3d.inlet_profile(p, t))
                assert not cached.flags.writeable

    def test_simulation_protocol(self, case3d):
        sim = case3d.simulation(vec(mid_params()))
        step, field = sim.advance()
        assert step == 0
        assert field.shape == (case3d.ncells,)

    def test_end_to_end_study(self):
        """Full in-transit study on hexahedral fields."""
        case = TubeBundleCase3D(nx=12, ny=6, nz=4, ntimesteps=3, total_time=0.6)
        study = SensitivityStudy.for_tube_bundle(
            case, ngroups=4, seed=3, server_ranks=2, client_ranks=2
        )
        results = study.run(steps_per_tick=3)
        assert results.groups_integrated == 4
        assert results.first_order.shape == (6, 3, case.ncells)
        # variance concentrated in the spanwise-central injection band
        var_grid = case.mesh.to_grid(results.variance[2])
        nz = case.mesh.dims[2]
        assert np.nanmax(var_grid[:, :, nz // 2]) > 0
        # solid columns carry zero variance at every depth
        solid3d = case.integrator.solid
        np.testing.assert_allclose(var_grid[solid3d], 0.0, atol=1e-12)
        # (4 groups is far too few for index values; the structural
        # upper/lower-independence claims are asserted by the 64-group
        # Fig. 7 benchmark on the 2-D case)
