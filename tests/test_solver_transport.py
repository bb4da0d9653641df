"""Tests for the convection-diffusion integrator, the tube-bundle case,
and the classical-output writer/reader."""

import copy
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import cext
from repro.mesh import StructuredMesh
from repro.solver import (
    AdvectionDiffusion,
    EnsightLikeWriter,
    InjectionParameters,
    PostmortemReader,
    ScalarSimulation,
    TubeBundleCase,
    tube_bundle_parameter_space,
)
from repro.solver.advect import SwitchedProfile
from repro.solver.flow import Obstacle, solve_streamfunction
from solver_reference import (
    FluxForm,
    assert_matches,
    assert_same_run,
    numpy_step,
    pickle_round_trip,
    run_member,
)

NON_FINITE = [float("nan"), float("inf")]
#: one finite parameter made non-finite: nan fields, an injector that is
#: never on, an inlet flooded end to end
NON_FINITE_PARAMETERS = [
    ("upper_concentration", float("nan")),
    ("upper_duration", float("nan")),
    ("upper_width", float("inf")),
]
compiled_only = pytest.mark.skipif(
    cext.stencil_library() is None, reason="no C compiler"
)


@pytest.fixture(params=["compiled", "numpy"])
def either_path(request, monkeypatch):
    """Run a test on the C loop (where it builds) and on the NumPy step,
    the latter with the stencil loader reporting no library."""
    if request.param == "numpy":
        monkeypatch.setattr(cext, "stencil_library", lambda: None)
    elif cext.stencil_library() is None:
        pytest.skip("no C compiler")


def must_not_step(t):
    raise AssertionError("a non-finite dt reached the substep loop")


@pytest.fixture(scope="module")
def small_case():
    """Coarse but geometrically faithful tube-bundle case for tests."""
    return TubeBundleCase(nx=32, ny=16, ntimesteps=10, total_time=1.0)


def mid_params(**overrides):
    base = dict(
        upper_concentration=1.0,
        lower_concentration=1.0,
        upper_width=0.2,
        lower_width=0.2,
        upper_duration=1.0,
        lower_duration=1.0,
    )
    base.update(overrides)
    return InjectionParameters(**base)


def vector(p: InjectionParameters):
    return np.array(
        [
            p.upper_concentration,
            p.lower_concentration,
            p.upper_width,
            p.lower_width,
            p.upper_duration,
            p.lower_duration,
        ]
    )


class TestAdvectionDiffusion:
    def test_stable_dt_positive(self, small_case):
        assert small_case.integrator.stable_dt > 0

    def test_validation(self, small_case):
        with pytest.raises(ValueError):
            AdvectionDiffusion(small_case.flow, diffusivity=-1.0)
        with pytest.raises(ValueError):
            AdvectionDiffusion(small_case.flow, cfl=0.0)

    def test_zero_inlet_stays_zero(self, small_case):
        integ = small_case.integrator
        c = integ.initial_condition()
        t = integ.step(c, 0.3, lambda t: np.zeros(16), 0.0)
        assert t == pytest.approx(0.3)
        np.testing.assert_allclose(c, 0.0, atol=1e-14)

    def test_dye_enters_and_advects_downstream(self, small_case):
        integ = small_case.integrator
        params = mid_params()
        c = integ.initial_condition()
        integ.step(c, 0.2, lambda t: small_case.inlet_profile(params, t), 0.0)
        # dye present near inlet, not yet at outlet
        assert c[0, :].max() > 0.05
        assert c[-1, :].max() < 1e-6

    def test_maximum_principle(self, small_case):
        """Upwind + explicit Euler at CFL<1 is monotone: c stays in [0, cmax]."""
        integ = small_case.integrator
        params = mid_params()
        c = integ.initial_condition()
        integ.step(c, 1.0, lambda t: small_case.inlet_profile(params, t), 0.0)
        assert c.min() >= -1e-12
        assert c.max() <= 1.0 + 1e-9

    def test_solid_cells_stay_clean(self, small_case):
        integ = small_case.integrator
        params = mid_params()
        c = integ.initial_condition()
        integ.step(c, 1.0, lambda t: small_case.inlet_profile(params, t), 0.0)
        np.testing.assert_allclose(c[integ.solid], 0.0, atol=1e-14)

    def test_step_rejects_nonpositive_dt(self, small_case):
        c = small_case.integrator.initial_condition()
        with pytest.raises(ValueError):
            small_case.integrator.step(c, 0.0, lambda t: np.zeros(16), 0.0)

    def test_pure_advection_conserves_dye_while_inside(self):
        """With injection off and dye mid-channel, total dye is conserved
        until it reaches the outlet (zero diffusion, no obstacles)."""
        mesh = StructuredMesh(dims=(40, 10), lengths=(4.0, 1.0))
        flow = solve_streamfunction(mesh, (), inflow_speed=1.0)
        integ = AdvectionDiffusion(flow, diffusivity=0.0)
        c = integ.initial_condition()
        c[5:10, :] = 1.0  # blob far from the outlet
        total0 = integ.total_dye(c)
        integ.step(c, 0.5, lambda t: np.zeros(10), 0.0)
        assert integ.total_dye(c) == pytest.approx(total0, rel=1e-9)

    def test_quiescent_zero_diffusion_rejected(self):
        mesh = StructuredMesh(dims=(4, 4), lengths=(1.0, 1.0))
        flow = solve_streamfunction(mesh, (), inflow_speed=0.0)
        with pytest.raises(ValueError):
            AdvectionDiffusion(flow, diffusivity=0.0)

    @pytest.mark.parametrize("dt", NON_FINITE)
    def test_step_rejects_non_finite_dt(self, small_case, dt):
        """nan would skip the substep loop (zero fields, no error); inf
        would never leave it."""
        c = small_case.integrator.initial_condition()
        with pytest.raises(ValueError, match="finite"):
            small_case.integrator.step(c, dt, must_not_step, 0.0)

    def test_step_rejects_a_strided_field(self, small_case):
        c = np.zeros((16, 32)).T  # (32, 16), not C-contiguous
        with pytest.raises(ValueError, match="C-contiguous"):
            small_case.integrator.step(c, 0.1, must_not_step, 0.0)


class TestStencilMatchesFluxForm:
    """Whole member runs against the flux form of ``solver_reference``."""

    def test_obstacles_with_injectors_switching_off(self, small_case):
        params = mid_params(
            upper_concentration=0.9, lower_concentration=0.6,
            upper_width=0.25, lower_width=0.3,
            upper_duration=0.35, lower_duration=0.55,
        )
        fields = small_case.simulation(vector(params)).run_to_completion()
        reference = ScalarSimulation(
            FluxForm(small_case.integrator),
            lambda t: small_case.inlet_profile(params, t),
            small_case.ntimesteps,
            small_case.output_interval,
        ).run_to_completion()
        assert_matches(fields, reference)

    def test_obstacle_free_zero_diffusion_channel(self):
        integ, profile = zero_diffusion_channel()
        runs = [
            ScalarSimulation(stepper, profile, 12, 0.25).run_to_completion()
            for stepper in (integ, FluxForm(integ))
        ]
        assert_matches(*runs)


def zero_diffusion_channel():
    """An obstacle-free channel, no diffusion, one band switching off."""
    mesh = StructuredMesh(dims=(40, 10), lengths=(4.0, 1.0))
    integ = AdvectionDiffusion(
        solve_streamfunction(mesh, (), inflow_speed=1.0), diffusivity=0.0
    )
    band = np.where(np.arange(10) >= 5, 0.8, 0.0)
    return integ, SwitchedProfile(band, np.zeros(10), 0.7, 0.0)


SWITCHING_OFF = mid_params(
    upper_concentration=0.9, lower_concentration=0.6,
    upper_width=0.25, lower_width=0.3,
    upper_duration=0.35, lower_duration=0.55,
)


class TestCompiledLoop:
    """The C substep loop against the NumPy step it replaces: equal bits."""

    @compiled_only
    def test_obstacles_with_injectors_switching_off(self, small_case):
        v = vector(SWITCHING_OFF)
        assert_same_run(
            run_member(small_case.simulation(v)),
            run_member(numpy_step(small_case.simulation(v))),
        )

    @compiled_only
    def test_obstacle_free_zero_diffusion_channel(self):
        integ, profile = zero_diffusion_channel()
        assert_same_run(
            run_member(ScalarSimulation(integ, profile, 12, 0.25)),
            run_member(ScalarSimulation(integ, lambda t: profile(t), 12, 0.25)),
        )

    def test_members_run_without_a_compiler(self, small_case, monkeypatch):
        v = vector(SWITCHING_OFF)
        default = run_member(small_case.simulation(v))
        monkeypatch.setattr(cext, "stencil_library", lambda: None)
        assert_same_run(run_member(small_case.simulation(v)), default)

    def test_members_run_when_the_cache_refuses_the_library(
        self, small_case, monkeypatch, tmp_path
    ):
        """A build that cannot be moved into the cache (EXDEV across
        filesystems, EACCES on a read-only cache) leaves the members on
        the NumPy step instead of failing them."""
        v = vector(SWITCHING_OFF)
        default = run_member(small_case.simulation(v))

        def cross_device(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(os, "replace", cross_device)
        cext.stencil_library.cache_clear()
        try:
            assert cext.stencil_library() is None
            assert_same_run(run_member(small_case.simulation(v)), default)
        finally:
            cext.stencil_library.cache_clear()

    @compiled_only
    def test_the_build_is_renamed_within_the_cache(self, monkeypatch, tmp_path):
        """The library is compiled beside the cache, so moving it into
        place never crosses filesystems."""
        moves, replace = [], os.replace

        def record(src, dst):
            moves.append((Path(src), Path(dst)))
            replace(src, dst)

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(os, "replace", record)
        cext.stencil_library.cache_clear()
        try:
            assert cext.stencil_library() is not None
        finally:
            cext.stencil_library.cache_clear()
        ((src, dst),) = moves
        assert src.parent.parent == dst.parent == tmp_path / "repro-kernels"

    @pytest.mark.parametrize("round_trip", [pickle_round_trip, copy.deepcopy])
    def test_case_round_trip(self, small_case, round_trip):
        v = vector(SWITCHING_OFF)
        assert_same_run(
            run_member(round_trip(small_case).simulation(v)),
            run_member(small_case.simulation(v)),
        )


class TestStepRefusesBadArrays:
    """Each bad array fails by name before any cell is written, on the C
    loop and on the NumPy step alike."""

    @pytest.fixture
    def profile(self, small_case):
        return small_case.simulation(vector(mid_params())).inlet_profile_fn

    @pytest.mark.parametrize("c, match", [
        (np.zeros((32, 16), dtype=np.float32), "float64"),
        (np.zeros(32 * 15), "512 cells"),
    ], ids=["float32", "size"])
    def test_field(self, small_case, profile, either_path, c, match):
        with pytest.raises(ValueError, match=match):
            small_case.integrator.step(c, 0.1, profile, 0.0)
        assert not c.any()

    def test_read_only_field(self, small_case, profile, either_path):
        c = small_case.integrator.initial_condition()
        c.setflags(write=False)
        with pytest.raises(ValueError, match="writeable"):
            small_case.integrator.step(c, 0.1, profile, 0.0)

    @pytest.mark.parametrize("band", [
        np.ones(15),  # one cell short of the inlet
        np.ones(16, dtype=np.float32),
        np.ones(32)[::2],  # strided
    ], ids=["size", "float32", "strided"])
    def test_band(self, small_case, either_path, band):
        c = small_case.integrator.initial_condition()
        bad = SwitchedProfile(band, band, 0.5, 0.5)
        with pytest.raises(ValueError, match="band"):
            small_case.integrator.step(c, 0.1, bad, 0.0)
        assert not c.any()


class TestNonFiniteTimes:
    """Each is refused when built, before any stepping."""

    @pytest.mark.parametrize("total_time", NON_FINITE)
    def test_case_total_time(self, total_time):
        with pytest.raises(ValueError, match="finite"):
            TubeBundleCase(nx=8, ny=8, ntimesteps=4, total_time=total_time)

    @pytest.mark.parametrize("interval", NON_FINITE)
    def test_simulation_output_interval(self, small_case, interval):
        with pytest.raises(ValueError, match="finite"):
            ScalarSimulation(small_case.integrator, must_not_step, 4, interval)


class TestTubeBundleCase:
    def test_geometry(self, small_case):
        assert small_case.ncells == 512
        assert len(small_case.obstacles) > 0
        assert small_case.flow.solid.sum() > 0

    def test_parameter_space_matches_paper(self):
        sp = tube_bundle_parameter_space()
        assert sp.nparams == 6
        assert sp.names[0] == "upper_concentration"

    def test_inlet_profile_bands(self, small_case):
        p = mid_params(lower_concentration=0.0)
        prof = small_case.inlet_profile(p, 0.0)
        y = small_case.mesh.axis_coordinates(1)
        upper = np.abs(y - 0.75) <= 0.1
        np.testing.assert_allclose(prof[upper], 1.0)
        np.testing.assert_allclose(prof[~upper], 0.0)

    def test_duration_switches_off(self, small_case):
        p = mid_params(upper_duration=0.5, lower_duration=0.5)
        assert small_case.inlet_profile(p, 0.0).max() > 0
        assert small_case.inlet_profile(p, 0.51 * small_case.total_time).max() == 0.0

    def test_member_profile_is_inlet_profile_at_every_switch(self, small_case):
        """The member's four cached arrays equal the definition just below,
        at and just above each switch-off time, and are read-only."""
        p = mid_params(upper_duration=0.35, lower_duration=0.55)
        profile_fn = small_case.simulation(vector(p)).inlet_profile_fn
        for duration in (p.upper_duration, p.lower_duration):
            off = duration * small_case.total_time
            for t in (np.nextafter(off, -np.inf), off, np.nextafter(off, np.inf)):
                cached = profile_fn(t)
                np.testing.assert_array_equal(cached, small_case.inlet_profile(p, t))
                assert not cached.flags.writeable

    def test_invalid_parameter_vector(self, small_case):
        with pytest.raises(ValueError):
            small_case.simulation(np.zeros(5))

    @pytest.mark.parametrize("name, value", NON_FINITE_PARAMETERS)
    def test_non_finite_parameter(self, small_case, name, value):
        with pytest.raises(ValueError, match=name):
            small_case.simulation(vector(mid_params(**{name: value})))

    def test_bytes_accounting(self, small_case):
        per_step = small_case.bytes_per_timestep()
        assert per_step == 512 * 8
        # 8 members per group (p=6), 10 steps
        assert small_case.study_bytes(3) == 3 * 8 * 10 * per_step

    def test_invalid_ntimesteps(self):
        with pytest.raises(ValueError):
            TubeBundleCase(nx=8, ny=8, ntimesteps=0)


class TestScalarSimulation:
    def test_iteration_protocol(self, small_case):
        sim = small_case.simulation(vector(mid_params()), simulation_id=3)
        steps = list(sim)
        assert [s for s, _ in steps] == list(range(10))
        assert sim.finished
        assert steps[0][1].shape == (512,)
        with pytest.raises(RuntimeError):
            sim.advance()

    def test_timesteps_in_increasing_order_with_growing_dye(self, small_case):
        sim = small_case.simulation(vector(mid_params()))
        last_total = -1.0
        for step, field in sim:
            if step < 5:  # while injecting, dye accumulates
                total = field.sum()
                assert total > last_total
                last_total = total

    def test_run_to_completion_matches_stepwise(self, small_case):
        v = vector(mid_params(upper_concentration=0.7))
        stack = small_case.simulation(v).run_to_completion()
        sim2 = small_case.simulation(v)
        for step, field in sim2:
            np.testing.assert_array_equal(stack[step], field)

    def test_deterministic_across_instances(self, small_case):
        v = vector(mid_params())
        a = small_case.simulation(v).run_to_completion()
        b = small_case.simulation(v).run_to_completion()
        np.testing.assert_array_equal(a, b)

    def test_parameters_change_output(self, small_case):
        a = small_case.simulation(vector(mid_params())).run_to_completion()
        b = small_case.simulation(
            vector(mid_params(upper_concentration=0.3))
        ).run_to_completion()
        assert not np.allclose(a, b)

    def test_upper_parameters_do_not_touch_lower_half(self, small_case):
        """The paper's headline interpretation (Sec. 5.5, point 1): upper
        injector parameters have no influence on the bottom half."""
        base = vector(mid_params())
        changed = vector(mid_params(upper_concentration=0.25, upper_width=0.3))
        fa = small_case.simulation(base).run_to_completion()
        fb = small_case.simulation(changed).run_to_completion()
        grid_a = small_case.mesh.to_grid(fa[-1])
        grid_b = small_case.mesh.to_grid(fb[-1])
        ny = small_case.mesh.dims[1]
        lower_a, lower_b = grid_a[:, : ny // 3], grid_b[:, : ny // 3]
        # weak cross-channel diffusion allows a tiny residual coupling;
        # the advective influence is orders of magnitude larger above
        np.testing.assert_allclose(lower_a, lower_b, atol=1e-4)
        assert np.abs(grid_a[:, 2 * ny // 3 :] - grid_b[:, 2 * ny // 3 :]).max() > 1e-2
        # but the upper half must differ
        assert not np.allclose(grid_a[:, 2 * ny // 3 :], grid_b[:, 2 * ny // 3 :])


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        writer = EnsightLikeWriter(tmp_path / "ens")
        field = np.linspace(0, 1, 50)
        writer.write(7, 3, field)
        assert writer.files_written == 1
        assert writer.bytes_written >= field.nbytes
        reader = PostmortemReader(tmp_path / "ens")
        sim_id, step, back = reader.read(writer.path_for(7, 3))
        assert (sim_id, step) == (7, 3)
        np.testing.assert_array_equal(back, field)
        assert reader.bytes_read == writer.bytes_written

    def test_read_simulation_stack(self, tmp_path):
        writer = EnsightLikeWriter(tmp_path)
        for step in range(4):
            writer.write(1, step, np.full(10, float(step)))
        reader = PostmortemReader(tmp_path)
        stack = reader.read_simulation(1)
        assert stack.shape == (4, 10)
        np.testing.assert_array_equal(stack[2], 2.0)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PostmortemReader(tmp_path / "nope")

    def test_missing_simulation(self, tmp_path):
        EnsightLikeWriter(tmp_path)  # creates dir
        with pytest.raises(FileNotFoundError):
            PostmortemReader(tmp_path).read_simulation(42)

    def test_bad_magic(self, tmp_path):
        EnsightLikeWriter(tmp_path)
        bad = tmp_path / "sim000000_step00000.bin"
        bad.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(ValueError):
            PostmortemReader(tmp_path).read(bad)

    def test_iterates_all_files(self, tmp_path):
        writer = EnsightLikeWriter(tmp_path)
        for sim in range(2):
            for step in range(3):
                writer.write(sim, step, np.zeros(5))
        reader = PostmortemReader(tmp_path)
        assert len(list(reader)) == 6
