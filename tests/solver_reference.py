"""The flux form the stencil integrators are checked against.

:class:`FluxForm` and :class:`FluxForm3D` build the upwind advective and
two-point diffusive face fluxes of every substep from the frozen face
velocities, difference them per cell and zero the solid cells — the
discretisation ``repro.solver`` integrated face by face before it
precomputed the operator as a 5-point (7-point in 3-D) stencil.  Both
integrate the same linear operator with the same substeps; they differ
only by floating-point reassociation, hence a relative tolerance of
``RTOL`` of the field's largest value.

Each class exposes what :class:`repro.solver.ScalarSimulation` needs of an
integrator (``mesh``, ``initial_condition``, ``step``), so a whole member
run can be replayed through it.

The integrators' own NumPy step is in turn the bit-exact reference of
their C substep loop: :func:`numpy_step` routes a member through it, and
:func:`assert_same_run` compares two whole runs bit for bit.
"""

import pickle

import numpy as np

RTOL = 1e-13


class FluxForm:
    """The 2-D flux-form explicit upwind step on ``integrator``'s flow."""

    def __init__(self, integrator):
        flow = integrator.flow
        self.mesh = integrator.mesh
        self.stable_dt = integrator.stable_dt
        self.diffusivity = integrator.diffusivity
        self.dx, self.dy = self.mesh.spacing[:2]
        self.solid = flow.solid
        fluid = ~flow.solid
        self._ue_pos = np.maximum(flow.u_east, 0.0)
        self._ue_neg = np.minimum(flow.u_east, 0.0)
        self._vn_pos = np.maximum(flow.v_north, 0.0)
        self._vn_neg = np.minimum(flow.v_north, 0.0)
        self._diff_x = fluid[:-1, :] & fluid[1:, :]
        self._diff_y = fluid[:, :-1] & fluid[:, 1:]

    def rhs_fluxes(self, c, inlet_profile):
        """Net flux divergence -> dc/dt array (before the dt multiply)."""
        nx, ny = self.mesh.dims
        dx, dy = self.dx, self.dy

        flux_x = np.empty((nx + 1, ny))
        flux_x[1:-1, :] = (
            self._ue_pos[1:-1, :] * c[:-1, :] + self._ue_neg[1:-1, :] * c[1:, :]
        )
        # inlet face: upwind value is the injected profile (u >= 0 there)
        flux_x[0, :] = (
            self._ue_pos[0, :] * inlet_profile + self._ue_neg[0, :] * c[0, :]
        )
        # outlet face: upwind from the interior on outflow, no backflow dye
        flux_x[-1, :] = self._ue_pos[-1, :] * c[-1, :]

        # walls (j=0 and j=ny) carry zero normal flux
        flux_y = np.zeros((nx, ny + 1))
        flux_y[:, 1:-1] = (
            self._vn_pos[:, 1:-1] * c[:, :-1] + self._vn_neg[:, 1:-1] * c[:, 1:]
        )

        rate = -(
            (flux_x[1:, :] - flux_x[:-1, :]) / dx
            + (flux_y[:, 1:] - flux_y[:, :-1]) / dy
        )

        if self.diffusivity > 0:
            gx = np.zeros((nx + 1, ny))
            gx[1:-1, :] = np.where(self._diff_x, (c[1:, :] - c[:-1, :]) / dx, 0.0)
            gy = np.zeros((nx, ny + 1))
            gy[:, 1:-1] = np.where(self._diff_y, (c[:, 1:] - c[:, :-1]) / dy, 0.0)
            rate += self.diffusivity * (
                (gx[1:, :] - gx[:-1, :]) / dx + (gy[:, 1:] - gy[:, :-1]) / dy
            )

        rate[self.solid] = 0.0
        return rate

    def step(self, c, dt, inlet_profile_fn, t):
        remaining = dt
        while remaining > 1e-15:
            sub = min(self.stable_dt, remaining)
            c += sub * self.rhs_fluxes(c, inlet_profile_fn(t))
            t += sub
            remaining -= sub
        return t

    def initial_condition(self):
        return np.zeros(self.mesh.dims)


class FluxForm3D(FluxForm):
    """The 3-D flux-form step: the planar fluxes extruded along z, plus
    zero-flux spanwise walls and z diffusion in fluid columns."""

    def __init__(self, integrator):
        super().__init__(integrator)
        self.dz = self.mesh.spacing[2]
        fluid2d = ~integrator.flow.solid
        self.solid = integrator.solid
        for name in ("_ue_pos", "_ue_neg", "_vn_pos", "_vn_neg",
                     "_diff_x", "_diff_y"):
            setattr(self, name, getattr(self, name)[:, :, np.newaxis])
        self._diff_z = fluid2d[:, :, np.newaxis]

    def rhs_fluxes(self, c, inlet_profile):
        """dc/dt from advective + diffusive fluxes; inlet profile (ny, nz)."""
        nx, ny, nz = self.mesh.dims

        flux_x = np.empty((nx + 1, ny, nz))
        flux_x[1:-1] = self._ue_pos[1:-1] * c[:-1] + self._ue_neg[1:-1] * c[1:]
        flux_x[0] = self._ue_pos[0] * inlet_profile + self._ue_neg[0] * c[0]
        flux_x[-1] = self._ue_pos[-1] * c[-1]

        flux_y = np.zeros((nx, ny + 1, nz))
        flux_y[:, 1:-1] = (
            self._vn_pos[:, 1:-1] * c[:, :-1] + self._vn_neg[:, 1:-1] * c[:, 1:]
        )

        rate = -(
            (flux_x[1:] - flux_x[:-1]) / self.dx
            + (flux_y[:, 1:] - flux_y[:, :-1]) / self.dy
        )

        if self.diffusivity > 0:
            gx = np.zeros((nx + 1, ny, nz))
            gx[1:-1] = np.where(self._diff_x, (c[1:] - c[:-1]) / self.dx, 0.0)
            gy = np.zeros((nx, ny + 1, nz))
            gy[:, 1:-1] = np.where(
                self._diff_y, (c[:, 1:] - c[:, :-1]) / self.dy, 0.0
            )
            gz = np.zeros((nx, ny, nz + 1))
            gz[:, :, 1:-1] = np.where(
                self._diff_z, (c[:, :, 1:] - c[:, :, :-1]) / self.dz, 0.0
            )
            rate += self.diffusivity * (
                (gx[1:] - gx[:-1]) / self.dx
                + (gy[:, 1:] - gy[:, :-1]) / self.dy
                + (gz[:, :, 1:] - gz[:, :, :-1]) / self.dz
            )

        rate[self.solid] = 0.0
        return rate


def assert_matches(fields, reference):
    """``max |fields - reference| <= RTOL * max |reference|``."""
    scale = np.abs(reference).max()
    assert scale > 0, "reference run carries no dye"
    gap = np.abs(fields - reference).max()
    assert gap <= RTOL * scale, f"max |delta| {gap:.3e} > {RTOL} * {scale:.3e}"


def run_member(sim):
    """``(fields, end time)`` of a whole member run."""
    return sim.run_to_completion(), sim._t


def numpy_step(sim):
    """``sim`` with its profile behind a plain callable, which the
    integrator steps in NumPy, never in C."""
    profile = sim.inlet_profile_fn
    sim.inlet_profile_fn = lambda t: profile(t)
    return sim


def assert_same_run(run, reference):
    """Equal fields, bit for bit, and an equal end time."""
    np.testing.assert_array_equal(run[0], reference[0])
    assert run[1] == reference[1]


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))
