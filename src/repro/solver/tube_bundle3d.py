"""3-D tube-bundle case: hexahedral dye fields like the paper's mesh.

Same six injection parameters as the 2-D case; the spanwise direction is
resolved (dye diffuses in z and the injectors can be spanwise-confined),
so every ensemble member produces true hexahedral (nx, ny, nz) fields —
the shape the paper streams 48 TB of.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sampling import ParameterSpace
from repro.solver.advect import SwitchedProfile
from repro.solver.advect3d import AdvectionDiffusion3D
from repro.solver.simulation import ScalarSimulation
from repro.solver.tube_bundle import (
    InjectionParameters,
    TubeBundleCase,
    tube_bundle_parameter_space,
)


class TubeBundleCase3D:
    """Extruded tube-bundle study case producing hexahedral fields.

    Parameters mirror :class:`TubeBundleCase` plus the spanwise shape.
    ``injector_span`` confines injection to the central fraction of the
    depth, so dye genuinely spreads in z by diffusion (a purely-uniform
    injection would make z a redundant axis).
    """

    def __init__(
        self,
        nx: int = 48,
        ny: int = 24,
        nz: int = 8,
        ntimesteps: int = 10,
        total_time: float = 1.5,
        length: float = 2.0,
        height: float = 1.0,
        depth: float = 0.5,
        diffusivity: float = 5e-4,
        injector_span: float = 0.5,
        **flow_kwargs,
    ):
        if ntimesteps < 1:
            raise ValueError("ntimesteps must be >= 1")
        if not 0 < injector_span <= 1.0:
            raise ValueError("injector_span must be in (0, 1]")
        # reuse the 2-D case for geometry + frozen flow
        base = TubeBundleCase(
            nx=nx, ny=ny, ntimesteps=ntimesteps, total_time=total_time,
            length=length, height=height, diffusivity=diffusivity,
            **flow_kwargs,
        )
        self._base = base
        self.flow = base.flow
        self.obstacles = base.obstacles
        self.integrator = AdvectionDiffusion3D(
            base.flow, nz=nz, depth=depth, diffusivity=diffusivity
        )
        self.mesh = self.integrator.mesh
        self.ntimesteps = int(ntimesteps)
        self.total_time = float(total_time)
        self.height = float(height)
        self.depth = float(depth)
        self.injector_span = float(injector_span)
        self._y = base._y
        self._z = self.mesh.axis_coordinates(2)
        # (nz,) 1.0 inside the central injector_span of the depth, else 0.0
        half_span = 0.5 * self.injector_span * self.depth
        inside = np.abs(self._z - 0.5 * self.depth) <= half_span
        self._span = inside.astype(np.float64)
        self.upper_center = base.upper_center
        self.lower_center = base.lower_center

    # ------------------------------------------------------------------ #
    @property
    def ncells(self) -> int:
        return self.mesh.ncells

    @property
    def output_interval(self) -> float:
        return self.total_time / self.ntimesteps

    def inlet_profile(self, params: InjectionParameters, t: float) -> np.ndarray:
        """(ny, nz) inlet dye concentration at time t."""
        return np.outer(self._base.inlet_profile(params, t), self._span)

    def simulation(
        self, parameters: Sequence[float], simulation_id: int = 0
    ) -> ScalarSimulation:
        params = InjectionParameters.from_vector(parameters)
        upper, lower = self._base.injector_bands(params)
        return ScalarSimulation(
            integrator=self.integrator,
            inlet_profile_fn=SwitchedProfile(
                np.outer(upper, self._span),
                np.outer(lower, self._span),
                *self._base.switch_off_times(params),
            ),
            ntimesteps=self.ntimesteps,
            output_interval=self.output_interval,
            simulation_id=simulation_id,
        )

    def parameter_space(self) -> ParameterSpace:
        return tube_bundle_parameter_space()

    def bytes_per_timestep(self) -> int:
        return self.ncells * 8

    def study_bytes(self, ngroups: int) -> int:
        return ngroups * 8 * self.ntimesteps * self.bytes_per_timestep()
