"""The paper's use case: dye injection into a tube-bundle water channel.

Water flows left to right between a staggered bundle of tubes (Fig. 5 of
the paper).  Each ensemble member injects dye along the inlet through two
independent injectors (upper and lower), each controlled by three varying
parameters — concentration, width, and duration — for the paper's total of
six inputs (Sec. 5.2).  The flow itself is frozen and shared by every
member; only the scalar transport differs, exactly as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np

from repro.mesh import StructuredMesh
from repro.sampling import ParameterSpace, Uniform
from repro.solver.advect import AdvectionDiffusion, SwitchedProfile
from repro.solver.flow import Obstacle, StreamfunctionFlow, solve_streamfunction
from repro.solver.simulation import ScalarSimulation

#: Paper ordering of the six varying parameters (Sec. 5.2).
TUBE_BUNDLE_PARAMETER_NAMES = (
    "upper_concentration",
    "lower_concentration",
    "upper_width",
    "lower_width",
    "upper_duration",
    "lower_duration",
)


def tube_bundle_parameter_space() -> ParameterSpace:
    """The 6-parameter space of the study.

    Concentrations in [0.2, 1] (dye units), widths in [0.05, 0.35] (fraction
    of channel height per injector), durations in [0.2, 1] (fraction of the
    simulated time during which the injector is on).
    """
    return ParameterSpace(
        names=TUBE_BUNDLE_PARAMETER_NAMES,
        distributions=(
            Uniform(0.2, 1.0),
            Uniform(0.2, 1.0),
            Uniform(0.05, 0.35),
            Uniform(0.05, 0.35),
            Uniform(0.2, 1.0),
            Uniform(0.2, 1.0),
        ),
    )


@dataclass(frozen=True)
class InjectionParameters:
    """One member's injection settings, decoded from a parameter vector."""

    upper_concentration: float
    lower_concentration: float
    upper_width: float
    lower_width: float
    upper_duration: float
    lower_duration: float

    @classmethod
    def from_vector(cls, x: Sequence[float]) -> "InjectionParameters":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (6,):
            raise ValueError("tube-bundle members take exactly 6 parameters")
        # nan would emit nan fields or never switch an injector on, inf
        # would flood the inlet: refuse both, by name
        bad = [f.name for f, v in zip(fields(cls), x) if not math.isfinite(v)]
        if bad:
            raise ValueError(f"tube-bundle parameters must be finite: {', '.join(bad)}")
        return cls(*[float(v) for v in x])


def _staggered_bundle(
    length: float, height: float, ncols: int, nrows: int, tube_frac: float
) -> List[Obstacle]:
    """Staggered array of square tubes filling the middle of the channel."""
    obstacles: List[Obstacle] = []
    x_span = (0.25 * length, 0.75 * length)
    tube = tube_frac * height / nrows
    for col in range(ncols):
        xc = x_span[0] + (col + 0.5) * (x_span[1] - x_span[0]) / ncols
        offset = 0.5 if col % 2 else 0.0
        for row in range(nrows):
            yc = (row + 0.5 + offset) * height / nrows
            if yc + tube / 2 >= height or yc - tube / 2 <= 0:
                continue
            obstacles.append(
                Obstacle(xc - tube / 2, yc - tube / 2, xc + tube / 2, yc + tube / 2)
            )
    return obstacles


class TubeBundleCase:
    """Geometry + frozen flow + member factory for the sensitivity study.

    Parameters
    ----------
    nx, ny:
        Grid resolution (the paper used 10M hexahedra; defaults here are
        laptop-scale while preserving the geometry and physics).
    ntimesteps:
        Number of *output* timesteps per simulation (paper: 100).
    total_time:
        Physical duration simulated (finite); the inter-output interval is
        ``total_time / ntimesteps`` and the integrator substeps internally.
    """

    def __init__(
        self,
        nx: int = 96,
        ny: int = 48,
        ntimesteps: int = 100,
        total_time: float = 2.0,
        length: float = 2.0,
        height: float = 1.0,
        diffusivity: float = 5e-4,
        tube_columns: int = 4,
        tube_rows: int = 4,
        tube_frac: float = 0.45,
        inflow_speed: float = 1.0,
    ):
        if ntimesteps < 1:
            raise ValueError("ntimesteps must be >= 1")
        if not math.isfinite(total_time):
            raise ValueError(f"total_time must be finite, got {total_time}")
        self.mesh = StructuredMesh(dims=(nx, ny), lengths=(length, height))
        self.ntimesteps = int(ntimesteps)
        self.total_time = float(total_time)
        self.obstacles = _staggered_bundle(length, height, tube_columns, tube_rows, tube_frac)
        self.flow: StreamfunctionFlow = solve_streamfunction(
            self.mesh, self.obstacles, inflow_speed=inflow_speed
        )
        self.integrator = AdvectionDiffusion(self.flow, diffusivity=diffusivity)
        self.height = float(height)
        # injector centre lines: upper at 3/4 H, lower at 1/4 H (two
        # independent injection surfaces along the inlet, Sec. 5.2)
        self.upper_center = 0.75 * height
        self.lower_center = 0.25 * height
        self._y = self.mesh.axis_coordinates(1)

    # ------------------------------------------------------------------ #
    @property
    def ncells(self) -> int:
        return self.mesh.ncells

    @property
    def output_interval(self) -> float:
        return self.total_time / self.ntimesteps

    def injector_bands(
        self, params: InjectionParameters
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Upper and lower injector's inlet profile while it is on.

        Each is the injector's concentration over a band of
        ``width * height`` centred on its injection surface, 0 elsewhere.
        """
        def band(concentration, width, center):
            half = 0.5 * width * self.height
            inside = np.abs(self._y - center) <= half
            return np.where(inside, concentration, 0.0)

        return (
            band(params.upper_concentration, params.upper_width, self.upper_center),
            band(params.lower_concentration, params.lower_width, self.lower_center),
        )

    def switch_off_times(self, params: InjectionParameters) -> Tuple[float, float]:
        """Physical times at which the upper and lower injectors stop."""
        return (
            params.upper_duration * self.total_time,
            params.lower_duration * self.total_time,
        )

    def inlet_profile(self, params: InjectionParameters, t: float) -> np.ndarray:
        """Dye concentration along the inlet at physical time ``t``.

        Each injector contributes its band (:meth:`injector_bands`) while
        ``t < duration * total_time``; contributions add where bands
        overlap (they cannot with the default ranges).
        """
        upper, lower = self.injector_bands(params)
        upper_off, lower_off = self.switch_off_times(params)
        return upper * (t < upper_off) + lower * (t < lower_off)

    def simulation(
        self, parameters: Sequence[float], simulation_id: int = 0
    ) -> ScalarSimulation:
        """Build one ensemble member for a 6-entry parameter vector."""
        params = InjectionParameters.from_vector(parameters)
        return ScalarSimulation(
            integrator=self.integrator,
            inlet_profile_fn=SwitchedProfile(
                *self.injector_bands(params), *self.switch_off_times(params)
            ),
            ntimesteps=self.ntimesteps,
            output_interval=self.output_interval,
            simulation_id=simulation_id,
        )

    def parameter_space(self) -> ParameterSpace:
        return tube_bundle_parameter_space()

    # ------------------------------------------------------------------ #
    def bytes_per_timestep(self) -> int:
        """Size of one member's one-timestep output (float64 field)."""
        return self.ncells * 8

    def study_bytes(self, ngroups: int) -> int:
        """Total ensemble bytes a classical study would write to disk.

        This is the quantity the paper reports as 48 TB for 8000 runs of
        10M cells x 100 steps.
        """
        group_size = len(TUBE_BUNDLE_PARAMETER_NAMES) + 2
        return ngroups * group_size * self.ntimesteps * self.bytes_per_timestep()
