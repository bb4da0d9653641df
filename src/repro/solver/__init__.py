"""CFD substrate standing in for Code_Saturne (paper Sec. 5.1-5.2).

The paper's experiment freezes the velocity/pressure/turbulence fields of a
converged tube-bundle flow and solves *only* the scalar convection-diffusion
equation for a dye concentration, per simulation, with 6 varying injection
parameters.  We reproduce exactly that structure:

* :mod:`repro.solver.flow` — a steady, discretely divergence-free velocity
  field from a streamfunction Laplace solve around the tube bundle
  (the "pre-run 4000-timestep simulation" of Sec. 5.2, collapsed to a
  linear solve since only the steady state is ever used);
* :mod:`repro.solver.advect` — an explicit upwind finite-volume
  convection-diffusion integrator for the dye scalar, stepping a
  5-point stencil built once per integrator (:mod:`.advect3d` extrudes
  it along z), one output interval per call into a C loop where a
  compiler is available;
* :mod:`repro.solver.tube_bundle` — the use case: geometry, the six
  injection parameters, and the per-member :class:`ScalarSimulation`;
* :mod:`repro.solver.writer` — an EnSight-Gold-like per-timestep file
  writer plus a postmortem reader, used ONLY by the "classical" baseline
  that Melissa's in-transit path is compared against.
"""

from repro.solver.flow import StreamfunctionFlow, solve_streamfunction
from repro.solver.advect import AdvectionDiffusion
from repro.solver.advect3d import AdvectionDiffusion3D
from repro.solver.tube_bundle import (
    TubeBundleCase,
    InjectionParameters,
    TUBE_BUNDLE_PARAMETER_NAMES,
    tube_bundle_parameter_space,
)
from repro.solver.tube_bundle3d import TubeBundleCase3D
from repro.solver.simulation import ScalarSimulation
from repro.solver.writer import EnsightLikeWriter, PostmortemReader

__all__ = [
    "StreamfunctionFlow",
    "solve_streamfunction",
    "AdvectionDiffusion",
    "AdvectionDiffusion3D",
    "TubeBundleCase",
    "TubeBundleCase3D",
    "InjectionParameters",
    "TUBE_BUNDLE_PARAMETER_NAMES",
    "tube_bundle_parameter_space",
    "ScalarSimulation",
    "EnsightLikeWriter",
    "PostmortemReader",
]
