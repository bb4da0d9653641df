"""3-D convection-diffusion on an extruded tube-bundle flow.

The paper's mesh is 3-D (9.6M hexahedra) but its tube-bundle flow is
essentially quasi-2-D: water moves in the channel plane, and the spanwise
direction mixes by diffusion.  This integrator models exactly that: the
frozen (u, v) face velocities of the 2-D streamfunction solve are
extruded along z (w = 0, still discretely divergence-free), the dye is a
full (nx, ny, nz) hexahedral field, and diffusion acts in all three
directions with zero-flux side walls.

It is the 2-D integrator's stencil (:func:`repro.solver.advect.
planar_stencil`) with the planar weights broadcast along z, plus one
z-diffusion pair: a weight on ``c[..., k-1]`` and on ``c[..., k+1]``
wherever the column is fluid, zero through the spanwise walls, with the
matching diagonal term folded into ``cc``.  Applied to the C-order flat
field, the x, y and z neighbours are ``ny*nz``, ``nz`` and 1 cells away; a
NumPy substep is the planar 13 in-place ufunc calls plus 4 for the z pair.
``step`` is inherited whole: the C loop takes the pairs as arrays, so it
steps the z pair like the planar two, with the NumPy step as its fallback
and bit-exact reference, and the integrator stores no pointers (it pickles).
"""

from __future__ import annotations

import numpy as np

from repro.mesh import StructuredMesh
from repro.solver.advect import AdvectionDiffusion, flat_stencil, planar_stencil
from repro.solver.flow import StreamfunctionFlow


class AdvectionDiffusion3D(AdvectionDiffusion):
    """Explicit upwind FV integrator for the extruded 3-D dye field.

    Parameters
    ----------
    flow:
        The 2-D frozen flow (provides the channel-plane face velocities
        and the solid mask, extruded along z).
    nz, depth:
        Spanwise cells and physical depth.
    diffusivity:
        Isotropic diffusion coefficient.
    """

    def __init__(
        self,
        flow: StreamfunctionFlow,
        nz: int,
        depth: float = 1.0,
        diffusivity: float = 1e-3,
        cfl: float = 0.45,
    ):
        if nz < 1:
            raise ValueError("nz must be >= 1")
        if depth <= 0:
            raise ValueError("depth must be positive")
        super().__init__(flow, diffusivity=diffusivity, cfl=cfl)
        nx, ny = flow.mesh.dims
        self.mesh = StructuredMesh(
            dims=(nx, ny, nz),
            lengths=(flow.mesh.lengths[0], flow.mesh.lengths[1], depth),
        )
        self.dz = self.mesh.spacing[2]
        self.solid = np.repeat(flow.solid[:, :, np.newaxis], nz, axis=2)
        self.fluid = ~self.solid

        def extrude(weight):
            return np.repeat(weight[:, :, np.newaxis], nz, axis=2)

        cc, cw, ce, cs, cn, cin = planar_stencil(flow, self.diffusivity)
        # per z face: diffusion wherever the column is fluid (solid is
        # z-uniform), none through the zero-flux spanwise walls
        kz = np.zeros((nx, ny, nz + 1))
        kz[:, :, 1:-1] = self.diffusivity / self.dz**2 * ~flow.solid[:, :, np.newaxis]
        self._cin = np.repeat(cin[:, np.newaxis], nz, axis=1)  # every depth
        self._cc, self._pairs = flat_stencil(
            extrude(cc) - kz[:, :, :-1] - kz[:, :, 1:],
            [(extrude(cw), extrude(ce)), (extrude(cs), extrude(cn)),
             (kz[:, :, :-1], kz[:, :, 1:])],
        )
        self.stable_dt = self._compute_stable_dt()
