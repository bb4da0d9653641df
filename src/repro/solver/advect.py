"""Explicit upwind finite-volume convection-diffusion for the dye scalar.

Solves, on the frozen flow of :mod:`repro.solver.flow`,

    dc/dt + div(u c) = D lap(c)

with first-order upwind advection on face-normal velocities, explicit
Euler in time, and conservative two-point diffusion fluxes restricted to
fluid-fluid faces (zero-flux walls and obstacles).  The inlet carries a
Dirichlet dye profile ``c_in(y, t)`` advected in with the (positive) inlet
velocity; the outlet is upwinded from the interior (outflow).

The operator is linear with frozen coefficients, so it is built once per
integrator as a 5-point stencil (:func:`planar_stencil`): one coefficient
array for the cell itself and one per neighbour (W, E, S, N), plus the
inlet column's weight on the profile.  The outlet and wall rules are
folded into those coefficients and the rows of solid cells are zero, so
a solid cell never changes.  The stencil is applied to the C-order flat
field (:func:`flat_stencil`), where the x neighbours are ``ny`` cells away
and the y neighbours 1, so every slice is contiguous.  One substep is then
13 in-place ufunc calls and no allocation::

    r = cc*c
    r[ny:] += cw*c[:-ny];  r[:-ny] += ce*c[ny:]      # W, E
    r[1:]  += cs*c[:-1];   r[:-1]  += cn*c[1:]       # S, N
    r[:ny] += cin*profile;  c += sub*r

(each ``+=`` of a product is a multiply into scratch plus an add).  The
two scratch arrays are allocated once per :meth:`AdvectionDiffusion.step`
call, not stored on the integrator: one integrator serves every member of
a case, so it holds nothing but the frozen operator.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.solver.flow import StreamfunctionFlow


def planar_stencil(
    flow: StreamfunctionFlow, diffusivity: float
) -> Tuple[np.ndarray, ...]:
    """``(cc, cw, ce, cs, cn, cin)``: dc/dt as weights on ``c`` and the inlet.

    ``dc/dt[i, j] = cc c[i, j] + cw c[i-1, j] + ce c[i+1, j]
    + cs c[i, j-1] + cn c[i, j+1]``, plus ``cin[j] * profile[j]`` at
    ``i = 0``.  Every neighbour weight is ``(nx, ny)`` and zero where that
    neighbour does not exist; ``cin`` is ``(ny,)``.
    """
    dx, dy = flow.mesh.spacing
    solid = flow.solid
    fluid = ~solid
    v = flow.v_north.copy()
    v[:, [0, -1]] = 0.0  # walls carry no normal flux
    # per face: upwind parts of the normal velocity over the cell width, and
    # two-point diffusion through fluid-fluid faces only (none on the inlet,
    # outlet or walls)
    up, un = np.maximum(flow.u_east, 0.0) / dx, np.minimum(flow.u_east, 0.0) / dx
    vp, vn = np.maximum(v, 0.0) / dy, np.minimum(v, 0.0) / dy
    kx = np.zeros(up.shape)
    kx[1:-1] = diffusivity / dx**2 * (fluid[:-1, :] & fluid[1:, :])
    ky = np.zeros(vp.shape)
    ky[:, 1:-1] = diffusivity / dy**2 * (fluid[:, :-1] & fluid[:, 1:])

    # a cell's west/south faces are face i/j, its east/north faces i+1/j+1
    cc = (un[:-1] - up[1:] + vn[:, :-1] - vp[:, 1:]
          - kx[:-1] - kx[1:] - ky[:, :-1] - ky[:, 1:])
    cw, ce = up[:-1] + kx[:-1], kx[1:] - un[1:]
    cs, cn = vp[:, :-1] + ky[:, :-1], ky[:, 1:] - vn[:, 1:]
    cin = cw[0].copy()  # the inlet face's upwind value is the profile
    cw[0] = 0.0
    ce[-1] = 0.0  # the outlet face: no backflow dye
    for weight in (cc, cw, ce, cs, cn):
        weight[solid] = 0.0
    cin[solid[0]] = 0.0
    return cc, cw, ce, cs, cn, cin


def flat_stencil(
    cc: np.ndarray, neighbours: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, List[Tuple[int, np.ndarray, np.ndarray]]]:
    """The stencil over the C-order flat field: ``(cc, pairs)``.

    ``neighbours[axis]`` holds the field-shaped weights on the lower and
    upper neighbour along ``axis``.  Flat, that neighbour is ``off`` cells
    away, ``off`` the product of the later axes' lengths, so each pair
    becomes ``(off, lower[off:], upper[:-off])``: contiguous slices whose
    entries across an axis boundary are zero, like the missing neighbour.
    """
    pairs = []
    for axis, (lower, upper) in enumerate(neighbours):
        off = int(np.prod(cc.shape[axis + 1:]))
        pairs.append((off, lower.ravel()[off:].copy(), upper.ravel()[:-off].copy()))
    return cc.ravel(), pairs


class AdvectionDiffusion:
    """Time integrator for the dye concentration on a frozen flow.

    Parameters
    ----------
    flow:
        Frozen velocity field (provides mesh, face velocities, solid mask).
    diffusivity:
        Scalar diffusion coefficient D (molecular + frozen turbulent).
    cfl:
        Advective CFL safety factor for the internal substep size.
    """

    def __init__(
        self,
        flow: StreamfunctionFlow,
        diffusivity: float = 1e-3,
        cfl: float = 0.45,
    ):
        if diffusivity < 0:
            raise ValueError("diffusivity must be >= 0")
        if not 0 < cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1]")
        self.flow = flow
        self.mesh = flow.mesh
        self.diffusivity = float(diffusivity)
        self.cfl = float(cfl)
        self.dx, self.dy = self.mesh.spacing
        self.solid = flow.solid
        self.fluid = ~flow.solid
        cc, cw, ce, cs, cn, self._cin = planar_stencil(flow, self.diffusivity)
        self._cc, self._pairs = flat_stencil(cc, [(cw, ce), (cs, cn)])
        self.stable_dt = self._compute_stable_dt()

    # ------------------------------------------------------------------ #
    def _compute_stable_dt(self) -> float:
        """Largest explicit-Euler-stable substep (advection + diffusion)."""
        adv_rate = (
            np.abs(self.flow.u_east).max() / self.dx
            + np.abs(self.flow.v_north).max() / self.dy
        )
        dt_adv = self.cfl / adv_rate if adv_rate > 0 else np.inf
        if self.diffusivity > 0:
            inv_h2 = sum(1.0 / h**2 for h in self.mesh.spacing)
            dt_diff = 0.5 / (2.0 * self.diffusivity * inv_h2)
        else:
            dt_diff = np.inf
        dt = min(dt_adv, dt_diff)
        if not np.isfinite(dt):
            raise ValueError("quiescent flow with zero diffusivity: dt unbounded")
        return float(dt)

    # ------------------------------------------------------------------ #
    def step(
        self,
        c: np.ndarray,
        dt: float,
        inlet_profile_fn: Callable[[float], np.ndarray],
        t: float,
    ) -> float:
        """Advance ``c`` in place by ``dt`` (substepping for stability).

        Returns the new physical time.  ``c`` must be C-contiguous (as
        :meth:`initial_condition` makes it); ``inlet_profile_fn(t)`` must
        return the inlet dye concentration profile (``c[0]``'s shape) at t.
        """
        if not math.isfinite(dt):  # the substep loop would never end
            raise ValueError(f"dt must be finite, got {dt}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not c.flags.c_contiguous:
            raise ValueError("c must be C-contiguous: it is stepped in place, flat")
        c = c.reshape(-1)
        r, tmp = np.empty_like(c), np.empty_like(c)
        # every (weight, source, product, destination) view, made once per call
        terms = []
        for off, lower, upper in self._pairs:
            terms.append((lower, c[:-off], tmp[off:], r[off:]))
            terms.append((upper, c[off:], tmp[:-off], r[:-off]))
        m = self._cin.size  # the inlet column leads the flat field
        r_in, tmp_in = r[:m].reshape(self._cin.shape), tmp[:m].reshape(self._cin.shape)
        mul, add = np.multiply, np.add
        remaining = dt
        while remaining > 1e-15:
            sub = min(self.stable_dt, remaining)
            mul(self._cc, c, out=r)
            for weight, source, product, dest in terms:
                add(dest, mul(weight, source, out=product), out=dest)
            add(r_in, mul(self._cin, inlet_profile_fn(t), out=tmp_in), out=r_in)
            r *= sub
            c += r
            t += sub
            remaining -= sub
        return t

    def initial_condition(self) -> np.ndarray:
        """Zero dye everywhere (clean channel)."""
        return np.zeros(self.mesh.dims)

    def total_dye(self, c: np.ndarray) -> float:
        """Integral of c over fluid cells (conservation diagnostics)."""
        return float(c[self.fluid].sum() * self.mesh.cell_volume)
