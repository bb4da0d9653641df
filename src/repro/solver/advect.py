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

(each ``+=`` of a product is a multiply into scratch plus an add).

At ~2k cells a NumPy call costs more than its arithmetic, so when the
inlet is a :class:`SwitchedProfile` the whole substep loop of one output
interval runs in C instead: ``_stencil.c``, built and loaded by
:func:`repro.kernels.cext.stencil_library`, makes the same passes in the
same order and, compiled without fused multiply-adds, gives bit-identical
fields.  The NumPy loop stays as the path for any other profile callable
and for hosts without a C compiler, and as the reference the C loop is
tested against.  Scratch, array addresses and ctypes pointer arrays are
made per :meth:`AdvectionDiffusion.step` call, never stored: one
integrator serves every member of a case and holds only the frozen
operator's NumPy arrays, so it (and the case) still pickles and deep-copies.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.kernels import cext
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


class SwitchedProfile:
    """The inlet ``t -> upper * (t < upper_off) + lower * (t < lower_off)``.

    The four on/off combinations are built here, once per member, as
    read-only arrays, and a call only picks one, so a NumPy substep
    allocates nothing for the inlet.  The two bands and switch-off times
    stay readable, so the C loop evaluates the same formula itself.
    """

    def __init__(self, upper: np.ndarray, lower: np.ndarray,
                 upper_off: float, lower_off: float):
        self.upper, self.lower = upper, lower
        self.upper_off, self.lower_off = float(upper_off), float(lower_off)
        self._table = {}
        for upper_on in (False, True):
            for lower_on in (False, True):
                profile = upper * upper_on + lower * lower_on
                profile.setflags(write=False)
                self._table[upper_on, lower_on] = profile

    def __call__(self, t: float) -> np.ndarray:
        return self._table[t < self.upper_off, t < self.lower_off]


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

        Returns the new physical time.  ``c`` must be a writeable,
        C-contiguous float64 field of this integrator's cell count (as
        :meth:`initial_condition` makes it); ``inlet_profile_fn(t)`` must
        return the inlet dye concentration profile (``c[0]``'s shape) at t.
        """
        if not math.isfinite(dt):  # the substep loop would never end
            raise ValueError(f"dt must be finite, got {dt}")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not c.flags.c_contiguous:
            raise ValueError("c must be C-contiguous: it is stepped in place, flat")
        if c.dtype != np.float64:
            raise ValueError(f"c must be float64, got {c.dtype}")
        if not c.flags.writeable:
            raise ValueError("c must be writeable: it is stepped in place")
        if c.size != self._cc.size:
            raise ValueError(f"c must have {self._cc.size} cells, got {c.size}")
        c = c.reshape(-1)
        if isinstance(inlet_profile_fn, SwitchedProfile):
            for name in ("upper", "lower"):  # C reads them unchecked
                band = getattr(inlet_profile_fn, name)
                if not (isinstance(band, np.ndarray) and band.dtype == np.float64
                        and band.flags.c_contiguous and band.shape == self._cin.shape):
                    raise ValueError(
                        f"{name} band: need contiguous float64 {self._cin.shape}")
            lib = cext.stencil_library()
            if lib is not None:
                return self._step_compiled(lib, c, dt, inlet_profile_fn, t)
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

    def _step_compiled(self, lib, c, dt, profile: SwitchedProfile, t) -> float:
        """:meth:`step` as one call into ``_stencil.c``; ``r`` and the
        pointer arrays are locals, alive until the call returns."""
        n, r = len(self._pairs), np.empty_like(c)
        offs = (ctypes.c_ssize_t * n)(*[off for off, _, _ in self._pairs])
        weights = (ctypes.c_void_p * (2 * n))(
            *[w.ctypes.data for _, *pair in self._pairs for w in pair])
        return lib.stencil_advance(
            c.ctypes.data, r.ctypes.data, c.size, self._cc.ctypes.data,
            n, offs, weights, self._cin.ctypes.data, self._cin.size,
            profile.upper.ctypes.data, profile.lower.ctypes.data,
            profile.upper_off, profile.lower_off, self.stable_dt, dt, t,
        )

    def initial_condition(self) -> np.ndarray:
        """Zero dye everywhere (clean channel)."""
        return np.zeros(self.mesh.dims)

    def total_dye(self, c: np.ndarray) -> float:
        """Integral of c over fluid cells (conservation diagnostics)."""
        return float(c[self.fluid].sum() * self.mesh.cell_volume)
