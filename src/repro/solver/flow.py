"""Steady incompressible flow from a streamfunction Laplace solve.

The velocity field is derived from a streamfunction psi defined on cell
*corners* of a structured 2-D mesh:

    u_face_east(i, j)  =  (psi[i+1, j+1] - psi[i+1, j]) / dy
    v_face_north(i, j) = -(psi[i+1, j+1] - psi[i,   j+1]) / dx

so the discrete divergence of every cell is identically zero — mass
conservation holds to machine precision, which the upwind transport step
relies on (no spurious sources/sinks of dye).

psi solves Laplace's equation with Dirichlet conditions: 0 on the bottom
wall, 1 on the top wall (unit volume flux through the channel), linear in
y on inlet and outlet (uniform far-field inflow), and a constant on each
obstacle (tube) equal to the normalized height of its centre — obstacles
are streamlines, so no flow penetrates them.  Faces whose two corners both
lie on the same obstacle therefore carry exactly zero velocity.

This collapses the paper's 4000-timestep Code_Saturne pre-run to one
direct solve by block elimination (one dense NumPy solve per corner line,
of the shorter dimension's size): only the *steady* flow is ever used by
the study, and the scalar transport below is the part the 8000 ensemble
members actually exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.mesh import StructuredMesh


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned rectangular tube in the bundle, in physical coordinates."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("obstacle must have positive extent")

    @property
    def center_y(self) -> float:
        return 0.5 * (self.y0 + self.y1)

    def contains_cells(self, mesh: StructuredMesh) -> np.ndarray:
        """Boolean (nx, ny) mask of cells whose centres lie inside."""
        xc = mesh.axis_coordinates(0)
        yc = mesh.axis_coordinates(1)
        in_x = (xc >= self.x0) & (xc <= self.x1)
        in_y = (yc >= self.y0) & (yc <= self.y1)
        return np.outer(in_x, in_y)


class StreamfunctionFlow:
    """Frozen velocity field for a channel with obstacles.

    Attributes
    ----------
    u_east:
        (nx+1, ny) normal velocities through vertical faces; ``u_east[i]``
        is the face between cell columns i-1 and i (0 = inlet, nx = outlet).
    v_north:
        (nx, ny+1) normal velocities through horizontal faces; ``v_north[:, j]``
        is the face between cell rows j-1 and j (0 = bottom wall, ny = top).
    solid:
        (nx, ny) boolean mask of obstacle (non-fluid) cells.
    """

    def __init__(
        self,
        mesh: StructuredMesh,
        psi: np.ndarray,
        solid: np.ndarray,
        inflow_speed: float,
    ):
        if mesh.ndim != 2:
            raise ValueError("StreamfunctionFlow is 2-D")
        nx, ny = mesh.dims
        if psi.shape != (nx + 1, ny + 1):
            raise ValueError("psi must live on cell corners (nx+1, ny+1)")
        self.mesh = mesh
        self.psi = psi
        self.solid = np.asarray(solid, dtype=bool)
        self.inflow_speed = float(inflow_speed)
        dx, dy = mesh.spacing
        # face-normal velocities from corner streamfunction differences
        self.u_east = (psi[:, 1:] - psi[:, :-1]) / dy * inflow_speed * mesh.lengths[1]
        self.v_north = -(psi[1:, :] - psi[:-1, :]) / dx * inflow_speed * mesh.lengths[1]

    # ------------------------------------------------------------------ #
    @property
    def max_speed(self) -> float:
        return float(max(np.abs(self.u_east).max(), np.abs(self.v_north).max()))

    def cell_velocity(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cell-centred (u, v) by averaging face values (for rendering)."""
        u = 0.5 * (self.u_east[:-1, :] + self.u_east[1:, :])
        v = 0.5 * (self.v_north[:, :-1] + self.v_north[:, 1:])
        return u, v

    def divergence(self) -> np.ndarray:
        """Discrete per-cell divergence — zero to machine precision."""
        dx, dy = self.mesh.spacing
        div_u = (self.u_east[1:, :] - self.u_east[:-1, :]) * dy
        div_v = (self.v_north[:, 1:] - self.v_north[:, :-1]) * dx
        return div_u + div_v


def corner_dirichlet(
    mesh: StructuredMesh, obstacles: Sequence[Obstacle] = ()
) -> Tuple[np.ndarray, np.ndarray]:
    """Corner Dirichlet values of psi (NaN where free) and the solid cell mask."""
    nx, ny = mesh.dims
    height = mesh.lengths[1]
    ys = mesh.origin[1] + np.arange(ny + 1) * mesh.spacing[1]
    dirichlet = np.full((nx + 1, ny + 1), np.nan)
    dirichlet[:, 0] = 0.0  # bottom wall
    dirichlet[:, -1] = 1.0  # top wall
    y_norm = (ys - mesh.origin[1]) / height
    dirichlet[0, :] = y_norm  # inlet: uniform inflow
    dirichlet[-1, :] = y_norm  # outlet

    solid = np.zeros((nx, ny), dtype=bool)
    for obs in obstacles:
        cells = obs.contains_cells(mesh)
        solid |= cells
        # all corners of obstacle cells get the obstacle's streamline value
        ci, cj = np.nonzero(cells)
        psi_obs = (obs.center_y - mesh.origin[1]) / height
        for di in (0, 1):
            for dj in (0, 1):
                dirichlet[ci + di, cj + dj] = psi_obs
    return dirichlet, solid


def _block_thomas(free: np.ndarray, b: np.ndarray, w_line: float, w_block: float):
    """Solve the corner system by block LU over lines (rows of ``b``).

    Row (i, j) is ``psi = b`` where not ``free``, else the 5-point
    ``2(w_line + w_block) psi - w_line psi[i±1, j] - w_block psi[i, j±1] = 0``.
    A line couples to its neighbours through a diagonal, so each
    elimination step is a row scaling plus one dense solve of size m.
    """
    n, m = b.shape
    couple = np.where(free, -w_line, 0.0)
    k = np.arange(m)
    gain = np.zeros((n, m, m))  # M_i^{-1} U_i
    part = np.zeros((n, m))  # M_i^{-1} (b_i - L_i part_{i-1})
    for i in range(n):
        block = np.zeros((m, m))
        block[k, k] = np.where(free[i], 2.0 * (w_line + w_block), 1.0)
        block[k[1:], k[:-1]] = np.where(free[i, 1:], -w_block, 0.0)
        block[k[:-1], k[1:]] = np.where(free[i, :-1], -w_block, 0.0)
        rhs = np.zeros((m, m + 1))
        rhs[k, k] = couple[i]
        rhs[:, m] = b[i]
        if i:
            block -= couple[i][:, None] * gain[i - 1]
            rhs[:, m] -= couple[i] * part[i - 1]
        sol = np.linalg.solve(block, rhs)
        gain[i], part[i] = sol[:, :m], sol[:, m]
    for i in range(n - 2, -1, -1):
        part[i] -= gain[i] @ part[i + 1]
    return part


def solve_streamfunction(
    mesh: StructuredMesh,
    obstacles: Sequence[Obstacle] = (),
    inflow_speed: float = 1.0,
) -> StreamfunctionFlow:
    """Solve Laplace(psi) = 0 on the corner grid and build the flow field.

    5-point anisotropic Laplacian at free corners; identity rows holding
    the Dirichlet value for walls, inlet/outlet and obstacle corners.
    Ordered line by line the system is block tridiagonal; block LU runs
    along the longer axis, so the cost is one dense solve of size
    min(nx, ny) + 1 per corner line.
    """
    if mesh.ndim != 2:
        raise ValueError("solve_streamfunction requires a 2-D mesh")
    dirichlet, solid = corner_dirichlet(mesh, obstacles)
    fixed = ~np.isnan(dirichlet)
    b = np.where(fixed, dirichlet, 0.0)
    wx, wy = 1.0 / mesh.spacing[0] ** 2, 1.0 / mesh.spacing[1] ** 2
    if b.shape[1] > b.shape[0]:
        psi = _block_thomas(~fixed.T, b.T, wy, wx).T
    else:
        psi = _block_thomas(~fixed, b, wx, wy)
    psi[fixed] = dirichlet[fixed]  # walls and obstacle streamlines exact
    return StreamfunctionFlow(mesh, psi, solid, inflow_speed)
