"""One ensemble member: a timestep-iterated scalar transport run.

A :class:`ScalarSimulation` is the black box ``f(x, t, X1..Xp)`` of the
paper's Eq. 4: constructed with a fixed parameter set, it produces one
flat concentration field per output timestep, in increasing timestep
order (the fault-tolerance protocol relies on that ordering, Sec. 4.2.2).

The Melissa client drives it step by step; the classical baseline instead
writes each field to disk via :mod:`repro.solver.writer`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Tuple

import numpy as np

from repro.solver.advect import AdvectionDiffusion


class ScalarSimulation:
    """Stepwise dye-transport run on the case's frozen flow.

    Iterating yields ``(timestep_index, flat_field)`` pairs for timesteps
    ``0 .. ntimesteps-1``; the field is the concentration *after*
    advancing one output interval (C-ordered flat copy, safe to retain).
    """

    def __init__(
        self,
        integrator: AdvectionDiffusion,
        inlet_profile_fn: Callable[[float], np.ndarray],
        ntimesteps: int,
        output_interval: float,
        simulation_id: int = 0,
    ):
        if ntimesteps < 1:
            raise ValueError("ntimesteps must be >= 1")
        if not math.isfinite(output_interval):
            raise ValueError(f"output_interval must be finite, got {output_interval}")
        if output_interval <= 0:
            raise ValueError("output_interval must be positive")
        self.integrator = integrator
        self.inlet_profile_fn = inlet_profile_fn
        self.ntimesteps = int(ntimesteps)
        self.output_interval = float(output_interval)
        self.simulation_id = int(simulation_id)
        self._c = integrator.initial_condition()
        self._t = 0.0
        self._next_step = 0

    # ------------------------------------------------------------------ #
    @property
    def ncells(self) -> int:
        return self.integrator.mesh.ncells

    @property
    def current_timestep(self) -> int:
        return self._next_step

    @property
    def finished(self) -> bool:
        return self._next_step >= self.ntimesteps

    def advance(self) -> Tuple[int, np.ndarray]:
        """Advance one output interval; return (timestep, flat field copy)."""
        if self.finished:
            raise RuntimeError("simulation already finished")
        self._t = self.integrator.step(
            self._c, self.output_interval, self.inlet_profile_fn, self._t
        )
        step = self._next_step
        self._next_step += 1
        return step, self._c.ravel().copy()

    def __iter__(self) -> Iterator[Tuple[int, np.ndarray]]:
        while not self.finished:
            yield self.advance()

    def run_to_completion(self) -> np.ndarray:
        """Run all remaining steps, returning the (ntimesteps, ncells) stack.

        Only used by validation tests and the classical baseline — the
        whole point of Melissa is to never materialize this array for a
        full study.
        """
        fields = np.empty((self.ntimesteps - self._next_step, self.ncells))
        for row, (_, field) in enumerate(self):
            fields[row] = field
        return fields
