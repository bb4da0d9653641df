"""High-level study facade: one object from configuration to results.

Wraps the full stack (design -> launcher -> scheduler -> groups -> server)
behind two constructors:

* :meth:`SensitivityStudy.for_function` — any callable model with a
  :class:`~repro.sampling.ParameterSpace` (scalar output, 1 'cell');
* :meth:`SensitivityStudy.for_tube_bundle` — the paper's CFD use case.

``run()`` executes on the deterministic sequential runtime by default;
pass ``runtime="distributed"`` for the concurrent driver (loopback
rank/worker processes over tcp | shm here; the same processes span hosts
via the CLI).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.config import StudyConfig
from repro.core.group import FunctionSimulation, SimulationFactory
from repro.core.results import StudyResults
from repro.faults import FaultPlan
from repro.sampling import ParameterSpace


class SensitivityStudy:
    """One in-transit global sensitivity analysis, end to end."""

    def __init__(self, config: StudyConfig, factory: SimulationFactory):
        self.config = config
        self.factory = factory
        self.results: Optional[StudyResults] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def for_function(
        cls,
        fn,
        ngroups: int,
        space: Optional[ParameterSpace] = None,
        ntimesteps: int = 1,
        seed: int = 0,
        server_ranks: int = 1,
        **config_overrides,
    ) -> "SensitivityStudy":
        """Study of a plain Python model ``fn(x) -> scalar``.

        ``fn`` may carry its own ``space()`` method (the analytic test
        functions do); otherwise pass ``space`` explicitly.
        """
        if space is None:
            if not hasattr(fn, "space"):
                raise ValueError("pass a ParameterSpace or a model with .space()")
            space = fn.space()
        config = StudyConfig(
            space=space,
            ngroups=ngroups,
            ntimesteps=ntimesteps,
            ncells=1,
            seed=seed,
            server_ranks=server_ranks,
            client_ranks=1,
            **config_overrides,
        )

        def factory(params: np.ndarray, sim_id: int) -> FunctionSimulation:
            return FunctionSimulation(fn, params, ntimesteps=ntimesteps,
                                      simulation_id=sim_id)

        return cls(config, factory)

    @classmethod
    def for_tube_bundle(
        cls,
        case=None,
        ngroups: int = 50,
        seed: int = 0,
        server_ranks: int = 4,
        client_ranks: int = 2,
        **config_overrides,
    ) -> "SensitivityStudy":
        """The paper's use case on a :class:`~repro.solver.TubeBundleCase`."""
        from repro.solver import TubeBundleCase

        if case is None:
            case = TubeBundleCase()
        config = StudyConfig(
            space=case.parameter_space(),
            ngroups=ngroups,
            ntimesteps=case.ntimesteps,
            ncells=case.ncells,
            seed=seed,
            server_ranks=server_ranks,
            client_ranks=client_ranks,
            **config_overrides,
        )

        def factory(params: np.ndarray, sim_id: int):
            return case.simulation(params, simulation_id=sim_id)

        study = cls(config, factory)
        study.case = case
        return study

    # ------------------------------------------------------------------ #
    def run(
        self,
        runtime: str = "sequential",
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_dir=None,
        max_time: float = 1e7,
        **runtime_kwargs,
    ) -> StudyResults:
        """Execute the study and cache/return its results."""
        if runtime == "sequential":
            from repro.runtime import SequentialRuntime

            driver = SequentialRuntime(
                self.config,
                self.factory,
                checkpoint_dir=checkpoint_dir,
                fault_plan=fault_plan,
                **runtime_kwargs,
            )
            self.results = driver.run(max_time=max_time)
            self.driver = driver
        elif runtime == "distributed":
            from repro.runtime import DistributedRuntime

            run_kwargs = {}
            if "timeout" in runtime_kwargs:
                run_kwargs["timeout"] = runtime_kwargs.pop("timeout")
            driver = DistributedRuntime(
                self.config,
                self.factory,
                checkpoint_dir=checkpoint_dir,
                fault_plan=fault_plan,
                **runtime_kwargs,
            )
            self.results = driver.run(**run_kwargs)
            self.driver = driver
        else:
            raise ValueError(f"unknown runtime {runtime!r}")
        return self.results
