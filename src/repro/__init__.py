"""repro — a faithful Python reproduction of Melissa (SC'17).

Melissa computes *ubiquitous* Sobol' sensitivity indices — a value for
every mesh cell and every timestep — over large multi-run simulation
ensembles **without writing any intermediate files**: an in-transit
parallel server updates one-pass statistics as results stream out of the
running simulations, then discards the data.

Quick start::

    from repro import SensitivityStudy
    from repro.sobol import IshigamiFunction

    fn = IshigamiFunction()
    study = SensitivityStudy.for_function(fn, ngroups=2000, seed=1)
    results = study.run()
    print(results.first_order[:, 0, 0])   # ~ fn.first_order

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.stats`     — one-pass moments + statistics catalog (Welford, Pebay)
- :mod:`repro.sampling`  — parameter laws + pick-freeze designs
- :mod:`repro.sobol`     — iterative Martinez engine + two-pass references
- :mod:`repro.mesh`      — structured meshes + block partitioning
- :mod:`repro.solver`    — the CFD substrate (tube-bundle dye transport)
- :mod:`repro.transport` — ZeroMQ-like bounded channels, N x M routing
- :mod:`repro.scheduler` — SLURM-like batch scheduler (virtual time)
- :mod:`repro.core`      — Melissa server / clients / launcher
- :mod:`repro.runtime`   — sequential (deterministic) + distributed drivers
- :mod:`repro.faults`    — fault-injection plans
- :mod:`repro.perfmodel` — calibrated model of the paper's Curie campaign
- :mod:`repro.report`    — ASCII field maps and tables
"""

from repro.study import SensitivityStudy
from repro.core import StudyConfig
from repro.core.results import StudyResults

__version__ = "1.0.0"

__all__ = ["SensitivityStudy", "StudyConfig", "StudyResults", "__version__"]
