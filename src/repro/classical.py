"""The classical workflow Melissa replaces: files out, postmortem stats.

Runs the same pick-freeze ensemble as the in-transit study, but the way
the paper's "classical" baseline does (Sec. 5.3):

1. every simulation writes every timestep to disk through the
   EnSight-like writer (the Code_Saturne EnSight Gold stand-in);
2. after all runs finish, a *postmortem* pass reads the whole ensemble
   back and computes the same Sobol' statistics.

Because the postmortem pass feeds the same group-at-a-time estimator,
its results are identical to the in-transit path — the difference is
purely operational: O(ensemble) bytes hit the filesystem and must be
read back, versus zero for Melissa.  ``ClassicalStudyReport`` accounts
for every byte so the file-avoidance benchmark (T2) can quantify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.core.config import StudyConfig
from repro.core.group import SimulationFactory
from repro.sampling.pickfreeze import PickFreezeDesign, draw_design
from repro.sobol.martinez import UbiquitousSobolField
from repro.solver.writer import EnsightLikeWriter, PostmortemReader


@dataclass
class ClassicalStudyReport:
    """Outcome + byte accounting of a classical (file-based) study."""

    sobol: UbiquitousSobolField
    bytes_written: int
    bytes_read: int
    files_written: int

    @property
    def intermediate_bytes(self) -> int:
        """Total traffic the filesystem absorbed (write + read back)."""
        return self.bytes_written + self.bytes_read


class ClassicalStudy:
    """File-writing ensemble + two-pass postmortem analysis."""

    def __init__(
        self,
        config: StudyConfig,
        factory: SimulationFactory,
        directory,
        design: Optional[PickFreezeDesign] = None,
    ):
        self.config = config
        self.factory = factory
        self.directory = Path(directory)
        self.design = design or draw_design(
            config.space, config.ngroups, seed=config.seed,
            method=config.sampling_method,
        )

    # ------------------------------------------------------------------ #
    def run_simulations(self) -> EnsightLikeWriter:
        """Phase 1: run every member, writing every timestep to disk."""
        writer = EnsightLikeWriter(self.directory)
        group_size = self.config.group_size
        for group in range(self.config.ngroups):
            params = self.design.group_parameters(group)
            for member in range(group_size):
                sim_id = group * group_size + member
                sim = self.factory(params[member], sim_id)
                for timestep, field in sim:
                    writer.write(sim_id, timestep, field)
        return writer

    def postmortem_analysis(self) -> ClassicalStudyReport:
        """Phase 2: read the ensemble back and compute the statistics."""
        reader = PostmortemReader(self.directory)
        group_size = self.config.group_size
        sobol = UbiquitousSobolField(
            nparams=self.config.nparams,
            ntimesteps=self.config.ntimesteps,
            ncells=self.config.ncells,
        )
        for group in range(self.config.ngroups):
            base = group * group_size
            # (ntimesteps, p+2, ncells): member order is the engine's row
            # order [Y^A, Y^B, Y^C1 .. Y^Cp]
            group_fields = np.stack(
                [reader.read_simulation(base + m) for m in range(group_size)],
                axis=1,
            )
            for timestep in range(self.config.ntimesteps):
                sobol.update_group_buffer(timestep, group_fields[timestep])
        return ClassicalStudyReport(
            sobol=sobol,
            bytes_written=0,  # filled by run()
            bytes_read=reader.bytes_read,
            files_written=0,
        )

    def run(self) -> ClassicalStudyReport:
        """Both phases, with complete byte accounting."""
        writer = self.run_simulations()
        report = self.postmortem_analysis()
        report.bytes_written = writer.bytes_written
        report.files_written = writer.files_written
        return report


def replay_to_server(directory, config: StudyConfig, server=None):
    """Stream an on-disk ensemble through a Melissa server, postmortem.

    The paper's closing remark (Sec. 7): "Melissa can also be used to
    compute statistics from large collections of data stored on disks.
    Iterative statistics allow for a low memory footprint and the fault
    tolerance support enables interruptions and restarts."  This function
    is that mode: each ensemble file becomes an ordinary
    :class:`~repro.transport.message.GroupFieldMessage`-shaped update, so
    the server's whole machinery — staging, discard-on-replay,
    checkpointing — applies unchanged.  Pass a checkpoint-restored
    ``server`` to resume an interrupted replay; already-integrated
    timesteps are discarded by replay protection.

    Returns the (possibly provided) :class:`~repro.core.server.MelissaServer`.
    """
    from repro.core.server import MelissaServer
    from repro.transport.message import FieldMessage

    if server is None:
        server = MelissaServer(config)
    reader = PostmortemReader(directory)
    group_size = config.group_size
    for sim_id, timestep, field in reader:
        group_id, member = divmod(sim_id, group_size)
        for rank in server.ranks:
            rank.handle(
                FieldMessage(
                    group_id=group_id,
                    member=member,
                    timestep=timestep,
                    cell_lo=rank.cell_lo,
                    cell_hi=rank.cell_hi,
                    data=field[rank.cell_lo:rank.cell_hi],
                ),
                now=float(timestep),
            )
    return server
