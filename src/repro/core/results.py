"""Study results: assembled ubiquitous maps, intervals, and provenance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.server import MelissaServer
from repro.sobol.confidence import (
    first_order_confidence_interval,
    total_order_confidence_interval,
)


@dataclass
class StudyResults:
    """Everything a user takes away from a finished study.

    Maps are (nparams, ntimesteps, ncells) arrays — the paper's ubiquitous
    Sobol' indices S_k(x, t) and ST_k(x, t) — plus variance/mean maps, the
    number of integrated groups, and the fault/provenance report.
    """

    parameter_names: tuple
    ntimesteps: int
    ncells: int
    groups_integrated: int
    first_order: np.ndarray  # (p, T, ncells)
    total_order: np.ndarray  # (p, T, ncells)
    variance: np.ndarray  # (T, ncells)
    mean: np.ndarray  # (T, ncells)
    provenance: Dict[str, int] = field(default_factory=dict)
    abandoned_groups: List[int] = field(default_factory=list)
    max_interval_width: float = float("nan")
    #: catalog statistics: result name -> (T, *extra, ncells) array (field
    #: axis last), as produced by the configured ``statistics=[...]`` specs
    statistics: Dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_server(
        cls,
        server: MelissaServer,
        parameter_names: Optional[tuple] = None,
        abandoned_groups: Optional[List[int]] = None,
        rank_maps: Optional[List[dict]] = None,
        max_interval_width: Optional[float] = None,
    ) -> "StudyResults":
        """Assemble results from a finished server.

        Map extraction is batched: one whole-slab correlation pass per
        (rank, timestep) instead of the former ``p x T`` loop of per-map
        calls.  The distributed runtime passes ``rank_maps`` (per-rank
        maps computed inside the rank processes) and
        ``max_interval_width`` (the convergence scalar max-reduced from
        per-rank values), so the parent does no statistics math at all —
        only concatenation.
        """
        cfg = server.config
        names = parameter_names or tuple(cfg.space.names)
        t, n = cfg.ntimesteps, cfg.ncells
        maps = server.assemble_maps(rank_maps)
        if max_interval_width is None:
            max_interval_width = server.max_interval_width()
        return cls(
            parameter_names=names,
            ntimesteps=t,
            ncells=n,
            groups_integrated=server.groups_integrated(),
            first_order=maps["first"],
            total_order=maps["total"],
            variance=maps["variance"],
            mean=maps["mean"],
            provenance=server.provenance_report(),
            abandoned_groups=list(abandoned_groups or []),
            max_interval_width=max_interval_width,
            statistics=maps.get("stats", {}),
        )

    # ------------------------------------------------------------------ #
    @property
    def nparams(self) -> int:
        return len(self.parameter_names)

    def first_order_map(self, k: int, timestep: int) -> np.ndarray:
        return self.first_order[k, timestep]

    def total_order_map(self, k: int, timestep: int) -> np.ndarray:
        return self.total_order[k, timestep]

    @property
    def statistic_names(self) -> tuple:
        """Names of every catalog-statistic result field present."""
        return tuple(self.statistics)

    def statistic_map(self, name: str, timestep: int) -> np.ndarray:
        """One catalog-statistic field at one timestep (field axes last)."""
        try:
            stacked = self.statistics[name]
        except KeyError:
            known = ", ".join(self.statistic_names) or "none"
            raise KeyError(
                f"no statistic result '{name}' (available: {known})"
            ) from None
        return stacked[timestep]

    def interaction_residual_map(self, timestep: int) -> np.ndarray:
        """1 - sum_k S_k at one timestep (Sec. 5.5 interaction check)."""
        return 1.0 - np.nansum(self.first_order[:, timestep, :], axis=0)

    def first_order_interval(self, k: int, timestep: int, z: float = 1.96):
        return first_order_confidence_interval(
            self.first_order[k, timestep], self.groups_integrated, z
        )

    def total_order_interval(self, k: int, timestep: int, z: float = 1.96):
        return total_order_confidence_interval(
            self.total_order[k, timestep], self.groups_integrated, z
        )

    # ------------------------------------------------------------------ #
    def spatial_average_indices(self, timestep: int, variance_floor: float = 0.0):
        """Variance-weighted spatial averages of S_k and ST_k at a timestep.

        Cells with variance below ``variance_floor`` are excluded — the
        paper's recommendation (Sec. 5.5): where Var(Y) ~ 0 the indices
        are numerically meaningless.
        """
        var = self.variance[timestep]
        weight = np.where(var > variance_floor, var, 0.0)
        wsum = weight.sum()
        if wsum == 0:
            return (
                np.full(self.nparams, np.nan),
                np.full(self.nparams, np.nan),
            )
        s_avg = np.empty(self.nparams)
        st_avg = np.empty(self.nparams)
        for k in range(self.nparams):
            s = np.nan_to_num(self.first_order[k, timestep])
            st = np.nan_to_num(self.total_order[k, timestep])
            s_avg[k] = (s * weight).sum() / wsum
            st_avg[k] = (st * weight).sum() / wsum
        return s_avg, st_avg

    def summary(self) -> str:
        """Human-readable study recap."""
        lines = [
            f"Study: {self.nparams} parameters, {self.ntimesteps} timesteps, "
            f"{self.ncells} cells",
            f"Groups integrated: {self.groups_integrated}",
            f"Max CI width: {self.max_interval_width:.4f}",
        ]
        if self.statistics:
            lines.append(f"Statistics: {', '.join(self.statistic_names)}")
        if self.abandoned_groups:
            lines.append(f"Abandoned groups: {self.abandoned_groups}")
        for key, value in sorted(self.provenance.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)
