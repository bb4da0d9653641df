"""Per-rank statistics pipeline: configured specs x timesteps.

:class:`StatisticsPipeline` is what a :class:`~repro.core.server.ServerRank`
owns instead of hardcoded statistic fields: one :class:`FieldStatistic`
instance per (spec, timestep), all driven by the same
``update(timestep, group_buffer)`` call the integration step already makes.
Results, checkpoint state, and merges are uniformly shaped so the server,
checkpoint, and assembly layers never name a concrete statistic.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.kernels import parallel as _parallel
from repro.stats.protocol import (
    FieldStatistic,
    StatContext,
    canonicalize_specs,
    lookup,
    parse_spec,
)

__all__ = ["StatisticsPipeline"]


class StatisticsPipeline:
    """All configured statistics of one server rank, one row per spec."""

    def __init__(
        self,
        specs: Sequence[str],
        ctx: StatContext,
        ntimesteps: int,
        fold_threads: int = 1,
    ):
        self.specs: Tuple[str, ...] = canonicalize_specs(specs)
        self.ctx = ctx
        self.ntimesteps = int(ntimesteps)
        #: catalog rows folded concurrently on the shared fold pool when
        #: > 1 — rows are disjoint FieldStatistic objects, so the only
        #: ordering constraint is within a row, which each task preserves
        self.fold_threads = max(1, int(fold_threads))
        self._rows: List[List[FieldStatistic]] = []
        seen: Dict[str, str] = {}
        for spec in self.specs:
            name, params = parse_spec(spec)
            cls = lookup(name)
            row = [
                cls(replace(ctx, timestep=t), params) for t in range(self.ntimesteps)
            ]
            for result in row[0].result_names:
                if result in seen:
                    raise ValueError(
                        f"statistics '{seen[result]}' and '{spec}' both "
                        f"produce a result named '{result}'"
                    )
                seen[result] = spec
            self._rows.append(row)
        #: rows that fold messages; the others read their state elsewhere
        self._streaming = [i for i, row in enumerate(self._rows) if row[0].streams]

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def instances_at(self, timestep: int) -> List[FieldStatistic]:
        return [row[timestep] for row in self._rows]

    @property
    def result_names(self) -> Tuple[str, ...]:
        names: List[str] = []
        for row in self._rows:
            names.extend(row[0].result_names)
        return tuple(names)

    @property
    def exact_merge(self) -> bool:
        """True when every configured statistic merges exactly."""
        return all(row[0].exact_merge for row in self._rows)

    # ------------------------------------------------------------------ #
    def _dispatch(self, tasks: List) -> None:
        """Run row tasks, spread over at most ``fold_threads`` threads."""
        nthreads = min(self.fold_threads, len(tasks))
        if nthreads <= 1:
            for task in tasks:
                task()
            return
        _parallel.run_sharded([
            (lambda chunk=tasks[i::nthreads]: [task() for task in chunk])
            for i in range(nthreads)
        ])

    def update(self, timestep: int, group_buffer: np.ndarray) -> None:
        """Fold one complete group buffer into every statistic at ``timestep``."""
        if self.fold_threads > 1 and len(self._streaming) > 1:
            self._dispatch([
                (lambda inst=self._rows[i][timestep]: inst.update_group(group_buffer))
                for i in self._streaming
            ])
            return
        for i in self._streaming:
            self._rows[i][timestep].update_group(group_buffer)

    def update_timed(
        self, timestep: int, group_buffer: np.ndarray, observers
    ) -> None:
        """:meth:`update` with per-spec duration observation.

        ``observers`` aligns with :attr:`specs`; each element needs an
        ``observe(seconds)`` method (telemetry histogram children).  The
        telemetry-off path keeps using :meth:`update` so the timer cost
        exists only when someone is watching.
        """
        perf = time.perf_counter

        def timed(inst, observer):
            def run():
                t0 = perf()
                inst.update_group(group_buffer)
                observer.observe(perf() - t0)
            return run

        tasks = [timed(self._rows[i][timestep], observers[i]) for i in self._streaming]
        if self.fold_threads > 1 and len(tasks) > 1:
            self._dispatch(tasks)
        else:
            for task in tasks:
                task()

    def merge(self, other: "StatisticsPipeline") -> None:
        """Absorb a disjoint pipeline (cross-rank / cross-shard reduction)."""
        if other.specs != self.specs or other.ntimesteps != self.ntimesteps:
            raise ValueError("cannot merge pipelines with different statistics")
        for mine, theirs in zip(self._rows, other._rows):
            for a, b in zip(mine, theirs):
                a.merge(b)

    # ------------------------------------------------------------------ #
    def results(self) -> Dict[str, np.ndarray]:
        """Name -> ``(ntimesteps, *extra, *field_shape)`` result arrays.

        Field axes are last on every array (the plugin contract), so
        cross-rank assembly is a plain ``concatenate(..., axis=-1)``.
        """
        out: Dict[str, np.ndarray] = {}
        for row in self._rows:
            finals = [inst.finalize() for inst in row]
            for name in row[0].result_names:
                out[name] = np.stack([f[name] for f in finals], axis=0)
        return out

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        return {
            "specs": list(self.specs),
            "states": [[inst.state_dict() for inst in row] for row in self._rows],
        }

    def load_state(self, state: dict) -> None:
        found = tuple(state["specs"])
        if found != self.specs:
            raise ValueError(
                "checkpoint statistics do not match this study's configured "
                f"statistics: checkpoint has {list(found)}, study wants "
                f"{list(self.specs)}"
            )
        for row, row_state in zip(self._rows, state["states"]):
            if len(row_state) != self.ntimesteps:
                raise ValueError("checkpoint statistics timestep count mismatch")
            for inst, inst_state in zip(row, row_state):
                inst.load_state(inst_state)
