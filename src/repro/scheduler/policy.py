"""Elastic, straggler-aware scheduling policy (the coordinator's brain).

The paper's launcher gets elasticity for free from the batch scheduler:
every group is an independent job, so the machine grows and shrinks the
study with cluster load (Sec. 4.1.4, the Fig. 6 elastic ramp).  Our live
coordinator hands whole groups to long-lived ``repro work`` processes
instead, which re-introduces the classic straggler problem — one slow or
dying worker drags the study's tail while the rest of the pool idles.

This module is the pure decision half of the fix, mirroring the shape of
:class:`~repro.core.launcher.RankRespawnPolicy` (observations in,
decisions out; no sockets, no processes, injected clocks):

* :class:`SchedulingConfig` — the knobs (``StudyConfig(scheduling=...)``
  accepts an instance or a compact spec string via
  :func:`parse_scheduling`);
* :class:`SchedulingPolicy` — EWMA per-worker throughput tracking fed by
  the durations of completed group attempts, and speculative
  re-execution verdicts over the held attempts the coordinator passes in
  (re-issue a group to a second worker once its running time exceeds a
  multiple of the fleet-median group duration; first completion wins and
  the duplicate is discarded exactly by the same replay protection that
  absorbs rank-respawn re-runs);
* :class:`ElasticPoolPolicy` — watermark bookkeeping for elastic pool
  resize; the :class:`~repro.net.supervisor.PoolSupervisor` executes its
  spawn/retire verdicts against real worker processes.

Exactness: a speculative duplicate streams byte-identical field data (a
group's simulations are deterministic functions of the shared design),
and every (group, timestep) is integrated exactly once per rank —
whichever copy completes its staging first wins, the other's messages
are discard-on-replay no-ops.  Speculation therefore requires
``discard_on_replay`` and never perturbs any exact-merge statistic.
"""

from __future__ import annotations

import statistics as _statistics
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Tuple

__all__ = [
    "SchedulingConfig",
    "SchedulingPolicy",
    "ElasticPoolPolicy",
    "parse_scheduling",
]


@dataclass(frozen=True)
class SchedulingConfig:
    """Knobs for the coordinator's scheduling policy layer.

    All features default off: a default study schedules exactly like the
    pre-policy coordinator (plain FIFO).  ``StudyConfig(scheduling=...)``
    accepts an instance or a :func:`parse_scheduling` spec string.
    """

    # --- speculative re-execution ------------------------------------
    speculate: bool = False
    #: re-issue a group once its running time exceeds this multiple of
    #: the fleet-median group duration
    multiple: float = 3.0
    #: completions needed before the fleet median is trusted
    min_done: int = 3
    #: per-study budget of speculative re-issues
    speculation_budget: int = 32
    #: EWMA smoothing for per-worker seconds-per-group
    alpha: float = 0.3

    # --- elastic pool resize -------------------------------------------
    elastic: bool = False
    #: spawn an extra worker while queue depth exceeds this
    high_water: int = 4
    #: retire an elastic worker while queue depth is below this
    low_water: int = 1
    #: most extra workers alive at once
    max_extra: int = 4
    #: per-study spawn budget (mirrors ``max_rank_respawns``)
    spawn_budget: int = 8
    #: never retire below this many live workers
    min_workers: int = 1
    #: seconds between resize actions (gradual ramp, no thrash)
    cooldown: float = 1.0

    def __post_init__(self):
        if self.multiple <= 1.0:
            raise ValueError("speculation multiple must be > 1")
        if self.min_done < 1:
            raise ValueError("min_done must be >= 1")
        if self.speculation_budget < 0:
            raise ValueError("speculation_budget must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.low_water < 0:
            raise ValueError("low_water must be >= 0")
        if self.high_water <= self.low_water:
            raise ValueError("high_water must exceed low_water")
        if self.max_extra < 1:
            raise ValueError("max_extra must be >= 1")
        if self.spawn_budget < 0:
            raise ValueError("spawn_budget must be >= 0")
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.cooldown <= 0:
            raise ValueError("cooldown must be > 0")

    @property
    def enabled(self) -> bool:
        """Does any feature deviate from plain FIFO?"""
        return self.speculate or self.elastic


_CLAUSE_PARAMS = {
    "speculate": {
        "multiple": float, "min_done": int, "budget": int, "alpha": float,
    },
    "elastic": {
        "high": int, "low": int, "max": int, "budget": int,
        "min": int, "cooldown": float,
    },
}

_PARAM_FIELDS = {
    ("speculate", "budget"): "speculation_budget",
    ("elastic", "high"): "high_water",
    ("elastic", "low"): "low_water",
    ("elastic", "max"): "max_extra",
    ("elastic", "budget"): "spawn_budget",
    ("elastic", "min"): "min_workers",
}


def parse_scheduling(spec: str) -> SchedulingConfig:
    """Scheduling config from a compact spec string.

    Grammar mirrors the fault specs: ``;``-separated feature clauses,
    each ``kind[:key=value[,key=value...]]``::

        speculate                      speculate:multiple=2.5,min_done=1
        speculate;elastic              elastic:high=6,low=1,max=4
        fifo                           (everything off, the default)

    Clauses: ``speculate`` (keys ``multiple``, ``min_done``, ``budget``,
    ``alpha``), ``elastic`` (keys ``high``,
    ``low``, ``max``, ``budget``, ``min``, ``cooldown``), ``fifo`` (no
    keys; explicit no-op so scripts can spell the default).
    """
    overrides: Dict[str, object] = {}
    for clause in filter(None, (c.strip() for c in spec.split(";"))):
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if kind == "fifo":
            if rest:
                raise ValueError(f"'fifo' takes no parameters: {clause!r}")
            continue
        if kind not in _CLAUSE_PARAMS:
            raise ValueError(
                f"unknown scheduling clause {kind!r} "
                "(use speculate | elastic | fifo)"
            )
        overrides[kind] = True
        allowed = _CLAUSE_PARAMS[kind]
        for item in filter(None, rest.split(",")):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(
                    f"malformed scheduling parameter {item!r} in {clause!r}"
                )
            if key not in allowed:
                raise ValueError(
                    f"unknown {kind} parameter {key!r} "
                    f"(allowed: {sorted(allowed)})"
                )
            field = _PARAM_FIELDS.get((kind, key), key)
            overrides[field] = allowed[key](value.strip())
    return SchedulingConfig(**overrides)


class SchedulingPolicy:
    """EWMA throughput tracking + the speculation verdict.

    Pure bookkeeping over what the coordinator observes: group durations
    and worker departures in, verdicts out.  The coordinator owns every
    held attempt (when it started, whether it is a speculative copy) and
    passes the live ones in, so no per-attempt state lives here; only its
    one loop thread calls in, so no locking does either.  Every clock is
    an injected ``now`` (the coordinator's turn, plain floats in tests).
    """

    def __init__(self, config: SchedulingConfig):
        self.config = config
        #: smoothed seconds-per-group per live worker
        self.ewma: Dict[int, float] = {}
        self.completions: Dict[int, int] = {}
        self._durations: Deque[float] = deque(maxlen=65)

    # ---------------------------------------------------------------- #
    # observations
    # ---------------------------------------------------------------- #
    def worker_left(self, wid: int) -> None:
        """A worker disconnected: its speed no longer describes the fleet."""
        self.ewma.pop(wid, None)
        self.completions.pop(wid, None)

    def completed(self, wid: int, duration: float) -> None:
        """A group attempt of ``duration`` seconds completed on ``wid``:
        feed the worker's EWMA and the fleet's duration window."""
        duration = max(duration, 0.0)
        prev = self.ewma.get(wid)
        alpha = self.config.alpha
        self.ewma[wid] = (
            duration if prev is None else alpha * duration + (1 - alpha) * prev
        )
        self.completions[wid] = self.completions.get(wid, 0) + 1
        self._durations.append(duration)

    # ---------------------------------------------------------------- #
    # verdicts
    # ---------------------------------------------------------------- #
    def median_duration(self) -> Optional[float]:
        """Fleet-median group duration, once enough groups completed."""
        if len(self._durations) < self.config.min_done:
            return None
        return float(_statistics.median(self._durations))

    def speculation_candidate(
        self,
        wid: int,
        attempts: Sequence[Tuple[int, int, float]],
        spent: int,
        now: float,
    ) -> Optional[int]:
        """Straggling group worth re-issuing to idle worker ``wid``.

        ``attempts`` are the live ``(holder, group id, started)`` attempts
        and ``spent`` the speculative copies already issued.  A group
        qualifies when it has exactly one live attempt, held by a
        *different* worker, that has been running longer than
        ``multiple`` x the fleet median.  Returns the longest-overdue
        group id, or None.
        """
        cfg = self.config
        if not cfg.speculate or spent >= cfg.speculation_budget:
            return None
        median = self.median_duration()
        if median is None or median <= 0.0:
            return None
        copies = Counter(gid for _, gid, _ in attempts)
        overdue = [
            (now - started, gid)
            for holder, gid, started in attempts
            if holder != wid
            and copies[gid] == 1
            and now - started > cfg.multiple * median
        ]
        best = max(overdue, key=lambda item: item[0], default=None)
        return None if best is None else best[1]


class ElasticPoolPolicy:
    """Watermark bookkeeping for elastic worker-pool resize.

    The decision half of the paper's Fig. 6 elastic ramp against a live
    pool: spawn while the queue is deep, retire while it is drained,
    never thrash (cooldown) and never spend past the budget.  The
    :class:`~repro.net.supervisor.PoolSupervisor` executes the verdicts.
    """

    def __init__(self, config: SchedulingConfig):
        self.config = config
        self.spawned = 0
        self.retired = 0
        self._live_extra = 0
        self._last_action: Optional[float] = None

    def _cooling(self, now: float) -> bool:
        return (
            self._last_action is not None
            and now - self._last_action < self.config.cooldown
        )

    def want_spawn(self, queue_depth: int, active_workers: int, now: float) -> bool:
        cfg = self.config
        return (
            cfg.elastic
            and queue_depth > cfg.high_water
            and active_workers >= 1  # the pool exists (the coordinator is up)
            and self.spawned < cfg.spawn_budget
            and self._live_extra < cfg.max_extra
            and not self._cooling(now)
        )

    def record_spawn(self, now: float) -> None:
        self.spawned += 1
        self._live_extra += 1
        self._last_action = now

    def want_retire(self, queue_depth: int, active_workers: int, now: float) -> bool:
        cfg = self.config
        return (
            cfg.elastic
            and queue_depth < cfg.low_water
            and active_workers > cfg.min_workers
            and self._live_extra > 0
            and not self._cooling(now)
        )

    def record_retire(self, now: float) -> None:
        self.retired += 1
        self._live_extra = max(0, self._live_extra - 1)
        self._last_action = now

    def extra_lost(self, now: float) -> None:
        """An elastic worker died un-retired: its slot frees up (the
        spend stays counted against the budget, the cooldown is not
        reset — a death is not a resize action)."""
        self._live_extra = max(0, self._live_extra - 1)
