"""Server-rank supervision: the live half of the launcher protocol.

The paper's launcher kills an unresponsive server and restarts it from
its last checkpoint (Sec. 4.2.3).  :class:`~repro.core.launcher`
models those decisions as pure bookkeeping; this module executes them
against real ``repro serve`` processes:

* the :class:`~repro.net.coordinator.Coordinator` feeds rank heartbeats
  into a :class:`~repro.core.launcher.RankRespawnPolicy` and reports
  lost control connections;
* on a death verdict the :class:`RankSupervisor` SIGKILLs whatever is
  left of the old process (a zombie rank is alive-but-silent and must be
  removed before its successor binds a fresh data port) and invokes the
  ``spawner`` callback to start a replacement ``repro serve --rank K``;
* the replacement restores its per-rank checkpoint, re-registers with
  the coordinator (publishing a NEW data address), and reports which
  groups its restored statistics already contain — the coordinator then
  requeues every group the restored state is missing, and
  discard-on-replay makes the overlap harmless (Sec. 4.2.2).

The supervisor can only signal processes on its own host; multi-host
deployments point ``spawner`` at their own process manager (or respawn
``repro serve`` externally — the re-registration protocol is the same).

Both executors are called only from the coordinator's one loop thread
(inside :meth:`~repro.net.coordinator.Coordinator.wait`), so neither
takes a lock.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Dict, List, Optional

from repro.core.launcher import RankRespawnPolicy, RespawnBudgetExceeded

__all__ = ["PoolSupervisor", "RankSupervisor", "RespawnBudgetExceeded"]


class RankSupervisor:
    """Kill-and-respawn executor over a :class:`RankRespawnPolicy`.

    Parameters
    ----------
    spawner:
        ``spawner(rank)`` starts a replacement serve process for
        ``rank``.
    policy:
        The respawn bookkeeping (heartbeat staleness + budget).
    kill:
        Signal delivery, overridable in tests; defaults to ``os.kill``.
    """

    def __init__(
        self,
        spawner: Callable[[int], None],
        policy: RankRespawnPolicy,
        kill: Callable[[int, int], None] = os.kill,
    ):
        self.spawner = spawner
        self.policy = policy
        self._kill = kill
        self._pids: Dict[int, Optional[int]] = {}
        self.killed_pids: List[int] = []

    # ------------------------------------------------------------------ #
    def watch(self, rank: int, pid: Optional[int]) -> None:
        """A (re-)registered rank told us its pid; remember it for kills."""
        self._pids[rank] = pid

    def beat(self, rank: int, now: float) -> None:
        self.policy.record_heartbeat(rank, now)

    def stale_ranks(self, now: float) -> List[int]:
        return self.policy.stale_ranks(now)

    # ------------------------------------------------------------------ #
    def respawn(self, rank: int) -> None:
        """Execute one kill-and-respawn for a dead/silent rank.

        The kill comes FIRST: even when the respawn budget is exhausted
        and the study is about to abort, a zombie must not leak as a
        live stuck process holding its data port.  Raises
        :class:`RespawnBudgetExceeded` when the rank has died more often
        than the budget allows — the study cannot make progress and
        should abort loudly rather than thrash.
        """
        pid = self._pids.pop(rank, None)
        if pid and pid != os.getpid():  # never the coordinator itself
            try:
                self._kill(pid, signal.SIGKILL)
                self.killed_pids.append(pid)
            except (ProcessLookupError, PermissionError):
                pass  # already gone (a crash, not a zombie)
        self.policy.record_respawn(rank, time.monotonic())
        self.spawner(rank)
        # re-arm staleness from "replacement spawned": a replacement that
        # dies before it ever registers must be caught and retried within
        # the remaining budget, not stall the study
        self.policy.record_heartbeat(rank, time.monotonic())

    @property
    def total_respawns(self) -> int:
        return self.policy.total_respawns


class PoolSupervisor:
    """Elastic worker-pool executor over an
    :class:`~repro.scheduler.policy.ElasticPoolPolicy`.

    The decision/execution split mirrors :class:`RankSupervisor`: the
    policy is pure watermark bookkeeping (queue depth vs high/low water,
    spawn budget, cooldown), this class executes its verdicts against
    real ``repro work`` processes — the paper's Fig. 6 elastic ramp
    driven by the live queue instead of the batch scheduler.

    Parameters
    ----------
    spawner:
        ``spawner(index)`` starts one extra group-worker process.
    policy:
        The resize bookkeeping.
    """

    def __init__(self, spawner: Callable[[int], None], policy):
        self.spawner = spawner
        self.policy = policy

    # ------------------------------------------------------------------ #
    def maybe_spawn(self, queue_depth: int, active_workers: int, now: float) -> bool:
        """Spawn one extra worker if the policy wants one right now.

        Called every coordinator loop turn.  One worker per call: the
        cooldown paces the ramp, so a deep queue grows the pool
        gradually instead of all at once.
        """
        if not self.policy.want_spawn(queue_depth, active_workers, now):
            return False
        self.policy.record_spawn(now)
        self.spawner(self.policy.spawned - 1)
        return True

    def offer_retire(self, queue_depth: int, active_workers: int, now: float) -> bool:
        """Should the elastic worker asking for work be retired instead?

        Pure bookkeeping: on True the caller sends the worker a
        ``retire`` op and it exits cleanly.
        """
        if not self.policy.want_retire(queue_depth, active_workers, now):
            return False
        self.policy.record_retire(now)
        return True

    def worker_lost(self, now: float) -> None:
        """An elastic worker died without being retired: free its slot so
        the budgeted remainder can still spawn replacements."""
        self.policy.extra_lost(now)

    @property
    def spawned_total(self) -> int:
        return self.policy.spawned

    @property
    def retired_total(self) -> int:
        return self.policy.retired
