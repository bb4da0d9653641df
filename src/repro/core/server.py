"""Melissa Server: parallel in-transit statistics aggregation.

Each :class:`ServerRank` owns a contiguous cell partition and processes
whatever messages arrive, in any order across groups (Sec. 4.1.1: "The
data sent by the clients can be processed in any order"; updating is a
purely local operation, no inter-rank communication).

Message handling pipeline per rank:

1. **discard-on-replay** — a message whose timestep is <= the last
   timestep already *integrated* for its group is dropped (Sec. 4.2.1);
2. **staging** — a message that already carries every member over the
   rank's whole cell range skips this step and is folded by reference
   (zero copies on the server side); otherwise member slices accumulate
   in a per-(group, timestep) buffer until every member has covered
   every local cell (a group's members run synchronously, but slices may
   arrive from several client ranks and interleave with other groups);
3. **integration** — the complete (p+2)-member local fields update the
   iterative Sobol' estimators (and optionally the general statistics on
   the A and B members), then the buffer is discarded.  This is the
   "update and discard" that makes server memory O(one simulation),
   independent of the ensemble size;
4. **accounting** — last-integrated timestep and last-reception time per
   group feed the fault-tolerance protocol (timeout detection, restart
   bookkeeping, final data-provenance report).
"""

from __future__ import annotations

import time as _time
import weakref
from typing import Dict, List, Set, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.core.config import StudyConfig
from repro.mesh.partition import BlockPartition
from repro.sobol.martinez import UbiquitousSobolField
from repro.stats.pipeline import StatisticsPipeline
from repro.stats.protocol import StatContext
from repro.transport.message import FieldMessage, GroupFieldMessage, split_by_partition


class _Staging:
    """Partial (group, timestep) data for one rank's cell range.

    Slices may overlap or arrive twice, so coverage is an exact per-cell
    mask; a message pays for the cells it brings, not for the matrix.
    """

    __slots__ = ("data", "received", "missing")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.received = np.zeros(data.shape, dtype=bool)
        self.missing = data.size

    def put(self, member: int, lo: int, rows: np.ndarray) -> bool:
        """Store ``rows`` at ``(member, lo)``; True once nothing is missing."""
        window = np.s_[member : member + rows.shape[0], lo : lo + rows.shape[1]]
        self.data[window] = rows
        seen = self.received[window]
        self.missing -= seen.size - np.count_nonzero(seen)
        seen[...] = True
        return self.missing == 0


class ServerRank:
    """One MPI-rank's worth of Melissa Server state and logic."""

    def __init__(
        self,
        rank: int,
        config: StudyConfig,
        partition: BlockPartition,
        local_ranks: int = 1,
    ):
        self.rank = rank
        self.config = config
        self.partition = partition
        self.cell_lo, self.cell_hi = partition.range_of(rank)
        self.ncells_local = self.cell_hi - self.cell_lo
        nmembers = config.group_size
        self.nmembers = nmembers
        #: server ranks co-located on this host — the auto fold-thread
        #: ladder is clamped by cpus // local_ranks to avoid oversubscribing
        self.local_ranks = max(1, int(local_ranks))
        self.sobol = UbiquitousSobolField(
            nparams=config.nparams,
            ntimesteps=config.ntimesteps,
            ncells=self.ncells_local,
            kernel=config.kernel,
            fold_threads=config.fold_threads,
            local_ranks=self.local_ranks,
        )
        # the configured statistics catalog: one FieldStatistic instance
        # per (spec, timestep), driven generically.  Member statistics see
        # only the A and B members (the only independent inputs within a
        # group, Sec. 4.1); group statistics consume the whole buffer.
        # Those that are functions of the A/B moments read the engine's
        # through a weak reference: no cycle, a dropped rank is freed at once
        from repro.kernels import parallel as _parallel

        me = weakref.ref(self)
        self.stats = StatisticsPipeline(
            config.statistics,
            StatContext(
                shape=(self.ncells_local,),
                nparams=config.nparams,
                parameter_names=tuple(config.space.names),
                ab_moments=lambda t: me().sobol.ab_moments(t),
            ),
            config.ntimesteps,
            fold_threads=_parallel.eager_threads(
                config.fold_threads, local_ranks=self.local_ranks
            ),
        )
        # fault-tolerance accounting (Sec. 4.2.1)
        self.last_integrated: Dict[int, int] = {}
        self.last_message_time: Dict[int, float] = {}
        self.finished_groups: Set[int] = set()
        self._staging: Dict[Tuple[int, int], _Staging] = {}
        # counters for the final provenance report
        self.messages_processed = 0
        self.messages_discarded = 0
        self.groups_seen: Set[int] = set()
        # telemetry (ISSUE 8): label-bound handles are resolved once here;
        # every hot-path touch is guarded by the registry's enabled flag
        # so a telemetry-off study pays one branch per message
        reg = _telemetry.REGISTRY
        self._telemetry = reg
        rank_label = str(rank)
        self._m_messages = reg.counter(
            "repro_rank_messages_received",
            "data-plane messages handled per server rank",
        ).labels(rank=rank_label)
        self._m_bytes = reg.counter(
            "repro_rank_bytes_received",
            "field payload bytes handled per server rank",
        ).labels(rank=rank_label)
        self._m_discarded = reg.counter(
            "repro_rank_messages_discarded",
            "replay-discarded messages per server rank",
        ).labels(rank=rank_label)
        self._m_fold = reg.histogram(
            "repro_rank_fold_seconds",
            "seconds folding one complete (group, timestep) buffer into "
            "the co-moment engine",
        ).labels(rank=rank_label)
        stat_fold = reg.histogram(
            "repro_stat_fold_seconds",
            "per-statistic fold seconds (catalog rows, per rank)",
        )
        self._m_stat_folds = [
            stat_fold.labels(rank=rank_label, statistic=spec)
            for spec in self.stats.specs
        ]

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def handle(self, msg, now: float) -> bool:
        """Process one inbound message; returns False if discarded."""
        if isinstance(msg, GroupFieldMessage):
            return self._handle_slices(
                msg.group_id, msg.timestep, msg.cell_lo, msg.cell_hi,
                0, msg.data, now,
            )
        if isinstance(msg, FieldMessage):
            return self._handle_slices(
                msg.group_id, msg.timestep, msg.cell_lo, msg.cell_hi,
                msg.member, msg.data[np.newaxis, :], now,
            )
        raise TypeError(f"server cannot handle message type {type(msg)!r}")

    def _handle_slices(
        self,
        group_id: int,
        timestep: int,
        cell_lo: int,
        cell_hi: int,
        member: int,
        data: np.ndarray,
        now: float,
    ) -> bool:
        """Rows of ``data`` are members ``member, member + 1, ...``."""
        if not (self.cell_lo <= cell_lo < cell_hi <= self.cell_hi):
            raise ValueError(
                f"rank {self.rank} received cells [{cell_lo}, {cell_hi}) "
                f"outside its partition [{self.cell_lo}, {self.cell_hi})"
            )
        if timestep >= self.config.ntimesteps:
            raise ValueError(f"timestep {timestep} beyond study length")
        self.groups_seen.add(group_id)
        self.last_message_time[group_id] = now
        # discard on replay (Sec. 4.2.1): never integrate a timestep twice
        if self.config.discard_on_replay and timestep <= self.last_integrated.get(
            group_id, -1
        ):
            self.messages_discarded += 1
            if self._telemetry.enabled:
                self._m_discarded.inc()
            return False
        if member < 0 or member + data.shape[0] > self.nmembers:
            raise ValueError(
                f"members [{member}, {member + data.shape[0]}) outside the "
                f"group's {self.nmembers}"
            )
        key = (group_id, timestep)
        staging = self._staging.get(key)
        # what the message itself covers decides the path: the rank's whole
        # cell range, every member in order, in the layout the fold reads,
        # and nothing staged under its key -> fold the payload by reference
        # (the sender relinquished it, see transport.message).  The engine
        # holds it until its micro-batch flushes, so a borrowed (read-only)
        # payload — a view of a ring slot, gone when handle returns — is
        # staged like any partial message: that copy is what keeps it
        complete = None
        if (
            staging is None
            and data.shape == (self.nmembers, self.ncells_local)
            and data.dtype == np.float64
            and data.flags.c_contiguous
            and data.flags.writeable
        ):
            complete = data
        else:
            if staging is None:
                staging = self._staging[key] = _Staging(self.sobol.payload())
            if staging.put(member, cell_lo - self.cell_lo, data):
                complete = staging.data
                del self._staging[key]
        self.messages_processed += 1
        if self._telemetry.enabled:
            self._m_messages.inc()
            self._m_bytes.inc(data.nbytes)
        if complete is not None:
            self._integrate(group_id, timestep, complete)
        return True

    def _integrate(self, group_id: int, timestep: int, data: np.ndarray) -> None:
        """Fold a complete (group, timestep) into every statistic, then drop."""
        # ``data`` is the (p+2, ncells) member stack the batched engine
        # consumes — a whole-partition payload or a completed staging
        # buffer; either way nobody else will write to it, so it is handed
        # over by reference
        if self._telemetry.enabled:
            t0 = _time.perf_counter()
            self.sobol.update_group_buffer(timestep, data)
            self._m_fold.observe(_time.perf_counter() - t0)
            if self.stats:
                self.stats.update_timed(
                    timestep, data, self._m_stat_folds
                )
        else:
            self.sobol.update_group_buffer(timestep, data)
            if self.stats:
                self.stats.update(timestep, data)
        prev = self.last_integrated.get(group_id, -1)
        if timestep > prev:
            self.last_integrated[group_id] = timestep
        if timestep == self.config.ntimesteps - 1:
            self.finished_groups.add(group_id)

    # ------------------------------------------------------------------ #
    # fault-tolerance accounting
    # ------------------------------------------------------------------ #
    def running_groups(self) -> Set[int]:
        """Groups started (>= 1 message) but not finished on this rank."""
        return self.groups_seen - self.finished_groups

    def check_timeouts(self, now: float, timeout: float) -> List[int]:
        """Groups whose inter-message gap exceeded ``timeout`` (Sec. 4.2.2)."""
        stale = []
        for group_id in self.running_groups():
            last = self.last_message_time.get(group_id)
            if last is not None and now - last > timeout:
                stale.append(group_id)
        return sorted(stale)

    def forget_group(self, group_id: int) -> None:
        """Drop staging and liveness for a group being restarted.

        The integrated statistics and ``last_integrated`` are kept — that
        is the whole point of discard-on-replay: the restarted instance's
        already-seen timesteps will be dropped.
        """
        self._staging = {
            key: value for key, value in self._staging.items() if key[0] != group_id
        }
        self.last_message_time.pop(group_id, None)

    # ------------------------------------------------------------------ #
    # checkpoint / restart (Sec. 4.2.3)
    # ------------------------------------------------------------------ #
    def checkpoint_state(self) -> dict:
        """Statistics + group accounting.  Staged partials are *not* saved:
        restarted groups will resend them and replay protection keeps the
        integrated state exact."""
        state = {
            "rank": self.rank,
            "cell_lo": self.cell_lo,
            "cell_hi": self.cell_hi,
            "sobol": self.sobol.state_dict(),
            "last_integrated": dict(self.last_integrated),
            "finished_groups": sorted(self.finished_groups),
            "groups_seen": sorted(self.groups_seen),
            "messages_processed": self.messages_processed,
            "messages_discarded": self.messages_discarded,
            "stats": self.stats.state_dict(),
        }
        return state

    def restore_state(self, state: dict) -> None:
        """Load a :meth:`checkpoint_state` payload.  The rank copies its
        arrays, so it shares nothing with ``state``."""
        self._load_state(state, UbiquitousSobolField.from_state_dict)

    def adopt_state(self, state: dict) -> None:
        """:meth:`restore_state` for a state nothing else holds (a
        checkpoint just read, a payload just decoded): the rank keeps its
        Sobol' arrays as its own instead of copying them."""
        self._load_state(state, UbiquitousSobolField.adopt_state_dict)

    def _load_state(self, state: dict, sobol_from) -> None:
        if state["rank"] != self.rank:
            raise ValueError("checkpoint belongs to a different rank")
        if (state["cell_lo"], state["cell_hi"]) != (self.cell_lo, self.cell_hi):
            raise ValueError("checkpoint partition mismatch")
        self.sobol = sobol_from(
            state["sobol"],
            kernel=self.config.kernel,
            fold_threads=self.config.fold_threads,
            local_ranks=self.local_ranks,
        )
        self.last_integrated = {int(k): int(v) for k, v in state["last_integrated"].items()}
        self.finished_groups = set(state["finished_groups"])
        self.groups_seen = set(state["groups_seen"])
        self.messages_processed = int(state["messages_processed"])
        self.messages_discarded = int(state["messages_discarded"])
        stats_state = state.get("stats")
        if stats_state is None:
            if self.stats:
                # restoring a stats-enabled config from a stats-free
                # checkpoint used to silently zero the general statistics;
                # fail loudly instead (the checkpoint fingerprint rejects
                # this earlier with more context)
                raise ValueError(
                    "checkpoint contains no statistics state but this "
                    f"study configures statistics={list(self.stats.specs)}"
                )
        else:
            self.stats.load_state(stats_state)
        self._staging.clear()
        self.last_message_time.clear()

    # ------------------------------------------------------------------ #
    # batched local results (the per-rank half of parallel assembly)
    # ------------------------------------------------------------------ #
    def index_maps(self) -> Dict[str, np.ndarray]:
        """Every derived map of this rank's partition, batched per timestep.

        One ``(p, ncells_local)`` correlation-extraction pass per timestep
        produces both index families; with the distributed runtime this
        runs INSIDE the rank process, so assembly parallelizes across
        ranks and the parent only concatenates.
        """
        self.sobol.flush()  # the study's last read: its free slabs go
        t_total = self.config.ntimesteps
        p = self.config.nparams
        w = self.ncells_local
        first = np.empty((t_total, p, w))
        total = np.empty((t_total, p, w))
        variance = np.empty((t_total, w))
        mean = np.empty((t_total, w))
        for t in range(t_total):
            first[t], total[t] = self.sobol.index_maps_at(t)
            variance[t] = self.sobol.variance_map(t)
            mean[t] = self.sobol.mean_map(t)
        return {
            "first": first,
            "total": total,
            "variance": variance,
            "mean": mean,
            # catalog statistics: name -> (T, *extra, ncells_local), field
            # axis last so the parent concatenates partitions on axis=-1
            "stats": self.stats.results(),
        }

    @property
    def staged_entries(self) -> int:
        return len(self._staging)


class MelissaServer:
    """The full parallel server: all ranks plus cross-rank reductions.

    In-process, "parallel" means rank objects driven by whichever runtime
    owns the study; each rank's :meth:`ServerRank.handle` is pure local
    work, exactly as in the paper, so driving them sequentially or from
    threads yields identical statistics.
    """

    def __init__(self, config: StudyConfig):
        self.config = config
        self.partition = BlockPartition(config.ncells, config.server_ranks)
        self.ranks = [
            ServerRank(r, config, self.partition) for r in range(config.server_ranks)
        ]

    # ------------------------------------------------------------------ #
    def handle(self, msg, now: float) -> bool:
        """Route one message to its owning rank(s) (driver convenience).

        Messages straddling a partition boundary are split along the
        fenceposts; returns True only if every chunk was integrated
        (a chunk discarded by replay protection returns False).
        """
        return all(
            [
                self.ranks[rank].handle(chunk, now)
                for rank, chunk in split_by_partition(msg, self.partition)
            ]
        )

    # ------------------------------------------------------------------ #
    # cross-rank views
    # ------------------------------------------------------------------ #
    def finished_groups(self) -> Set[int]:
        """Groups finished on *every* rank (a group is done only when all
        partitions have integrated its final timestep)."""
        finished = self.ranks[0].finished_groups.copy()
        for rank in self.ranks[1:]:
            finished &= rank.finished_groups
        return finished

    def started_groups(self) -> Set[int]:
        started = set()
        for rank in self.ranks:
            started |= rank.groups_seen
        return started

    def running_groups(self) -> Set[int]:
        return self.started_groups() - self.finished_groups()

    def check_timeouts(self, now: float, timeout: float) -> List[int]:
        """Union of per-rank timeout detections (any rank may notice)."""
        stale: Set[int] = set()
        for rank in self.ranks:
            stale.update(rank.check_timeouts(now, timeout))
        return sorted(stale)

    def forget_group(self, group_id: int) -> None:
        for rank in self.ranks:
            rank.forget_group(group_id)

    # ------------------------------------------------------------------ #
    # results assembly
    # ------------------------------------------------------------------ #
    def assemble_maps(self, rank_maps=None) -> Dict[str, np.ndarray]:
        """All ubiquitous maps in results layout, assembled per timestep.

        ``rank_maps`` may carry per-rank :meth:`ServerRank.index_maps`
        payloads computed elsewhere (the distributed runtime ships them
        from the rank processes); otherwise each rank computes its own
        here.
        Either way the heavy correlation math happens once per (rank,
        timestep) on whole slabs — not once per (parameter, timestep).
        """
        cfg = self.config
        p, t_total, n = cfg.nparams, cfg.ntimesteps, cfg.ncells
        first = np.empty((p, t_total, n))
        total = np.empty((p, t_total, n))
        variance = np.empty((t_total, n))
        mean = np.empty((t_total, n))
        if rank_maps is None:
            rank_maps = [rank.index_maps() for rank in self.ranks]
        for rank, maps in zip(self.ranks, rank_maps):
            lo, hi = rank.cell_lo, rank.cell_hi
            first[:, :, lo:hi] = maps["first"].transpose(1, 0, 2)
            total[:, :, lo:hi] = maps["total"].transpose(1, 0, 2)
            variance[:, lo:hi] = maps["variance"]
            mean[:, lo:hi] = maps["mean"]
        # catalog statistics: the per-rank payloads already carry field
        # axes last, so partitions concatenate along axis=-1 in rank
        # order (the BlockPartition assigns contiguous ascending ranges)
        stats: Dict[str, np.ndarray] = {}
        for name in self.ranks[0].stats.result_names:
            stats[name] = np.concatenate(
                [maps["stats"][name] for maps in rank_maps], axis=-1
            )
        return {
            "first": first,
            "total": total,
            "variance": variance,
            "mean": mean,
            "stats": stats,
        }

    def max_interval_width(self, z: float = 1.96) -> float:
        """Convergence scalar: the largest CI width anywhere (Sec. 4.1.5).

        Ranks whose partition carries no meaningful cells yet are skipped
        (their estimators report NaN); ``inf`` while no rank has data.
        """
        widths = [r.sobol.max_interval_width(z) for r in self.ranks]
        valid = [w for w in widths if not np.isnan(w)]
        return max(valid) if valid else float("inf")

    def groups_integrated(self) -> int:
        """Number of groups whose final timestep is integrated everywhere."""
        return len(self.finished_groups())

    # ------------------------------------------------------------------ #
    def provenance_report(self) -> dict:
        """The "clear vision of the actual data" report (Sec. 4.2.2 end)."""
        return {
            "groups_started": len(self.started_groups()),
            "groups_finished": len(self.finished_groups()),
            "messages_processed": sum(r.messages_processed for r in self.ranks),
            "messages_discarded": sum(r.messages_discarded for r in self.ranks),
            "staged_entries": sum(r.staged_entries for r in self.ranks),
        }

    def memory_floats(self) -> int:
        """Total statistics state across ranks (the 491 GB accounting)."""
        return sum(r.sobol.memory_floats for r in self.ranks)
