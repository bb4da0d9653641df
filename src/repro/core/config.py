"""Declarative study configuration shared by launcher, server, and runtimes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.sampling import ParameterSpace

#: statistics computed when ``statistics`` is None: order-2 moments.
DEFAULT_STATISTICS: Tuple[str, ...] = ("moments:order=2",)


@dataclass
class StudyConfig:
    """Everything needed to run one in-transit sensitivity study.

    Attributes mirror the knobs the paper's ``options.py`` exposes
    (Appendix A.6): server size, group count, message-buffer budget,
    which statistics to compute, timeouts and checkpoint cadence.
    """

    # --- the study itself ------------------------------------------------
    space: ParameterSpace
    ngroups: int
    ntimesteps: int
    ncells: int
    seed: int = 0
    sampling_method: str = "random"

    # --- server shape ----------------------------------------------------
    server_ranks: int = 2
    #: statistic spec strings from the ``repro.stats`` catalog (e.g.
    #: ``["moments:order=4", "quantiles:qs=0.5:lo=-5:hi=5", "sobol2"]``).
    #: ``None`` selects :data:`DEFAULT_STATISTICS`; an empty list disables
    #: general statistics (the Sobol' engine always runs).  Stored
    #: canonicalized, so equivalent spellings fingerprint identically.
    statistics: Optional[Sequence[str]] = None
    #: co-moment kernel backend for the fold hot path: "auto" (cext where
    #: it builds, else einsum), or "einsum", "blas", "cext" by name
    kernel: str = "auto"
    #: fold-thread budget per server rank: "auto" (``min(usable_cpus //
    #: local_ranks, cell blocks)`` — co-located ranks share the host,
    #: one block needs no pool) or an int >= 1 to pin the pool size.
    #: Pure execution policy — it cannot change any statistic
    #: bit (shards are block-aligned disjoint cell windows) — so it is
    #: deliberately NOT part of the study fingerprint or checkpoints.
    fold_threads: object = "auto"

    # --- client shape ----------------------------------------------------
    client_ranks: int = 2  # ranks per simulation (the in-group partition)

    # --- transport -------------------------------------------------------
    channel_capacity_bytes: Optional[int] = None  # None = unbounded buffers
    two_stage_transfer: bool = True
    #: data-plane fabric for the distributed runtime: "auto" negotiates a
    #: shared-memory ring per channel when worker and rank share a host
    #: (proved by actually attaching the segment) and falls back to TCP
    #: framing otherwise; "tcp"/"shm" pin the fabric.  A per-process
    #: deployment knob like ``scheduling`` — each side may be launched
    #: with its own setting and negotiation reconciles them — so it is
    #: deliberately NOT part of the study fingerprint.
    transport: str = "auto"

    # --- batch resources (virtual nodes, for the scheduler) --------------
    nodes_per_group: int = 4
    server_nodes: int = 2
    total_nodes: int = 64
    group_walltime: float = 1e9
    server_walltime: float = 1e9
    max_pending_jobs: int = 500  # Curie's submission limit (Sec. 4.1.4)

    # --- fault tolerance (virtual seconds) --------------------------------
    group_timeout: float = 300.0  # paper's unresponsive-group timeout
    zombie_timeout: float = 300.0  # never-sent-a-message timeout
    server_timeout: float = 300.0  # launcher heartbeat timeout
    checkpoint_interval: float = 600.0  # paper's checkpoint period
    max_group_retries: int = 3
    #: how many times the supervisor may respawn one dead ``repro serve``
    #: rank from its checkpoint before aborting the study (Sec. 4.2.3)
    max_rank_respawns: int = 3
    discard_on_replay: bool = True
    #: wall-clock heartbeat cadence for the process/distributed runtimes
    #: (server ranks and workers beacon liveness at this period)
    heartbeat_interval: float = 0.5

    # --- scheduling (coordinator-side policy layer) -----------------------
    #: straggler-aware scheduling for the distributed coordinator: a
    #: :class:`repro.scheduler.policy.SchedulingConfig`, a spec string for
    #: :func:`repro.scheduler.policy.parse_scheduling` (e.g.
    #: ``"speculate;elastic:high=6"``), or None = plain FIFO.  Coordinator
    #: policy only — serve/work processes ignore it, so it is deliberately
    #: NOT part of the study fingerprint or checkpoint fingerprint.
    scheduling: Optional[object] = None

    # --- convergence control ----------------------------------------------
    convergence_threshold: Optional[float] = None  # max CI width to stop at
    convergence_check_interval: float = 60.0

    def __post_init__(self):
        if self.ngroups < 1:
            raise ValueError("ngroups must be >= 1")
        if self.ntimesteps < 1:
            raise ValueError("ntimesteps must be >= 1")
        if self.ncells < 1:
            raise ValueError("ncells must be >= 1")
        if self.server_ranks < 1:
            raise ValueError("server_ranks must be >= 1")
        if self.client_ranks < 1:
            raise ValueError("client_ranks must be >= 1")
        if self.server_ranks > self.ncells:
            raise ValueError("cannot split cells over more server ranks than cells")
        if self.client_ranks > self.ncells:
            raise ValueError("cannot split cells over more client ranks than cells")
        if self.max_group_retries < 0:
            raise ValueError("max_group_retries must be >= 0")
        if self.max_rank_respawns < 0:
            raise ValueError("max_rank_respawns must be >= 0")
        if self.transport not in ("auto", "tcp", "shm"):
            raise ValueError(
                f"transport must be 'auto', 'tcp', or 'shm' — got "
                f"{self.transport!r}"
            )
        from repro.kernels import resolve_spec
        from repro.kernels.parallel import validate_threads_spec

        self.kernel = resolve_spec(self.kernel)  # fail fast on unknown names
        self.fold_threads = validate_threads_spec(self.fold_threads) or "auto"
        self._resolve_statistics()  # fail fast on unknown statistic specs
        self._resolve_scheduling()  # fail fast on malformed scheduling specs

    def _resolve_scheduling(self) -> None:
        """Canonicalize ``scheduling`` to a SchedulingConfig (or None)."""
        if self.scheduling is None:
            return
        from repro.scheduler.policy import SchedulingConfig, parse_scheduling

        if isinstance(self.scheduling, str):
            self.scheduling = parse_scheduling(self.scheduling)
        elif not isinstance(self.scheduling, SchedulingConfig):
            raise TypeError(
                "scheduling must be a SchedulingConfig, a spec string "
                f"(e.g. 'speculate;elastic'), or None — got {self.scheduling!r}"
            )
        if self.scheduling.speculate and not self.discard_on_replay:
            raise ValueError(
                "scheduling with speculation requires discard_on_replay=True"
            )

    def _resolve_statistics(self) -> None:
        """Canonicalize ``statistics`` to the spec tuple that checkpoint
        fingerprints and the distributed coordinator compare."""
        from repro.stats import canonicalize_specs

        specs = DEFAULT_STATISTICS if self.statistics is None else self.statistics
        self.statistics = canonicalize_specs(specs)

    # ------------------------------------------------------------------ #
    @property
    def nparams(self) -> int:
        return self.space.nparams

    @property
    def group_size(self) -> int:
        """Simulations per group: p + 2."""
        return self.nparams + 2

    @property
    def nsimulations(self) -> int:
        return self.ngroups * self.group_size

    def ensemble_bytes(self) -> int:
        """Bytes the classical approach would write: the 48 TB quantity."""
        return self.nsimulations * self.ntimesteps * self.ncells * 8
