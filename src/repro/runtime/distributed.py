"""Distributed driver: server ranks and group workers as OS processes.

This is the deployment shape of the paper — independent processes
connected only by sockets — driven end to end.  :meth:`DistributedRuntime.start`
brings up the coordinator, forks ``nworkers`` group workers plus every
server rank on this host (none when ``nworkers=0``: ``repro serve
--rank K`` / ``repro work`` processes started on any machine dial in
instead), and :meth:`~DistributedRuntime.wait` assembles
:class:`~repro.core.results.StudyResults`.  ``SensitivityStudy.run(
runtime="distributed")`` and ``repro launch`` both land here; whoever
started the ranks, a replacement rank or elastic worker is forked from
this process.

Statistics parity: each (cell, timestep) lives on exactly one rank and
group folds commute, so results match the sequential driver to tight
floating-point tolerance; the integration tests assert rtol 1e-10.

Fault paths (Sec. 4.2):

* a killed group worker drops its control connection; the coordinator
  resubmits every group it held, ranks forget their staged partials, and
  replay protection keeps the statistics exact (Sec. 4.2.1/4.2.2) —
  asserted by the worker-crash tests;
* a dead or hung *server rank* is caught by the supervisor (lost control
  connection or stale heartbeat), SIGKILLed, and respawned from its
  per-rank checkpoint (Sec. 4.2.3); the replacement publishes a fresh
  data address, the coordinator requeues whatever the restored state is
  missing, and workers reconnect and re-run — the chaos suite asserts
  rtol 1e-10 parity through a mid-study SIGKILL.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import StudyConfig
from repro.core.group import SimulationFactory
from repro.core.launcher import RankRespawnPolicy
from repro.core.results import StudyResults
from repro.core.server import MelissaServer
from repro.faults import FaultPlan, ProcessFault
from repro.net.coordinator import Coordinator
from repro.net.serve import run_server_rank
from repro.net.supervisor import PoolSupervisor, RankSupervisor
from repro.net.worker import run_worker
from repro.sampling.pickfreeze import draw_design
from repro.scheduler.policy import ElasticPoolPolicy, SchedulingPolicy
from repro import telemetry as _telemetry
from repro.telemetry.aggregate import StudyTelemetry
from repro.telemetry.tracer import Tracer


class DistributedRuntime:
    """Socket-transport execution of one study: the coordinator plus the
    rank and worker processes it forks on this host.

    Parameters
    ----------
    nworkers:
        Group-worker process count (the "machine" capacity); 0 forks no
        worker and no rank — they dial in from elsewhere.
    host, port:
        Coordinator bind address (port 0 = ephemeral).
    data_host:
        Interface the forked ranks' data listeners bind (ephemeral
        ports); defaults to ``host``.
    checkpoint_dir:
        When set, every rank process checkpoints/restores its own file
        there on ``config.checkpoint_interval`` cadence.
    supervise:
        Run the launcher protocol for server ranks (Sec. 4.2.3): a dead
        or silent rank process is killed and respawned from its
        checkpoint (up to ``config.max_rank_respawns`` times per rank)
        instead of failing the study.  On by default.
    rank_timeout:
        Heartbeat staleness (seconds) before a silent rank is declared a
        zombie; defaults to ``config.server_timeout``.
    fault_plan:
        Process faults to inject into the forked serve/work processes:
        rank ``K`` runs with ``fault_plan.rank_faults.get(K)``, forked
        worker ``i`` with ``fault_plan.worker_faults.get(i)``.  Group
        faults are rejected — they need the virtual-time driver.
        Respawned/elastic replacement processes always run clean.
    transport:
        Convenience override of ``config.transport`` for this loopback
        deployment: "auto" (negotiate shared memory per channel, fall
        back to TCP), "tcp", or "shm".

    Scheduling: ``config.scheduling`` (a
    :class:`~repro.scheduler.policy.SchedulingConfig` or spec string)
    attaches the coordinator-side policy layer — speculative re-execution
    of straggler groups and elastic pool resize (extra workers forked on
    queue depth, retired when it drains).
    """

    def __init__(
        self,
        config: StudyConfig,
        factory: SimulationFactory,
        nworkers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        data_host: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        checkpoint_dir=None,
        supervise: bool = True,
        rank_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: bool = False,
        trace_file=None,
        metrics_file=None,
        metrics_port: Optional[int] = None,
        metrics_interval: float = 1.0,
        transport: Optional[str] = None,
    ):
        if nworkers < 0:
            raise ValueError("nworkers must be >= 0")
        if transport is not None:
            # convenience override for loopback runs: the forked rank and
            # worker processes inherit the config, so setting it here
            # reaches both ends of every channel negotiation.  A shallow
            # copy, not dataclasses.replace — __post_init__'s statistics
            # resolution is not idempotent.
            if transport not in ("auto", "tcp", "shm"):
                raise ValueError(
                    f"transport must be 'auto', 'tcp', or 'shm' — got "
                    f"{transport!r}"
                )
            config = copy.copy(config)
            config.transport = transport
        if fault_plan is not None and not fault_plan.socket_only:
            raise ValueError(
                "the distributed runtime injects faults into its real "
                "socket processes (server ranks and group workers) only; "
                "group faults and virtual-time ServerCrash specs need the "
                "sequential runtime"
            )
        scheduling = config.scheduling
        self._forks = bool(
            nworkers or supervise
            or (scheduling is not None and scheduling.enabled and scheduling.elastic)
        )
        if self._forks and "fork" not in mp.get_all_start_methods():
            raise RuntimeError(
                "forking ranks, respawns or elastic workers requires the fork "
                "start method (Linux/macOS): simulation factories (closures) "
                "are inherited, not pickled; on other platforms run repro "
                "serve / repro work against a launch with nothing to fork"
            )
        self.config = config
        self.factory = factory
        self.nworkers = nworkers
        self.host = host
        self.port = port
        self.data_host = host if data_host is None else data_host
        self.heartbeat_interval = (
            config.heartbeat_interval if heartbeat_interval is None
            else heartbeat_interval
        )
        self.checkpoint_dir = checkpoint_dir
        self.supervise = supervise
        self.rank_timeout = (
            config.server_timeout if rank_timeout is None else rank_timeout
        )
        self.fault_plan = fault_plan or FaultPlan()
        # any telemetry surface implies the telemetry layer itself
        self.telemetry_enabled = bool(
            telemetry or trace_file or metrics_file or metrics_port is not None
        )
        self.trace_file = trace_file
        self._exporters = dict(  # the coordinator owns both
            metrics_file=metrics_file, metrics_interval=metrics_interval,
            metrics_port=metrics_port)
        self.telemetry: Optional[StudyTelemetry] = None
        self.tracer: Optional[Tracer] = None
        self._ctx = mp.get_context("fork") if self._forks else None
        self.design = draw_design(
            config.space, config.ngroups, seed=config.seed,
            method=config.sampling_method,
        )
        self.coordinator: Optional[Coordinator] = None
        self.supervisor: Optional[RankSupervisor] = None
        self.pool: Optional[PoolSupervisor] = None
        self.server_procs: List = []
        self.worker_procs: List = []

    # ------------------------------------------------------------------ #
    def run(self, timeout: float = 300.0) -> StudyResults:
        """Spawn ranks + workers, coordinate, assemble results."""
        self.start()
        return self.wait(timeout)

    def start(self) -> Tuple[str, int]:
        """Start the coordinator (which owns both metrics exporters), fork
        the local ranks and workers; returns the coordinator's bound
        ``(host, port)``."""
        if self._forks:
            # resolve the backend before forking: on a cold cache every
            # rank would otherwise race into its own duplicate C compile
            from repro.kernels import resolve_backend

            resolve_backend(self.config.kernel)

        supervisor = None
        if self.supervise:
            supervisor = RankSupervisor(
                spawner=self._respawn_rank,
                policy=RankRespawnPolicy(
                    nranks=self.config.server_ranks,
                    timeout=self.rank_timeout,
                    max_respawns=self.config.max_rank_respawns,
                ),
            )
        self.supervisor = supervisor
        policy = pool = None
        scheduling = self.config.scheduling
        if scheduling is not None and scheduling.enabled:
            policy = SchedulingPolicy(scheduling)
            if scheduling.elastic:
                pool = PoolSupervisor(
                    spawner=self._spawn_elastic_worker,
                    policy=ElasticPoolPolicy(scheduling),
                )
        self.pool = pool
        telemetry = tracer = None
        if self.telemetry_enabled:
            # enable before forking so rank/worker children inherit a live
            # registry for pre-negotiation instruments (dial retries)
            _telemetry.enable()
            tracer = Tracer()
            telemetry = StudyTelemetry(_telemetry.REGISTRY, tracer)
        self.telemetry = telemetry
        self.tracer = tracer
        coordinator = Coordinator(
            self.config,
            host=self.host,
            port=self.port,
            supervisor=supervisor,
            policy=policy,
            pool=pool,
            telemetry=telemetry,
            tracer=tracer,
            **self._exporters,
        ).start()
        self.coordinator = coordinator
        ctx = self._ctx
        self.server_procs = [
            self._rank_process(rank, self.fault_plan.rank_faults.get(rank))
            for rank in range(self.config.server_ranks if self.nworkers else 0)
        ]
        nworkers = min(self.nworkers, self.config.ngroups)
        self.worker_procs = [
            ctx.Process(
                target=run_worker,
                args=(self.config, self.factory, coordinator.address),
                kwargs={
                    "name": f"worker-{i}",
                    "heartbeat_interval": self.heartbeat_interval,
                    "design": self.design,
                    "fault": self.fault_plan.worker_faults.get(i),
                },
                name=f"repro-work-{i}",
                daemon=True,
            )
            for i in range(nworkers)
        ]
        try:
            for proc in self.server_procs + self.worker_procs:
                proc.start()
        except BaseException:
            self._shutdown()
            raise
        return coordinator.address

    def wait(self, timeout: float = 300.0) -> StudyResults:
        """Coordinate the started study to completion — the coordinator's
        event loop runs on this thread — shut every forked process down,
        and assemble the results."""
        tracer = self.tracer
        try:
            self.coordinator.wait(timeout=timeout)
            for proc in self.server_procs:
                proc.join(timeout=10.0)
            # the results depend only on the ranks: a worker still inside
            # a step of a copy that lost to a faster one is not waited
            # out past one heartbeat, but terminated below
            for proc in self.worker_procs:
                proc.join(timeout=self.heartbeat_interval)
        finally:
            self._shutdown()
        if tracer is None:
            return self._assemble_results()
        with tracer.span("assemble results", "coordinator", tid="coordinator"):
            results = self._assemble_results()
        if self.trace_file:
            tracer.write(self.trace_file)
        return results

    def _shutdown(self) -> None:
        # respawns and elastic forks happen only inside coordinator.wait()
        # on this thread, so once it is closed the process list is final
        self.coordinator.close()
        for proc in self._all_procs():
            if proc.is_alive():
                proc.terminate()
        for proc in self._all_procs():
            if proc.pid is not None:
                proc.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    def _rank_process(self, rank: int, fault: Optional[ProcessFault]):
        return self._ctx.Process(
            target=run_server_rank,
            args=(rank, self.config, self.coordinator.address),
            kwargs={
                "data_host": self.data_host,
                "checkpoint_dir": self.checkpoint_dir,
                "heartbeat_interval": self.heartbeat_interval,
                "fault": fault,
                # loopback ranks all share this host: clamp auto fold
                # threads so co-located ranks don't oversubscribe cores
                "local_ranks": self.config.server_ranks,
            },
            name=f"repro-serve-{rank}",
            daemon=True,
        )

    def _spawn_elastic_worker(self, index: int) -> None:
        """Pool-supervisor spawner: fork one extra group worker.

        Elastic workers always run clean (no fault) —
        they are the remedy, not the disease — and register retirable so
        the coordinator can drain them once the queue empties.
        """
        proc = self._ctx.Process(
            target=run_worker,
            args=(self.config, self.factory, self.coordinator.address),
            kwargs={
                "name": f"elastic-{index}",
                "heartbeat_interval": self.heartbeat_interval,
                "design": self.design,
                "elastic": True,
            },
            name=f"repro-work-elastic-{index}",
            daemon=True,
        )
        self.worker_procs.append(proc)
        proc.start()

    def _respawn_rank(self, rank: int) -> None:
        """Supervisor spawner: fork a clean replacement serve process.

        The replacement restores the rank's checkpoint (when the runtime
        checkpoints at all) and re-registers; it never re-applies the
        rank's fault — a fault models one intermittent failure, not a
        permanently broken host.
        """
        proc = self._rank_process(rank, None)
        self.server_procs.append(proc)
        proc.start()

    def _all_procs(self) -> List:
        return self.server_procs + self.worker_procs

    def _assemble_results(self) -> StudyResults:
        """Results from the completed coordinator.

        The ranks already computed their index maps and convergence
        scalar; here we only restore states, concatenate, and max-reduce.
        """
        coordinator = self.coordinator
        self.server = server = MelissaServer(self.config)
        for rank in server.ranks:
            rank.adopt_state(coordinator.rank_states[rank.rank])
        widths = [coordinator.rank_widths[r] for r in sorted(coordinator.rank_widths)]
        valid = [w for w in widths if not np.isnan(w)]
        return StudyResults.from_server(
            server,
            parameter_names=tuple(self.config.space.names),
            rank_maps=[coordinator.rank_maps[r] for r in sorted(coordinator.rank_maps)],
            max_interval_width=max(valid) if valid else float("inf"),
            abandoned_groups=sorted(coordinator.abandoned),
        )
