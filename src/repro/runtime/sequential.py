"""Deterministic virtual-time driver for a full Melissa study.

One loop owns the clock and steps, in order: the batch scheduler, the
launcher's submission pump, every running group executor (one timestep
per tick each), the server's message draining, and the periodic tasks
(heartbeats, timeout scans, zombie scans, checkpoints, convergence
checks, fault injection).  Because everything is driven from one place
with a virtual clock, runs are exactly reproducible — including the
fault-recovery paths, which is how the Sec. 4.2 protocols are tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.config import StudyConfig
from repro.core.convergence import ConvergenceController, ConvergenceDecision
from repro.core.group import (
    GroupCrashed,
    GroupExecutor,
    GroupState,
    SimulationFactory,
    SimulationGroup,
)
from repro.core.launcher import MelissaLauncher
from repro.core.results import StudyResults
from repro.core.server import MelissaServer
from repro.faults import FaultPlan
from repro.scheduler import BatchScheduler, JobState
from repro.transport.router import Router


@dataclass
class TimelineSample:
    """One observation of the campaign state (feeds Fig.-6-style plots)."""

    time: float
    running_groups: int
    pending_groups: int
    finished_groups: int
    nodes_in_use: int
    messages_processed: int


class StudyIncomplete(RuntimeError):
    """Raised when the virtual-time budget expires before completion."""


class _FinishedGroups:
    """What recovery reads of one rank's checkpoint: its finished groups
    (the ``rank`` / ``adopt_state`` a ``CheckpointManager`` restores into)."""

    def __init__(self, rank: int):
        self.rank = rank
        self.finished_groups: Set[int] = set()

    def adopt_state(self, state: dict) -> None:
        self.finished_groups = set(state["finished_groups"])


class SequentialRuntime:
    """Deterministic in-process execution of one study.

    Parameters
    ----------
    config:
        The study description.
    factory:
        Builds member simulations: ``factory(params_vector, sim_id)``.
    checkpoint_dir:
        Where server checkpoints go; required when the fault plan contains
        server crashes.  ``None`` disables checkpointing.
    fault_plan:
        Failures to inject (default: none).  Process faults are refused:
        there is no serve or work process here to inject them into.
    tick:
        Virtual seconds per loop iteration.
    steps_per_tick:
        Group timesteps attempted per tick (compute speed knob).
    """

    def __init__(
        self,
        config: StudyConfig,
        factory: SimulationFactory,
        checkpoint_dir=None,
        fault_plan: Optional[FaultPlan] = None,
        convergence: Optional[ConvergenceController] = None,
        tick: float = 1.0,
        steps_per_tick: int = 1,
    ):
        if tick <= 0 or steps_per_tick < 1:
            raise ValueError("tick must be > 0 and steps_per_tick >= 1")
        self.config = config
        self.factory = factory
        self.fault_plan = fault_plan or FaultPlan()
        if self.fault_plan.rank_faults or self.fault_plan.worker_faults:
            raise ValueError(
                "server-rank and group-worker faults target real "
                "serve/work processes; run them with the distributed runtime"
            )
        self.tick = tick
        self.steps_per_tick = steps_per_tick
        self.scheduler = BatchScheduler(
            total_nodes=config.total_nodes, max_pending=config.max_pending_jobs
        )
        self.launcher = MelissaLauncher(config, self.scheduler)
        self.convergence = convergence or ConvergenceController(
            threshold=config.convergence_threshold
        )
        self.checkpoints = (
            CheckpointManager(checkpoint_dir) if checkpoint_dir is not None else None
        )
        if self.fault_plan.server_crashes and self.checkpoints is None:
            raise ValueError("server-crash faults require a checkpoint_dir")

        self.server: Optional[MelissaServer] = None
        self.router: Optional[Router] = None
        self.executors: Dict[int, GroupExecutor] = {}
        self._job_of_group: Dict[int, int] = {}
        self.now = 0.0
        self.timeline: List[TimelineSample] = []
        self._last_checkpoint = 0.0
        self._last_convergence_check = 0.0
        self._server_crashes_fired = 0
        self._server_down = False
        self.stopped_early = False

    # ------------------------------------------------------------------ #
    def run(self, max_time: float = 1e7) -> StudyResults:
        """Drive the study to completion (or early convergence stop)."""
        self.launcher.submit_server(self.now)
        while self.now <= max_time:
            self._tick_once()
            if self._study_done():
                break
        else:
            raise StudyIncomplete(
                f"study not finished after {max_time} virtual seconds"
            )
        if self.server is None:
            raise StudyIncomplete("server never started")
        return StudyResults.from_server(
            self.server,
            parameter_names=tuple(self.config.space.names),
            abandoned_groups=self.launcher.abandoned_groups,
        )

    # ------------------------------------------------------------------ #
    def _tick_once(self) -> None:
        now = self.now
        # 1. scheduler decisions
        for job in self.scheduler.tick(now):
            self._on_job_started(job)
        # 2. launcher submission pump
        self.launcher.pump_submissions(now)
        # 3. fault: scheduled server crash
        crash = self.fault_plan.server_crash_due(now, self._server_crashes_fired)
        if crash is not None and self.server is not None and not self._server_down:
            self._server_crashes_fired += 1
            self._server_down = True  # heartbeats stop; launcher will notice
        # 4. step groups, 5. server drains
        if self.server is not None and not self._server_down:
            self._step_groups(now)
            self._drain_server(now)
            self.launcher.record_heartbeat(now)
            self._periodic_tasks(now)
        # 6. launcher-side server heartbeat check
        if self._server_down and self.launcher.server_timed_out(now):
            self._recover_server(now)
        self._sample_timeline(now)
        self.now = now + self.tick

    # ------------------------------------------------------------------ #
    def _on_job_started(self, job) -> None:
        payload = job.payload or {}
        if payload.get("kind") == "server":
            self._start_server()
        elif payload.get("kind") == "group":
            self._start_group(payload["group_id"], payload.get("attempt", 0), job)

    def _start_server(self) -> None:
        if self.checkpoints is not None and self.checkpoints.exists():
            self.server = self.checkpoints.restore(self.config)
        else:
            self.server = MelissaServer(self.config)
        self.router = Router(
            self.server.partition,
            channel_capacity_bytes=self.config.channel_capacity_bytes,
            fields=[rank.sobol for rank in self.server.ranks],
        )
        self._server_down = False
        # groups already integrated (restored checkpoint) are final
        self.launcher.mark_finished(self.server.finished_groups())

    def _start_group(self, group_id: int, attempt: int, job) -> None:
        if self.server is None or self.router is None or self._server_down:
            # job started while the server is down; it will be detected as
            # a zombie and restarted after recovery
            return
        group = SimulationGroup.from_design(self.launcher.design, group_id)
        crash = self.fault_plan.crash_for(group_id, attempt)
        straggler = self.fault_plan.straggler_for(group_id, attempt)
        executor = GroupExecutor(
            group,
            self.factory,
            self.config,
            self.router,
            fail_at_timestep=None if crash is None else crash.at_timestep,
            zombie=self.fault_plan.is_zombie(group_id, attempt),
            straggler_factor=1 if straggler is None else straggler.factor,
        )
        executor.initialize()
        self.executors[group_id] = executor
        self._job_of_group[group_id] = job.job_id

    # ------------------------------------------------------------------ #
    def _step_groups(self, now: float) -> None:
        # jobs the scheduler terminated (walltime kill, launcher cancel)
        # take their executor down with them — the process is gone; the
        # standard timeout/zombie detection then restarts the group
        # (Sec. 4.2.2: the protocol "is also effective when the batch
        # scheduler discards or kills the job").
        for group_id, executor in list(self.executors.items()):
            job_id = self._job_of_group.get(group_id)
            job = self.scheduler.jobs.get(job_id) if job_id is not None else None
            if job is not None and job.state.terminal and (
                executor.state not in (GroupState.FINISHED,)
            ):
                del self.executors[group_id]
                self._job_of_group.pop(group_id, None)
        for group_id, executor in list(self.executors.items()):
            if executor.state in (GroupState.FINISHED, GroupState.CRASHED):
                continue
            try:
                for _ in range(self.steps_per_tick):
                    state = executor.process_step()
                    if state != GroupState.RUNNING:
                        break
            except GroupCrashed:
                self._on_group_crash(group_id, now)
                continue
            if executor.state == GroupState.FINISHED:
                self._on_group_finished(group_id, now)

    def _on_group_crash(self, group_id: int, now: float) -> None:
        job_id = self._job_of_group.pop(group_id, None)
        if job_id is not None:
            job = self.scheduler.jobs.get(job_id)
            if job is not None and job.state == JobState.RUNNING:
                self.scheduler.fail(job_id, now)
        del self.executors[group_id]
        # note: the server has NOT been told; it will detect the silence
        # via the inter-message timeout, exactly as in the paper

    def _on_group_finished(self, group_id: int, now: float) -> None:
        job_id = self._job_of_group.pop(group_id, None)
        if job_id is not None:
            job = self.scheduler.jobs.get(job_id)
            if job is not None and job.state == JobState.RUNNING:
                self.scheduler.complete(job_id, now)
        del self.executors[group_id]

    def _drain_server(self, now: float) -> None:
        assert self.server is not None and self.router is not None
        duplicated = self.fault_plan.duplicated_groups
        for rank in self.server.ranks:
            for msg in self.router.inbound[rank.rank].drain():
                rank.handle(msg, now)
                if msg.group_id in duplicated:
                    # fault: the message arrives twice; handed over here,
                    # after the channel, back-pressure cannot refuse it
                    rank.handle(msg, now)

    # ------------------------------------------------------------------ #
    def _periodic_tasks(self, now: float) -> None:
        assert self.server is not None
        # group liveness: server-side inter-message timeout (Sec. 4.2.2)
        for group_id in self.server.check_timeouts(now, self.config.group_timeout):
            self._restart_group(group_id, now)
        # zombie scan: launcher-side startup timeout
        for group_id in self.launcher.detect_zombies(
            self.server.started_groups(), now
        ):
            self._restart_group(group_id, now)
        # completion bookkeeping
        self.launcher.mark_finished(self.server.finished_groups())
        # checkpoints
        if (
            self.checkpoints is not None
            and now - self._last_checkpoint >= self.config.checkpoint_interval
        ):
            self.checkpoints.save(self.server)
            self._last_checkpoint = now
        # convergence control
        if (
            self.config.convergence_threshold is not None
            and now - self._last_convergence_check
            >= self.config.convergence_check_interval
        ):
            self._last_convergence_check = now
            decision = self.convergence.assess(
                self.server.max_interval_width(),
                self.server.groups_integrated(),
                len(self.launcher.outstanding_groups),
            )
            if decision == ConvergenceDecision.STOP:
                self._stop_early(now)
            elif decision == ConvergenceDecision.EXTEND:
                # intervals still too wide and the planned groups are
                # exhausted: draw fresh rows on-the-fly (Sec. 4.1.5)
                self.launcher.extend_study(self.convergence.extend_batch, now)

    def _restart_group(self, group_id: int, now: float) -> None:
        executor = self.executors.pop(group_id, None)
        if executor is not None:
            self._job_of_group.pop(group_id, None)
        assert self.server is not None
        self.server.forget_group(group_id)
        self.launcher.restart_group(group_id, now)

    def _stop_early(self, now: float) -> None:
        """Convergence reached: cancel all outstanding work (Sec. 4.1.5)."""
        self.stopped_early = True
        for group_id, executor in list(self.executors.items()):
            job_id = self._job_of_group.pop(group_id, None)
            if job_id is not None:
                job = self.scheduler.jobs.get(job_id)
                if job is not None and not job.state.terminal:
                    self.scheduler.cancel(job_id, now)
            del self.executors[group_id]
        for job in list(self.scheduler.pending_jobs):
            self.scheduler.cancel(job.job_id, now)
        self.launcher.cancel_outstanding()

    # ------------------------------------------------------------------ #
    def _recover_server(self, now: float) -> None:
        """Heartbeat lost: the launcher kills and resubmits everything
        (Sec. 4.2.3); the server job restart restores the checkpoint.  The
        crashed server is released before the launcher reads each rank
        file's finished groups (fingerprint-checked, a missing file raises)."""
        self.executors.clear()
        self._job_of_group.clear()
        self.server = None
        self.router = None
        finished: Set[int] = set()
        if self.checkpoints is not None and self.checkpoints.exists():
            views = [_FinishedGroups(r) for r in range(self.config.server_ranks)]
            for view in views:
                if not self.checkpoints.restore_rank(view, self.config):
                    raise FileNotFoundError(f"missing checkpoint for rank {view.rank}")
            finished = set.intersection(*(v.finished_groups for v in views))
        self.launcher.restart_server(finished, now)

    # ------------------------------------------------------------------ #
    def _study_done(self) -> bool:
        if self.stopped_early:
            return True
        done = (
            self.server is not None
            and not self._server_down
            and self.launcher.study_complete()
            and not self.executors
        )
        if done and self.convergence.extend_batch > 0:
            # the planned groups ran out before the intervals tightened:
            # grow the study instead of finishing (Sec. 4.1.5)
            decision = self.convergence.assess(
                self.server.max_interval_width(),
                self.server.groups_integrated(),
                0,
            )
            if decision == ConvergenceDecision.EXTEND:
                self.launcher.extend_study(self.convergence.extend_batch, self.now)
                return False
        return done

    def _sample_timeline(self, now: float) -> None:
        running = sum(
            1
            for e in self.executors.values()
            if e.state in (GroupState.RUNNING, GroupState.BLOCKED)
        )
        finished = (
            len(self.server.finished_groups()) if self.server is not None else 0
        )
        processed = (
            sum(r.messages_processed for r in self.server.ranks)
            if self.server is not None
            else 0
        )
        self.timeline.append(
            TimelineSample(
                time=now,
                running_groups=running,
                pending_groups=len(self.scheduler.pending_jobs),
                finished_groups=finished,
                nodes_in_use=self.scheduler.nodes_in_use,
                messages_processed=processed,
            )
        )
