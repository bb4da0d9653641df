"""Batch-scheduler substrate (SLURM-like, discrete-event).

The paper's launcher submits Melissa Server and every simulation group as
*independent batch jobs* (Sec. 4.1.4) — that independence is what makes
the framework elastic (the machine's scheduler grows/shrinks the study
with cluster load) and fault-tolerant (killing and resubmitting a group is
an ordinary scheduler operation).  This package models exactly that
surface:

* a node pool with FIFO + optional backfill allocation;
* job lifecycle PENDING -> RUNNING -> {COMPLETED, FAILED, CANCELLED,
  TIMEOUT}, with walltime enforcement;
* a submission-rate cap (the paper was limited to 500 simultaneous
  submissions on Curie);
* virtual time throughout — the driver (sequential runtime or perf model)
  ticks the clock, so tests are deterministic and fast.

:mod:`repro.scheduler.policy` is the *live* counterpart: the
coordinator-side scheduling policy layer (EWMA straggler detection,
speculative re-execution, elastic pool resize) that gives
the socket deployment the elasticity the batch substrate models in
virtual time.
"""

from repro.scheduler.job import Job, JobState
from repro.scheduler.batch import BatchScheduler, SchedulerError
from repro.scheduler.policy import (
    ElasticPoolPolicy,
    SchedulingConfig,
    SchedulingPolicy,
    parse_scheduling,
)

__all__ = [
    "Job",
    "JobState",
    "BatchScheduler",
    "SchedulerError",
    "ElasticPoolPolicy",
    "SchedulingConfig",
    "SchedulingPolicy",
    "parse_scheduling",
]
