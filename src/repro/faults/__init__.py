"""Fault-injection plans for exercising the Sec. 4.2 protocols.

A :class:`FaultPlan` is a declarative schedule of failures the runtime
injects while a study runs:

* :class:`GroupCrash` — the whole group dies at a given timestep (the
  paper treats a group as a single failure unit);
* :class:`GroupZombie` — the job runs but never sends a message
  (Sec. 4.2.2's second detection case);
* :class:`GroupStraggler` — the group computes N times slower
  ("straggler issues" the framework must also detect);
* :class:`ServerCrash` — Melissa Server dies at a virtual time and must
  be restarted from its last checkpoint (Sec. 4.2.3);
* :class:`DuplicateDelivery` — every message of a group is delivered
  twice (exercises discard-on-replay idempotence, Sec. 4.2.1).

Server-*rank* faults target one real ``repro serve`` process (the
distributed deployment's failure unit) and drive the live respawn
protocol instead of the virtual-time launcher:

* :class:`ServerRankCrash` — the rank SIGKILLs itself mid-study;
* :class:`ServerRankZombie` — the rank hangs (alive, silent) until the
  supervisor kills it;
* :class:`ServerRankStraggler` — the rank slows down but stays live (no
  respawn may fire).

Group-*worker* faults target one real ``repro work`` process (the other
distributed failure unit) and drive the coordinator's resubmission,
reaping, and straggler-speculation machinery:

* :class:`WorkerCrash` — the worker SIGKILLs itself after N deliveries;
* :class:`WorkerZombie` — the worker hangs (alive, silent) until the
  coordinator's staleness reap closes its connection;
* :class:`WorkerStraggler` — the worker delivers each message ``delay``
  seconds slower but stays live (speculative re-execution, not
  resubmission, must absorb it).

:func:`parse_server_fault` / :func:`parse_worker_fault` turn the
``--fault`` spec string of a real ``repro serve`` / ``repro work``
process into a single-process plan, so the same schedule
drives unit tests, the loopback chaos suite, and CI.

Group faults target a specific *attempt* so a restarted instance runs
clean — matching real intermittent failures; a respawned server rank
always runs clean.
"""

from repro.faults.plan import (
    DuplicateDelivery,
    FaultPlan,
    GroupCrash,
    GroupStraggler,
    GroupZombie,
    ServerCrash,
    ServerRankCrash,
    ServerRankStraggler,
    ServerRankZombie,
    WorkerCrash,
    WorkerStraggler,
    WorkerZombie,
    parse_server_fault,
    parse_worker_fault,
)

__all__ = [
    "FaultPlan",
    "GroupCrash",
    "GroupZombie",
    "GroupStraggler",
    "ServerCrash",
    "ServerRankCrash",
    "ServerRankZombie",
    "ServerRankStraggler",
    "WorkerCrash",
    "WorkerZombie",
    "WorkerStraggler",
    "DuplicateDelivery",
    "parse_server_fault",
    "parse_worker_fault",
]
