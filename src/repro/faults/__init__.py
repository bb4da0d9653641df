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

The distributed deployment has two live failure units, a server rank
(``repro serve``, respawned from its checkpoint) and a group worker
(``repro work``, whose groups are resubmitted), and both take the same
:class:`ProcessFault`: crash after N messages, hang as a zombie, or
straggle.  The plan maps ranks (``rank_faults``) and forked workers
(``worker_faults``) to theirs; :func:`parse_fault` reads the ``--fault``
spec of one real process, and :class:`FaultInjector` applies it inside
that process's loop, so the same schedule drives unit tests, the
loopback chaos suite, and CI.

Group faults target a specific *attempt* so a restarted instance runs
clean — matching real intermittent failures; a respawned server rank
always runs clean.
"""

from repro.faults.plan import (
    DuplicateDelivery,
    FaultInjector,
    FaultPlan,
    GroupCrash,
    GroupStraggler,
    GroupZombie,
    ProcessFault,
    ServerCrash,
    parse_fault,
)

__all__ = [
    "FaultPlan",
    "GroupCrash",
    "GroupZombie",
    "GroupStraggler",
    "ServerCrash",
    "DuplicateDelivery",
    "ProcessFault",
    "FaultInjector",
    "parse_fault",
]
