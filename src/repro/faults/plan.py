"""Fault specification dataclasses and the plan container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set


@dataclass(frozen=True)
class GroupCrash:
    """Group ``group_id`` crashes when it reaches ``at_timestep`` on
    attempt ``on_attempt`` (0 = the first run)."""

    group_id: int
    at_timestep: int
    on_attempt: int = 0


@dataclass(frozen=True)
class GroupZombie:
    """Group runs but never sends any message, on the given attempt."""

    group_id: int
    on_attempt: int = 0


@dataclass(frozen=True)
class GroupStraggler:
    """Group advances only every ``factor``-th step on the given attempt."""

    group_id: int
    factor: int
    on_attempt: int = 0

    def __post_init__(self):
        if self.factor < 2:
            raise ValueError("a straggler needs factor >= 2")


@dataclass(frozen=True)
class ServerCrash:
    """Melissa Server dies at virtual time ``at_time`` (once)."""

    at_time: float


@dataclass(frozen=True)
class ServerRankCrash:
    """Server rank ``rank`` SIGKILLs itself after handling
    ``after_messages`` data messages (Sec. 4.2.3's failure unit in the
    distributed deployment: one ``repro serve`` process)."""

    rank: int
    after_messages: int = 0

    def __post_init__(self):
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")


@dataclass(frozen=True)
class ServerRankZombie:
    """Server rank ``rank`` hangs after ``after_messages`` messages: the
    process stays alive but stops draining its channels and stops
    heartbeating, so only heartbeat staleness can expose it."""

    rank: int
    after_messages: int = 0

    def __post_init__(self):
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")


@dataclass(frozen=True)
class ServerRankStraggler:
    """Server rank ``rank`` handles each message ``delay`` seconds slower
    (still heartbeats — must NOT trigger the respawn protocol)."""

    rank: int
    delay: float

    def __post_init__(self):
        if self.delay <= 0:
            raise ValueError("a straggler needs delay > 0")


@dataclass(frozen=True)
class WorkerCrash:
    """Group worker ``worker`` SIGKILLs itself after delivering
    ``after_messages`` data messages (the distributed deployment's other
    failure unit: one ``repro work`` process, Sec. 4.2.2)."""

    worker: int
    after_messages: int = 0

    def __post_init__(self):
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")


@dataclass(frozen=True)
class WorkerZombie:
    """Group worker ``worker`` hangs after ``after_messages`` deliveries:
    alive but silent (no heartbeats, no frames), so only the
    coordinator's worker-staleness reap can expose it."""

    worker: int
    after_messages: int = 0

    def __post_init__(self):
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")


@dataclass(frozen=True)
class WorkerStraggler:
    """Group worker ``worker`` delivers each data message ``delay``
    seconds slower (still heartbeats — this is the scheduler's prey, not
    the reaper's: speculation, not resubmission, must absorb it)."""

    worker: int
    delay: float

    def __post_init__(self):
        if self.delay <= 0:
            raise ValueError("a straggler needs delay > 0")


@dataclass(frozen=True)
class DuplicateDelivery:
    """Every delivered message of ``group_id`` is delivered twice."""

    group_id: int


@dataclass
class FaultPlan:
    """Schedule of failures a runtime injects during a study."""

    group_crashes: List[GroupCrash] = field(default_factory=list)
    group_zombies: List[GroupZombie] = field(default_factory=list)
    group_stragglers: List[GroupStraggler] = field(default_factory=list)
    server_crashes: List[ServerCrash] = field(default_factory=list)
    duplicate_deliveries: List[DuplicateDelivery] = field(default_factory=list)
    server_rank_crashes: List[ServerRankCrash] = field(default_factory=list)
    server_rank_zombies: List[ServerRankZombie] = field(default_factory=list)
    server_rank_stragglers: List[ServerRankStraggler] = field(default_factory=list)
    worker_crashes: List[WorkerCrash] = field(default_factory=list)
    worker_zombies: List[WorkerZombie] = field(default_factory=list)
    worker_stragglers: List[WorkerStraggler] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def crash_for(self, group_id: int, attempt: int) -> Optional[GroupCrash]:
        for spec in self.group_crashes:
            if spec.group_id == group_id and spec.on_attempt == attempt:
                return spec
        return None

    def is_zombie(self, group_id: int, attempt: int) -> bool:
        return any(
            s.group_id == group_id and s.on_attempt == attempt
            for s in self.group_zombies
        )

    def straggler_for(self, group_id: int, attempt: int) -> Optional[GroupStraggler]:
        for spec in self.group_stragglers:
            if spec.group_id == group_id and spec.on_attempt == attempt:
                return spec
        return None

    def server_crash_due(self, now: float, already_fired: int) -> Optional[ServerCrash]:
        """Next un-fired server crash whose time has come (sorted order)."""
        pending = sorted(self.server_crashes, key=lambda s: s.at_time)
        if already_fired < len(pending) and pending[already_fired].at_time <= now:
            return pending[already_fired]
        return None

    @property
    def duplicated_groups(self) -> Set[int]:
        return {s.group_id for s in self.duplicate_deliveries}

    # ------------------------------------------------------------------ #
    # server-rank faults (the distributed ``repro serve`` failure unit)
    # ------------------------------------------------------------------ #
    def rank_crash_for(self, rank: int) -> Optional[ServerRankCrash]:
        for spec in self.server_rank_crashes:
            if spec.rank == rank:
                return spec
        return None

    def rank_zombie_for(self, rank: int) -> Optional[ServerRankZombie]:
        for spec in self.server_rank_zombies:
            if spec.rank == rank:
                return spec
        return None

    def rank_straggler_for(self, rank: int) -> Optional[ServerRankStraggler]:
        for spec in self.server_rank_stragglers:
            if spec.rank == rank:
                return spec
        return None

    # ------------------------------------------------------------------ #
    # group-worker faults (the distributed ``repro work`` failure unit)
    # ------------------------------------------------------------------ #
    def worker_crash_for(self, worker: int) -> Optional[WorkerCrash]:
        for spec in self.worker_crashes:
            if spec.worker == worker:
                return spec
        return None

    def worker_zombie_for(self, worker: int) -> Optional[WorkerZombie]:
        for spec in self.worker_zombies:
            if spec.worker == worker:
                return spec
        return None

    def worker_straggler_for(self, worker: int) -> Optional[WorkerStraggler]:
        for spec in self.worker_stragglers:
            if spec.worker == worker:
                return spec
        return None

    @property
    def has_server_rank_faults(self) -> bool:
        """Any fault targeting a live ``repro serve`` process — THE place
        to extend when a new server-rank spec is added, so the runtime
        routing below cannot drift."""
        return bool(
            self.server_rank_crashes
            or self.server_rank_zombies
            or self.server_rank_stragglers
        )

    @property
    def has_worker_faults(self) -> bool:
        """Any fault targeting a live ``repro work`` process."""
        return bool(
            self.worker_crashes or self.worker_zombies or self.worker_stragglers
        )

    @property
    def socket_only(self) -> bool:
        """True when the plan targets only real socket processes (server
        ranks and group workers) — the subset the distributed runtime can
        inject (group faults and virtual-time ServerCrash specs need the
        sequential driver)."""
        return not (
            self.group_crashes
            or self.group_zombies
            or self.group_stragglers
            or self.server_crashes
            or self.duplicate_deliveries
        )

    @property
    def server_faults_only(self) -> bool:
        """True when the plan touches nothing but server ranks."""
        return self.socket_only and not self.has_worker_faults

    @property
    def empty(self) -> bool:
        return (
            self.socket_only
            and not self.has_server_rank_faults
            and not self.has_worker_faults
        )


# --------------------------------------------------------------------- #
def parse_worker_fault(spec: str, worker: int = 0) -> FaultPlan:
    """Fault plan for one group-worker process from a compact spec.

    Same grammar as :func:`parse_server_fault` — ``crash[:after=N]`` /
    ``zombie[:after=N]`` (``after`` counts data messages delivered before
    the fault fires) / ``straggler:delay=S`` (seconds per delivered
    message).  This is how a real ``repro work`` subprocess is told to
    misbehave (its ``--fault`` flag), so the same
    specs drive unit tests, the loopback chaos suite, and CI.
    """
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"malformed fault parameter {item!r} in {spec!r}")
        params[key.strip()] = value.strip()
    if kind == "crash":
        after = int(params.pop("after", 0))
        plan = FaultPlan(worker_crashes=[WorkerCrash(worker, after)])
    elif kind == "zombie":
        after = int(params.pop("after", 0))
        plan = FaultPlan(worker_zombies=[WorkerZombie(worker, after)])
    elif kind == "straggler":
        if "delay" not in params:
            raise ValueError(f"fault spec {spec!r} is missing 'delay'")
        plan = FaultPlan(worker_stragglers=[
            WorkerStraggler(worker, delay=float(params.pop("delay")))
        ])
    else:
        raise ValueError(
            f"unknown fault kind {kind!r} (use crash | zombie | straggler)"
        )
    if params:
        raise ValueError(f"unknown fault parameter(s) {sorted(params)} in {spec!r}")
    return plan


def parse_server_fault(spec: str, rank: int) -> FaultPlan:
    """Fault plan for one serve process from a compact CLI/env spec.

    Grammar: ``kind[:key=value]`` where kind is ``crash`` / ``zombie``
    (key ``after``, messages handled before the fault fires, default 0)
    or ``straggler`` (key ``delay``, seconds per message).  Examples::

        crash:after=40      zombie          straggler:delay=0.01

    This is how a real ``repro serve`` subprocess is told to misbehave
    (its ``--fault`` flag), so the same specs drive
    unit tests, the loopback chaos suite, and the CI smoke leg.
    """
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"malformed fault parameter {item!r} in {spec!r}")
        params[key.strip()] = value.strip()
    if kind == "crash":
        after = int(params.pop("after", 0))
        plan = FaultPlan(server_rank_crashes=[ServerRankCrash(rank, after)])
    elif kind == "zombie":
        after = int(params.pop("after", 0))
        plan = FaultPlan(server_rank_zombies=[ServerRankZombie(rank, after)])
    elif kind == "straggler":
        if "delay" not in params:
            raise ValueError(f"fault spec {spec!r} is missing 'delay'")
        plan = FaultPlan(server_rank_stragglers=[
            ServerRankStraggler(rank, delay=float(params.pop("delay")))
        ])
    else:
        raise ValueError(
            f"unknown fault kind {kind!r} (use crash | zombie | straggler)"
        )
    if params:
        raise ValueError(f"unknown fault parameter(s) {sorted(params)} in {spec!r}")
    return plan
