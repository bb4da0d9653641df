"""Fault specification dataclasses, the plan container, and the
injector a real serve or work process applies its fault with."""

from __future__ import annotations

import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


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
class DuplicateDelivery:
    """Every delivered message of ``group_id`` is delivered twice."""

    group_id: int


FAULT_KINDS = ("crash", "zombie", "straggler")


@dataclass(frozen=True)
class ProcessFault:
    """A fault of one real process: a server rank (``repro serve``,
    Sec. 4.2.3's failure unit in the distributed deployment) or a group
    worker (``repro work``, Sec. 4.2.2's).  ``after_messages`` counts the
    data messages the process handled (rank) or delivered (worker).

    * ``crash`` — the process SIGKILLs itself after ``after_messages``;
    * ``zombie`` — it hangs after ``after_messages``: alive, but no
      frames and no heartbeats, so only heartbeat staleness exposes it;
    * ``straggler`` — each message costs ``delay`` seconds more, and the
      process still heartbeats: no respawn or reap may fire, and for a
      worker speculation, not resubmission, must absorb it.
    """

    kind: str
    after_messages: int = 0
    delay: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (use crash | zombie | straggler)"
            )
        if self.after_messages < 0:
            raise ValueError("after_messages must be >= 0")
        if self.kind == "straggler" and not (
            math.isfinite(self.delay) and self.delay > 0
        ):
            raise ValueError(
                f"a straggler needs a finite delay > 0, got delay={self.delay!r}"
            )


@dataclass
class FaultPlan:
    """Schedule of failures a runtime injects during a study.

    ``rank_faults`` / ``worker_faults`` map a server rank / a forked
    worker's index to the fault of that process; the rest target groups
    and the virtual-time server, which only the sequential runtime has.
    """

    group_crashes: List[GroupCrash] = field(default_factory=list)
    group_zombies: List[GroupZombie] = field(default_factory=list)
    group_stragglers: List[GroupStraggler] = field(default_factory=list)
    server_crashes: List[ServerCrash] = field(default_factory=list)
    duplicate_deliveries: List[DuplicateDelivery] = field(default_factory=list)
    rank_faults: Dict[int, ProcessFault] = field(default_factory=dict)
    worker_faults: Dict[int, ProcessFault] = field(default_factory=dict)

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


# --------------------------------------------------------------------- #
def parse_fault(spec: str) -> ProcessFault:
    """The fault of one serve or work process from a compact spec.

    Grammar: ``crash[:after=N]`` / ``zombie[:after=N]`` (``after``
    counts messages before the fault fires, default 0) or
    ``straggler:delay=S`` (seconds per message).  Examples::

        crash:after=40      zombie          straggler:delay=0.01

    This is the ``--fault`` flag of ``repro serve`` and ``repro work``,
    so the same specs drive unit tests, the loopback chaos suite, and CI.
    """
    kind, _, rest = spec.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"malformed fault parameter {item!r} in {spec!r}")
        params[key.strip()] = value.strip()
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} (use crash | zombie | straggler)"
        )
    key = "delay" if kind == "straggler" else "after"
    if key == "delay" and key not in params:
        raise ValueError(f"fault spec {spec!r} is missing 'delay'")
    unknown = sorted(set(params) - {key})
    if unknown:
        raise ValueError(f"unknown fault parameter(s) {unknown} in {spec!r}")
    try:
        if key == "delay":
            return ProcessFault(kind, delay=float(params[key]))
        return ProcessFault(kind, after_messages=int(params.get(key, 0)))
    except ValueError as exc:
        raise ValueError(f"bad fault spec {spec!r}: {exc}") from None


class FaultInjector:
    """Applies one process's :class:`ProcessFault` to its loop: a rank
    calls :meth:`on_message` per handled message, a worker per delivered
    one, and each calls :meth:`check` once per loop turn, so an
    ``after_messages=0`` fault fires before the first message."""

    def __init__(self, fault: ProcessFault):
        self.fault = fault
        self.messages = 0

    def on_message(self) -> None:
        self.messages += 1
        if self.fault.kind == "straggler":
            time.sleep(self.fault.delay)
        self.check()

    def check(self) -> None:
        kind = self.fault.kind
        if kind == "straggler" or self.messages < self.fault.after_messages:
            return
        if kind == "crash":
            # the real thing: no cleanup, no goodbye — the OS reaps the
            # sockets and the coordinator finds out from the broken pipe
            os.kill(os.getpid(), signal.SIGKILL)
        # zombie: alive but silent.  Only heartbeat staleness can end this
        while True:
            time.sleep(3600)
