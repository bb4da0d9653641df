"""Shared socket-test hygiene: ephemeral ports, EADDRINUSE retries, RNG.

Every socket test should bind port 0 (the kernel picks a free ephemeral
port) — the helpers here exist for the residual flake classes:

* a *fixed* port a test genuinely needs (rare) can race another suite or
  a TIME_WAIT leftover: wrap the bind in :func:`retry_on_eaddrinuse`;
* stochastic studies must seed every RNG they touch:
  :func:`seeded_rng` derives a deterministic per-test stream so reruns
  and ``pytest -p no:randomly``-style orderings cannot change results;
* a worker-loss assertion needs the coordinator's own view of what the
  dead worker held: :func:`held_at_worker_loss` records it.
"""

from __future__ import annotations

import errno
import time
import zlib
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def retry_on_eaddrinuse(
    factory: Callable[[], T], attempts: int = 5, delay: float = 0.2
) -> T:
    """Call ``factory`` (which binds a socket), retrying EADDRINUSE.

    Any other error propagates immediately; the last failure is raised
    once the attempts are exhausted.
    """
    for attempt in range(attempts):
        try:
            return factory()
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt == attempts - 1:
                raise
            time.sleep(delay * (attempt + 1))
    raise AssertionError("unreachable")


def seeded_rng(token: str) -> np.random.Generator:
    """Deterministic per-test generator: same token, same stream."""
    return np.random.default_rng(zlib.crc32(token.encode("utf-8")))


def held_at_worker_loss(monkeypatch) -> list:
    """Record, per lost worker, the groups the coordinator had assigned
    to it at the moment it noticed the loss (workers holding nothing are
    not recorded)."""
    from repro.net.coordinator import Coordinator

    lost: list = []
    resubmit = Coordinator._resubmit_if_assigned

    def recording(self, wid):
        held = list(self._assigned.get(wid, ()))
        if held:
            lost.append(held)
        resubmit(self, wid)

    monkeypatch.setattr(Coordinator, "_resubmit_if_assigned", recording)
    return lost
