"""Tier-1 means the same thing on every run: property tests draw their
examples from a seed derived from the test itself, not from the clock.

This module is imported before the hypothesis pytest plugin's
``pytest_configure`` reads ``--hypothesis-profile``, so that flag still
wins: ``--hypothesis-profile=default`` explores with a fresh seed per run
(add ``--hypothesis-seed=N`` to pin one; under ``derandomize`` the seed
flag is ignored).

The ``poisoned_rings`` fixture is the shm borrow-rule tripwire; the
shm, rank-loop and distributed suites turn it on for every test.
"""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture(scope="module")
def poisoned_rings():
    """Make a kept ring view loud: every byte range a ring consumer
    releases is overwritten with ``0xFF`` — a NaN at any 8-byte
    alignment — *before* :meth:`~repro.net.shm.ShmRing.advance`
    publishes the head (after it, the producer may already be writing
    there).  A payload view kept past ``advance`` without
    :func:`~repro.transport.message.owned` then reads NaN on its first
    frame instead of silently reading a later frame's bytes some frames
    on.  Forked ranks inherit the patch.  TCP payloads need no poison:
    ``FrameReader`` allocates each one, so the receiver owns them."""
    from repro.net.shm import ShmRing

    advance = ShmRing.advance

    def poisoned(ring, nbytes):
        off = ring.head() % ring.capacity
        first = min(nbytes, ring.capacity - off)
        ring._data[off : off + first] = 0xFF
        ring._data[: nbytes - first] = 0xFF
        return advance(ring, nbytes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShmRing, "advance", poisoned)
        yield
