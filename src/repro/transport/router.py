"""N x M redistribution planning and the in-process router.

Sec. 4.1.3: each main-simulation rank of a group pushes its slice
straight to the server ranks whose cell ranges intersect its own.  In
the paper the group learns the server partition from server rank 0; here
it is a pure function of the study configuration, so every process
derives it.  The :class:`Router` is the in-process stand-in for "the
network": it owns one :class:`BoundedChannel` per server rank, which
every group pushes into.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.partition import BlockPartition
from repro.transport.channel import BoundedChannel
from repro.transport.message import FieldMessage, split_by_partition


def redistribution_plan(
    client_partition: BlockPartition, server_partition: BlockPartition
) -> List[List[Tuple[int, int, int]]]:
    """Per-client-rank list of (server_rank, cell_lo, cell_hi) to forward.

    Thin veneer over :meth:`BlockPartition.intersections` kept as a named
    concept because it *is* the paper's static N x M pattern.
    """
    return client_partition.intersections(server_partition)


class Router:
    """Network fabric: one bounded inbound channel per server rank.

    This is the in-memory :class:`~repro.transport.base.TransportClient`;
    :class:`repro.net.worker.SocketRouter` (tcp | shm) implements the
    same protocol, so :class:`~repro.core.group.GroupExecutor` is
    agnostic to which fabric carries its messages.

    Parameters
    ----------
    server_partition:
        Server-side data partition (fixed at server start).
    channel_capacity_bytes:
        ZeroMQ-style combined buffer budget per channel (None = unbounded).
    fields:
        Each rank's Sobol' field, in rank order, for :meth:`payload`.
    """

    def __init__(
        self,
        server_partition: BlockPartition,
        channel_capacity_bytes: Optional[int] = None,
        fields: Sequence = (),
    ):
        self.server_partition = server_partition
        self._fields = {server_partition.range_of(r): f for r, f in enumerate(fields)}
        self.channel_capacity_bytes = channel_capacity_bytes
        # inbound data channels, keyed by server rank: every client
        # pushes into the owning rank's single queue (ZeroMQ PULL).
        self.inbound: Dict[int, BoundedChannel] = {
            rank: BoundedChannel(
                capacity_bytes=channel_capacity_bytes,
                name=f"server-rank-{rank}",
            )
            for rank in range(server_partition.nranks)
        }

    # ------------------------------------------------------------------ #
    def payload(self, nmembers: int, lo: int, hi: int) -> np.ndarray:
        """The owning field's recycled slab when ``[lo, hi)`` is exactly
        one rank's range (folded by reference, then handed back), else new."""
        field = self._fields.get((lo, hi))
        if field is not None and field.nparams + 2 == nmembers:
            return field.payload()
        return np.empty((nmembers, hi - lo))

    def deliver(self, msg: FieldMessage) -> bool:
        """Enqueue one pre-built message to its owning server rank(s);
        False means "would block" and nothing was enqueued.

        The payload changes hands here (ownership rule in
        :mod:`repro.transport.message`); a message inside one rank is
        enqueued as is, with no array work.

        A message whose ``[cell_lo, cell_hi)`` straddles a server-partition
        boundary is split along the partition fenceposts and each chunk is
        delivered to its owning rank (previously such messages were routed
        whole by ``cell_lo`` and died deep inside the receiving rank).

        Split delivery is all-or-nothing: capacities are probed first and
        nothing is enqueued unless every chunk fits, so the caller's
        whole-message retry cannot re-send chunks that already landed.
        """
        chunks = split_by_partition(msg, self.server_partition)
        if len(chunks) > 1 and not all(
            self.inbound[rank].can_accept(chunk.nbytes) for rank, chunk in chunks
        ):
            return False
        for server_rank, chunk in chunks:
            if not self.inbound[server_rank].try_send(chunk):
                return False
        return True

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for ch in self.inbound.values():
            ch.close()
