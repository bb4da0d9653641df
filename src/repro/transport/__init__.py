"""ZeroMQ-like transport substrate: framed messages over bounded channels.

The paper uses ZeroMQ push sockets between each simulation group's main
simulation and the Melissa Server ranks (Sec. 4.1.3).  The properties the
framework actually depends on — and which this package reproduces — are:

* **framed messages** with (group, member, timestep, cell-range) headers;
* **bounded buffers on both sides**: messages queue asynchronously until
  client and server buffers are both full, at which point ``try_send`` is
  refused and the group suspends, holding its message until the server
  has drained (the Fig. 6a/b saturation mechanism);
* **direct N x M channels**: every process derives the server partition
  from the study configuration, and a group opens channels to exactly
  the server ranks its cell ranges intersect (no rank-0 handshake);
* **per-channel accounting**: message/byte counters and high-water marks
  feed the performance model's calibration.
"""

from repro.transport.message import FieldMessage, GroupFieldMessage, Heartbeat
from repro.transport.base import Channel, TransportClient
from repro.transport.channel import (
    BoundedChannel,
    ChannelClosed,
    ChannelStats,
    total_stats,
)
from repro.transport.router import Router, redistribution_plan

__all__ = [
    "FieldMessage",
    "GroupFieldMessage",
    "Heartbeat",
    "Channel",
    "TransportClient",
    "BoundedChannel",
    "ChannelClosed",
    "ChannelStats",
    "total_stats",
    "Router",
    "redistribution_plan",
]
