"""``repro.net``: socket-based distributed transport (the ZeroMQ layer).

The paper deploys Melissa as independent OS processes spread over a
cluster: simulation groups stream field data to server ranks over
dynamically established ZeroMQ push sockets (Sec. 4.1.3).  This package
is the stdlib-only TCP equivalent of that layer:

* :mod:`repro.net.framing` — length-prefixed binary frames for the wire
  messages (:class:`~repro.transport.message.FieldMessage` payloads are
  sent and received zero-copy via buffer views) plus a pickled control
  frame for the coordinator protocol;
* :mod:`repro.net.channel` — :class:`SocketChannel` /
  :class:`DataListener`: per-(worker, server-rank) data connections with
  credit-based flow control reproducing the dual high-water-mark
  semantics ("communications only become blocking when both buffers are
  full") and full :class:`~repro.transport.channel.ChannelStats`
  accounting;
* :mod:`repro.net.coordinator` — the study work queue with fault-tolerant
  group resubmission, and the rank table: server ranks register their
  data addresses, and every work lease names them, so a worker opens
  direct channels only to the ranks its cells intersect (the partition
  itself is derived from the study configuration by every process);
* :mod:`repro.net.serve` / :mod:`repro.net.worker` — the process mains
  behind ``repro serve`` / ``repro work`` and the loopback
  :class:`~repro.runtime.distributed.DistributedRuntime`.
"""

from repro.net.channel import DataListener, SocketChannel
from repro.net.coordinator import Coordinator, StudyAborted
from repro.net.framing import DialTimeout, FrameConnection, connect_with_retry
from repro.net.supervisor import PoolSupervisor, RankSupervisor

__all__ = [
    "Coordinator",
    "DataListener",
    "DialTimeout",
    "FrameConnection",
    "PoolSupervisor",
    "RankSupervisor",
    "SocketChannel",
    "StudyAborted",
    "connect_with_retry",
]
