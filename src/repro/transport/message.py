"""Wire messages exchanged between simulation groups and the server.

Every message knows how to serialize itself to bytes and back.  The data
plane passes NumPy payloads by reference for speed, but ``to_bytes`` is
exercised by tests and by the channel byte-accounting so the sizes that
drive back-pressure are the real wire sizes.

**Payload ownership.**  Delivering a message relinquishes its ``data``:
after ``deliver`` the sender neither writes to the array nor reuses it
for a later message, because channels and the server hold it by
reference — a server rank folds a payload that covers its whole
partition without copying it.  A sender that must keep writing to a
buffer sends a copy.  Once the receiver has folded a payload, its
memory is the receiver's to hand to a later sender: a rank's Sobol'
field recycles the slabs it issued (``TransportClient.payload``).

That is an *owned* payload: whoever receives the message may keep it.
A decoder that reads frames out of storage it will reuse (the shm ring)
instead *lends*: the payload is a **read-only view**, valid until the
call it was handed to returns — for a server rank, the duration of
``handle`` — and whoever wants to keep it past that copies it first
(:func:`owned`).  Read-only is the mark: code that keeps a payload by
reference keeps only a writeable one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

_FIELD_HEADER = struct.Struct("<4sqqqqqq")  # magic, group, member, step, lo, hi, nbytes
_FIELD_MAGIC = b"FLDM"


@dataclass(frozen=True)
class FieldMessage:
    """One member's field slice for one timestep, addressed by cell range.

    Attributes
    ----------
    group_id:
        Simulation-group index (the pick-freeze row).
    member:
        0 = A, 1 = B, 2+k = C^k (see :mod:`repro.sampling.pickfreeze`).
    timestep:
        Output timestep index, strictly increasing per (group, member).
    cell_lo, cell_hi:
        Global half-open cell range covered by ``data``.
    data:
        float64 field values, ``len == cell_hi - cell_lo``.
    """

    group_id: int
    member: int
    timestep: int
    cell_lo: int
    cell_hi: int
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 1:
            raise ValueError("FieldMessage data must be 1-D")
        if data.size != self.cell_hi - self.cell_lo:
            raise ValueError(
                f"data length {data.size} != cell range "
                f"[{self.cell_lo}, {self.cell_hi})"
            )
        if self.timestep < 0 or self.group_id < 0 or self.member < 0:
            raise ValueError("ids and timestep must be non-negative")

    @property
    def nbytes(self) -> int:
        """Wire size: header + payload (drives buffer accounting)."""
        return _FIELD_HEADER.size + self.data.nbytes

    def to_bytes(self) -> bytes:
        return (
            _FIELD_HEADER.pack(
                _FIELD_MAGIC,
                self.group_id,
                self.member,
                self.timestep,
                self.cell_lo,
                self.cell_hi,
                self.data.nbytes,
            )
            + self.data.tobytes()
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "FieldMessage":
        magic, group, member, step, lo, hi, nbytes = _FIELD_HEADER.unpack_from(raw)
        if magic != _FIELD_MAGIC:
            raise ValueError("not a FieldMessage frame")
        data = np.frombuffer(
            raw, dtype=np.float64, count=nbytes // 8, offset=_FIELD_HEADER.size
        ).copy()
        return cls(group, member, step, lo, hi, data)

    def slice(self, lo: int, hi: int) -> "FieldMessage":
        """Sub-message covering ``[lo, hi)`` of this message's cell range."""
        if not self.cell_lo <= lo < hi <= self.cell_hi:
            raise ValueError(
                f"slice [{lo}, {hi}) outside message range "
                f"[{self.cell_lo}, {self.cell_hi})"
            )
        return FieldMessage(
            group_id=self.group_id,
            member=self.member,
            timestep=self.timestep,
            cell_lo=lo,
            cell_hi=hi,
            data=self.data[lo - self.cell_lo : hi - self.cell_lo],
        )


_GROUP_HEADER = struct.Struct("<4sqqqqqq")  # magic, group, step, lo, hi, nmembers, nbytes
_GROUP_MAGIC = b"GRPM"


@dataclass(frozen=True)
class GroupFieldMessage:
    """All p+2 members' field slices for one (group, timestep, cell range).

    This is what the *two-stage* transfer produces (Sec. 4.1.2): the main
    simulation's rank i gathers the slice of every member, then sends one
    aggregate message per intersecting server rank — cutting the message
    count by a factor of p+2 versus each member pushing its own slice.
    The ablation benchmark compares both shapes.
    """

    group_id: int
    timestep: int
    cell_lo: int
    cell_hi: int
    data: np.ndarray  # (nmembers, cell_hi - cell_lo)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValueError("GroupFieldMessage data must be 2-D (members, cells)")
        if data.shape[1] != self.cell_hi - self.cell_lo:
            raise ValueError("data width does not match the cell range")
        if self.timestep < 0 or self.group_id < 0:
            raise ValueError("ids and timestep must be non-negative")

    @property
    def nmembers(self) -> int:
        return self.data.shape[0]

    @property
    def nbytes(self) -> int:
        return _GROUP_HEADER.size + self.data.nbytes

    def to_bytes(self) -> bytes:
        return (
            _GROUP_HEADER.pack(
                _GROUP_MAGIC,
                self.group_id,
                self.timestep,
                self.cell_lo,
                self.cell_hi,
                self.data.shape[0],
                self.data.nbytes,
            )
            + self.data.tobytes()
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "GroupFieldMessage":
        magic, group, step, lo, hi, nmembers, nbytes = _GROUP_HEADER.unpack_from(raw)
        if magic != _GROUP_MAGIC:
            raise ValueError("not a GroupFieldMessage frame")
        data = np.frombuffer(
            raw, dtype=np.float64, count=nbytes // 8, offset=_GROUP_HEADER.size
        ).reshape(nmembers, hi - lo).copy()
        return cls(group, step, lo, hi, data)

    def slice(self, lo: int, hi: int) -> "GroupFieldMessage":
        """Sub-message covering ``[lo, hi)`` of this message's cell range."""
        if not self.cell_lo <= lo < hi <= self.cell_hi:
            raise ValueError(
                f"slice [{lo}, {hi}) outside message range "
                f"[{self.cell_lo}, {self.cell_hi})"
            )
        return GroupFieldMessage(
            group_id=self.group_id,
            timestep=self.timestep,
            cell_lo=lo,
            cell_hi=hi,
            data=self.data[:, lo - self.cell_lo : hi - self.cell_lo],
        )


def split_by_partition(msg, partition):
    """Chunks of ``msg`` along ``partition`` rank boundaries.

    Returns ``[(rank, chunk_message), ...]``; a message contained in one
    rank yields itself unsliced.  This is the single splitting rule every
    transport (router, server front-door, process-runtime queues) shares,
    so boundary behaviour cannot diverge between them.
    """
    spans = partition.spans(msg.cell_lo, msg.cell_hi)
    if len(spans) == 1:
        return [(spans[0][0], msg)]
    return [(rank, msg.slice(lo, hi)) for rank, lo, hi in spans]


def owned(msg):
    """``msg`` with a payload its holder may keep: itself unless the
    payload is borrowed (read-only, see the module docstring), then a
    copy of it.  Messages without a payload pass through."""
    data = getattr(msg, "data", None)
    if data is None or data.flags.writeable:
        return msg
    return replace(msg, data=data.copy())


@dataclass(frozen=True)
class Heartbeat:
    """Liveness beacon (server -> launcher and group -> server).

    ``metrics`` optionally piggybacks a compact telemetry payload
    (snapshot delta + trace spans, see :mod:`repro.telemetry`) on the
    beacon.  Senders attach metrics only when the coordinator's
    registration ack carries ``telemetry=True`` (the on/off switch); a
    beat with ``metrics=None`` is liveness only.
    """

    sender: str
    time: float
    metrics: Optional[dict] = None
