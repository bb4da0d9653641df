"""Domain partitioning: contiguous block decomposition of the cell range.

The paper partitions the simulation domain "evenly in space among the
different processes at starting time" (Sec. 4.1.1) — both on the client
side (a parallel simulation's ranks) and on the server side (Melissa
Server's ranks), with independently chosen rank counts.  We model both
with contiguous ranges over the global C-ordered cell numbering; the
transport layer computes range intersections to plan the N x M
redistribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

#: distinct ``(lo, hi)`` ranges :meth:`BlockPartition.spans` remembers per
#: instance.  A study asks for a handful (one per client-rank plan entry),
#: over and over; the bound only keeps an adversarial caller from growing it.
_SPANS_TABLE_SIZE = 256


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous balanced split of ``ncells`` cells over ``nranks`` ranks.

    Rank r owns the half-open range ``[offsets[r], offsets[r+1])``.  Sizes
    differ by at most one cell (the first ``ncells % nranks`` ranks get the
    extra cell), matching the "even" partition in the paper.
    """

    ncells: int
    nranks: int

    def __post_init__(self):
        if self.ncells < 1:
            raise ValueError("ncells must be >= 1")
        if self.nranks < 1:
            raise ValueError("nranks must be >= 1")
        if self.nranks > self.ncells:
            raise ValueError("cannot have more ranks than cells")

    # ------------------------------------------------------------------ #
    @cached_property
    def offsets(self) -> np.ndarray:
        """(nranks + 1,) fencepost array of range starts.

        Built once per instance (every routed message looks it up, often
        several times) and returned read-only, since all callers share it.
        """
        base, extra = divmod(self.ncells, self.nranks)
        sizes = np.full(self.nranks, base, dtype=np.int64)
        sizes[:extra] += 1
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        offsets.setflags(write=False)
        return offsets

    def range_of(self, rank: int) -> Tuple[int, int]:
        """Half-open cell range owned by ``rank``."""
        self._check_rank(rank)
        off = self.offsets
        return int(off[rank]), int(off[rank + 1])

    def size_of(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def owner_of(self, cell: int) -> int:
        """Rank owning global cell id ``cell``."""
        if not 0 <= cell < self.ncells:
            raise ValueError(f"cell {cell} out of range")
        return int(np.searchsorted(self.offsets, cell, side="right") - 1)

    def local_view(self, rank: int, global_field: np.ndarray) -> np.ndarray:
        """Slice (view, no copy) of a global field owned by ``rank``."""
        lo, hi = self.range_of(rank)
        return np.asarray(global_field)[..., lo:hi]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")

    @cached_property
    def _spans_table(self) -> Dict[Tuple[int, int], Tuple[Tuple[int, int, int], ...]]:
        return {}

    def spans(self, lo: int, hi: int) -> Tuple[Tuple[int, int, int], ...]:
        """Chunks of the half-open range ``[lo, hi)`` along rank boundaries.

        Returns ``(rank, seg_lo, seg_hi)`` entries in ascending cell
        order; a range contained in one rank yields a single entry.  Used
        by the transport layer to split messages that straddle a
        server-partition boundary instead of mis-routing them by their
        first cell — once per message, so the answer is remembered per
        ``(lo, hi)`` and shared: an immutable tuple.
        """
        table = self._spans_table
        known = table.get((lo, hi))
        if known is None:
            if len(table) >= _SPANS_TABLE_SIZE:
                table.clear()
            known = table[lo, hi] = tuple(self._compute_spans(lo, hi))
        return known

    def _compute_spans(self, lo: int, hi: int) -> List[Tuple[int, int, int]]:
        if not 0 <= lo < hi <= self.ncells:
            raise ValueError(
                f"cell range [{lo}, {hi}) outside the mesh [0, {self.ncells})"
            )
        off = self.offsets
        first = int(np.searchsorted(off, lo, side="right") - 1)
        out: List[Tuple[int, int, int]] = []
        rank = first
        while rank < self.nranks and int(off[rank]) < hi:
            seg_lo = max(lo, int(off[rank]))
            seg_hi = min(hi, int(off[rank + 1]))
            if seg_hi > seg_lo:
                out.append((rank, seg_lo, seg_hi))
            rank += 1
        return out

    # ------------------------------------------------------------------ #
    def intersections(self, other: "BlockPartition") -> List[List[Tuple[int, int, int]]]:
        """Redistribution plan from this partition to ``other``.

        Returns, for each source rank, the list of ``(dest_rank, lo, hi)``
        global ranges it must forward — the static N x M pattern a main
        simulation uses to push gathered data to server ranks (Sec. 4.1.2).
        """
        if other.ncells != self.ncells:
            raise ValueError("partitions cover different cell counts")
        return [
            list(other.spans(*self.range_of(src))) for src in range(self.nranks)
        ]


def partition_cells(ncells: int, nranks: int) -> BlockPartition:
    """Convenience constructor mirroring the paper's even partitioning."""
    return BlockPartition(ncells=ncells, nranks=nranks)
