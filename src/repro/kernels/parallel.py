"""Cell-sharded multicore folds: one rank's fold spread over a thread pool.

Why threads work here at all: every backend's arithmetic is *per cell* —
the kernel contractions reduce over the batch dimension only, the Pebay
pairwise combination is elementwise, and the fused C kernel accumulates
per-cell tiles — so any deterministic partition of the cell range into
disjoint, block-aligned windows performs the exact same floating-point
operations per cell as the sequential blocked loop.  Shards write into
disjoint slices of the running state, so there is no combine step and no
combine-order concern: threaded folds are **bit-exact** against
``fold_threads=1``, not merely rtol-close.

And the GIL does not serialize them: the cext backend is loaded with
``ctypes.CDLL``, which releases the GIL around every foreign call (the
kernel has no Python API to need it), and NumPy's einsum/reduction/matmul
kernels drop the GIL for non-trivial buffers.  Each shard gets its *own*
kernel instance, because the reusable scratch buffers that make the
single-threaded hot path allocation-free (:class:`EinsumKernel` residual
slabs, the cext raw-sum outputs, the BLAS cell-major transpose) are
per-instance and must never be shared across threads.

The executors are process-wide and persistent (one pool per worker
count, never torn down) so a fold pays thread-dispatch, not
thread-creation.  ``fold_threads="auto"`` is a rule evaluated when the
field is constructed — ``min(usable_cpus // local_ranks, blocks)``: the
CPUs this process may run on, shared between the ranks co-located on
the host, and never more threads than there are cell blocks to hand
out; one thread means no pool at all — and ``block_cells`` is the
configured value.  Nothing is measured, so every process on a host runs
the same ``(backend, nthreads, block_cells)`` plan.  Explicitly
requested thread counts are honored un-clamped.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.kernels.base import CoMomentKernel

#: a (backend, nthreads, block_cells) execution plan
Plan = Tuple[str, int, int]

_executors: Dict[int, ThreadPoolExecutor] = {}
_executor_lock = threading.Lock()


# --------------------------------------------------------------------- #
# thread-count selection
# --------------------------------------------------------------------- #
def validate_threads_spec(spec):
    """Canonicalize a fold-threads spec: None, ``"auto"``, or an int >= 1.

    Accepts the CLI's string forms (``"4"``, ``"auto"``).  Returns the
    canonical value (None stays None — "not given").
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        s = spec.strip().lower()
        if s == "auto":
            return "auto"
        try:
            spec = int(s)
        except ValueError:
            raise ValueError(
                f"fold_threads must be 'auto' or a positive integer, "
                f"got {spec!r}"
            ) from None
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise ValueError(
            f"fold_threads must be 'auto' or a positive integer, got {spec!r}"
        )
    if spec < 1:
        raise ValueError(f"fold_threads must be >= 1, got {spec}")
    return spec


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity mask where the
    platform has one (a pinned rank must not count cores it cannot
    use), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def eager_threads(spec, local_ranks: int = 1) -> int:
    """A spec's thread budget: an explicit count as-is (un-clamped —
    parity tests and deliberate oversubscription are the caller's
    business), ``auto`` (or None) the usable CPUs divided across the
    ranks co-located on this host.  The width the statistics pipeline
    rows use."""
    spec = validate_threads_spec(spec)
    if spec in (None, "auto"):
        return max(1, _usable_cpus() // max(1, int(local_ranks)))
    return spec


def resolve_threads(
    spec, local_ranks: int, ncells: int, block_cells: int
) -> int:
    """The fold-pool width of a field of ``ncells`` cells: an explicit
    count as-is; under ``auto`` the budget of :func:`eager_threads`, and
    never more threads than there are ``block_cells``-sized blocks to
    hand out."""
    spec = validate_threads_spec(spec)
    if spec in (None, "auto"):
        nblocks = -(-int(ncells) // max(1, int(block_cells)))
        return min(eager_threads("auto", local_ranks), nblocks)
    return spec


# --------------------------------------------------------------------- #
# deterministic sharding
# --------------------------------------------------------------------- #
def shard_ranges(
    ncells: int, nthreads: int, block_cells: int
) -> List[Tuple[int, int]]:
    """Partition ``[0, ncells)`` into at most ``nthreads`` contiguous,
    block-aligned shards.

    Every boundary is a multiple of ``block_cells``, so the union of the
    shards' blocked inner loops enumerates the *identical* ``(lo, hi)``
    windows the sequential fold does — the structural guarantee behind
    bit-exactness.  Blocks are spread as evenly as possible; fewer
    blocks than threads simply yields fewer shards.
    """
    if ncells < 1:
        raise ValueError("ncells must be >= 1")
    blk = max(1, int(block_cells))
    nblocks = -(-ncells // blk)
    nshards = max(1, min(int(nthreads), nblocks))
    per, extra = divmod(nblocks, nshards)
    out: List[Tuple[int, int]] = []
    b0 = 0
    for i in range(nshards):
        nb = per + (1 if i < extra else 0)
        b1 = b0 + nb
        out.append((b0 * blk, min(b1 * blk, ncells)))
        b0 = b1
    return out


def _executor(nworkers: int) -> ThreadPoolExecutor:
    """The persistent process-wide pool for ``nworkers`` helper threads."""
    with _executor_lock:
        pool = _executors.get(nworkers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=nworkers, thread_name_prefix="repro-fold"
            )
            _executors[nworkers] = pool
        return pool


def run_sharded(tasks: Sequence) -> None:
    """Run callables concurrently: the calling thread takes the first,
    the persistent pool the rest.  Used by both the fold sharding and
    the statistics-pipeline row dispatch."""
    if len(tasks) == 1:
        tasks[0]()
        return
    pool = _executor(len(tasks) - 1)
    futures = [pool.submit(task) for task in tasks[1:]]
    tasks[0]()
    for fut in futures:
        fut.result()


# --------------------------------------------------------------------- #
# the per-window fold (shared by sequential and sharded paths)
# --------------------------------------------------------------------- #
def fold_window(
    kernel: CoMomentKernel,
    slabs: Sequence[np.ndarray],
    lo: int,
    hi: int,
    mean: np.ndarray,
    m2: np.ndarray,
    cxy: np.ndarray,
    na: int,
    r1: np.ndarray,
) -> None:
    """Fold one staged batch into the state cells ``[lo, hi)``.

    Fused fast path when the backend offers it, otherwise the blocked
    ``fold_batch`` + exact Pebay combination.  ``r1`` is the caller's
    rank-1 correction scratch (per thread — never shared).  Writes only
    the ``[lo, hi)`` columns of ``mean``/``m2``/``cxy``, so disjoint
    windows may run concurrently.
    """
    nb = len(slabs)
    if kernel.fold_into(slabs, lo, hi, mean, m2, cxy, na):
        return
    n = na + nb
    f = na * nb / n
    wb = nb / n
    s0 = slabs[0]
    blk = min(kernel.block_cells, hi - lo)
    for b0 in range(lo, hi, blk):
        b1 = min(hi, b0 + blk)
        w = b1 - b0
        # the backend computes the centered batch statistics: means of
        # the residuals z_b = y_b - y_0 (exact shift against the first
        # staged buffer, Pebay-stable), diagonal second-moment sums,
        # and the 2p cross co-moments
        mz, gd, gx = kernel.fold_batch(slabs, b0, b1)
        if na == 0:
            mean[:, b0:b1] = s0[:, b0:b1] + mz
            m2[:, b0:b1] = gd
            cxy[:, :, b0:b1] = gx
        else:
            # exact pairwise combination (Pebay SAND2008-6212)
            d = s0[:, b0:b1] + mz
            d -= mean[:, b0:b1]
            dx = d[:2]
            dc = d[2:]
            gd += f * d * d
            m2[:, b0:b1] += gd
            gx += kernel.merge_cross(dx, dc, f, out=r1[:, :, :w])
            cxy[:, :, b0:b1] += gx
            mean[:, b0:b1] += d * wb


class ParallelFolder:
    """One rank's sharded fold engine: per-thread kernels and scratch,
    bound to one ``(backend, nthreads, block_cells)`` execution plan."""

    def __init__(
        self, backend: str, nparams: int, batch_size: int,
        block_cells: int, nthreads: int,
    ):
        from repro.kernels import _construct

        self.backend = backend
        self.nthreads = max(1, int(nthreads))
        self.block_cells = max(1, int(block_cells))
        self.nparams = int(nparams)
        # one kernel per shard slot: scratch isolation is the whole point
        self._kernels = [
            _construct(backend, nparams, batch_size, self.block_cells)
            for _ in range(self.nthreads)
        ]
        self._r1 = [
            np.empty((2, nparams, self.block_cells))
            for _ in range(self.nthreads)
        ]
        self._h_shard = _telemetry.REGISTRY.histogram(
            "repro_fold_shard_seconds",
            "per-shard fold seconds inside one rank's sharded fold",
        ).labels(backend=backend)

    @property
    def plan(self) -> Plan:
        return (self.backend, self.nthreads, self.block_cells)

    def fold(
        self,
        slabs: Sequence[np.ndarray],
        ncells: int,
        mean: np.ndarray,
        m2: np.ndarray,
        cxy: np.ndarray,
        na: int,
    ) -> None:
        """Fold one staged batch into the full state, sharded by cells."""
        shards = shard_ranges(ncells, self.nthreads, self.block_cells)
        timed = _telemetry.REGISTRY.enabled

        def task(i: int, lo: int, hi: int):
            kernel, r1 = self._kernels[i], self._r1[i]

            def run():
                if timed:
                    t0 = time.perf_counter()
                    fold_window(kernel, slabs, lo, hi, mean, m2, cxy, na, r1)
                    self._h_shard.observe(time.perf_counter() - t0)
                else:
                    fold_window(kernel, slabs, lo, hi, mean, m2, cxy, na, r1)

            return run

        run_sharded([task(i, lo, hi) for i, (lo, hi) in enumerate(shards)])


__all__ = [
    "ParallelFolder",
    "eager_threads",
    "fold_window",
    "resolve_threads",
    "run_sharded",
    "shard_ranges",
    "validate_threads_spec",
]
