"""Iterative ubiquitous Sobol' indices via the Martinez estimator.

:class:`UbiquitousSobolField` is the one engine: per input parameter k it
tracks the two streaming correlations the Martinez formulas need,

- ``corr(Y^B, Y^{C^k})``  -> first-order index  S_k   (Eq. 5/7)
- ``corr(Y^A, Y^{C^k})``  -> total index        ST_k  (Eq. 6)

as stacked dense co-moment arrays with micro-batched vectorized folds (see
its docstring).  This is what server ranks hold; the equivalence suite
pins it to the two-pass :func:`repro.sobol.reference.martinez_indices`
(plus NumPy mean / variance) at rtol 1e-10.

State is elementwise over the field, so per-timestep state gives the
paper's *ubiquitous* indices S_k(x, t) — a value for every mesh cell and
every timestep, with O(fields) memory independent of the number of
simulation groups.

Group-at-a-time semantics: updates consume the p+2 outputs
``(Y^A_i, Y^B_i, Y^{C^1}_i .. Y^{C^p}_i)`` of one pick-freeze group.  All
groups are independent so updates commute (any arrival order yields the
same result, to FP rounding) — the property the asynchronous server relies
on (Sec. 3.1).
"""

from __future__ import annotations

import heapq
import time as _time
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.kernels import make_kernel
from repro.kernels import parallel as _parallel
from repro.sobol.confidence import (
    first_order_confidence_interval,
    total_order_confidence_interval,
)


class UbiquitousSobolField:
    """Vectorized batched Martinez estimator over every (timestep, cell).

    This is the server-rank payload, held as stacked dense state:

    * ``_mean``  — ``(T, p+2, ncells)`` running means of every member
      stream, rows ordered ``[Y^A, Y^B, Y^{C^1} .. Y^{C^p}]``;
    * ``_m2``    — same shape, centered second-moment sums per stream;
    * ``_cxy``   — ``(T, 2, p, ncells)`` co-moments: row 0 pairs
      ``<Y^A, Y^{C^k}>`` (total index), row 1 ``<Y^B, Y^{C^k}>`` (first
      order);
    * ``_counts``— ``(T,)`` groups folded per timestep.

    Because the A/B streams are shared by all p correlations and the C^k
    stream is shared by the first/total pair, this layout stores
    ``(4p+4) x ncells`` floats per timestep versus ``(10p+2)`` for 2p
    independent covariance pairs — a >2x memory reduction at the paper's
    p=6.

    Hot path: :meth:`update_group_buffer` *adopts* one staged
    ``(p+2, ncells)`` buffer per call (by reference — the caller
    relinquishes it) and folds a micro-batch of ``batch_size`` buffers at
    a time: residuals are taken against the first buffer of the batch (an
    exact shift, so the contraction stays numerically stable like Pebay's
    one-pass formulas), a pluggable :mod:`repro.kernels` backend produces
    every co-moment of the batch (einsum baseline, GEMM-shaped BLAS, or
    fused compiled C — ``kernel="auto"`` is cext where it builds, else
    einsum), and one exact pairwise combination (Pebay, SAND2008-6212)
    merges the batch into the running state.  Any read (maps, intervals,
    checkpoints) flushes pending buffers first, so results never lag the
    data.

    Slabs: :meth:`payload` issues ``(p+2, ncells)`` slabs to fill and
    adopt; a fold puts the ones it issued (never a caller's array or a
    view) on a free list of at most ``batch_size`` for the next call.

    Updates remain commutative across groups up to FP rounding — the
    property the asynchronous server relies on (Sec. 3.1) — and a fold of
    B=1 reduces to the classical iterative update, so arrival order only
    perturbs results at the reassociation level (~1e-13 relative).

    Multicore folds: ``fold_threads`` shards each fold across disjoint,
    block-aligned cell windows onto the persistent thread pool of
    :mod:`repro.kernels.parallel` — per-thread kernel instances (scratch
    isolation), no combine step (windows write disjoint state slices),
    and therefore **bit-exact** results against ``fold_threads=1``.
    ``"auto"`` (the default) is ``min(usable_cpus // local_ranks,
    blocks)``; explicit integers are honored un-clamped.  Backend and
    thread count are fixed when the field is constructed — nothing is
    measured, so ``kernel_name``, ``active_fold_threads`` and
    ``fold_plan`` are concrete before the first buffer arrives.  They
    are execution policy, not statistics: checkpoints and fingerprints
    ignore them.
    """

    #: staged buffers per timestep before a fold is triggered
    DEFAULT_BATCH = 16
    #: cells per fold block (keeps scratch in cache)
    DEFAULT_BLOCK = 8192

    def __init__(
        self,
        nparams: int,
        ntimesteps: int,
        ncells: int,
        batch_size: int = DEFAULT_BATCH,
        block_cells: int = DEFAULT_BLOCK,
        max_staged: Optional[int] = None,
        kernel: str = "auto",
        fold_threads="auto",
        local_ranks: int = 1,
    ):
        if nparams < 1:
            raise ValueError("nparams must be >= 1")
        if ntimesteps < 1 or ncells < 1:
            raise ValueError("ntimesteps and ncells must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.nparams = nparams
        self.ntimesteps = ntimesteps
        self.ncells = ncells
        self.batch_size = int(batch_size)
        self.block_cells = max(1, int(block_cells))
        #: global bound on adopted-but-unfolded buffers (memory control)
        self.max_staged = int(max_staged) if max_staged is not None else 4 * self.batch_size
        m = nparams + 2
        self._m = m
        self._counts = np.zeros(ntimesteps, dtype=np.int64)
        self._mean = np.zeros((ntimesteps, m, ncells))
        self._m2 = np.zeros((ntimesteps, m, ncells))
        self._cxy = np.zeros((ntimesteps, 2, nparams, ncells))
        self._staged: List[List[np.ndarray]] = [[] for _ in range(ntimesteps)]
        self._staged_total = 0
        # lazy max-heap of (-len(staged), t): overflow eviction pops the
        # fullest timestep in O(log) instead of scanning all T timesteps
        self._staged_heap: List[Tuple[int, int]] = []
        blk = min(self.block_cells, ncells)
        self._kernel = make_kernel(kernel, nparams, self.batch_size, blk)
        threads = _parallel.resolve_threads(
            fold_threads, local_ranks, ncells, blk
        )
        #: the sharded fold engine; None = one thread, no pool
        self._folder: Optional[_parallel.ParallelFolder] = None
        if threads > 1:
            self._folder = _parallel.ParallelFolder(
                self._kernel.name, nparams, self.batch_size, blk, threads
            )
        # preallocated rank-1 correction scratch (sequential path)
        self._r1 = np.empty((2, nparams, blk))
        # issued slabs by id (an ndarray is unhashable); folded ones free
        self._issued = weakref.WeakValueDictionary()
        self._free: Dict[int, np.ndarray] = {}

    @property
    def kernel_name(self) -> str:
        """Concrete backend in use."""
        return self._kernel.name

    @property
    def active_fold_threads(self) -> int:
        """Threads the fold uses."""
        return self._folder.nthreads if self._folder is not None else 1

    @property
    def fold_plan(self) -> Optional[Tuple[str, int, int]]:
        """The ``(backend, nthreads, block_cells)`` plan of the sharded
        fold, or None when folds run on the calling thread alone."""
        return self._folder.plan if self._folder is not None else None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def payload(self) -> np.ndarray:
        """An uninitialised C-contiguous ``(p+2, ncells)`` slab to fill and
        adopt: a folded one of this field's when one is free, else new."""
        if self._free:
            return self._free.popitem()[1]
        slab = np.empty((self._m, self.ncells))
        self._issued[id(slab)] = slab
        return slab

    def update_group_buffer(self, timestep: int, buf: np.ndarray) -> None:
        """Adopt one group's ``(p+2, ncells)`` outputs for ``timestep``.

        Rows are ``[Y^A, Y^B, Y^{C^1} .. Y^{C^p}]`` — exactly the member
        order of the server staging buffer, which is handed over here
        without a copy.  The caller must not mutate the array afterwards;
        it is read once when the staged batch folds.
        """
        if not 0 <= timestep < self.ntimesteps:
            raise IndexError(f"timestep {timestep} out of range")
        # C-contiguity is part of the staging contract: the compiled
        # kernel backends index raw slab pointers (no-op for the server's
        # own staging buffers)
        buf = np.ascontiguousarray(buf, dtype=np.float64)
        if buf.shape != (self._m, self.ncells):
            raise ValueError(
                f"buffer shape {buf.shape} != ({self._m}, {self.ncells})"
            )
        # a free slab adopted again (a duplicate delivery) is staged, not free
        self._free.pop(id(buf), None)
        staged = self._staged[timestep]
        staged.append(buf)
        self._staged_total += 1
        if len(staged) >= self.batch_size:
            self._fold(timestep)
        else:
            heapq.heappush(self._staged_heap, (-len(staged), timestep))
            if len(self._staged_heap) > 4 * max(self.max_staged, self.ntimesteps):
                # stale entries are popped lazily only on overflow; bound
                # the heap by rebuilding it from the live counts once it
                # outgrows the working set (amortized O(1) per adoption)
                self._staged_heap = [
                    (-len(s), t) for t, s in enumerate(self._staged) if s
                ]
                heapq.heapify(self._staged_heap)
            if self._staged_total > self.max_staged:
                self._fold(self._fullest_staged())

    def _fullest_staged(self) -> int:
        """The timestep with the most staged buffers, via the lazy heap.

        Entries go stale when a timestep folds (its count drops to zero)
        or when a later adoption pushed a larger count; both are detected
        by comparing against the live count and popped on sight.
        Amortized O(log) per adoption — each pushed entry is popped at
        most once — versus the old O(ntimesteps) scan per overflow.
        """
        while self._staged_heap:
            neg, t = self._staged_heap[0]
            if -neg == len(self._staged[t]):
                return t
            heapq.heappop(self._staged_heap)
        # unreachable while staged_total > 0 (every adoption pushes), but
        # degrade gracefully rather than crash on a corrupt heap
        return int(
            max(range(self.ntimesteps), key=lambda t: len(self._staged[t]))
        )

    # ------------------------------------------------------------------ #
    # the fold: batch contraction + exact pairwise merge
    # ------------------------------------------------------------------ #
    def _fold(self, t: int) -> None:
        if _telemetry.REGISTRY.enabled:
            # per-backend fold timing: folds are batched (one per
            # batch_size groups), so labelling by the live kernel name
            # here is off the per-message hot path
            t0 = _time.perf_counter()
            self._fold_impl(t)
            _telemetry.REGISTRY.histogram(
                "repro_kernel_fold_seconds",
                "co-moment batch fold seconds per kernel backend",
            ).observe(_time.perf_counter() - t0, backend=self.kernel_name)
        else:
            self._fold_impl(t)

    def _fold_impl(self, t: int) -> None:
        slabs = self._staged[t]
        nb = len(slabs)
        if nb == 0:
            return
        na = int(self._counts[t])
        mean = self._mean[t]
        m2 = self._m2[t]
        cxy = self._cxy[t]
        if self._folder is not None:
            # sharded multicore fold: disjoint block-aligned cell windows
            # onto per-thread kernels — bit-exact vs the sequential path
            self._folder.fold(slabs, self.ncells, mean, m2, cxy, na)
        else:
            _parallel.fold_window(
                self._kernel, slabs, 0, self.ncells,
                mean, m2, cxy, na, self._r1,
            )
        self._counts[t] = na + nb
        self._staged_total -= nb
        for slab in slabs:
            if len(self._free) < self.batch_size and self._issued.get(id(slab)) is slab:
                self._free[id(slab)] = slab
        slabs.clear()

    def flush(self, timestep: Optional[int] = None) -> None:
        """Fold staged buffers (one timestep, or all when ``None``: a read
        of the whole state, after which no slab is kept free)."""
        if timestep is not None:
            self._fold(timestep)
        else:
            for t in range(self.ntimesteps):
                self._fold(t)
            self._free.clear()

    @property
    def staged_groups(self) -> int:
        """Adopted buffers not yet folded (transient memory accounting)."""
        return self._staged_total

    # ------------------------------------------------------------------ #
    # merge (exact pairwise combination of two disjoint streams)
    # ------------------------------------------------------------------ #
    def merge(self, other: "UbiquitousSobolField") -> None:
        """Absorb an estimator fed a disjoint set of groups."""
        if (
            other.nparams != self.nparams
            or other.ntimesteps != self.ntimesteps
            or other.ncells != self.ncells
        ):
            raise ValueError("incompatible field merge")
        self.flush()
        other.flush()
        na = self._counts.astype(np.float64)
        nb = other._counts.astype(np.float64)
        n = na + nb
        nsafe = np.where(n > 0, n, 1.0)
        f = (na * nb / nsafe)[:, None, None]
        wb = (nb / nsafe)[:, None, None]
        d = other._mean - self._mean
        dx = d[:, :2]
        dc = d[:, 2:]
        self._m2 += other._m2 + f * d * d
        self._cxy += other._cxy + self._kernel.merge_cross(dx, dc, f[..., None])
        self._mean += d * wb
        self._counts += other._counts

    # ------------------------------------------------------------------ #
    # derived maps
    # ------------------------------------------------------------------ #
    def index_maps_at(self, timestep: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(first_order, total_order)`` ``(p, ncells)`` slabs at one
        timestep — the batched building block of results assembly.

        Both correlation rows come from ONE extraction pass (row 0 is
        ``corr(Y^A, Y^Ck)``, row 1 ``corr(Y^B, Y^Ck)``), so the C-stream
        standard deviations shared by both denominators are computed once.
        """
        self.flush(timestep)
        if self._counts[timestep] < 2:
            corr = np.full((2, self.nparams, self.ncells), np.nan)
        else:
            m2 = self._m2[timestep]
            corr = self._kernel.correlation_maps(
                self._cxy[timestep], m2[:2], m2[2:]
            )
        return corr[1], 1.0 - corr[0]

    def variance_map(self, timestep: int) -> np.ndarray:
        """Unbiased Var(Y^A) per cell (the Fig. 8 co-visualization map)."""
        self.flush(timestep)
        if self._counts[timestep] < 2:
            return np.full(self.ncells, np.nan)
        return self._m2[timestep, 0] / (self._counts[timestep] - 1)

    def mean_map(self, timestep: int) -> np.ndarray:
        self.flush(timestep)
        return self._mean[timestep, 0]

    def ab_moments(self, timestep: int) -> Tuple[int, np.ndarray, np.ndarray]:
        """``(count, mean, m2)`` of the A and B streams at one timestep:
        ``count`` groups each, ``(2, ncells)`` views of the running state
        (the :class:`~repro.stats.protocol.StatContext` seam)."""
        self.flush(timestep)
        return int(self._counts[timestep]), self._mean[timestep, :2], self._m2[timestep, :2]

    # ------------------------------------------------------------------ #
    # convergence scalar
    # ------------------------------------------------------------------ #
    def _timestep_interval_width(self, t: int, z: float = 1.96) -> float:
        self.flush(t)
        if self._counts[t] <= 3:
            return float("inf")
        ngroups = int(self._counts[t])
        # one correlation-extraction pass feeds BOTH CI widths
        first, total = self.index_maps_at(t)
        widths: List[float] = []
        lo, hi = first_order_confidence_interval(first, ngroups, z)
        w = hi - lo
        finite = w[np.isfinite(w)]
        if finite.size:
            widths.append(float(finite.max()))
        lo, hi = total_order_confidence_interval(total, ngroups, z)
        w = hi - lo
        finite = w[np.isfinite(w)]
        if finite.size:
            widths.append(float(finite.max()))
        return max(widths) if widths else float("nan")

    def max_interval_width(self, z: float = 1.96) -> float:
        """Largest CI width over all timesteps (convergence scalar).

        Timesteps with no meaningful cells (NaN) are skipped; ``inf`` when
        nothing meaningful exists anywhere yet.
        """
        widths = [self._timestep_interval_width(t, z) for t in range(self.ntimesteps)]
        finite_or_inf = [w for w in widths if not np.isnan(w)]
        return max(finite_or_inf) if finite_or_inf else float("nan")

    # ------------------------------------------------------------------ #
    @property
    def memory_floats(self) -> int:
        """Number of float64 state entries — O(fields), not O(groups).

        Per timestep: (p+2) mean rows + (p+2) second-moment rows + 2p
        co-moment rows, each of ``ncells`` floats — (4p+4) x ncells, less
        than half of 2p independent covariance pairs' (10p+2).  Used by the
        memory-accounting benchmark (paper: 491 GB server memory for 10M
        cells x 100 steps).  Slabs come on top, each (p+2) x ncells: at
        most ``max_staged`` staged ones plus ``batch_size`` free ones.
        """
        per_timestep = (4 * self.nparams + 4) * self.ncells
        return per_timestep * self.ntimesteps

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        self.flush()
        return {
            "format": 2,
            "nparams": self.nparams,
            "ntimesteps": self.ntimesteps,
            "ncells": self.ncells,
            "counts": self._counts,
            "mean": self._mean,
            "m2": self._m2,
            "cxy": self._cxy,
        }

    @classmethod
    def from_state_dict(
        cls, state: dict, kernel: str = "auto",
        fold_threads="auto", local_ranks: int = 1,
    ) -> "UbiquitousSobolField":
        """Restore state; ``kernel`` / ``fold_threads`` pick the backend
        and thread policy for the new field (checkpoints are execution-
        policy-agnostic — the state is pure statistics, so a study may
        restore onto any backend at any thread count).  The field copies
        every array, so it shares nothing with ``state``."""
        return cls._from_state(state, np.array, kernel, fold_threads, local_ranks)

    @classmethod
    def adopt_state_dict(
        cls, state: dict, kernel: str = "auto",
        fold_threads="auto", local_ranks: int = 1,
    ) -> "UbiquitousSobolField":
        """:meth:`from_state_dict` that keeps ``state``'s arrays as the
        field's own wherever their dtype and layout already fit.  Only for
        a state nothing else holds (a checkpoint just read, a payload just
        decoded): the restore then holds one copy of the state, not two."""
        def adopt(array, dtype):
            return np.require(array, dtype, ("C", "A", "W"))

        return cls._from_state(state, adopt, kernel, fold_threads, local_ranks)

    @classmethod
    def _from_state(
        cls, state: dict, convert, kernel, fold_threads, local_ranks,
    ) -> "UbiquitousSobolField":
        keys = {"nparams", "ntimesteps", "ncells", "counts", "mean", "m2", "cxy"}
        if state.get("format") != 2 or not keys <= state.keys():
            raise ValueError(
                "not a stacked Sobol' state (format 2 with nparams, ntimesteps, "
                "ncells, counts, mean, m2, cxy): "
                f"format={state.get('format')!r}, keys={sorted(state)}"
            )
        t, p, n = (int(state[k]) for k in ("ntimesteps", "nparams", "ncells"))
        shapes = {
            "counts": (t,),
            "mean": (t, p + 2, n),
            "m2": (t, p + 2, n),
            "cxy": (t, 2, p, n),
        }
        arrays = {name: np.asarray(state[name]) for name in shapes}
        wrong = [
            f"{name} {arrays[name].shape} != {shape}"
            for name, shape in shapes.items()
            if arrays[name].shape != shape
        ]
        if wrong:
            raise ValueError(
                "not a stacked Sobol' state (array shapes for "
                f"ntimesteps={t}, nparams={p}, ncells={n}): {'; '.join(wrong)}"
            )
        obj = cls(
            nparams=p,
            ntimesteps=t,
            ncells=n,
            kernel=kernel,
            fold_threads=fold_threads,
            local_ranks=local_ranks,
        )
        obj._counts = convert(arrays["counts"], np.int64)
        obj._mean = convert(arrays["mean"], np.float64)
        obj._m2 = convert(arrays["m2"], np.float64)
        obj._cxy = convert(arrays["cxy"], np.float64)
        return obj
