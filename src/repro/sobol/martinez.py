"""Iterative ubiquitous Sobol' indices via the Martinez estimator.

Two implementations of the same statistics:

* :class:`IterativeSobolEstimator` — the scalar-loop reference: per input
  parameter k it tracks the two streaming correlations the Martinez
  formulas need,

  - ``corr(Y^B, Y^{C^k})``  -> first-order index  S_k   (Eq. 5/7)
  - ``corr(Y^A, Y^{C^k})``  -> total index        ST_k  (Eq. 6)

  as 2p separate :class:`~repro.stats.covariance.IterativeCovariance`
  objects.  Kept as the readable specification, for scalar studies, and
  for the opt-in pairwise extension (``track_pairs``).

* :class:`UbiquitousSobolField` — the production path: the whole
  per-timestep estimator forest as stacked dense arrays with micro-batched
  vectorized folds (see its docstring).  This is what server ranks hold;
  the equivalence suite pins it to the reference at rtol 1e-10.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.kernels import make_kernel
from repro.kernels import parallel as _parallel
from repro.sobol.confidence import (
    first_order_confidence_interval,
    total_order_confidence_interval,
)
from repro.stats.covariance import IterativeCovariance
from repro.stats.moments import IterativeMoments


class IterativeSobolEstimator:
    """One-pass first-order and total Sobol' indices for one output field.

    Parameters
    ----------
    nparams:
        Number of variable inputs p; each group supplies p+2 outputs.
    shape:
        Field shape of each simulation output (``()`` for scalar outputs).

    Notes
    -----
    Memory = (2p + const) arrays of ``shape``: per parameter one
    covariance pair vs Y^B and one vs Y^A.  The output moments (mean,
    variance) of the A member are tracked too, because the paper recommends
    co-visualizing Var(Y) with the index maps (Sec. 5.5) and variance is
    the denominator sanity-check for near-constant cells.
    """

    def __init__(self, nparams: int, shape: Tuple[int, ...] = (),
                 track_pairs: bool = False):
        if nparams < 1:
            raise ValueError("nparams must be >= 1")
        self.nparams = nparams
        self.shape = tuple(shape)
        # corr(Y^B, Y^Ck) per k  -> S_k
        self._first = [IterativeCovariance(self.shape) for _ in range(nparams)]
        # corr(Y^A, Y^Ck) per k  -> ST_k
        self._total = [IterativeCovariance(self.shape) for _ in range(nparams)]
        # extension (zero extra simulations): corr(Y^Ci, Y^Cj) estimates
        # the closed index of everything EXCEPT {i, j}, giving the pair's
        # total index ST_{ij} = 1 - corr — O(p^2) memory, opt-in.
        self.track_pairs = bool(track_pairs)
        self._pairs: Dict[Tuple[int, int], IterativeCovariance] = {}
        if self.track_pairs:
            self._pairs = {
                (i, j): IterativeCovariance(self.shape)
                for i in range(nparams)
                for j in range(i + 1, nparams)
            }
        # general output statistics on the A member (variance map, Fig. 8)
        self.output_moments = IterativeMoments(self.shape, order=2)
        self.ngroups = 0

    # ------------------------------------------------------------------ #
    def update_group(
        self,
        y_a: np.ndarray,
        y_b: np.ndarray,
        y_c: Sequence[np.ndarray],
    ) -> None:
        """Fold one simulation group's p+2 outputs into every index."""
        if len(y_c) != self.nparams:
            raise ValueError(
                f"expected {self.nparams} C-member outputs, got {len(y_c)}"
            )
        y_a = np.asarray(y_a, dtype=np.float64)
        y_b = np.asarray(y_b, dtype=np.float64)
        y_c = [np.asarray(yc, dtype=np.float64) for yc in y_c]
        for k in range(self.nparams):
            self._first[k].update(y_b, y_c[k])
            self._total[k].update(y_a, y_c[k])
        for (i, j), cov in self._pairs.items():
            cov.update(y_c[i], y_c[j])
        self.output_moments.update(y_a)
        self.ngroups += 1

    def merge(self, other: "IterativeSobolEstimator") -> None:
        """Combine with an estimator fed a disjoint set of groups."""
        if other.nparams != self.nparams or other.shape != self.shape:
            raise ValueError("incompatible estimator merge")
        if other.track_pairs != self.track_pairs:
            raise ValueError("incompatible pair tracking")
        for k in range(self.nparams):
            self._first[k].merge(other._first[k])
            self._total[k].merge(other._total[k])
        for key, cov in self._pairs.items():
            cov.merge(other._pairs[key])
        self.output_moments.merge(other.output_moments)
        self.ngroups += other.ngroups

    # ------------------------------------------------------------------ #
    def first_order(self, k: Optional[int] = None) -> np.ndarray:
        """S_k (or stacked (p,)+shape array if ``k`` is None)."""
        if k is not None:
            return self._first[k].correlation
        return np.stack([c.correlation for c in self._first])

    def total_order(self, k: Optional[int] = None) -> np.ndarray:
        """ST_k (or stacked array if ``k`` is None)."""
        if k is not None:
            return 1.0 - self._total[k].correlation
        return np.stack([1.0 - c.correlation for c in self._total])

    def pair_total_order(self, i: int, j: int) -> np.ndarray:
        """Total index ST_{ij} of the pair {i, j} (extension).

        With this paper's pick-freeze convention, Y^{C^i} and Y^{C^j}
        share every input *except* i and j, so their correlation estimates
        the closed index of the complementary set and
        ``ST_{ij} = 1 - corr(Y^{C^i}, Y^{C^j})`` — the overall sensitivity
        to {X_i, X_j} including every interaction containing either, at no
        extra simulation cost.  Requires ``track_pairs=True``.
        """
        if not self.track_pairs:
            raise ValueError("estimator built without track_pairs=True")
        if i == j:
            raise ValueError("pair indices must differ")
        key = (min(i, j), max(i, j))
        if key not in self._pairs:
            raise ValueError(f"invalid pair {key} for {self.nparams} parameters")
        return 1.0 - self._pairs[key].correlation

    def interaction_residual(self) -> np.ndarray:
        """1 - sum_k S_k: mass attributable to parameter interactions.

        Small values mean first-order indices tell the whole story and the
        total indices are redundant (paper Sec. 5.5, point on interactions).
        """
        return 1.0 - np.nansum(self.first_order(), axis=0)

    @property
    def output_variance(self) -> np.ndarray:
        """Unbiased Var(Y^A): the Fig. 8 co-visualization map."""
        return self.output_moments.variance

    @property
    def output_mean(self) -> np.ndarray:
        return self.output_moments.mean

    # ------------------------------------------------------------------ #
    def first_order_interval(self, k: int, z: float = 1.96):
        """Fisher-z CI of S_k after the groups seen so far (Eq. 8)."""
        return first_order_confidence_interval(self.first_order(k), self.ngroups, z)

    def total_order_interval(self, k: int, z: float = 1.96):
        """Fisher-z CI of ST_k (Eq. 9)."""
        return total_order_confidence_interval(self.total_order(k), self.ngroups, z)

    def max_interval_width(self, z: float = 1.96) -> float:
        """Largest CI width over all parameters and cells.

        This is the scalar the server reports for convergence control
        (Sec. 4.1.5: "only keep the largest value over all the mesh and all
        the timesteps").  ``inf`` until enough groups for the Fisher SE;
        ``nan`` when no cell carries any output variance (indices are
        meaningless there, Sec. 5.5) — aggregators skip NaN estimators.
        """
        if self.ngroups <= 3:
            return float("inf")
        widths: List[float] = []
        for k in range(self.nparams):
            lo, hi = self.first_order_interval(k, z)
            w = hi - lo
            finite = w[np.isfinite(w)]
            if finite.size:
                widths.append(float(finite.max()))
            lo, hi = self.total_order_interval(k, z)
            w = hi - lo
            finite = w[np.isfinite(w)]
            if finite.size:
                widths.append(float(finite.max()))
        return max(widths) if widths else float("nan")

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        state = {
            "nparams": self.nparams,
            "ngroups": self.ngroups,
            "track_pairs": self.track_pairs,
            "first": [c.state_dict() for c in self._first],
            "total": [c.state_dict() for c in self._total],
            "output_moments": self.output_moments.state_dict(),
        }
        if self.track_pairs:
            state["pairs"] = {
                f"{i},{j}": cov.state_dict() for (i, j), cov in self._pairs.items()
            }
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "IterativeSobolEstimator":
        moments = IterativeMoments.from_state_dict(state["output_moments"])
        obj = cls(
            nparams=int(state["nparams"]),
            shape=moments.shape,
            track_pairs=bool(state.get("track_pairs", False)),
        )
        obj.ngroups = int(state["ngroups"])
        obj._first = [IterativeCovariance.from_state_dict(s) for s in state["first"]]
        obj._total = [IterativeCovariance.from_state_dict(s) for s in state["total"]]
        if obj.track_pairs:
            obj._pairs = {
                tuple(int(v) for v in key.split(",")): IterativeCovariance.from_state_dict(s)
                for key, s in state["pairs"].items()
            }
        obj.output_moments = moments
        return obj

    def copy(self) -> "IterativeSobolEstimator":
        return IterativeSobolEstimator.from_state_dict(self.state_dict())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"IterativeSobolEstimator(nparams={self.nparams}, shape={self.shape}, "
            f"ngroups={self.ngroups})"
        )


class _TimestepEstimator:
    """Read-only per-timestep facade over :class:`UbiquitousSobolField`.

    Mimics the parts of the old per-timestep ``IterativeSobolEstimator``
    API that callers relied on (``ngroups``, output moments, index maps)
    while the actual state lives in the field's stacked arrays.
    """

    __slots__ = ("_field", "_t")

    def __init__(self, field: "UbiquitousSobolField", timestep: int):
        self._field = field
        self._t = timestep

    @property
    def ngroups(self) -> int:
        self._field.flush(self._t)
        return int(self._field._counts[self._t])

    @property
    def output_mean(self) -> np.ndarray:
        return self._field.mean_map(self._t)

    @property
    def output_variance(self) -> np.ndarray:
        return self._field.variance_map(self._t)

    def first_order(self, k: Optional[int] = None) -> np.ndarray:
        if k is not None:
            return self._field.first_order_map(k, self._t)
        return self._field.first_order_all(self._t)

    def total_order(self, k: Optional[int] = None) -> np.ndarray:
        if k is not None:
            return self._field.total_order_map(k, self._t)
        return self._field.total_order_all(self._t)

    def max_interval_width(self, z: float = 1.96) -> float:
        return self._field._timestep_interval_width(self._t, z)


class UbiquitousSobolField:
    """Vectorized batched Martinez estimator over every (timestep, cell).

    This is the server-rank payload.  It replaces the old per-parameter /
    per-timestep forest of ``IterativeCovariance`` objects (2p objects x 5
    arrays x T timesteps) with stacked dense state:

    * ``_mean``  — ``(T, p+2, ncells)`` running means of every member
      stream, rows ordered ``[Y^A, Y^B, Y^{C^1} .. Y^{C^p}]``;
    * ``_m2``    — same shape, centered second-moment sums per stream;
    * ``_cxy``   — ``(T, 2, p, ncells)`` co-moments: row 0 pairs
      ``<Y^A, Y^{C^k}>`` (total index), row 1 ``<Y^B, Y^{C^k}>`` (first
      order);
    * ``_counts``— ``(T,)`` groups folded per timestep.

    Because the A/B streams are shared by all p correlations and the C^k
    stream is shared by the first/total pair, this layout stores
    ``(4p+4) x ncells`` floats per timestep versus ``(10p+2)`` for the
    object forest — a >2x memory reduction at the paper's p=6.

    Hot path: :meth:`update_group_buffer` *adopts* one staged
    ``(p+2, ncells)`` buffer per call (by reference — the caller
    relinquishes it) and folds a micro-batch of ``batch_size`` buffers at
    a time: residuals are taken against the first buffer of the batch (an
    exact shift, so the contraction stays numerically stable like Pebay's
    one-pass formulas), a pluggable :mod:`repro.kernels` backend produces
    every co-moment of the batch (einsum baseline, GEMM-shaped BLAS,
    fused compiled C, or Numba — ``kernel="auto"`` is the first of cext,
    numba, einsum the host can run), and one exact pairwise combination
    (Pebay, SAND2008-6212)
    merges the batch into the running state.  Any read (maps, intervals,
    checkpoints) flushes pending buffers first, so results never lag the
    data.

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

    def update_group_timestep(
        self,
        timestep: int,
        y_a: np.ndarray,
        y_b: np.ndarray,
        y_c: Sequence[np.ndarray],
    ) -> None:
        """Fold one group's outputs for one timestep (copying wrapper)."""
        if len(y_c) != self.nparams:
            raise ValueError(
                f"expected {self.nparams} C-member outputs, got {len(y_c)}"
            )
        buf = np.empty((self._m, self.ncells))
        buf[0] = y_a
        buf[1] = y_b
        for k, yc in enumerate(y_c):
            buf[2 + k] = yc
        self.update_group_buffer(timestep, buf)

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
        slabs.clear()

    def flush(self, timestep: Optional[int] = None) -> None:
        """Fold staged buffers (one timestep, or all when ``None``)."""
        if timestep is not None:
            self._fold(timestep)
        else:
            for t in range(self.ntimesteps):
                self._fold(t)

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
    def _correlation(self, timestep: int, row: int, k: int) -> np.ndarray:
        """Pearson correlation of stream pair (row in {0:A,1:B}, C^k)."""
        self.flush(timestep)
        if self._counts[timestep] < 2:
            return np.full(self.ncells, np.nan)
        m2 = self._m2[timestep]
        maps = self._kernel.correlation_maps(
            self._cxy[timestep, row, k][None, None, :],
            m2[row][None, :],
            m2[2 + k][None, :],
        )
        return maps[0, 0]

    def first_order_map(self, k: int, timestep: int) -> np.ndarray:
        return self._correlation(timestep, 1, k)

    def total_order_map(self, k: int, timestep: int) -> np.ndarray:
        return 1.0 - self._correlation(timestep, 0, k)

    def _all_correlations(self, timestep: int, row: int) -> np.ndarray:
        self.flush(timestep)
        if self._counts[timestep] < 2:
            return np.full((self.nparams, self.ncells), np.nan)
        m2 = self._m2[timestep]
        maps = self._kernel.correlation_maps(
            self._cxy[timestep, row][None, :, :],
            m2[row][None, :],
            m2[2:],
        )
        return maps[0]

    def _both_correlations(self, timestep: int) -> np.ndarray:
        """Both correlation rows from ONE extraction pass.

        Returns ``(2, p, ncells)``: row 0 is ``corr(Y^A, Y^Ck)`` (the
        total-index correlation), row 1 ``corr(Y^B, Y^Ck)`` (first
        order).  The C-stream standard deviations — the expensive shared
        factor of both denominators — are computed once, instead of once
        per row as the separate ``first_order_all`` / ``total_order_all``
        calls used to do.
        """
        self.flush(timestep)
        if self._counts[timestep] < 2:
            return np.full((2, self.nparams, self.ncells), np.nan)
        m2 = self._m2[timestep]
        return self._kernel.correlation_maps(
            self._cxy[timestep], m2[:2], m2[2:]
        )

    def first_order_all(self, timestep: int) -> np.ndarray:
        """Stacked ``(p, ncells)`` first-order map at one timestep."""
        return self._all_correlations(timestep, 1)

    def total_order_all(self, timestep: int) -> np.ndarray:
        return 1.0 - self._all_correlations(timestep, 0)

    def index_maps_at(self, timestep: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(first_order, total_order)`` ``(p, ncells)`` slabs at one
        timestep from a single correlation-extraction pass — the batched
        building block of results assembly."""
        corr = self._both_correlations(timestep)
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

    @property
    def estimators(self) -> List[_TimestepEstimator]:
        """Per-timestep facades (compatibility with the old forest API)."""
        return [_TimestepEstimator(self, t) for t in range(self.ntimesteps)]

    # ------------------------------------------------------------------ #
    # convergence scalar
    # ------------------------------------------------------------------ #
    def _timestep_interval_width(self, t: int, z: float = 1.96) -> float:
        self.flush(t)
        if self._counts[t] <= 3:
            return float("inf")
        ngroups = int(self._counts[t])
        # one correlation-extraction pass feeds BOTH CI widths (the
        # separate first_order_all / total_order_all calls each rebuilt
        # the same denominators)
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
        than half the old object forest's (10p+2).  Used by the
        memory-accounting benchmark (paper: 491 GB server memory for 10M
        cells x 100 steps).  Staged-but-unfolded buffers are transient
        and bounded by ``max_staged`` x (p+2) x ncells on top.
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
        restore onto any backend at any thread count)."""
        arrays = {"counts", "mean", "m2", "cxy"}
        if state.get("format") != 2 or not arrays <= state.keys():
            raise ValueError(
                "not a stacked Sobol' state (format 2 with counts, mean, m2, "
                f"cxy): format={state.get('format')!r}, keys={sorted(state)}"
            )
        obj = cls(
            nparams=int(state["nparams"]),
            ntimesteps=int(state["ntimesteps"]),
            ncells=int(state["ncells"]),
            kernel=kernel,
            fold_threads=fold_threads,
            local_ranks=local_ranks,
        )
        obj._counts = np.asarray(state["counts"], dtype=np.int64).copy()
        obj._mean = np.asarray(state["mean"], dtype=np.float64).copy()
        obj._m2 = np.asarray(state["m2"], dtype=np.float64).copy()
        obj._cxy = np.asarray(state["cxy"], dtype=np.float64).copy()
        return obj
