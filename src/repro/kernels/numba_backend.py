"""Optional Numba backend: the fused fold JIT-compiled at first use.

Same one-pass structure as the C kernel (residuals, sums, diagonal and
cross co-moments in a single sweep, here over 16-cell tiles), expressed as nopython
Numba over a stacked ``(nb, m, w)`` residual-source scratch.  Numba is
NOT a dependency of this project: when the import fails the module-level
``available()`` probe reports False, ``kernel="numba"`` falls back to the
einsum baseline with a warning, and ``auto`` simply never considers it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import CoMomentKernel, center_raw_sums

try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba
except ImportError:  # pragma: no cover - the baked image has no numba
    _numba = None

_fold_jit = None


def available() -> bool:
    """True when numba imports (the JIT itself compiles lazily)."""
    return _numba is not None


def _get_jit():  # pragma: no cover - requires numba
    global _fold_jit
    if _fold_jit is None:
        # nogil: the parallel fold layer shards cell windows across
        # threads; without it the JIT'd loop would hold the GIL and
        # serialize every shard
        @_numba.njit(cache=False, fastmath=False, nogil=True)
        def fold(stack, nb, sz, gd, gx):
            m, w = sz.shape
            p = m - 2
            tile = 16
            for n0 in range(0, w, tile):
                nn = min(tile, w - n0)
                for i in range(m):
                    for n in range(n0, n0 + nn):
                        sz[i, n] = 0.0
                        gd[i, n] = 0.0
                for l in range(2):
                    for k in range(p):
                        for n in range(n0, n0 + nn):
                            gx[l, k, n] = 0.0
                for b in range(1, nb):
                    for i in range(m):
                        for n in range(n0, n0 + nn):
                            z = stack[b, i, n] - stack[0, i, n]
                            sz[i, n] += z
                            gd[i, n] += z * z
                    for l in range(2):
                        for k in range(p):
                            for n in range(n0, n0 + nn):
                                zl = stack[b, l, n] - stack[0, l, n]
                                zk = stack[b, 2 + k, n] - stack[0, 2 + k, n]
                                gx[l, k, n] += zl * zk

        _fold_jit = fold
    return _fold_jit


class NumbaKernel(CoMomentKernel):  # pragma: no cover - requires numba
    name = "numba"

    def __init__(self, nparams: int, batch_size: int, block_cells: int):
        if _numba is None:
            raise RuntimeError("numba is not installed")
        super().__init__(nparams, batch_size, block_cells)
        m, blk = self.nstreams, self.block_cells
        self._stack = np.empty((max(self.batch_size, 1), m, blk))
        self._sz = np.empty((m, blk))
        self._gd = np.empty((m, blk))
        self._gx = np.empty((2, self.nparams, blk))
        self._fold = _get_jit()

    def fold_batch(
        self, slabs: Sequence[np.ndarray], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nb = len(slabs)
        w = hi - lo
        m = self.nstreams
        if nb > self._stack.shape[0]:
            self._stack = np.empty((nb, m, self._stack.shape[2]))
        stack = self._stack[:nb, :, :w]
        for b, slab in enumerate(slabs):
            stack[b] = slab[:, lo:hi]
        sz = self._sz[:, :w]
        gd = self._gd[:, :w]
        gx = self._gx[:, :, :w]
        self._fold(stack, nb, sz, gd, gx)
        return center_raw_sums(sz, gd, gx, nb, self.nparams)
