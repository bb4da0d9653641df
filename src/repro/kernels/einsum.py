"""The einsum baseline backend — PR 1's fold contraction, verbatim math.

Residuals are materialized into preallocated scratch, batch means come
from one reduction, and three ``np.einsum`` contractions produce the
diagonal and cross co-moments.  Kept as the always-available backend
every host falls back to; ~4-6 GFLOP/s single core on the p=6 /
20k-cell hot path.

GIL audit (multicore folds): ``np.einsum``, ``np.subtract`` into an out
buffer, and the mean reduction all release the GIL for non-trivially
sized operands, so shards running this backend on different threads
overlap.  Instances are NOT thread-safe — ``_zx``/``_zc`` residual
scratch is per-instance — so the parallel layer builds one per thread.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.base import CoMomentKernel


class EinsumKernel(CoMomentKernel):
    name = "einsum"

    def __init__(self, nparams: int, batch_size: int, block_cells: int):
        super().__init__(nparams, batch_size, block_cells)
        blk = self.block_cells
        self._zx = np.empty((max(self.batch_size - 1, 0), 2, blk))
        self._zc = np.empty((max(self.batch_size - 1, 0), nparams, blk))

    def fold_batch(
        self, slabs: Sequence[np.ndarray], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nb = len(slabs)
        w = hi - lo
        inv_b = 1.0 / nb
        s0 = slabs[0]
        refx = s0[:2, lo:hi]
        refc = s0[2:, lo:hi]
        if nb - 1 > self._zx.shape[0]:  # force-folds may exceed batch_size
            self._zx = np.empty((nb - 1, 2, self._zx.shape[2]))
            self._zc = np.empty((nb - 1, self.nparams, self._zc.shape[2]))
        zx = self._zx[: nb - 1, :, :w]
        zc = self._zc[: nb - 1, :, :w]
        # residuals z_b = y_b - y_0 against the first staged buffer: an
        # exact shift that keeps every contraction O(std) instead of
        # O(mean), preserving Pebay-level numerical stability
        for b in range(1, nb):
            sb = slabs[b]
            np.subtract(sb[:2, lo:hi], refx, out=zx[b - 1])
            np.subtract(sb[2:, lo:hi], refc, out=zc[b - 1])
        # batch means of the shifted data (the all-zero z_0 row is
        # implicit: divide by nb, not nb-1)
        mzx = np.add.reduce(zx, axis=0)
        mzx *= inv_b
        mzc = np.add.reduce(zc, axis=0)
        mzc *= inv_b
        # batch co-moments about the batch mean:
        #   sum_b (z - mz)(z' - mz') = sum_b z z' - B mz mz'
        gd_x = np.einsum("bln,bln->ln", zx, zx)
        gd_c = np.einsum("bkn,bkn->kn", zc, zc)
        gx = np.einsum("bln,bkn->lkn", zx, zc)
        gd_x -= nb * mzx * mzx
        gd_c -= nb * mzc * mzc
        gx -= nb * mzx[:, None, :] * mzc[None, :, :]
        mz = np.concatenate([mzx, mzc], axis=0)
        gd = np.concatenate([gd_x, gd_c], axis=0)
        return mz, gd, gx
