"""BLAS-restructured backend: batched GEMM/syrk-shaped co-moments.

The fold contraction is, per cell, the ``(p+2) x (p+2)`` Gram matrix of
the batch residuals.  This backend reshapes the ``(nb, p+2, w)`` residual
slab into cell-major contiguous ``(w, p+2, nb)`` storage and computes all
Gram matrices with one stacked ``np.matmul`` — the GEMM mapping the issue
of per-cell co-moments admits.  The multiply runs through the BLAS
dispatch (multi-threaded where OpenBLAS has cores to use) on contiguous
memory, at the cost of a transpose pass and a ~3x overcompute (the full
symmetric Gram versus the 3p+2 moments actually needed).

On the 2-vCPU reference box it measured 3x slower than the einsum
baseline at p = 6, so ``kernel="auto"`` never picks it: it is
selectable by name only and documents the GEMM restructuring
explicitly.

GIL audit (multicore folds): the stacked ``np.matmul`` releases the GIL
inside the BLAS call, as do the transpose copy and reductions, so cell
shards overlap across threads.  Note the interaction budget: fold
threads multiply with BLAS's own thread pool.  Instances are NOT
thread-safe (``_zt``/``_gram`` scratch); one instance per thread.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.base import CoMomentKernel


class BlasKernel(CoMomentKernel):
    name = "blas"

    def __init__(self, nparams: int, batch_size: int, block_cells: int):
        super().__init__(nparams, batch_size, block_cells)
        m, blk = self.nstreams, self.block_cells
        nb = max(self.batch_size - 1, 0)
        # cell-major residual storage (w, m, nb): the batched-GEMM operand
        self._zt = np.empty((blk, m, nb))
        self._gram = np.empty((blk, m, m))

    def fold_batch(
        self, slabs: Sequence[np.ndarray], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nb = len(slabs)
        m = self.nstreams
        p = self.nparams
        w = hi - lo
        inv_b = 1.0 / nb
        if nb - 1 > self._zt.shape[2]:  # force-folds may exceed batch_size
            self._zt = np.empty((self._zt.shape[0], m, nb - 1))
            self._gram = np.empty((self._zt.shape[0], m, m))
        ref = slabs[0][:, lo:hi]
        zt = self._zt[:w, :, : nb - 1]
        for b in range(1, nb):
            # (m, w) residual laid down cell-major: zt[:, :, b-1] = z.T
            np.subtract(slabs[b][:, lo:hi], ref, out=zt[:, :, b - 1].T)
        gram = self._gram[:w]
        # all per-cell Gram matrices in one stacked GEMM call
        np.matmul(zt, zt.transpose(0, 2, 1), out=gram)
        mz = zt.sum(axis=2).T.copy()  # (m, w) residual sums ...
        mz *= inv_b  # ... -> batch means
        # center: sum z z' - nb mz mz', picking the rows the engine needs
        diag = gram[:, np.arange(m), np.arange(m)].T  # (m, w)
        gd = diag - nb * mz * mz
        gx = gram[:, :2, 2:].transpose(1, 2, 0).copy()  # (2, p, w)
        gx -= nb * mz[:2, None, :] * mz[None, 2:, :]
        return mz, gd, gx
