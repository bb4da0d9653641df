"""The co-moment kernel interface the batched Sobol' engine folds through.

A :class:`CoMomentKernel` computes, for one staged micro-batch of member
slabs and one cell window, the *centered batch statistics* the Pebay
pairwise combination needs:

* ``mz`` — ``(m, w)`` batch means of the residuals ``z_b = slab_b -
  slab_0`` (the first slab is the exact shift reference, so its residual
  row is implicitly zero and the divisor is the full batch size);
* ``gd`` — ``(m, w)`` centered second-moment sums ``sum_b (z_b - mz)^2``;
* ``gx`` — ``(2, p, w)`` centered cross co-moments ``sum_b (z_b[l] -
  mz[l]) (z_b[2+k] - mz[2+k])`` for the A/B rows ``l`` against every
  C-stream ``k``.

All backends implement the same mathematically exact formulas; they may
only differ in floating-point association order, which is why the
equivalence suite pins every backend to the two-pass reference
(:func:`repro.sobol.reference.martinez_indices` plus NumPy mean /
variance) at rtol 1e-10.  The base class also hosts the two small
shared contractions the engine routes through the kernel seam — the
rank-1 cross correction used by merges (:meth:`merge_cross`) and the
correlation-map extraction (:meth:`correlation_maps`) — with NumPy
implementations backends can override.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class CoMomentKernel:
    """One fold backend, bound to a field's (nparams, batch, block) shape."""

    #: registry name; subclasses override
    name: str = "base"

    def __init__(self, nparams: int, batch_size: int, block_cells: int):
        self.nparams = int(nparams)
        self.batch_size = int(batch_size)
        self.block_cells = int(block_cells)
        self.nstreams = self.nparams + 2

    # ------------------------------------------------------------------ #
    def fold_batch(
        self, slabs: Sequence[np.ndarray], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centered batch statistics ``(mz, gd, gx)`` for cells [lo, hi).

        ``slabs`` is the staged micro-batch: ``nb`` C-contiguous
        ``(p+2, ncells)`` float64 arrays.  ``slabs[0]`` is the shift
        reference.  Returned arrays stay valid until the next
        ``fold_batch`` call on the same kernel (they may alias reusable
        scratch); the engine consumes them immediately.
        """
        raise NotImplementedError

    def fold_into(
        self,
        slabs: Sequence[np.ndarray],
        lo: int,
        hi: int,
        mean: np.ndarray,
        m2: np.ndarray,
        cxy: np.ndarray,
        na: int,
    ) -> bool:
        """Optionally fold the batch DIRECTLY into the running state.

        ``mean``/``m2`` are the ``(p+2, ncells)`` state rows of one
        timestep, ``cxy`` its ``(2, p, ncells)`` co-moments, ``na`` the
        samples already folded.  A backend that fuses the centering and
        the Pebay pairwise combination with the contraction (one pass
        over memory instead of several) performs the whole update and
        returns True; the default returns False and the engine runs
        :meth:`fold_batch` plus the shared NumPy combination instead.
        """
        return False

    # ------------------------------------------------------------------ #
    # shared small contractions (NumPy defaults, overridable)
    # ------------------------------------------------------------------ #
    @staticmethod
    def merge_cross(dx: np.ndarray, dc: np.ndarray, f, out=None) -> np.ndarray:
        """Rank-1 cross correction ``f * dx[l] * dc[k]``.

        ``dx`` has shape ``(..., 2, n)``, ``dc`` ``(..., p, n)``; ``f`` is
        a scalar or broadcasts against the output ``(..., 2, p, n)``.
        Used by both the fold (batch-vs-state combine) and field merges.
        """
        o = np.multiply(dx[..., :, None, :], dc[..., None, :, :], out=out)
        o *= f
        return o

    @staticmethod
    def correlation_maps(
        cxy: np.ndarray, m2x: np.ndarray, m2c: np.ndarray
    ) -> np.ndarray:
        """Pearson maps for stream rows against every C-stream.

        ``cxy`` is ``(r, p, n)`` co-moments, ``m2x`` the ``(r, n)`` row
        second moments, ``m2c`` the ``(p, n)`` C-stream second moments.
        Cells without variance yield NaN (indices are meaningless there,
        paper Sec. 5.5); the result is clipped to [-1, 1].
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            rc = np.sqrt(m2c)
            out = np.empty_like(cxy)
            for r in range(cxy.shape[0]):
                denom = np.sqrt(m2x[r])[None, :] * rc
                out[r] = np.where(denom > 0, cxy[r] / denom, np.nan)
        return np.clip(out, -1.0, 1.0, out=out)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"{type(self).__name__}(nparams={self.nparams}, "
            f"batch_size={self.batch_size}, block_cells={self.block_cells})"
        )


def center_raw_sums(
    sz: np.ndarray, gd: np.ndarray, gx: np.ndarray, nb: int, nparams: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn raw residual sums into centered batch statistics, in place.

    Shared by the compiled backends, which accumulate plain sums
    (``sum z``, ``sum z^2``, ``sum z_l z_k``) in one fused pass:

        gd_centered = gd_raw - nb * mz^2
        gx_centered = gx_raw - nb * mz_l * mz_k

    (the same correction the einsum path applies to its contractions).
    """
    mz = sz
    mz *= 1.0 / nb
    gd -= nb * mz * mz
    gx -= nb * mz[:2, None, :] * mz[None, 2:, :]
    return mz, gd, gx
