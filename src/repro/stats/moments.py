"""One-pass central moments up to order 4 (mean, variance, skewness, kurtosis).

Implements the update formulas of Pebay, *Formulas for robust, one-pass
parallel computation of covariances and arbitrary-order statistical moments*
(SAND2008-6212), the same reference used by the paper ([34] in the text).
Order 2 reduces to Welford's classical algorithm.

The estimator operates elementwise on arrays of a fixed ``shape`` so that a
single object tracks the moments of every mesh cell at once.  ``update`` is
O(field size) with a handful of fused NumPy operations and no temporaries
beyond what the algebra requires (in-place ops throughout, per the
hpc-parallel guide: prefer ``a += b`` to ``a = a + b``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

_VALID_ORDERS = (1, 2, 3, 4)


def _as_field(x: ArrayLike, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Coerce a sample to the tracked field shape, raising on mismatch."""
    arr = np.asarray(x, dtype=dtype)
    if arr.shape != shape:
        if arr.shape == () and shape == ():
            return arr
        raise ValueError(f"sample shape {arr.shape} != tracked shape {shape}")
    return arr


class IterativeMoments:
    """Single-pass central moments of a stream of (possibly vector) samples.

    Parameters
    ----------
    shape:
        Field shape of each incoming sample.  ``()`` tracks a scalar stream.
    order:
        Highest central moment tracked (1..4).  Higher orders cost extra
        arrays of the field shape and extra flops per update.

    Notes
    -----
    Internally stores the running mean and the *unnormalized* central moment
    sums ``M2 = sum (x-mean)^2``, ``M3``, ``M4``.  Properties return the
    conventional normalized statistics.  ``merge`` combines two disjoint
    partial streams exactly (pairwise algorithm), which is what a reduction
    tree over server ranks or checkpoint shards uses.
    """

    __slots__ = ("shape", "order", "count", "mean", "m2", "m3", "m4")

    def __init__(self, shape: Tuple[int, ...] = (), order: int = 2):
        if order not in _VALID_ORDERS:
            raise ValueError(f"order must be one of {_VALID_ORDERS}, got {order}")
        self.shape = tuple(shape)
        self.order = order
        self.count = 0
        self.mean = np.zeros(self.shape, dtype=np.float64)
        self.m2 = np.zeros(self.shape, dtype=np.float64) if order >= 2 else None
        self.m3 = np.zeros(self.shape, dtype=np.float64) if order >= 3 else None
        self.m4 = np.zeros(self.shape, dtype=np.float64) if order >= 4 else None

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def update(self, sample: ArrayLike) -> None:
        """Fold one sample into the running moments (Pebay one-pass update)."""
        x = _as_field(sample, self.shape)
        n1 = self.count
        self.count = n = n1 + 1
        delta = x - self.mean
        delta_n = delta / n
        if self.order >= 2:
            term1 = delta * delta_n * n1
            if self.order >= 3:
                delta_n2 = delta_n * delta_n
                if self.order >= 4:
                    self.m4 += (
                        term1 * delta_n2 * (n * n - 3 * n + 3)
                        + 6.0 * delta_n2 * self.m2
                        - 4.0 * delta_n * self.m3
                    )
                self.m3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * self.m2
            self.m2 += term1
        self.mean += delta_n

    def update_many(self, samples: Iterable[ArrayLike]) -> None:
        """Fold a sequence of samples, one at a time (streaming semantics)."""
        for s in samples:
            self.update(s)

    def merge(self, other: "IterativeMoments") -> None:
        """Absorb the partial moments of ``other`` (disjoint sample set).

        Implements the exact pairwise combination formulas; after merging,
        ``self`` is identical (to FP error) to having seen both streams.
        """
        if other.shape != self.shape:
            raise ValueError("cannot merge moments with different field shapes")
        if other.order != self.order:
            raise ValueError("cannot merge moments with different orders")
        na, nb = self.count, other.count
        if nb == 0:
            return
        if na == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            if self.order >= 2:
                self.m2 = other.m2.copy()
            if self.order >= 3:
                self.m3 = other.m3.copy()
            if self.order >= 4:
                self.m4 = other.m4.copy()
            return
        n = na + nb
        delta = other.mean - self.mean
        delta_n = delta / n
        if self.order >= 4:
            self.m4 += (
                other.m4
                + delta * delta_n**3 * na * nb * (na * na - na * nb + nb * nb)
                + 6.0 * delta_n**2 * (na * na * other.m2 + nb * nb * self.m2)
                + 4.0 * delta_n * (na * other.m3 - nb * self.m3)
            )
        if self.order >= 3:
            self.m3 += (
                other.m3
                + delta * delta_n**2 * na * nb * (na - nb)
                + 3.0 * delta_n * (na * other.m2 - nb * self.m2)
            )
        if self.order >= 2:
            self.m2 += other.m2 + delta * delta_n * na * nb
        self.mean += delta_n * nb
        self.count = n

    # ------------------------------------------------------------------ #
    # derived statistics
    # ------------------------------------------------------------------ #
    @property
    def variance(self) -> np.ndarray:
        """Unbiased sample variance (``nan`` where count < 2)."""
        self._require_order(2)
        if self.count < 2:
            return np.full(self.shape, np.nan)
        return self.m2 / (self.count - 1)

    @property
    def population_variance(self) -> np.ndarray:
        """Biased (population) variance M2/n."""
        self._require_order(2)
        if self.count < 1:
            return np.full(self.shape, np.nan)
        return self.m2 / self.count

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    @property
    def skewness(self) -> np.ndarray:
        """Population skewness g1 = sqrt(n) M3 / M2^(3/2)."""
        self._require_order(3)
        if self.count < 2:
            return np.full(self.shape, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sqrt(float(self.count)) * self.m3 / np.power(self.m2, 1.5)

    @property
    def kurtosis(self) -> np.ndarray:
        """Excess kurtosis g2 = n M4 / M2^2 - 3."""
        self._require_order(4)
        if self.count < 2:
            return np.full(self.shape, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.count * self.m4 / (self.m2 * self.m2) - 3.0

    def _require_order(self, k: int) -> None:
        if self.order < k:
            raise ValueError(f"moment order {k} not tracked (order={self.order})")

    # ------------------------------------------------------------------ #
    # (de)serialization for checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Plain-array snapshot, suitable for ``np.savez`` checkpoints."""
        state = {"count": self.count, "order": self.order, "mean": self.mean}
        if self.order >= 2:
            state["m2"] = self.m2
        if self.order >= 3:
            state["m3"] = self.m3
        if self.order >= 4:
            state["m4"] = self.m4
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "IterativeMoments":
        mean = np.asarray(state["mean"], dtype=np.float64)
        obj = cls(shape=mean.shape, order=int(state["order"]))
        obj.count = int(state["count"])
        obj.mean = mean.copy()
        for name in ("m2", "m3", "m4"):
            if name in state and getattr(obj, name) is not None:
                setattr(obj, name, np.asarray(state[name], dtype=np.float64).copy())
        return obj

    def copy(self) -> "IterativeMoments":
        return IterativeMoments.from_state_dict(self.state_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IterativeMoments(shape={self.shape}, order={self.order}, "
            f"count={self.count})"
        )


def batch_central_moments(
    samples: np.ndarray, order: int = 4
) -> Tuple[int, np.ndarray, Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]]:
    """Two-pass reference moments for validation against the iterative path.

    Parameters
    ----------
    samples:
        Array of shape ``(n,) + field_shape``; axis 0 is the sample axis.
    order:
        Highest central moment sum to return.

    Returns
    -------
    ``(n, mean, M2, M3, M4)`` with the same (unnormalized) definitions as
    :class:`IterativeMoments`; entries above ``order`` are ``None``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    mean = samples.mean(axis=0) if n else np.zeros(samples.shape[1:])
    centered = samples - mean
    m2 = (centered**2).sum(axis=0) if order >= 2 else None
    m3 = (centered**3).sum(axis=0) if order >= 3 else None
    m4 = (centered**4).sum(axis=0) if order >= 4 else None
    return n, mean, m2, m3, m4
