"""Built-in catalog plugins wrapping the classic iterative estimators.

These port the statistics Melissa's earlier incarnation computed (paper
ref. [44]: moments, min/max, threshold exceedance) onto the
:class:`~repro.stats.protocol.FieldStatistic` protocol.  All three carry
exact Chan/Pebay pairwise merges, so they enjoy the full fault-tolerance
guarantee across respawn and replay.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.stats.extrema import IterativeExtrema, ThresholdExceedance
from repro.stats.moments import IterativeMoments
from repro.stats.protocol import FieldStatistic, StatContext, register


@register
class MomentsStatistic(FieldStatistic):
    """Central moments (mean .. kurtosis) of the A/B member streams.

    At order <= 2 on a server rank (``ctx.ab_moments`` set) nothing is
    kept or folded: count, mean and M2 are the Chan combination of the
    Sobol' engine's own A-row and B-row moments, read when asked for.
    Its state_dict then carries no arrays; the engine's state holds them.
    Order 3-4, and any instance without the seam, streams the rows.
    """

    name = "moments"
    description = "one-pass central moments: mean, variance, skewness, kurtosis"
    PARAMS = {"order": "2"}

    _RESULTS = ("mean", "variance", "skewness", "kurtosis")

    def __init__(self, ctx: StatContext, params=None):
        super().__init__(ctx, params)
        self.order = int(self.params["order"])
        self.streams = self.order > 2 or ctx.ab_moments is None
        self._stream = (
            IterativeMoments(self.shape, order=self.order) if self.streams else None
        )

    @property
    def _moments(self) -> IterativeMoments:
        if self._stream is not None:
            return self._stream
        count, mean, m2 = self.ctx.ab_moments(self.ctx.timestep)
        a, b = (
            IterativeMoments.from_state_dict(
                {"count": count, "order": self.order, "mean": mean[i], "m2": m2[i]}
            )
            for i in (0, 1)
        )
        a.merge(b)
        return a

    @classmethod
    def canonical_value(cls, key: str, value: str) -> str:
        canon = cls._canon_int(value)
        if int(canon) not in (1, 2, 3, 4):
            raise ValueError(f"moments order must be 1..4, got {canon}")
        return canon

    def update(self, sample: np.ndarray) -> None:
        self._stream.update(sample)

    def merge(self, other: "MomentsStatistic") -> None:
        if self._stream is None or other._stream is None:
            raise ValueError(
                "moments read from a rank's Sobol' engine merge with the engine"
            )
        self._stream.merge(other._stream)

    def state_dict(self) -> dict:
        if self._stream is None:
            return {"order": self.order}
        return self._stream.state_dict()

    def load_state(self, state: dict) -> None:
        if state.get("order") != self.order or ("mean" in state) != self.streams:
            raise ValueError("moments state does not match configured statistic")
        if self.streams:
            moments = IterativeMoments.from_state_dict(state)
            if moments.shape != self.shape:
                raise ValueError("moments state does not match configured statistic")
            self._stream = moments

    @property
    def result_names(self) -> Tuple[str, ...]:
        return self._RESULTS[: self.order]

    def finalize(self) -> Dict[str, np.ndarray]:
        m = self._moments
        out: Dict[str, np.ndarray] = {"mean": m.mean.copy()}
        if self.order >= 2:
            out["variance"] = m.variance
        if self.order >= 3:
            out["skewness"] = m.skewness
        if self.order >= 4:
            out["kurtosis"] = m.kurtosis
        return out

    # direct access used by tests
    @property
    def count(self) -> int:
        return self._moments.count

    @property
    def mean(self) -> np.ndarray:
        return self._moments.mean

    @property
    def variance(self) -> np.ndarray:
        return self._moments.variance


@register
class ExtremaStatistic(FieldStatistic):
    """Elementwise running min/max of the A/B member streams."""

    name = "extrema"
    description = "per-cell running minimum and maximum"
    PARAMS: Dict[str, str] = {}

    def __init__(self, ctx: StatContext, params=None):
        super().__init__(ctx, params)
        self._extrema = IterativeExtrema(self.shape)

    def update(self, sample: np.ndarray) -> None:
        self._extrema.update(sample)

    def merge(self, other: "ExtremaStatistic") -> None:
        self._extrema.merge(other._extrema)

    def state_dict(self) -> dict:
        return self._extrema.state_dict()

    def load_state(self, state: dict) -> None:
        extrema = IterativeExtrema.from_state_dict(state)
        if extrema.shape != self.shape:
            raise ValueError("extrema state does not match configured statistic")
        self._extrema = extrema

    @property
    def result_names(self) -> Tuple[str, ...]:
        return ("minimum", "maximum")

    def finalize(self) -> Dict[str, np.ndarray]:
        return {
            "minimum": self._extrema.minimum.copy(),
            "maximum": self._extrema.maximum.copy(),
        }


@register
class ExceedanceStatistic(FieldStatistic):
    """Empirical threshold-exceedance probability maps, one per threshold.

    Counts are integers, so the merge is bit-exact regardless of stream
    order — the strongest fault-tolerance guarantee in the catalog.
    """

    name = "exceedance"
    description = "P(Y > threshold) per cell, one map per threshold"
    PARAMS = {"thresholds": None}  # required

    def __init__(self, ctx: StatContext, params=None):
        super().__init__(ctx, params)
        self.thresholds = self._parse_float_list(self.params["thresholds"])
        self._counters = [
            ThresholdExceedance(self.shape, threshold=t) for t in self.thresholds
        ]

    @classmethod
    def canonical_value(cls, key: str, value: str) -> str:
        return cls._canon_float_list(value)

    def update(self, sample: np.ndarray) -> None:
        for counter in self._counters:
            counter.update(sample)

    def merge(self, other: "ExceedanceStatistic") -> None:
        if other.thresholds != self.thresholds:
            raise ValueError("cannot merge exceedance maps with different thresholds")
        for mine, theirs in zip(self._counters, other._counters):
            mine.merge(theirs)

    def state_dict(self) -> dict:
        return {"counters": [c.state_dict() for c in self._counters]}

    def load_state(self, state: dict) -> None:
        counters = [ThresholdExceedance.from_state_dict(s) for s in state["counters"]]
        if tuple(c.threshold for c in counters) != self.thresholds:
            raise ValueError("exceedance state does not match configured thresholds")
        self._counters = counters

    @property
    def result_names(self) -> Tuple[str, ...]:
        return tuple(f"exceedance_{t:g}" for t in self.thresholds)

    def finalize(self) -> Dict[str, np.ndarray]:
        return {
            f"exceedance_{c.threshold:g}": c.probability for c in self._counters
        }
