"""Iterative (one-pass) statistics substrate.

This package implements the numerically-stable, single-pass update formulas
that make in-transit sensitivity analysis possible (paper Sec. 3.1).  All
estimators accept either scalars or NumPy arrays of a fixed *field shape*;
array updates are fully vectorized so a 10M-cell field costs one fused pass
over the data, never a Python-level loop.

The formulas follow Welford (1962) for mean/variance, Pebay (SAND2008-6212)
for arbitrary-order central moments and co-moments, and Chan/Golub/LeVeque
for the pairwise *merge* operations used to combine partial statistics
computed on disjoint sample partitions (parallel reduction trees).

Exactness invariant
-------------------
Every iterative estimator here is algebraically identical to its two-pass
(batch) counterpart; tests assert agreement to floating-point tolerance.
This is the property the paper relies on when it replaces postmortem
statistics with on-the-fly updates.
"""

from repro.stats.moments import IterativeMoments, batch_central_moments
from repro.stats.extrema import IterativeExtrema, ThresholdExceedance
from repro.stats.protocol import (
    FieldStatistic,
    StatContext,
    available_statistics,
    canonicalize_spec,
    canonicalize_specs,
    lookup,
    register,
)
from repro.stats.pipeline import StatisticsPipeline

# importing the plugin modules populates the registry
from repro.stats import plugins as _plugins  # noqa: F401
from repro.stats import sketches as _sketches  # noqa: F401
from repro.stats import sobol_pairs as _sobol_pairs  # noqa: F401

__all__ = [
    "IterativeMoments",
    "IterativeExtrema",
    "ThresholdExceedance",
    "FieldStatistic",
    "StatContext",
    "StatisticsPipeline",
    "register",
    "lookup",
    "available_statistics",
    "canonicalize_spec",
    "canonicalize_specs",
    "batch_central_moments",
]
