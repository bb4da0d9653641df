"""Sobol' index engine: iterative Martinez estimator plus reference paths.

The paper's core numerical contribution (Sec. 3.3): first-order and total
Sobol' indices expressed as Pearson correlations over pick-freeze outputs,

    S_k  =     corr(Y^B, Y^{C^k})        (Eq. 5)
    ST_k = 1 - corr(Y^A, Y^{C^k})        (Eq. 6)

updated one simulation group at a time with one-pass co-moment formulas, so
the server never stores the ensemble.  Fisher-z asymptotic confidence
intervals (Eq. 8-9) come for free from the correlation form.

One engine, one reference: ``martinez`` holds the iterative engine
(:class:`UbiquitousSobolField`, what every server rank runs);
``reference`` holds classical two-pass estimators (Martinez, Jansen,
Saltelli, Sobol) — its Martinez form is the reference the engine is
validated against — and ``analytic`` holds test functions with
exactly-known indices (Ishigami, g-function).
"""

from repro.sobol.martinez import UbiquitousSobolField
from repro.sobol.confidence import (
    first_order_confidence_interval,
    total_order_confidence_interval,
)
from repro.sobol.reference import (
    martinez_indices,
    jansen_indices,
    saltelli_indices,
    sobol_indices,
)
from repro.sobol.analytic import IshigamiFunction, GFunction, LinearFunction

__all__ = [
    "UbiquitousSobolField",
    "first_order_confidence_interval",
    "total_order_confidence_interval",
    "martinez_indices",
    "jansen_indices",
    "saltelli_indices",
    "sobol_indices",
    "IshigamiFunction",
    "GFunction",
    "LinearFunction",
]
