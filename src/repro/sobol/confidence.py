"""Fisher-z asymptotic confidence intervals for Martinez Sobol' estimates.

Implements Eq. 8 (first-order) and Eq. 9 (total) of the paper.  Because the
Martinez estimator is a plain Pearson correlation, the classical Fisher
transformation ``z = atanh(r)`` is asymptotically normal with standard
error ``1/sqrt(i - 3)`` after ``i`` groups, giving

    S_k  in  tanh(atanh(S_k)  +- z_alpha / sqrt(i-3))
    ST_k in  1 - tanh(atanh(1 - ST_k) -+ z_alpha / sqrt(i-3))

(the total-index bounds swap because of the ``1 -`` reflection).  The
formulas need only the current estimate and the group count — exactly why
the paper picked Martinez for the iterative setting (Sec. 3.3).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Two-sided 95% normal quantile used throughout the paper.
Z_95 = 1.96


def _atanh_clipped(r: ArrayLike) -> np.ndarray:
    """atanh with the argument clipped strictly inside (-1, 1).

    Estimates can touch +-1 exactly (e.g. perfectly linear models at small
    n); clipping keeps the interval finite instead of emitting inf/nan.
    """
    r = np.clip(np.asarray(r, dtype=np.float64), -1.0 + 1e-12, 1.0 - 1e-12)
    return np.arctanh(r)


def first_order_confidence_interval(
    s: ArrayLike, ngroups: int, z: float = Z_95
) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds of the first-order index at confidence ``z``.

    Returns ``(nan, nan)`` fields when ``ngroups <= 3`` (the Fisher standard
    error ``1/sqrt(i-3)`` is undefined), matching the paper's validity
    domain.
    """
    s = np.asarray(s, dtype=np.float64)
    if ngroups <= 3:
        nan = np.full(s.shape, np.nan)
        return nan, nan
    half_width = z / np.sqrt(ngroups - 3.0)
    zr = _atanh_clipped(s)
    # a Sobol' index lives in [0, 1]; the raw Fisher bounds can stray
    # outside (the correlation lives in [-1, 1]) and would inflate the
    # Sec. 4.1.5 convergence scalar with mass the index cannot carry
    lower = np.clip(np.tanh(zr - half_width), 0.0, 1.0)
    upper = np.clip(np.tanh(zr + half_width), 0.0, 1.0)
    return lower, upper


def total_order_confidence_interval(
    st: ArrayLike, ngroups: int, z: float = Z_95
) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds of the total index at confidence ``z``.

    Derived by transforming the correlation ``rho = 1 - ST`` (Eq. 9): note
    ``(1+rho)/(1-rho) = (2-ST)/ST``, so the bound signs flip under the
    reflection.
    """
    st = np.asarray(st, dtype=np.float64)
    if ngroups <= 3:
        nan = np.full(st.shape, np.nan)
        return nan, nan
    half_width = z / np.sqrt(ngroups - 3.0)
    zr = _atanh_clipped(1.0 - st)
    # clip to the index's valid range [0, 1]: the reflected Fisher bound
    # can exceed 1 (e.g. ST=0.5 at n=10 gives an upper of ~1.19), which
    # inflated max_interval_width and stalled convergence control
    lower = np.clip(1.0 - np.tanh(zr + half_width), 0.0, 1.0)
    upper = np.clip(1.0 - np.tanh(zr - half_width), 0.0, 1.0)
    return lower, upper

