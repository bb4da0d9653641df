"""Classical two-pass (non-iterative) Sobol' estimators for validation.

The paper notes there are "many other estimators" relying on the A/B/C^k
matrices ([38] in the text).  We implement the common four so the iterative
Martinez engine can be cross-checked:

* Martinez (correlation form) — the one reference the iterative engine is
  pinned to: same algebra, different accumulation order, so they agree to
  rtol 1e-10.
* Jansen           — ST_k from mean-square differences, S_k complementary.
* Saltelli (2010 best practice) — S_k from B.(C^k - A) inner products.
* Sobol (original 1993)        — S_k from A.C^k inner products.

All operate on stacked scalar output vectors ``y_a, y_b, y_c`` of shapes
``(n,)``, ``(n,)``, ``(p, n)``; vectorized field variants apply along the
last axis.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def _validate(y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray):
    y_a = np.asarray(y_a, dtype=np.float64)
    y_b = np.asarray(y_b, dtype=np.float64)
    y_c = np.asarray(y_c, dtype=np.float64)
    if y_a.shape != y_b.shape:
        raise ValueError("y_a and y_b must have the same shape")
    if y_c.ndim != y_a.ndim + 1 or y_c.shape[1:] != y_a.shape:
        raise ValueError("y_c must have shape (p,) + y_a.shape")
    if y_a.shape[0] < 2:
        raise ValueError("need at least 2 pick-freeze rows")
    return y_a, y_b, y_c


def martinez_indices(
    y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Two-pass Martinez estimator (paper Eq. 5-6).

    Returns ``(S, ST)`` of shape ``(p,) + field_shape``.
    """
    y_a, y_b, y_c = _validate(y_a, y_b, y_c)
    p = y_c.shape[0]
    s = np.empty((p,) + y_a.shape[1:])
    st = np.empty_like(s)
    a_c = y_a - y_a.mean(axis=0)
    b_c = y_b - y_b.mean(axis=0)
    var_a = (a_c**2).sum(axis=0)
    var_b = (b_c**2).sum(axis=0)
    for k in range(p):
        ck = y_c[k] - y_c[k].mean(axis=0)
        var_ck = (ck**2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s[k] = (b_c * ck).sum(axis=0) / np.sqrt(var_b * var_ck)
            st[k] = 1.0 - (a_c * ck).sum(axis=0) / np.sqrt(var_a * var_ck)
    return s, st


def jansen_indices(
    y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Jansen (1999) estimator.

    ``ST_k = E[(Y_A - Y_Ck)^2] / (2 Var)`` and
    ``S_k = 1 - E[(Y_B - Y_Ck)^2] / (2 Var)``.
    """
    y_a, y_b, y_c = _validate(y_a, y_b, y_c)
    n = y_a.shape[0]
    var = np.var(np.concatenate([y_a, y_b], axis=0), axis=0, ddof=1)
    p = y_c.shape[0]
    s = np.empty((p,) + y_a.shape[1:])
    st = np.empty_like(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(p):
            st[k] = ((y_a - y_c[k]) ** 2).sum(axis=0) / (2.0 * (n - 1) * var)
            s[k] = 1.0 - ((y_b - y_c[k]) ** 2).sum(axis=0) / (2.0 * (n - 1) * var)
    return s, st


def saltelli_indices(
    y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Saltelli et al. (2010) recommended estimator.

    ``S_k = mean(Y_B (Y_Ck - Y_A)) / Var`` and
    ``ST_k = mean(Y_A (Y_A - Y_Ck)) / Var``.
    """
    y_a, y_b, y_c = _validate(y_a, y_b, y_c)
    var = np.var(np.concatenate([y_a, y_b], axis=0), axis=0, ddof=1)
    p = y_c.shape[0]
    s = np.empty((p,) + y_a.shape[1:])
    st = np.empty_like(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(p):
            s[k] = (y_b * (y_c[k] - y_a)).mean(axis=0) / var
            st[k] = (y_a * (y_a - y_c[k])).mean(axis=0) / var
    return s, st


def sobol_indices(
    y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Original Sobol (1993) / Homma-Saltelli (1996) direct estimator.

    With this paper's convention (C^k = A with column k from B), Y_B and
    Y_Ck share *only* input k, so ``S_k = (mean(Y_B Y_Ck) - f0^2) / Var``;
    Y_A and Y_Ck share everything *except* k, so mean(Y_A Y_Ck) estimates
    the closed complementary index and ``ST_k = 1 - (mean(Y_A Y_Ck) -
    f0^2) / Var``.  The mean-square term uses the Homma-Saltelli
    bias-reduced form ``f0^2 = mean(Y_A) mean(Y_B)`` (product of two
    independent sample means).
    """
    y_a, y_b, y_c = _validate(y_a, y_b, y_c)
    f0_sq = y_a.mean(axis=0) * y_b.mean(axis=0)
    var = np.var(np.concatenate([y_a, y_b], axis=0), axis=0, ddof=1)
    p = y_c.shape[0]
    s = np.empty((p,) + y_a.shape[1:])
    st = np.empty_like(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(p):
            s[k] = ((y_b * y_c[k]).mean(axis=0) - f0_sq) / var
            st[k] = 1.0 - ((y_a * y_c[k]).mean(axis=0) - f0_sq) / var
    return s, st


ESTIMATORS = {
    "martinez": martinez_indices,
    "jansen": jansen_indices,
    "saltelli": saltelli_indices,
    "sobol": sobol_indices,
}


def all_estimators(
    y_a: np.ndarray, y_b: np.ndarray, y_c: np.ndarray
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Evaluate every reference estimator on the same outputs."""
    return {name: fn(y_a, y_b, y_c) for name, fn in ESTIMATORS.items()}
