"""The one reference the Sobol' engine is checked against.

Two passes over the stream a field was fed: :func:`martinez_indices` for
the index maps (Eq. 5-6), NumPy for the mean and unbiased variance of the
A member, the Eq. 8-9 interval functions applied to those maps with the
per-timestep group counts for the convergence scalar, and
``1 - corr(Y^Ci, Y^Cj)`` for pair totals.  The engine differs from these
only by floating-point reassociation, hence rtol 1e-10 (atol 1e-12 for
near-zero correlations).

A *stream* is either a ``(ngroups, ntimesteps, p+2, ncells)`` array (every
group fed at every timestep) or a sequence indexed by timestep of
``(n_t, p+2, ncells)`` arrays (uneven per-timestep counts).
"""

import numpy as np

from repro.sobol.confidence import (
    first_order_confidence_interval,
    total_order_confidence_interval,
)
from repro.sobol.reference import martinez_indices

RTOL = 1e-10
ATOL = 1e-12


def random_stream(nparams, ntimesteps, ncells, ngroups, seed=0, loc=0.0, scale=1.0):
    """Normal ``(ngroups, ntimesteps, p+2, ncells)`` member outputs."""
    rng = np.random.default_rng(seed)
    return rng.normal(loc=loc, scale=scale,
                      size=(ngroups, ntimesteps, nparams + 2, ncells))


def feed(field, stream):
    """Fold every ``(group, timestep)`` buffer of a 4-D stream, in order."""
    for g in range(stream.shape[0]):
        for t in range(stream.shape[1]):
            field.update_group_buffer(t, stream[g, t].copy())
    return field


def per_timestep(stream):
    """The ``(n_t, p+2, ncells)`` rows each timestep was fed."""
    if isinstance(stream, np.ndarray):
        return list(np.swapaxes(stream, 0, 1))
    return [np.asarray(rows) for rows in stream]


def two_pass_maps(rows):
    """``(first, total, variance, mean)`` of one timestep's rows."""
    y_a = rows[:, 0]
    first, total = martinez_indices(y_a, rows[:, 1], np.swapaxes(rows[:, 2:], 0, 1))
    return first, total, np.var(y_a, axis=0, ddof=1), np.mean(y_a, axis=0)


def assert_matches_two_pass(field, stream, rtol=RTOL, atol=ATOL):
    """Counts and every map of ``field`` against the two-pass reference."""
    counts = field.state_dict()["counts"]
    for t, rows in enumerate(per_timestep(stream)):
        assert counts[t] == len(rows), f"timestep {t}"
        first, total, variance, mean = two_pass_maps(rows)
        got_first, got_total = field.index_maps_at(t)
        for name, got, want in (
            ("first", got_first, first),
            ("total", got_total, total),
            ("variance", field.variance_map(t), variance),
            ("mean", field.mean_map(t), mean),
        ):
            np.testing.assert_allclose(
                got, want, rtol=rtol, atol=atol, err_msg=f"{name} at t={t}"
            )


def two_pass_interval_width(stream, z=1.96):
    """The Sec. 4.1.5 convergence scalar from Eq. 8-9 on two-pass maps.

    Per timestep the widest finite CI over parameters and cells (``inf``
    with three groups or fewer, ``nan`` when no cell is finite); then the
    largest over timesteps, skipping ``nan``.
    """
    widths = []
    for rows in per_timestep(stream):
        n = len(rows)
        if n <= 3:
            widths.append(float("inf"))
            continue
        first, total, _, _ = two_pass_maps(rows)
        spans = [
            hi - lo
            for lo, hi in (
                first_order_confidence_interval(first, n, z),
                total_order_confidence_interval(total, n, z),
            )
        ]
        finite = np.concatenate([w[np.isfinite(w)] for w in spans])
        widths.append(float(finite.max()) if finite.size else float("nan"))
    valid = [w for w in widths if not np.isnan(w)]
    return max(valid) if valid else float("nan")


def two_pass_pair_total(y_ci, y_cj):
    """Pair total ``ST_ij = 1 - corr(Y^Ci, Y^Cj)`` along the group axis."""
    di = y_ci - y_ci.mean(axis=0)
    dj = y_cj - y_cj.mean(axis=0)
    norm = np.sqrt((di * di).sum(axis=0) * (dj * dj).sum(axis=0))
    return 1.0 - (di * dj).sum(axis=0) / norm
