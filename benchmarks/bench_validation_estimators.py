"""V1: estimator validation — exactness, convergence, throughput.

Not a paper figure, but the foundation every figure rests on (Sec. 3):

* the iterative Martinez path equals the two-pass reference *exactly*;
* estimates converge to the analytic Ishigami/g-function indices at the
  Monte-Carlo rate;
* the 95% Fisher-z intervals cover the truth ~95% of the time;
* one-pass updates are fast enough that the server is compute-light
  (the paper's server burned ~2% of the campaign's CPU time).
"""

import itertools

import numpy as np

from repro.report import format_table
from repro.sampling import draw_design
from repro.sobol import (
    GFunction,
    IshigamiFunction,
    UbiquitousSobolField,
    first_order_confidence_interval,
    martinez_indices,
)
from repro.sobol.reference import all_estimators


def evaluate(fn, design):
    y_a = fn(design.a)
    y_b = fn(design.b)
    y_c = np.stack([fn(design.c_matrix(k)) for k in range(design.nparams)])
    return y_a, y_b, y_c


def fold_scalar(y_a, y_b, y_c):
    """A one-cell, one-timestep engine fed every group's outputs."""
    field = UbiquitousSobolField(y_c.shape[0], 1, 1)
    for row in np.column_stack([y_a, y_b, y_c.T]):
        field.update_group_buffer(0, row[:, None])
    return field


def test_iterative_equals_two_pass(benchmark):
    fn = IshigamiFunction()
    design = draw_design(fn.space(), 2000, seed=1)
    y_a, y_b, y_c = evaluate(fn, design)

    field = benchmark(fold_scalar, y_a, y_b, y_c)
    first, total = field.index_maps_at(0)
    s_ref, st_ref = martinez_indices(y_a, y_b, y_c)
    np.testing.assert_allclose(first[:, 0], s_ref, rtol=1e-10)
    np.testing.assert_allclose(total[:, 0], st_ref, rtol=1e-10)


def test_convergence_rate(results_dir, benchmark):
    """Error decays ~ n^-1/2; table written for EXPERIMENTS.md."""
    fn = IshigamiFunction()
    sizes = (250, 1000, 4000, 16000)

    def errors():
        rows = []
        for n in sizes:
            design = draw_design(fn.space(), n, seed=7)
            y = evaluate(fn, design)
            s, st = martinez_indices(*y)
            rows.append((
                n,
                float(np.abs(s - fn.first_order).max()),
                float(np.abs(st - fn.total_order).max()),
            ))
        return rows

    rows = benchmark.pedantic(errors, rounds=1, iterations=1)
    (results_dir / "table_convergence.txt").write_text(
        format_table(["n groups", "max |S err|", "max |ST err|"], rows,
                     title="V1: Ishigami convergence (Martinez estimator)")
        + "\n"
    )
    errs = [r[1] for r in rows]
    assert errs[-1] < errs[0]
    # roughly Monte-Carlo: 64x more samples ~ 8x less error (loose band)
    assert errs[-1] < errs[0] / 3


def test_estimator_family_agreement(results_dir, benchmark):
    """All four classical estimators agree at large n (stability check
    the paper cites Baudin et al. for)."""
    fn = GFunction((0.0, 1.0, 4.5, 9.0))
    design = draw_design(fn.space(), 8000, seed=3)
    y = evaluate(fn, design)
    results = benchmark.pedantic(
        lambda: all_estimators(*y), rounds=1, iterations=1
    )
    rows = []
    for name, (s, st) in results.items():
        rows.append([name] + [f"{v:.4f}" for v in s])
    rows.append(["analytic"] + [f"{v:.4f}" for v in fn.first_order])
    (results_dir / "table_estimators.txt").write_text(
        format_table(["estimator", "S1", "S2", "S3", "S4"], rows,
                     title="V1: estimator family on the g-function") + "\n"
    )
    for name, (s, st) in results.items():
        np.testing.assert_allclose(s, fn.first_order, atol=0.05, err_msg=name)


def test_confidence_interval_coverage(benchmark):
    """~95% of Fisher-z intervals contain the true S1 (Eq. 8)."""
    fn = IshigamiFunction()

    def coverage():
        hits = 0
        trials = 80
        for t in range(trials):
            design = draw_design(fn.space(), 400, seed=5000 + t)
            first, _ = fold_scalar(*evaluate(fn, design)).index_maps_at(0)
            lo, hi = first_order_confidence_interval(first[0, 0], 400)
            if lo <= fn.first_order[0] <= hi:
                hits += 1
        return hits / trials

    rate = benchmark.pedantic(coverage, rounds=1, iterations=1)
    assert rate >= 0.85  # asymptotic interval, finite trials


def test_field_update_throughput(benchmark):
    """One-pass group update on a 100k-cell field (the server's hot loop).

    The paper's server consumed ~2% of campaign CPU; this measures the
    cells/second a single Python rank sustains with vectorized updates.
    """
    ncells = 100_000
    nparams = 6
    field = UbiquitousSobolField(nparams, 1, ncells)
    rng = np.random.default_rng(0)
    # buffers are adopted by reference, so two distinct ones suffice
    buffers = itertools.cycle(rng.normal(size=(2, nparams + 2, ncells)))

    benchmark(lambda: field.update_group_buffer(0, next(buffers)))
    assert field.state_dict()["counts"][0] > 0
