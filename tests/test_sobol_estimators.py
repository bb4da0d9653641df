"""Validation of the iterative Martinez engine and the reference paths.

Covers exactness (iterative == two-pass Martinez), convergence to analytic
indices (Ishigami, g-function, linear), order-independence of updates,
merge correctness, and confidence-interval behaviour.  Scalar-output
studies run on a one-cell, one-timestep field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import draw_design
from repro.sobol import (
    GFunction,
    IshigamiFunction,
    LinearFunction,
    UbiquitousSobolField,
    first_order_confidence_interval,
    jansen_indices,
    martinez_indices,
    saltelli_indices,
    sobol_indices,
    total_order_confidence_interval,
)
from repro.sobol.reference import all_estimators

from sobol_reference import assert_matches_two_pass, feed


def evaluate_design(fn, design):
    """Return (y_a, y_b, y_c) scalar output stacks for a design."""
    y_a = fn(design.a)
    y_b = fn(design.b)
    y_c = np.stack([fn(design.c_matrix(k)) for k in range(design.nparams)])
    return y_a, y_b, y_c


def scalar_stream(y_a, y_b, y_c):
    """``(ngroups, 1, p+2, 1)`` stream of scalar group outputs."""
    return np.column_stack([y_a, y_b, y_c.T])[:, None, :, None]


def run_iterative(fn, design):
    stream = scalar_stream(*evaluate_design(fn, design))
    return feed(UbiquitousSobolField(design.nparams, 1, 1), stream), stream


def indices(field):
    """Scalar ``(S, ST)``, each of shape ``(p,)``."""
    first, total = field.index_maps_at(0)
    return first[:, 0], total[:, 0]


class TestIterativeEqualsTwoPass:
    """The paper's exactness claim: iterative formulas match batch exactly."""

    @pytest.mark.parametrize("fn", [IshigamiFunction(), GFunction((0.0, 1.0, 9.0)), LinearFunction()])
    def test_matches_reference_martinez(self, fn):
        design = draw_design(fn.space(), 128, seed=3)
        field, stream = run_iterative(fn, design)
        assert_matches_two_pass(field, stream)

    def test_update_order_invariance(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 64, seed=11)
        stream = scalar_stream(*evaluate_design(fn, design))
        order = np.random.default_rng(0).permutation(64)
        in_order = feed(UbiquitousSobolField(3, 1, 1), stream)
        shuffled = feed(UbiquitousSobolField(3, 1, 1), stream[order])
        for got, want in zip(indices(shuffled), indices(in_order)):
            np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_merge_equals_single_stream(self):
        fn = GFunction((0.5, 2.0, 9.0, 99.0))
        design = draw_design(fn.space(), 100, seed=5)
        stream = scalar_stream(*evaluate_design(fn, design))
        full = feed(UbiquitousSobolField(4, 1, 1), stream)
        part1 = feed(UbiquitousSobolField(4, 1, 1), stream[:40])
        part1.merge(feed(UbiquitousSobolField(4, 1, 1), stream[40:]))
        assert part1.state_dict()["counts"][0] == 100
        for got, want in zip(indices(part1), indices(full)):
            np.testing.assert_allclose(got, want, rtol=1e-9)


class TestConvergenceToAnalytic:
    def test_ishigami_first_order(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 6000, seed=7)
        field, _ = run_iterative(fn, design)
        np.testing.assert_allclose(indices(field)[0], fn.first_order, atol=0.03)

    def test_ishigami_total_order(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 6000, seed=8)
        field, _ = run_iterative(fn, design)
        np.testing.assert_allclose(indices(field)[1], fn.total_order, atol=0.04)

    def test_gfunction_ranking(self):
        fn = GFunction((0.0, 1.0, 4.5, 9.0))
        design = draw_design(fn.space(), 4000, seed=9)
        field, _ = run_iterative(fn, design)
        s = indices(field)[0]
        # importance ordering must match the analytic profile (a ascending)
        assert s[0] > s[1] > s[2] > s[3]
        np.testing.assert_allclose(s, fn.first_order, atol=0.05)

    def test_linear_function_exact_shares(self):
        fn = LinearFunction(coefficients=(1.0, 2.0, 4.0))
        design = draw_design(fn.space(), 8000, seed=10)
        field, _ = run_iterative(fn, design)
        s = indices(field)[0]
        np.testing.assert_allclose(s, fn.first_order, atol=0.03)
        # additive model: interactions vanish
        assert abs(1.0 - s.sum()) < 0.06

    def test_output_variance_tracks_truth(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 5000, seed=12)
        field, _ = run_iterative(fn, design)
        assert float(field.variance_map(0)[0]) == pytest.approx(
            fn.total_variance, rel=0.1
        )


class TestReferenceEstimators:
    def test_all_estimators_agree_at_large_n(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 8000, seed=13)
        y = evaluate_design(fn, design)
        results = all_estimators(*y)
        for name, (s, st_) in results.items():
            np.testing.assert_allclose(s, fn.first_order, atol=0.06, err_msg=name)
            np.testing.assert_allclose(st_, fn.total_order, atol=0.06, err_msg=name)

    def test_jansen_saltelli_sobol_shapes(self):
        fn = GFunction((1.0, 2.0))
        design = draw_design(fn.space(), 50, seed=1)
        y = evaluate_design(fn, design)
        for est_fn in (jansen_indices, saltelli_indices, sobol_indices):
            s, st_ = est_fn(*y)
            assert s.shape == (2,)
            assert st_.shape == (2,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            martinez_indices(np.zeros(5), np.zeros(4), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            martinez_indices(np.zeros(5), np.zeros(5), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            martinez_indices(np.zeros(1), np.zeros(1), np.zeros((2, 1)))


class TestConfidenceIntervals:
    def test_insufficient_groups_gives_nan(self):
        lo, hi = first_order_confidence_interval(0.5, 3)
        assert np.isnan(lo) and np.isnan(hi)

    def test_interval_contains_estimate(self):
        lo, hi = first_order_confidence_interval(0.4, 100)
        assert lo < 0.4 < hi

    def test_interval_shrinks_with_n(self):
        w_small = np.ptp(first_order_confidence_interval(0.3, 20))
        w_large = np.ptp(first_order_confidence_interval(0.3, 2000))
        assert w_large < w_small

    def test_total_interval_orientation(self):
        lo, hi = total_order_confidence_interval(0.6, 50)
        assert lo < 0.6 < hi

    def test_extreme_estimates_finite(self):
        lo, hi = first_order_confidence_interval(1.0, 30)
        assert np.isfinite(lo) and np.isfinite(hi)
        lo, hi = total_order_confidence_interval(0.0, 30)
        assert np.isfinite(lo) and np.isfinite(hi)

    def test_bounds_clipped_to_valid_range(self):
        """Regression: ST=0.5 at n=10 used to give an upper bound ~1.19,
        inflating max_interval_width (the Sec. 4.1.5 convergence scalar)."""
        lo, hi = total_order_confidence_interval(0.5, 10)
        assert 0.0 <= lo <= hi <= 1.0
        assert hi <= 1.0 + 1e-15
        lo, hi = first_order_confidence_interval(-0.3, 10)
        assert 0.0 <= lo <= hi <= 1.0
        # interval widths can never exceed the index's full range now
        for st in np.linspace(0.0, 1.0, 11):
            lo, hi = total_order_confidence_interval(st, 5)
            assert hi - lo <= 1.0 + 1e-15

    def test_coverage_monte_carlo(self):
        """~95% of Fisher CIs should contain the true Ishigami S1."""
        fn = IshigamiFunction()
        hits = 0
        trials = 60
        n = 300
        for t in range(trials):
            design = draw_design(fn.space(), n, seed=1000 + t)
            field, _ = run_iterative(fn, design)
            lo, hi = first_order_confidence_interval(indices(field)[0][0], n)
            if lo <= fn.first_order[0] <= hi:
                hits += 1
        # generous band: asymptotic interval, finite trials
        assert hits / trials >= 0.82

    def test_max_interval_width_decreases(self):
        fn = IshigamiFunction()
        design = draw_design(fn.space(), 800, seed=77)
        stream = scalar_stream(*evaluate_design(fn, design))
        field = feed(UbiquitousSobolField(3, 1, 1), stream[:10])
        w10 = field.max_interval_width()
        feed(field, stream[10:])
        assert field.max_interval_width() < w10

    def test_max_interval_width_inf_early(self):
        assert UbiquitousSobolField(2, 1, 1).max_interval_width() == float("inf")


class TestUbiquitousField:
    def test_field_updates_per_timestep(self):
        rng = np.random.default_rng(0)
        fld = UbiquitousSobolField(nparams=2, ntimesteps=3, ncells=5)
        for g in range(40):
            for t in range(3):
                fld.update_group_buffer(t, rng.normal(size=(4, 5)))
        assert list(fld.state_dict()["counts"]) == [40, 40, 40]
        first, total = fld.index_maps_at(1)
        assert first.shape == total.shape == (2, 5)
        assert fld.variance_map(2).shape == (5,)
        assert np.isfinite(fld.max_interval_width())

    def test_memory_is_group_independent(self):
        fld = UbiquitousSobolField(nparams=6, ntimesteps=10, ncells=100)
        m = fld.memory_floats
        # stacked engine: (p+2) means + (p+2) second moments + 2p
        # co-moments per timestep — less than half of 2p independent
        # covariance pairs (5 arrays each) plus the output moments
        assert m == (4 * 6 + 4) * 100 * 10
        assert m < (2 * 6 * 5 + 2) * 100 * 10

    def test_state_roundtrip(self):
        rng = np.random.default_rng(1)
        fld = UbiquitousSobolField(nparams=2, ntimesteps=2, ncells=4)
        for g in range(10):
            for t in range(2):
                fld.update_group_buffer(t, rng.normal(size=(4, 4)))
        fld2 = UbiquitousSobolField.from_state_dict(fld.state_dict())
        for got, want in zip(fld2.index_maps_at(1), fld.index_maps_at(1)):
            np.testing.assert_allclose(got, want)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UbiquitousSobolField(2, 0, 5)
        with pytest.raises(ValueError):
            UbiquitousSobolField(0, 1, 5)

    def test_wrong_member_count_rejected(self):
        fld = UbiquitousSobolField(3, 1, 1)
        with pytest.raises(ValueError):
            fld.update_group_buffer(0, np.zeros((4, 1)))  # p+1 members, not p+2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=8, max_value=40))
def test_property_indices_bounded_for_random_models(p, n):
    """Martinez estimates are correlations, hence always within [-1, 1]."""
    rng = np.random.default_rng(p * 100 + n)
    field = feed(UbiquitousSobolField(p, 1, 1), rng.normal(size=(n, 1, p + 2, 1)))
    s, st_ = indices(field)
    assert np.all(s <= 1.0 + 1e-9) and np.all(s >= -1.0 - 1e-9)
    assert np.all(st_ >= -1e-9 - 1.0) and np.all(st_ <= 2.0 + 1e-9)
