"""The Sobol' engine's co-moment state as a one-pass covariance.

Every Martinez index is a Pearson correlation of two synchronized streams,
so the engine's whole state is running co-moments.  With p = 1 the B and
C^1 members of each group buffer are one paired sample ``(x, y)``:
``mean[t, 1]`` / ``mean[t, 2]`` are their running means, ``m2[t, 1]`` /
``m2[t, 2]`` their centered second-moment sums, ``cxy[t, 1, 0]`` their
co-moment sum, and the first-order map their correlation.  Checked against
NumPy's two-pass ``cov`` / ``corrcoef``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sobol.martinez import UbiquitousSobolField

RNG = np.random.default_rng(99)


def feed(xs, ys, ncells=1):
    """A p = 1 field fed ``(x, y)`` as its (B, C^1) rows (A = x)."""
    field = UbiquitousSobolField(1, 1, ncells)
    for x, y in zip(xs, ys):
        field.update_group_buffer(0, np.reshape([x, x, y], (3, ncells)))
    return field


def state(field):
    """``(count, mean_x, mean_y, m2_x, m2_y, cxy)`` of the (B, C^1) pair."""
    s = field.state_dict()
    mean, m2 = s["mean"][0], s["m2"][0]
    return s["counts"][0], mean[1], mean[2], m2[1], m2[2], s["cxy"][0, 1, 0]


def covariance(field):
    n, _, _, m2_x, m2_y, cxy = state(field)
    return cxy / (n - 1), m2_x / (n - 1), m2_y / (n - 1)


def correlation(field):
    return field.index_maps_at(0)[0][0]


class TestCovariance:
    def test_empty_and_single(self):
        field = feed([], [])
        assert np.isnan(correlation(field)).all()
        field.update_group_buffer(0, np.array([[1.0], [1.0], [2.0]]))
        assert np.isnan(correlation(field)).all()
        n, mean_x, mean_y, *_ = state(field)
        assert n == 1
        assert mean_x[0] == pytest.approx(1.0)
        assert mean_y[0] == pytest.approx(2.0)

    def test_matches_numpy_cov(self):
        x = RNG.normal(size=400)
        y = 0.3 * x + RNG.normal(size=400)
        cov, var_x, var_y = covariance(feed(x, y))
        ref = np.cov(x, y, ddof=1)
        assert cov[0] == pytest.approx(ref[0, 1])
        assert var_x[0] == pytest.approx(ref[0, 0])
        assert var_y[0] == pytest.approx(ref[1, 1])

    def test_correlation_matches_numpy(self):
        x = RNG.normal(size=300)
        y = -0.7 * x + 0.2 * RNG.normal(size=300)
        assert correlation(feed(x, y))[0] == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_perfect_correlation(self):
        x = np.arange(50.0)
        assert correlation(feed(x, 2.0 * x + 1.0))[0] == pytest.approx(1.0)
        assert correlation(feed(x, -x))[0] == pytest.approx(-1.0)

    def test_zero_variance_gives_nan_correlation(self):
        assert np.isnan(correlation(feed([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))).all()

    def test_field_shape(self):
        xs = RNG.normal(size=(60, 8))
        ys = RNG.normal(size=(60, 8)) + 0.5 * xs
        cov, _, _ = covariance(feed(xs, ys, ncells=8))
        for j in range(8):
            ref = np.cov(xs[:, j], ys[:, j], ddof=1)[0, 1]
            assert cov[j] == pytest.approx(ref)

    def test_numerical_stability_large_offset(self):
        x = 1e8 + RNG.normal(size=500)
        y = -1e8 + 0.5 * (x - 1e8) + RNG.normal(size=500)
        cov, _, _ = covariance(feed(x, y))
        ref = np.cov(x, y, ddof=1)[0, 1]
        assert cov[0] == pytest.approx(ref, rel=1e-6)

    def test_shape_mismatch(self):
        field = UbiquitousSobolField(1, 1, 3)
        with pytest.raises(ValueError):
            field.update_group_buffer(0, np.zeros((3, 4)))


class TestCovarianceMerge:
    def test_merge_equals_full_stream(self):
        x = RNG.normal(size=200)
        y = RNG.normal(size=200) + 0.4 * x
        a = feed(x[:77], y[:77])
        a.merge(feed(x[77:], y[77:]))
        n, _, mean_y, m2_x, _, cxy = state(a)
        _, _, ref_mean_y, ref_m2_x, _, ref_cxy = state(feed(x, y))
        np.testing.assert_allclose(cxy, ref_cxy, rtol=1e-9)
        np.testing.assert_allclose(m2_x, ref_m2_x, rtol=1e-9)
        np.testing.assert_allclose(mean_y, ref_mean_y)
        assert n == 200

    def test_merge_into_empty_and_noop(self):
        x, y = RNG.normal(size=30), RNG.normal(size=30)
        a = feed([], [])
        a.merge(feed(x, y))
        assert state(a)[0] == 30
        a.merge(feed([], []))
        assert state(a)[0] == 30

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            UbiquitousSobolField(1, 1, 2).merge(UbiquitousSobolField(1, 1, 3))


class TestStateDict:
    def test_roundtrip_continues_identically(self):
        x, y = RNG.normal(size=40), RNG.normal(size=40)
        c = feed(x, y)
        c2 = UbiquitousSobolField.from_state_dict(c.state_dict())
        for xv, yv in zip(RNG.normal(size=5), RNG.normal(size=5)):
            buf = np.array([[xv], [xv], [yv]])
            c.update_group_buffer(0, buf.copy())
            c2.update_group_buffer(0, buf.copy())
        np.testing.assert_array_equal(state(c)[-1], state(c2)[-1])


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=2, max_value=40),
        elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    ),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_property_cov_matches_two_pass(xs, slope, noise_scale):
    ys = slope * xs + noise_scale * np.sin(xs)
    cxy = state(feed(xs, ys))[-1][0]
    mx, my = xs.mean(), ys.mean()
    two_pass = ((xs - mx) * (ys - my)).sum()
    scale = max(1.0, abs(two_pass))
    assert abs(cxy - two_pass) <= 1e-6 * scale


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=3, max_value=40),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
)
def test_property_correlation_bounded(xs):
    ys = np.cos(xs) + 0.1 * xs
    r = float(correlation(feed(xs, ys))[0])
    if not np.isnan(r):
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
