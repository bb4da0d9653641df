"""Unit + property tests for the one-pass moment formulas.

The central invariant: every iterative estimator equals its two-pass
counterpart to floating-point tolerance, for scalars and fields, including
after arbitrary merge trees.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.stats import IterativeMoments, batch_central_moments

RNG = np.random.default_rng(1234)


def feed(samples, order=4, shape=()):
    m = IterativeMoments(shape=shape, order=order)
    for s in samples:
        m.update(s)
    return m


class TestScalarMoments:
    def test_empty(self):
        m = IterativeMoments()
        assert m.count == 0
        assert np.isnan(m.variance)

    def test_single_sample(self):
        m = feed([3.5])
        assert m.count == 1
        assert m.mean == pytest.approx(3.5)
        assert np.isnan(m.variance)

    def test_two_samples(self):
        m = feed([1.0, 3.0])
        assert m.mean == pytest.approx(2.0)
        assert m.variance == pytest.approx(2.0)  # unbiased: ((1)^2+(1)^2)/1

    def test_matches_numpy(self):
        x = RNG.normal(5.0, 2.0, size=500)
        m = feed(x)
        assert m.mean == pytest.approx(x.mean())
        assert m.variance == pytest.approx(x.var(ddof=1))

    def test_skewness_kurtosis_match_scipy(self):
        from scipy.stats import kurtosis, skew

        x = RNG.gamma(2.0, 1.5, size=2000)
        m = feed(x)
        assert float(m.skewness) == pytest.approx(skew(x), rel=1e-10)
        assert float(m.kurtosis) == pytest.approx(kurtosis(x), rel=1e-10)

    def test_constant_stream_zero_variance(self):
        m = feed([7.0] * 50)
        assert m.mean == pytest.approx(7.0)
        assert m.variance == pytest.approx(0.0, abs=1e-12)

    def test_numerical_stability_large_offset(self):
        # Welford's raison d'etre: mean >> std must not catastrophically cancel.
        x = 1e9 + RNG.normal(0.0, 1.0, size=1000)
        m = feed(x, order=2)
        assert m.variance == pytest.approx(x.var(ddof=1), rel=1e-6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            IterativeMoments(order=5)
        m = IterativeMoments(order=2)
        with pytest.raises(ValueError):
            _ = m.skewness

    def test_shape_mismatch_rejected(self):
        m = IterativeMoments(shape=(4,))
        with pytest.raises(ValueError):
            m.update(np.zeros(5))


class TestFieldMoments:
    def test_vectorized_equals_per_cell(self):
        field = RNG.normal(size=(40, 7))
        m = feed(field, shape=(7,))
        for j in range(7):
            mj = feed(field[:, j])
            np.testing.assert_allclose(m.mean[j], mj.mean)
            np.testing.assert_allclose(m.variance[j], mj.variance)

    def test_2d_field_shape(self):
        field = RNG.normal(size=(25, 3, 4))
        m = feed(field, shape=(3, 4))
        np.testing.assert_allclose(m.mean, field.mean(axis=0))
        np.testing.assert_allclose(m.variance, field.var(axis=0, ddof=1))


class TestMerge:
    def test_merge_equals_combined_stream(self):
        x = RNG.normal(size=300)
        a = feed(x[:120])
        b = feed(x[120:])
        a.merge(b)
        ref = feed(x)
        assert a.count == 300
        np.testing.assert_allclose(a.mean, ref.mean)
        np.testing.assert_allclose(a.m2, ref.m2, rtol=1e-9)
        np.testing.assert_allclose(a.m3, ref.m3, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(a.m4, ref.m4, rtol=1e-8, atol=1e-8)

    def test_merge_into_empty(self):
        x = RNG.normal(size=50)
        a = IterativeMoments(order=4)
        a.merge(feed(x))
        np.testing.assert_allclose(a.mean, x.mean())

    def test_merge_empty_is_noop(self):
        x = RNG.normal(size=50)
        a = feed(x)
        before = a.state_dict()
        a.merge(IterativeMoments(order=4))
        np.testing.assert_allclose(a.mean, before["mean"])
        assert a.count == 50

    def test_merge_tree_three_way(self):
        x = RNG.normal(size=90)
        parts = [feed(x[i::3]) for i in range(3)]
        parts[0].merge(parts[1])
        parts[0].merge(parts[2])
        ref = feed(x)
        np.testing.assert_allclose(parts[0].mean, ref.mean)
        np.testing.assert_allclose(parts[0].m2, ref.m2, rtol=1e-9)

    def test_merge_incompatible(self):
        with pytest.raises(ValueError):
            IterativeMoments(shape=(2,)).merge(IterativeMoments(shape=(3,)))
        with pytest.raises(ValueError):
            IterativeMoments(order=2).merge(IterativeMoments(order=3))


class TestStateDict:
    def test_roundtrip(self):
        x = RNG.normal(size=64)
        m = feed(x)
        m2 = IterativeMoments.from_state_dict(m.state_dict())
        assert m2.count == m.count
        np.testing.assert_array_equal(m2.mean, m.mean)
        # continue updating both: must stay identical
        for v in RNG.normal(size=10):
            m.update(v)
            m2.update(v)
        np.testing.assert_array_equal(m2.m4, m.m4)

    def test_copy_is_independent(self):
        m = feed(RNG.normal(size=10))
        c = m.copy()
        c.update(100.0)
        assert c.count == m.count + 1
        assert not np.allclose(c.mean, m.mean)


class TestBatchReference:
    def test_batch_matches_iterative(self):
        x = RNG.normal(size=(200, 5))
        n, mean, m2, m3, m4 = batch_central_moments(x)
        it = feed(x, shape=(5,))
        assert n == it.count
        np.testing.assert_allclose(mean, it.mean)
        np.testing.assert_allclose(m2, it.m2, rtol=1e-9)
        np.testing.assert_allclose(m3, it.m3, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(m4, it.m4, rtol=1e-7, atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=2, max_value=60),
        elements=st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_property_iterative_equals_batch(xs):
    """For any finite sample, one-pass == two-pass (mean/M2 exactly-ish)."""
    it = feed(xs)
    _, mean, m2, _, _ = batch_central_moments(xs)
    scale = max(1.0, np.abs(xs).max())
    assert abs(it.mean - mean) <= 1e-9 * scale
    assert abs(it.m2 - m2) <= 1e-6 * max(1.0, m2)


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=4, max_value=50),
        elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=49),
)
def test_property_merge_any_split(xs, split):
    """Merging any prefix/suffix split reproduces the full stream."""
    split = min(split, len(xs) - 1)
    a = feed(xs[:split])
    b = feed(xs[split:])
    a.merge(b)
    ref = feed(xs)
    assert a.count == ref.count
    np.testing.assert_allclose(a.mean, ref.mean, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(a.m2, ref.m2, rtol=1e-7, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=40))
def test_property_variance_nonnegative(values):
    m = feed(np.asarray(values), order=2)
    assert m.variance >= -1e-12


# ---------------------------------------------------------------------- #
# order-2 update against its expression form
# ---------------------------------------------------------------------- #
def expression_update(state, x):
    """The order-2 (Welford) update as one expression per line; the
    bit-exact reference."""
    n1 = state["count"]
    state["count"] = n = n1 + 1
    delta = x - state["mean"]
    delta_n = delta / n
    term1 = delta * delta_n * n1
    state["m2"] = state["m2"] + term1
    state["mean"] = state["mean"] + delta_n


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@given(
    shape=st.sampled_from([(), (5,), (2, 3)]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_order2_update_is_bit_identical(shape, data):
    # two instances of one shape take turns: neither sees the other's work
    streams = [
        data.draw(st.lists(arrays(np.float64, shape, elements=finite),
                           min_size=1, max_size=12))
        for _ in range(2)
    ]
    moments = [IterativeMoments(shape, order=2) for _ in streams]
    refs = [
        {"count": 0, "mean": np.zeros(shape), "m2": np.zeros(shape)}
        for _ in streams
    ]
    for i in range(max(map(len, streams))):
        for m, ref, stream in zip(moments, refs, streams):
            if i < len(stream):
                m.update(stream[i])
                expression_update(ref, stream[i])
    for m, ref in zip(moments, refs):
        assert m.count == ref["count"]
        np.testing.assert_array_equal(m.mean, ref["mean"])
        np.testing.assert_array_equal(m.m2, ref["m2"])
    # merge and the checkpoint round-trip see the same state as before
    restored = IterativeMoments.from_state_dict(moments[0].state_dict())
    np.testing.assert_array_equal(restored.m2, moments[0].m2)
    merged, ref_merged = moments[0].copy(), feed(streams[0], order=2, shape=shape)
    merged.merge(moments[1])
    ref_merged.merge(feed(streams[1], order=2, shape=shape))
    np.testing.assert_array_equal(merged.mean, ref_merged.mean)
    np.testing.assert_array_equal(merged.m2, ref_merged.m2)


def test_order2_update_keeps_the_sample_and_slots():
    m = IterativeMoments((4,), order=2)
    sample = np.arange(4.0)
    m.update(sample)
    np.testing.assert_array_equal(sample, np.arange(4.0))  # input untouched
    assert not hasattr(m, "__dict__")
    with pytest.raises(ValueError):
        m.update(np.zeros(3))


def test_order2_scratch_is_per_thread():
    """Catalog rows fold on a thread pool: two threads updating fields of
    one shape must not share work arrays."""
    import sys
    import threading

    shape, rounds = (2048,), 300
    samples = RNG.normal(size=(rounds,) + shape)
    expected = feed(samples, order=2, shape=shape)
    results = [None, None]

    def work(slot):
        results[slot] = feed(samples, order=2, shape=shape)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        np.testing.assert_array_equal(got.m2, expected.m2)
        np.testing.assert_array_equal(got.mean, expected.mean)
