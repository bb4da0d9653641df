"""Tests for streaming extrema and threshold exceedance."""

import numpy as np
import pytest

from repro.stats import IterativeExtrema, ThresholdExceedance

RNG = np.random.default_rng(7)


class TestExtrema:
    def test_scalar_stream(self):
        e = IterativeExtrema()
        for v in [3.0, -1.0, 7.0, 2.0]:
            e.update(v)
        assert e.minimum == pytest.approx(-1.0)
        assert e.maximum == pytest.approx(7.0)
        assert e.range == pytest.approx(8.0)

    def test_empty_range_nan(self):
        assert np.isnan(IterativeExtrema().range)

    def test_field_stream_matches_numpy(self):
        field = RNG.normal(size=(30, 6))
        e = IterativeExtrema(shape=(6,))
        for row in field:
            e.update(row)
        np.testing.assert_allclose(e.minimum, field.min(axis=0))
        np.testing.assert_allclose(e.maximum, field.max(axis=0))

    def test_merge(self):
        field = RNG.normal(size=(40, 3))
        a = IterativeExtrema(shape=(3,))
        b = IterativeExtrema(shape=(3,))
        for row in field[:20]:
            a.update(row)
        for row in field[20:]:
            b.update(row)
        a.merge(b)
        np.testing.assert_allclose(a.minimum, field.min(axis=0))
        assert a.count == 40

    def test_merge_shape_mismatch(self):
        with pytest.raises(ValueError):
            IterativeExtrema(shape=(2,)).merge(IterativeExtrema(shape=(4,)))

    def test_state_roundtrip(self):
        e = IterativeExtrema(shape=(2,))
        e.update(np.array([1.0, -2.0]))
        e2 = IterativeExtrema.from_state_dict(e.state_dict())
        np.testing.assert_array_equal(e.minimum, e2.minimum)


class TestThresholdExceedance:
    def test_probability(self):
        t = ThresholdExceedance(threshold=0.0)
        for v in [-1.0, 1.0, 2.0, -0.5]:
            t.update(v)
        assert t.probability == pytest.approx(0.5)

    def test_field_counts(self):
        field = RNG.normal(size=(100, 4))
        t = ThresholdExceedance(shape=(4,), threshold=0.5)
        for row in field:
            t.update(row)
        np.testing.assert_array_equal(t.exceedances, (field > 0.5).sum(axis=0))

    def test_merge_and_state(self):
        t1 = ThresholdExceedance(threshold=1.0)
        t2 = ThresholdExceedance(threshold=1.0)
        t1.update(2.0)
        t2.update(0.0)
        t2.update(3.0)
        t1.merge(t2)
        assert t1.count == 3
        assert int(t1.exceedances) == 2
        t3 = ThresholdExceedance.from_state_dict(t1.state_dict())
        assert t3.count == 3

    def test_merge_threshold_mismatch(self):
        with pytest.raises(ValueError):
            ThresholdExceedance(threshold=1.0).merge(ThresholdExceedance(threshold=2.0))

    def test_empty_probability_nan(self):
        assert np.isnan(ThresholdExceedance().probability)
