"""Equivalence of the batched vectorized Sobol' engine and the scalar path.

The stacked :class:`~repro.sobol.martinez.UbiquitousSobolField` must
reproduce the legacy per-parameter/per-timestep object forest
(:class:`~repro.sobol.martinez.IterativeSobolEstimator` per timestep) to
tight tolerance on arbitrary streams: update, merge and checkpoint
round-trip.  Differences come
only from floating-point reassociation of mathematically exact
formulas, so rtol 1e-10 (atol 1e-12 for near-zero correlations) holds.
"""

import numpy as np
import pytest

from repro.kernels import available_backends
from repro.sobol.martinez import IterativeSobolEstimator, UbiquitousSobolField

RTOL = 1e-10
ATOL = 1e-12

#: every concrete kernel backend usable on this host; the equivalence
#: guarantees hold per backend, not just for the einsum baseline
BACKENDS = available_backends()


def random_stream(nparams, ntimesteps, ncells, ngroups, seed=0, loc=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    return rng.normal(loc=loc, scale=scale,
                      size=(ngroups, ntimesteps, nparams + 2, ncells))


def legacy_forest(nparams, ntimesteps, ncells):
    return [IterativeSobolEstimator(nparams, (ncells,)) for _ in range(ntimesteps)]


def feed_both(field, forest, stream):
    ngroups, ntimesteps = stream.shape[:2]
    nparams = stream.shape[2] - 2
    for g in range(ngroups):
        for t in range(ntimesteps):
            buf = stream[g, t]
            field.update_group_buffer(t, buf)
            forest[t].update_group(buf[0], buf[1], list(buf[2:]))


def assert_field_matches_forest(field, forest):
    nparams, ntimesteps = field.nparams, field.ntimesteps
    for t in range(ntimesteps):
        est = forest[t]
        assert field.estimators[t].ngroups == est.ngroups
        np.testing.assert_allclose(
            field.first_order_all(t), est.first_order(), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            field.total_order_all(t), est.total_order(), rtol=RTOL, atol=ATOL
        )
        for k in range(nparams):
            np.testing.assert_allclose(
                field.first_order_map(k, t), est.first_order(k),
                rtol=RTOL, atol=ATOL,
            )
        np.testing.assert_allclose(
            field.variance_map(t), est.output_variance, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            field.mean_map(t), est.output_mean, rtol=RTOL, atol=ATOL
        )


class TestUpdateEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nparams,ncells,ngroups", [(2, 7, 50), (6, 33, 40), (1, 1, 25)])
    def test_random_stream(self, nparams, ncells, ngroups, backend):
        stream = random_stream(nparams, 3, ncells, ngroups, seed=nparams)
        field = UbiquitousSobolField(nparams, 3, ncells, kernel=backend)
        forest = legacy_forest(nparams, 3, ncells)
        feed_both(field, forest, stream)
        assert_field_matches_forest(field, forest)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_large_mean_small_variance_stable(self, backend):
        """The shift-based batch contraction must stay Pebay-stable."""
        stream = random_stream(3, 2, 11, 48, seed=5, loc=1e6, scale=1e-3)
        field = UbiquitousSobolField(3, 2, 11, kernel=backend)
        forest = legacy_forest(3, 2, 11)
        feed_both(field, forest, stream)
        for t in range(2):
            np.testing.assert_allclose(
                field.first_order_all(t), forest[t].first_order(),
                rtol=1e-7, atol=1e-7,
            )
            np.testing.assert_allclose(
                field.variance_map(t), forest[t].output_variance, rtol=1e-6
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_size_invariance(self, backend):
        """Different micro-batch boundaries, same statistics."""
        stream = random_stream(3, 2, 9, 37, seed=11)
        fields = [
            UbiquitousSobolField(3, 2, 9, batch_size=b, kernel=backend)
            for b in (1, 4, 16, 64)
        ]
        for g in range(37):
            for t in range(2):
                for f in fields:
                    f.update_group_buffer(t, stream[g, t].copy())
        ref = fields[0]
        for f in fields[1:]:
            for t in range(2):
                np.testing.assert_allclose(
                    f.first_order_all(t), ref.first_order_all(t),
                    rtol=RTOL, atol=ATOL,
                )
                np.testing.assert_allclose(
                    f.total_order_all(t), ref.total_order_all(t),
                    rtol=RTOL, atol=ATOL,
                )

    def test_staged_memory_bounded(self):
        """The global staging cap folds the fullest timestep eagerly."""
        field = UbiquitousSobolField(2, 50, 4, batch_size=16, max_staged=8)
        rng = np.random.default_rng(0)
        for g in range(6):
            for t in range(50):
                field.update_group_buffer(t, rng.normal(size=(4, 4)))
        assert field.staged_groups <= 8

    def test_update_validation(self):
        field = UbiquitousSobolField(2, 2, 4)
        with pytest.raises(ValueError):
            field.update_group_buffer(0, np.zeros((3, 4)))
        with pytest.raises(IndexError):
            field.update_group_buffer(5, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            field.update_group_timestep(0, np.zeros(4), np.zeros(4), [np.zeros(4)])


class TestMergeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_matches_single_stream(self, backend):
        stream = random_stream(4, 2, 12, 60, seed=3)
        full = UbiquitousSobolField(4, 2, 12, kernel=backend)
        part1 = UbiquitousSobolField(4, 2, 12, kernel=backend)
        part2 = UbiquitousSobolField(4, 2, 12, kernel=backend)
        forest = legacy_forest(4, 2, 12)
        for g in range(60):
            for t in range(2):
                buf = stream[g, t]
                full.update_group_buffer(t, buf.copy())
                (part1 if g < 23 else part2).update_group_buffer(t, buf.copy())
                forest[t].update_group(buf[0], buf[1], list(buf[2:]))
        part1.merge(part2)
        assert_field_matches_forest(part1, forest)
        assert_field_matches_forest(full, forest)

    def test_merge_into_empty_and_with_empty(self):
        stream = random_stream(2, 1, 5, 20, seed=9)
        fed = UbiquitousSobolField(2, 1, 5)
        for g in range(20):
            fed.update_group_buffer(0, stream[g, 0].copy())
        empty = UbiquitousSobolField(2, 1, 5)
        empty.merge(fed)
        np.testing.assert_allclose(
            empty.first_order_all(0), fed.first_order_all(0), rtol=RTOL, atol=ATOL
        )
        before = fed.first_order_all(0).copy()
        fed.merge(UbiquitousSobolField(2, 1, 5))
        np.testing.assert_allclose(fed.first_order_all(0), before, rtol=0, atol=0)

    def test_merge_uneven_timestep_counts(self):
        """Per-timestep counts may differ (out-of-order arrival)."""
        rng = np.random.default_rng(2)
        a = UbiquitousSobolField(2, 2, 3)
        b = UbiquitousSobolField(2, 2, 3)
        forest = legacy_forest(2, 2, 3)
        for g in range(30):
            t = int(rng.integers(0, 2))
            buf = rng.normal(size=(4, 3))
            (a if g % 2 else b).update_group_buffer(t, buf.copy())
            forest[t].update_group(buf[0], buf[1], list(buf[2:]))
        a.merge(b)
        assert_field_matches_forest(a, forest)

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError):
            UbiquitousSobolField(2, 2, 3).merge(UbiquitousSobolField(2, 2, 4))


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_roundtrip_mid_batch(self, backend):
        """state_dict flushes staged buffers and restores exactly."""
        stream = random_stream(3, 2, 8, 21, seed=7)  # 21: not a batch multiple
        field = UbiquitousSobolField(3, 2, 8, kernel=backend)
        for g in range(21):
            for t in range(2):
                field.update_group_buffer(t, stream[g, t].copy())
        back = UbiquitousSobolField.from_state_dict(field.state_dict())
        for t in range(2):
            np.testing.assert_allclose(
                back.first_order_all(t), field.first_order_all(t), rtol=0, atol=0
            )
            np.testing.assert_allclose(
                back.total_order_all(t), field.total_order_all(t), rtol=0, atol=0
            )
            assert back.estimators[t].ngroups == field.estimators[t].ngroups

    def test_roundtrip_then_continue_matches(self):
        """Checkpoint mid-stream, restore, continue: matches the forest."""
        stream = random_stream(2, 2, 6, 40, seed=13)
        field = UbiquitousSobolField(2, 2, 6)
        forest = legacy_forest(2, 2, 6)
        for g in range(18):
            for t in range(2):
                buf = stream[g, t]
                field.update_group_buffer(t, buf.copy())
                forest[t].update_group(buf[0], buf[1], list(buf[2:]))
        field = UbiquitousSobolField.from_state_dict(field.state_dict())
        for g in range(18, 40):
            for t in range(2):
                buf = stream[g, t]
                field.update_group_buffer(t, buf.copy())
                forest[t].update_group(buf[0], buf[1], list(buf[2:]))
        assert_field_matches_forest(field, forest)

    def test_forest_shaped_or_truncated_state_is_refused(self, monkeypatch):
        """Only the stacked format-2 state loads: an estimator forest, a
        state without the format stamp and a state missing an array are
        each a ValueError naming what was found, raised before a field is
        built."""
        good = UbiquitousSobolField(3, 2, 5).state_dict()
        forest_shaped = {
            "nparams": 3,
            "ntimesteps": 2,
            "ncells": 5,
            "estimators": [e.state_dict() for e in legacy_forest(3, 2, 5)],
        }
        unstamped = {k: v for k, v in good.items() if k != "format"}
        truncated = {k: v for k, v in good.items() if k != "cxy"}

        def no_field(self, *args, **kwargs):
            raise AssertionError("a field was built from a refused state")

        monkeypatch.setattr(UbiquitousSobolField, "__init__", no_field)
        with pytest.raises(ValueError, match="not a stacked.*'estimators'"):
            UbiquitousSobolField.from_state_dict(forest_shaped)
        with pytest.raises(ValueError, match="not a stacked.*format=None"):
            UbiquitousSobolField.from_state_dict(unstamped)
        with pytest.raises(ValueError, match="not a stacked.*format=2"):
            UbiquitousSobolField.from_state_dict(truncated)


class TestIntervalEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_interval_width_matches_forest(self, backend):
        stream = random_stream(3, 2, 6, 25, seed=23)
        field = UbiquitousSobolField(3, 2, 6, kernel=backend)
        forest = legacy_forest(3, 2, 6)
        feed_both(field, forest, stream)
        forest_widths = [e.max_interval_width() for e in forest]
        finite = [w for w in forest_widths if not np.isnan(w)]
        expected = max(finite) if finite else float("nan")
        assert field.max_interval_width() == pytest.approx(expected, rel=1e-9)

    def test_inf_until_enough_groups(self):
        field = UbiquitousSobolField(2, 1, 3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            field.update_group_buffer(0, rng.normal(size=(4, 3)))
        assert field.max_interval_width() == float("inf")
