"""Equivalence of the batched vectorized Sobol' engine and the two-pass
reference.

The stacked :class:`~repro.sobol.martinez.UbiquitousSobolField` must
reproduce :func:`~repro.sobol.reference.martinez_indices` plus NumPy
mean / variance (``tests/sobol_reference.py``) to tight tolerance on
arbitrary streams: update, merge and checkpoint round-trip.  Differences
come only from floating-point reassociation of mathematically exact
formulas, so rtol 1e-10 (atol 1e-12 for near-zero correlations) holds.
"""

import numpy as np
import pytest

from repro.kernels import available_backends
from repro.sobol.martinez import UbiquitousSobolField

from sobol_reference import (
    ATOL,
    RTOL,
    assert_matches_two_pass,
    feed,
    random_stream,
    two_pass_interval_width,
    two_pass_maps,
)

#: every concrete kernel backend usable on this host; the equivalence
#: guarantees hold per backend, not just for the einsum baseline
BACKENDS = available_backends()


def assert_same_maps(field, ref, rtol=RTOL, atol=ATOL):
    for t in range(ref.ntimesteps):
        for got, want in zip(field.index_maps_at(t), ref.index_maps_at(t)):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


class TestUpdateEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nparams,ncells,ngroups", [(2, 7, 50), (6, 33, 40), (1, 1, 25)])
    def test_random_stream(self, nparams, ncells, ngroups, backend):
        stream = random_stream(nparams, 3, ncells, ngroups, seed=nparams)
        field = feed(UbiquitousSobolField(nparams, 3, ncells, kernel=backend), stream)
        assert_matches_two_pass(field, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_large_mean_small_variance_stable(self, backend):
        """The shift-based batch contraction must stay Pebay-stable."""
        stream = random_stream(3, 2, 11, 48, seed=5, loc=1e6, scale=1e-3)
        field = feed(UbiquitousSobolField(3, 2, 11, kernel=backend), stream)
        for t in range(2):
            first, _, variance, _ = two_pass_maps(stream[:, t])
            np.testing.assert_allclose(
                field.index_maps_at(t)[0], first, rtol=1e-7, atol=1e-7
            )
            np.testing.assert_allclose(field.variance_map(t), variance, rtol=1e-6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_size_invariance(self, backend):
        """Different micro-batch boundaries, same statistics."""
        stream = random_stream(3, 2, 9, 37, seed=11)
        fields = [
            feed(UbiquitousSobolField(3, 2, 9, batch_size=b, kernel=backend), stream)
            for b in (1, 4, 16, 64)
        ]
        for f in fields[1:]:
            assert_same_maps(f, fields[0])

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
            field.update_group_buffer(0, np.zeros((4, 5)))


class TestMergeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_matches_single_stream(self, backend):
        stream = random_stream(4, 2, 12, 60, seed=3)
        full = feed(UbiquitousSobolField(4, 2, 12, kernel=backend), stream)
        part1 = feed(UbiquitousSobolField(4, 2, 12, kernel=backend), stream[:23])
        part2 = feed(UbiquitousSobolField(4, 2, 12, kernel=backend), stream[23:])
        part1.merge(part2)
        assert_matches_two_pass(part1, stream)
        assert_matches_two_pass(full, stream)

    def test_merge_into_empty_and_with_empty(self):
        stream = random_stream(2, 1, 5, 20, seed=9)
        fed = feed(UbiquitousSobolField(2, 1, 5), stream)
        empty = UbiquitousSobolField(2, 1, 5)
        empty.merge(fed)
        assert_same_maps(empty, fed)
        before = [m.copy() for m in fed.index_maps_at(0)]
        fed.merge(UbiquitousSobolField(2, 1, 5))
        for got, want in zip(fed.index_maps_at(0), before):
            np.testing.assert_array_equal(got, want)

    def test_merge_uneven_timestep_counts(self):
        """Per-timestep counts may differ (out-of-order arrival)."""
        rng = np.random.default_rng(2)
        a = UbiquitousSobolField(2, 2, 3)
        b = UbiquitousSobolField(2, 2, 3)
        fed = [[], []]
        for g in range(30):
            t = int(rng.integers(0, 2))
            buf = rng.normal(size=(4, 3))
            (a if g % 2 else b).update_group_buffer(t, buf.copy())
            fed[t].append(buf)
        a.merge(b)
        assert len(fed[0]) != len(fed[1])
        assert_matches_two_pass(a, fed)

    def test_incompatible_merge_rejected(self):
        with pytest.raises(ValueError):
            UbiquitousSobolField(2, 2, 3).merge(UbiquitousSobolField(2, 2, 4))


class TestCheckpointEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_state_roundtrip_mid_batch(self, backend):
        """state_dict flushes staged buffers and restores exactly."""
        stream = random_stream(3, 2, 8, 21, seed=7)  # 21: not a batch multiple
        field = feed(UbiquitousSobolField(3, 2, 8, kernel=backend), stream)
        back = UbiquitousSobolField.from_state_dict(field.state_dict())
        assert_same_maps(back, field, rtol=0, atol=0)
        np.testing.assert_array_equal(
            back.state_dict()["counts"], field.state_dict()["counts"]
        )

    def test_roundtrip_then_continue_matches(self):
        """Checkpoint mid-stream, restore, continue: matches the reference."""
        stream = random_stream(2, 2, 6, 40, seed=13)
        field = feed(UbiquitousSobolField(2, 2, 6), stream[:18])
        field = UbiquitousSobolField.from_state_dict(field.state_dict())
        feed(field, stream[18:])
        assert_matches_two_pass(field, stream)

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
            "estimators": [{"nparams": 3, "ngroups": 0} for _ in range(2)],
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

    @pytest.mark.parametrize(
        "key,value,why",
        [
            ("mean", lambda s: s["mean"][:, :, :1], r"mean \(2, 5, 1\) != \(2, 5, 4\)"),
            ("counts", lambda s: np.append(s["counts"], 0), r"counts \(3,\) != \(2,\)"),
            ("ncells", lambda s: 5, r"mean \(2, 5, 4\) != \(2, 5, 5\)"),
            ("cxy", lambda s: s["cxy"][:, :, :2], r"cxy \(2, 2, 2, 4\) != \(2, 2, 3, 4\)"),
        ],
        ids=["mean-broadcasts", "counts-too-long", "fewer-cells-than-declared", "cxy-wrong-p"],
    )
    def test_misshapen_state_is_refused(self, monkeypatch, key, value, why):
        """A state whose arrays do not have the shapes its ``ntimesteps``,
        ``nparams`` and ``ncells`` declare is refused, naming the array,
        before a field is built — none of these may load and produce maps
        (a ``(T, m, 1)`` mean would broadcast; a 4-cell state declared as
        5 cells would return 4-cell maps)."""
        rng = np.random.default_rng(0)
        field = UbiquitousSobolField(3, 2, 4)
        for _ in range(6):
            for t in range(2):
                field.update_group_buffer(t, rng.normal(size=(5, 4)))
        state = dict(field.state_dict())
        state[key] = value(state)

        def no_field(self, *args, **kwargs):
            raise AssertionError("a field was built from a refused state")

        monkeypatch.setattr(UbiquitousSobolField, "__init__", no_field)
        with pytest.raises(ValueError, match="not a stacked.*" + why):
            UbiquitousSobolField.from_state_dict(state)


class TestIntervalEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_width_matches_two_pass(self, backend):
        """Eq. 8-9 applied to the two-pass maps with per-timestep counts."""
        stream = random_stream(3, 2, 6, 25, seed=23)
        field = feed(UbiquitousSobolField(3, 2, 6, kernel=backend), stream)
        assert field.max_interval_width() == pytest.approx(
            two_pass_interval_width(stream), rel=1e-9
        )

    def test_max_interval_width_uneven_counts(self):
        """Each timestep's interval uses its own group count."""
        stream = random_stream(2, 2, 4, 30, seed=29)
        fed = [stream[:, 0], stream[:12, 1]]
        field = UbiquitousSobolField(2, 2, 4)
        for t, rows in enumerate(fed):
            for buf in rows:
                field.update_group_buffer(t, buf.copy())
        assert field.max_interval_width() == pytest.approx(
            two_pass_interval_width(fed), rel=1e-9
        )

    def test_inf_until_enough_groups(self):
        field = UbiquitousSobolField(2, 1, 3)
        rng = np.random.default_rng(0)
        for _ in range(3):
            field.update_group_buffer(0, rng.normal(size=(4, 3)))
        assert field.max_interval_width() == float("inf")
