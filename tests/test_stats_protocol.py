"""Property tests for the ``FieldStatistic`` plugin protocol (ISSUE 6).

Every statistic in the catalog must satisfy the streaming-merge algebra
the fault-tolerance story leans on: merging disjoint partial streams in
any order or grouping reproduces the whole-stream result (to float error
for ``exact_merge`` statistics), and checkpoint state round-trips
bit-exactly across a simulated respawn.  The spec-string grammar and the
registry/entry-point plugin path are covered here too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    FieldStatistic,
    StatContext,
    StatisticsPipeline,
    available_statistics,
    canonicalize_spec,
    canonicalize_specs,
    register,
)
from repro.stats.protocol import lookup, parse_spec

from sobol_reference import two_pass_maps, two_pass_pair_total

SHAPE = (3,)
NPARAMS = 3

# parameters that make every catalog statistic well-posed on N(0,1) data
SAFE_PARAMS = {
    "exceedance": {"thresholds": "0.0+0.75"},
    "histogram": {"bins": "16", "lo": "-4.0", "hi": "4.0"},
    "quantiles": {"qs": "0.25+0.5", "bins": "32", "lo": "-4.0", "hi": "4.0"},
    "p2quantiles": {"qs": "0.5"},
}

ALL_NAMES = sorted(available_statistics())
EXACT_NAMES = [n for n, c in available_statistics().items() if c.exact_merge]


def make_ctx(shape=SHAPE, nparams=NPARAMS):
    return StatContext(shape=shape, nparams=nparams)


def make_instance(name, ctx=None):
    ctx = ctx or make_ctx()
    cls = available_statistics()[name]
    return cls(ctx, SAFE_PARAMS.get(name, {}))


def group_stream(ngroups, ctx, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(ngroups, ctx.nmembers) + ctx.shape)


def feed(stat, stream):
    for buf in stream:
        stat.update_group(buf)
    return stat


def assert_finalize_close(a, b, rtol=1e-10, atol=1e-12):
    fa, fb = a.finalize(), b.finalize()
    assert fa.keys() == fb.keys() == set(a.result_names)
    for key in fa:
        np.testing.assert_allclose(
            fa[key], fb[key], rtol=rtol, atol=atol, equal_nan=True, err_msg=key
        )


def assert_tree_bit_exact(a, b, path="state"):
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for key in a:
            assert_tree_bit_exact(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), path
        for i, (xa, xb) in enumerate(zip(a, b)):
            assert_tree_bit_exact(xa, xb, f"{path}[{i}]")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=path)
    else:
        assert a == b, path


# --------------------------------------------------------------------- #
# merge algebra: every exact-merge statistic
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", EXACT_NAMES)
@settings(max_examples=10, deadline=None)
@given(
    ngroups=st.integers(min_value=2, max_value=12),
    split=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_split_vs_whole_stream(name, ngroups, split, seed):
    """Folding a stream whole or in two merged shards is equivalent —
    the invariant discard-on-replay and rank respawn rely on."""
    ctx = make_ctx()
    stream = group_stream(ngroups, ctx, seed)
    split = min(split, ngroups)

    whole = feed(make_instance(name, ctx), stream)
    left = feed(make_instance(name, ctx), stream[:split])
    right = feed(make_instance(name, ctx), stream[split:])
    left.merge(right)
    assert_finalize_close(whole, left)


@pytest.mark.parametrize("name", EXACT_NAMES)
@settings(max_examples=10, deadline=None)
@given(
    sizes=st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_merge_commutes_and_associates(name, sizes, seed):
    """merge() is commutative and associative over disjoint shards (to
    float error) — rank reduction order must not matter."""
    ctx = make_ctx()
    streams = [group_stream(n, ctx, seed + i) for i, n in enumerate(sizes)]

    def shard(i):
        return feed(make_instance(name, ctx), streams[i])

    ab = shard(0)
    ab.merge(shard(1))
    ba = shard(1)
    ba.merge(shard(0))
    assert_finalize_close(ab, ba)

    left_assoc = shard(0)
    left_assoc.merge(shard(1))
    left_assoc.merge(shard(2))
    bc = shard(1)
    bc.merge(shard(2))
    right_assoc = shard(0)
    right_assoc.merge(bc)
    assert_finalize_close(left_assoc, right_assoc)


# --------------------------------------------------------------------- #
# checkpoint round-trip: every statistic, including approximate sketches
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_NAMES)
@settings(max_examples=8, deadline=None)
@given(
    ngroups=st.integers(min_value=0, max_value=8),
    extra=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_state_roundtrip_survives_respawn(name, ngroups, extra, seed):
    """state_dict -> (process death) -> from_state_dict is bit-exact, and
    the respawned instance tracks the original bit-for-bit as the stream
    continues."""
    ctx = make_ctx()
    cls = available_statistics()[name]
    params = SAFE_PARAMS.get(name, {})
    original = feed(cls(ctx, params), group_stream(ngroups, ctx, seed))

    state = original.state_dict()
    respawned = cls.from_state_dict(state, ctx, params)
    assert_tree_bit_exact(state, respawned.state_dict())

    tail = group_stream(extra, ctx, seed + 77)
    feed(original, tail)
    feed(respawned, tail)
    assert_tree_bit_exact(original.state_dict(), respawned.state_dict())
    fa, fb = original.finalize(), respawned.finalize()
    for key in fa:
        np.testing.assert_array_equal(fa[key], fb[key], err_msg=key)


@settings(max_examples=6, deadline=None)
@given(
    ngroups=st.integers(min_value=2, max_value=8),
    split=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_pipeline_split_merge_and_roundtrip(ngroups, split, seed):
    """The pipeline composes the per-statistic guarantees: shard-merge
    equivalence and bit-exact state round-trips hold for a whole catalog
    selection at once."""
    specs = [
        "moments:order=4", "extrema", "exceedance:thresholds=0.5",
        "quantiles:qs=0.5:lo=-4:hi=4", "sobol2",
    ]
    ctx = make_ctx()
    ntimesteps = 2
    split = min(split, ngroups)
    streams = [group_stream(ngroups, ctx, seed + t) for t in range(ntimesteps)]

    def build_and_feed(lo, hi):
        pipe = StatisticsPipeline(specs, ctx, ntimesteps)
        for t, stream in enumerate(streams):
            for buf in stream[lo:hi]:
                pipe.update(t, buf)
        return pipe

    whole = build_and_feed(0, ngroups)
    left = build_and_feed(0, split)
    left.merge(build_and_feed(split, ngroups))
    ra, rb = whole.results(), left.results()
    assert ra.keys() == rb.keys()
    for key in ra:
        np.testing.assert_allclose(
            ra[key], rb[key], rtol=1e-10, atol=1e-12, equal_nan=True, err_msg=key
        )

    respawned = StatisticsPipeline(specs, ctx, ntimesteps)
    respawned.load_state(whole.state_dict())
    assert_tree_bit_exact(whole.state_dict(), respawned.state_dict())


# --------------------------------------------------------------------- #
# approximate sketches: weaker, documented invariants
# --------------------------------------------------------------------- #
class TestP2Quantiles:
    def test_merge_is_statistically_sound(self):
        """P2's merge is approximate (exact_merge=False), but the merged
        median must still track the pooled empirical median."""
        ctx = make_ctx(shape=(2,))
        rng = np.random.default_rng(3)
        shards = [rng.normal(size=(150, ctx.nmembers, 2)) for _ in range(2)]
        merged = feed(make_instance("p2quantiles", ctx), shards[0])
        merged.merge(feed(make_instance("p2quantiles", ctx), shards[1]))
        # members 0 and 1 (A and B) are what member statistics consume
        pooled = np.concatenate([s[:, :2, :].reshape(-1, 2) for s in shards])
        estimate = merged.finalize()["p2quantile_0.5"]
        np.testing.assert_allclose(
            estimate, np.quantile(pooled, 0.5, axis=0), atol=0.2
        )

    def test_exact_merge_flag_is_false(self):
        assert available_statistics()["p2quantiles"].exact_merge is False
        ctx = make_ctx()
        pipe = StatisticsPipeline(["moments", "p2quantiles"], ctx, 1)
        assert pipe.exact_merge is False
        assert StatisticsPipeline(["moments"], ctx, 1).exact_merge is True


class TestBinnedQuantileAccuracy:
    def test_sketch_quantile_within_one_bin(self):
        bins, lo, hi = 256, -4.0, 4.0
        ctx = make_ctx(shape=())
        stat = available_statistics()["quantiles"](
            ctx, {"qs": "0.1+0.5+0.9", "bins": str(bins), "lo": str(lo),
                  "hi": str(hi)},
        )
        rng = np.random.default_rng(11)
        samples = rng.normal(size=4000)
        for x in samples:
            stat.update(np.asarray(x))
        out = stat.finalize()
        for q in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(
                out[f"quantile_{q:g}"], np.quantile(samples, q),
                atol=2 * (hi - lo) / bins,
            )

    def test_outliers_clamp_into_edge_bins_deterministically(self):
        ctx = make_ctx(shape=())
        stat = available_statistics()["quantiles"](
            ctx, {"qs": "0.5", "bins": "8", "lo": "0.0", "hi": "1.0"},
        )
        for x in (-5.0, 0.5, 7.0):
            stat.update(np.asarray(x))
        assert stat.counts[0].sum() >= 1 and stat.counts[-1].sum() >= 1
        # the exact extrema bound the interpolated quantile
        assert float(stat.minimum[0]) == -5.0 and float(stat.maximum[0]) == 7.0


# --------------------------------------------------------------------- #
# sobol2 vs the two-pass reference
# --------------------------------------------------------------------- #
class TestSecondOrderSobol:
    def test_pair_totals_match_two_pass(self):
        """The sobol2 plugin's pair totals are ``1 - corr(Y^Ci, Y^Cj)`` and
        its interactions ``ST_i + ST_j - ST_ij``, computed in two passes,
        to float error."""
        ctx = make_ctx(shape=(4,), nparams=3)
        stream = group_stream(60, ctx, seed=5)
        out = feed(make_instance("sobol2", ctx), stream).finalize()
        _, st_single, _, _ = two_pass_maps(stream)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            key = f"x{i + 1}_x{j + 1}"
            st_pair = two_pass_pair_total(stream[:, 2 + i], stream[:, 2 + j])
            np.testing.assert_allclose(
                out[f"sobol2_total_{key}"], st_pair, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                out[f"sobol2_interaction_{key}"],
                st_single[i] + st_single[j] - st_pair,
                rtol=1e-10, atol=1e-10,
            )

    def test_update_rejects_member_samples(self):
        stat = make_instance("sobol2")
        with pytest.raises(TypeError, match="group statistic"):
            stat.update(np.zeros(SHAPE))

    def test_needs_two_parameters(self):
        with pytest.raises(ValueError, match="two parameters"):
            make_instance("sobol2", make_ctx(nparams=1))


# --------------------------------------------------------------------- #
# spec grammar + canonicalization
# --------------------------------------------------------------------- #
class TestSpecGrammar:
    def test_defaults_are_filled(self):
        assert canonicalize_spec("moments") == "moments:order=2"
        assert canonicalize_spec("quantiles:lo=-15:hi=15") == (
            "quantiles:bins=64:hi=15.0:lo=-15.0:qs=0.1+0.5+0.9"
        )

    def test_equivalent_spellings_canonicalize_identically(self):
        assert canonicalize_spec("exceedance:thresholds=5") == canonicalize_spec(
            "exceedance:thresholds=5.0"
        )
        assert canonicalize_spec("moments:order=2") == canonicalize_spec("moments")

    def test_unknown_statistic_lists_the_catalog(self):
        with pytest.raises(ValueError, match="available"):
            canonicalize_spec("nope")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            canonicalize_spec("moments:bogus=1")

    def test_required_parameter_enforced(self):
        with pytest.raises(ValueError, match="requires parameter"):
            canonicalize_spec("exceedance")

    def test_duplicate_key_in_one_spec_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter"):
            parse_spec("moments:order=2:order=3")

    def test_duplicate_specs_rejected(self):
        with pytest.raises(ValueError, match="duplicate statistic"):
            canonicalize_specs(["moments", "moments:order=2"])

    def test_comma_string_splits(self):
        assert canonicalize_specs("moments, extrema") == (
            "moments:order=2", "extrema",
        )

    def test_malformed_segment_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_spec("moments:order")


# --------------------------------------------------------------------- #
# registry + entry-point-style plugins
# --------------------------------------------------------------------- #
class TestPluginRegistry:
    def test_dotted_lookup_resolves_a_class(self):
        from repro.stats.plugins import MomentsStatistic

        assert lookup("repro.stats.plugins:MomentsStatistic") is MomentsStatistic
        spec = canonicalize_spec("repro.stats.plugins:MomentsStatistic:order=3")
        assert spec == "repro.stats.plugins:MomentsStatistic:order=3"

    def test_dotted_lookup_rejects_non_statistics(self):
        with pytest.raises(ValueError, match="FieldStatistic"):
            lookup("repro.stats.protocol:parse_spec")
        with pytest.raises(ValueError, match="cannot import"):
            lookup("no.such.module:Thing")

    def test_register_rejects_name_collisions(self):
        class Impostor(FieldStatistic):
            name = "moments"

        with pytest.raises(ValueError, match="already registered"):
            register(Impostor)
        with pytest.raises(ValueError, match="non-empty"):
            register(type("Anon", (FieldStatistic,), {}))
        with pytest.raises(TypeError):
            register(object)

    def test_custom_plugin_runs_through_the_pipeline(self):
        @register
        class SampleCountStatistic(FieldStatistic):
            name = "_test_samplecount"
            description = "test-only: counts member samples per cell"

            def __init__(self, ctx, params=None):
                super().__init__(ctx, params)
                self.n = np.zeros(ctx.shape, dtype=np.int64)

            def update(self, sample):
                self.n += 1

            def merge(self, other):
                self.n += other.n

            def state_dict(self):
                return {"n": self.n}

            def load_state(self, state):
                self.n = np.asarray(state["n"], dtype=np.int64).copy()

            @property
            def result_names(self):
                return ("sample_count",)

            def finalize(self):
                return {"sample_count": self.n.astype(np.float64)}

        try:
            ctx = make_ctx()
            pipe = StatisticsPipeline(["_test_samplecount"], ctx, 1)
            for buf in group_stream(4, ctx, seed=0):
                pipe.update(0, buf)
            # A and B members per group -> 8 samples
            np.testing.assert_array_equal(
                pipe.results()["sample_count"][0], np.full(SHAPE, 8.0)
            )
        finally:
            from repro.stats import protocol

            protocol._REGISTRY.pop("_test_samplecount", None)

    def test_result_name_collision_across_specs_rejected(self):
        with pytest.raises(ValueError, match="both produce"):
            StatisticsPipeline(
                ["moments:order=2",
                 "repro.stats.plugins:MomentsStatistic:order=3"],
                make_ctx(), 1,
            )
