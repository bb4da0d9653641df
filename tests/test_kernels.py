"""Co-moment kernel backends: parity, selection, fallback, the auto rule.

Every available backend must reproduce the two-pass reference
(``tests/sobol_reference.py``) to rtol 1e-10 across the regimes that
stress different code paths: ragged micro-batches (force-folds and flush
remainders), single-group folds (batch_size=1, the degenerate
contraction), and checkpoint round-trips (state is backend-agnostic).
The C kernel's tile tails (windows ending inside, at and just past a
tile, on the unrolled and the generic path) are checked against einsum,
and its thread shards bit for bit.  Selection covers the ``auto`` rule (cext
where it builds, else einsum, decided at construction, nothing
measured) and the graceful fallback when an explicitly requested cext
cannot build on the host.
"""

import os
import re
import warnings

import numpy as np
import pytest

from repro.kernels import (
    EinsumKernel,
    available_backends,
    cext,
    make_kernel,
    resolve_backend,
    resolve_spec,
)
from repro.kernels.parallel import ParallelFolder, fold_window
from repro.sobol.martinez import UbiquitousSobolField

from sobol_reference import (
    ATOL,
    RTOL,
    assert_matches_two_pass,
    feed,
    random_stream,
    two_pass_maps,
)

BACKENDS = available_backends()


# --------------------------------------------------------------------- #
# parity: every backend x fold regimes
# --------------------------------------------------------------------- #
class TestBackendParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nparams,ncells", [(2, 7), (6, 33), (1, 1), (9, 12)])
    def test_backend_matches_reference(self, backend, nparams, ncells):
        stream = random_stream(nparams, 2, ncells, 37, seed=nparams)
        field = feed(UbiquitousSobolField(nparams, 2, ncells, kernel=backend), stream)
        assert_matches_two_pass(field, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_ragged_micro_batches(self, backend):
        """Uneven arrival: force-folds via max_staged plus flush tails."""
        stream = random_stream(3, 4, 11, 29, seed=3)
        field = UbiquitousSobolField(
            3, 4, 11, kernel=backend, batch_size=8, max_staged=10
        )
        rng = np.random.default_rng(7)
        order = [(g, t) for g in range(29) for t in range(4)]
        rng.shuffle(order)
        for g, t in order:
            field.update_group_buffer(t, stream[g, t].copy())
        assert_matches_two_pass(field, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_group_folds(self, backend):
        """batch_size=1: every fold is the degenerate one-slab batch."""
        stream = random_stream(2, 2, 5, 12, seed=11)
        field = feed(
            UbiquitousSobolField(2, 2, 5, kernel=backend, batch_size=1), stream
        )
        assert_matches_two_pass(field, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_roundtrip_across_backends(self, backend):
        """State is backend-agnostic: fold on one backend, restore on
        another (and back), continue feeding, match the reference."""
        stream = random_stream(3, 2, 9, 30, seed=13)
        field = feed(UbiquitousSobolField(3, 2, 9, kernel=backend), stream[:14])
        # restore onto the einsum baseline, then back onto the backend
        hop = UbiquitousSobolField.from_state_dict(
            field.state_dict(), kernel="einsum"
        )
        field = UbiquitousSobolField.from_state_dict(
            hop.state_dict(), kernel=backend
        )
        assert field.kernel_name in (backend, "einsum")
        feed(field, stream[14:])
        assert_matches_two_pass(field, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_merge_parity(self, backend):
        stream = random_stream(4, 2, 8, 40, seed=17)
        a = feed(UbiquitousSobolField(4, 2, 8, kernel=backend), stream[:19])
        a.merge(feed(UbiquitousSobolField(4, 2, 8, kernel=backend), stream[19:]))
        assert_matches_two_pass(a, stream)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_large_mean_stability(self, backend):
        """The exact-shift contraction stays Pebay-stable per backend."""
        stream = random_stream(3, 1, 6, 48, seed=5, loc=1e6, scale=1e-3)
        field = feed(UbiquitousSobolField(3, 1, 6, kernel=backend), stream)
        np.testing.assert_allclose(
            field.index_maps_at(0)[0], two_pass_maps(stream[:, 0])[0],
            rtol=1e-7, atol=1e-7,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_noncontiguous_buffer_accepted(self, backend):
        """Strided views are staged via a contiguity copy, not rejected."""
        stream = random_stream(2, 1, 6, 10, seed=19)
        field = UbiquitousSobolField(2, 1, 6, kernel=backend)
        for g in range(10):
            transposed = np.asfortranarray(stream[g, 0])  # F-order view
            field.update_group_buffer(0, transposed)
        assert_matches_two_pass(field, stream)


# --------------------------------------------------------------------- #
# selection: the auto rule, explicit names, fallback
# --------------------------------------------------------------------- #
class TestSelection:
    def test_resolve_precedence(self):
        assert resolve_spec(None) == "auto"
        assert resolve_spec("einsum") == "einsum"

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "numba"):  # numba: a backend no longer
            with pytest.raises(ValueError):
                resolve_spec(name)
            with pytest.raises(ValueError):
                UbiquitousSobolField(2, 1, 4, kernel=name)

    def test_config_validates_kernel(self):
        from repro.core.config import StudyConfig
        from repro.sampling import ParameterSpace, Uniform

        space = ParameterSpace(("a", "b"), (Uniform(0, 1), Uniform(0, 1)))
        with pytest.raises(ValueError):
            StudyConfig(space=space, ngroups=1, ntimesteps=1, ncells=4,
                        kernel="nonsense")
        cfg = StudyConfig(space=space, ngroups=1, ntimesteps=1, ncells=4,
                          kernel="einsum")
        assert cfg.kernel == "einsum"

    def test_einsum_always_available(self):
        assert "einsum" in BACKENDS
        assert isinstance(make_kernel("einsum", 3, 8, 64), EinsumKernel)

    def test_auto_tunes_to_available_backend(self):
        stream = random_stream(3, 1, 16, 24, seed=23)
        field = UbiquitousSobolField(3, 1, 16, kernel="auto", batch_size=8)
        # resolved at construction, before any buffer is fed
        assert field.kernel_name in BACKENDS
        assert field.kernel_name == resolve_backend("auto")
        for g in range(24):
            field.update_group_buffer(0, stream[g, 0].copy())
        field.flush()
        assert_matches_two_pass(field, stream)

    def test_auto_rule_order(self, monkeypatch):
        """auto = cext where it builds, else einsum — never blas, and
        never a warning: nothing was asked for that is missing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(cext, "available", lambda: False)
            assert resolve_backend("auto") == "einsum"
            assert UbiquitousSobolField(2, 1, 4).kernel_name == "einsum"
            monkeypatch.setattr(cext, "available", lambda: True)
            assert resolve_backend("auto") == "cext"
            # a name the host can run is itself; one it cannot, einsum
            assert resolve_backend("blas") == "blas"
            monkeypatch.setattr(cext, "available", lambda: False)
            assert resolve_backend("cext") == "einsum"

    def test_default_policy_is_deterministic(self):
        """Nothing is measured: two default-policy fields fed the same
        stream are bit-identical, a state_dict hop into a third continues
        bit-exactly, and the environment is never written."""
        env = dict(os.environ)
        ncells = 2 * UbiquitousSobolField.DEFAULT_BLOCK + 5  # > 1 block
        stream = random_stream(2, 1, ncells, 48, seed=43)

        def feed(field, groups):
            for g in groups:
                field.update_group_buffer(0, stream[g, 0].copy())
            return field

        a = feed(UbiquitousSobolField(2, 1, ncells), range(48))
        b = feed(UbiquitousSobolField(2, 1, ncells), range(48))
        # the hop sits on a batch boundary, so all three fold the same batches
        c = UbiquitousSobolField.from_state_dict(
            feed(UbiquitousSobolField(2, 1, ncells), range(32)).state_dict()
        )
        feed(c, range(32, 48))
        for other in (b, c):
            assert other.kernel_name == a.kernel_name
            assert other.fold_plan == a.fold_plan
            for name in ("_counts", "_mean", "_m2", "_cxy"):
                np.testing.assert_array_equal(
                    getattr(a, name), getattr(other, name), err_msg=name
                )
        assert dict(os.environ) == env


# --------------------------------------------------------------------- #
# optional-backend fallback (a host without a C compiler)
# --------------------------------------------------------------------- #
class TestOptionalBackends:
    def test_cext_fallback_when_unbuildable(self, monkeypatch):
        """A host with no compiler degrades to einsum with a warning."""
        from repro.kernels import cext

        def no_compiler(*a, **k):
            raise RuntimeError("cext kernel unavailable: no compiler")

        monkeypatch.setattr(cext, "_load", no_compiler)
        with pytest.warns(RuntimeWarning, match="cext"):
            field = UbiquitousSobolField(2, 1, 5, kernel="cext")
        assert field.kernel_name == "einsum"


# --------------------------------------------------------------------- #
# the cext tile: windows ending inside, at, and just past a tile
# --------------------------------------------------------------------- #
#: the C kernel's tile width, read from its source
NT = int(re.search(r"#define NT (\d+)", cext._SOURCE.read_text()).group(1))
TAIL_WIDTHS = sorted({1, NT - 1, NT, NT + 1, 8191, 8192, 8193, 10000})


def tail_case(p, width, seed, nb=5):
    """``nb`` member slabs and a running state of one window width."""
    rng = np.random.default_rng(seed)
    slabs = list(rng.normal(size=(nb, p + 2, width)))
    state = (
        rng.normal(size=(p + 2, width)),
        rng.random((p + 2, width)),
        rng.normal(size=(2, p, width)),
    )
    return slabs, state


@pytest.mark.skipif("cext" not in BACKENDS, reason="no C compiler")
class TestCextTileTails:
    """p <= 8 runs the unrolled specialisations, p = 9 the generic path;
    ``na == 0`` assigns the batch, ``na > 0`` combines it."""

    @pytest.mark.parametrize("na", [0, 23])
    @pytest.mark.parametrize("p", [1, 6, 8, 9])
    @pytest.mark.parametrize("width", TAIL_WIDTHS)
    def test_fold_into_and_fold_block_match_einsum(self, width, p, na):
        slabs, state = tail_case(p, width, seed=width * 10 + p)
        nb = len(slabs)
        fast = make_kernel("cext", p, nb, width)
        ref = make_kernel("einsum", p, nb, width)
        assert fast.name == "cext"
        # fold_block: the raw sums, centred by the Python side
        for got, want in zip(fast.fold_batch(slabs, 0, width),
                             ref.fold_batch(slabs, 0, width)):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        # fold_into: the fused fold against einsum plus the NumPy combine
        got = [a.copy() for a in state]
        want = [a.copy() for a in state]
        r1 = np.empty((2, p, width))
        fold_window(fast, slabs, 0, width, *got, na, r1)
        fold_window(ref, slabs, 0, width, *want, na, r1)
        for name, g, w in zip(("mean", "m2", "cxy"), got, want):
            np.testing.assert_allclose(g, w, rtol=RTOL, atol=ATOL, err_msg=name)

    @pytest.mark.parametrize("na", [0, 23])
    @pytest.mark.parametrize("p", [6, 9])
    @pytest.mark.parametrize("width", TAIL_WIDTHS)
    def test_parallel_folder_is_the_whole_window_fold(self, width, p, na):
        """Shards cut the window at block edges that are not tile edges;
        each cell still sees the same operations: bit-identical."""
        slabs, state = tail_case(p, width, seed=width * 10 + p + 1)
        nb = len(slabs)
        whole = [a.copy() for a in state]
        fold_window(make_kernel("cext", p, nb, width), slabs, 0, width,
                    *whole, na, np.empty((2, p, width)))
        sharded = [a.copy() for a in state]
        folder = ParallelFolder("cext", p, nb, -(-width // 3), 3)
        folder.fold(slabs, width, *sharded, na)
        for name, s, w in zip(("mean", "m2", "cxy"), sharded, whole):
            np.testing.assert_array_equal(s, w, err_msg=name)


# --------------------------------------------------------------------- #
# end-to-end: kernel choice flows config -> server -> results
# --------------------------------------------------------------------- #
class TestStudyIntegration:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_study_results_invariant_to_backend(self, backend):
        from repro import SensitivityStudy
        from repro.sobol import IshigamiFunction

        def run(kern):
            study = SensitivityStudy.for_function(
                IshigamiFunction(), ngroups=120, seed=3, kernel=kern
            )
            return study.run()

        base = run("einsum")
        other = run(backend)
        np.testing.assert_allclose(
            other.first_order, base.first_order, rtol=1e-9
        )
        np.testing.assert_allclose(
            other.total_order, base.total_order, rtol=1e-9
        )
        assert other.max_interval_width == pytest.approx(
            base.max_interval_width, rel=1e-6, nan_ok=True
        )
