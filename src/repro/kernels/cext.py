"""Compiled C: the fused, cell-tiled co-moment fold, and the solver's loop.

Two sources, one cache: ``_comoment.c`` (the fold) and ``_stencil.c``
(the tube solver's substep loop, :func:`stencil_library`) are each
compiled once per machine with the system C compiler into a
content-addressed shared library under the user cache directory (atomic
rename, safe under concurrent builds) and loaded via ``ctypes`` — no
build-time dependency, no pip install.  Both use the same flag tiers plus
the source's own flags, which enter its cache key: the stencil adds
``-ffp-contract=off``, since a fused multiply-add would move its fields off
the NumPy step's in the last bits.  ``cc --version`` runs once per process.

The fold kernel folds residual computation, residual sums, diagonal
moments, and the 2p cross co-moments into ONE pass over the staged slabs
(the einsum path makes four), with the batch loop innermost over
128-cell tiles so the accumulators stay cache-resident while each slab
row streams in long contiguous runs.

On hosts without a working C compiler the backend reports itself
unavailable and kernel selection falls back to the einsum baseline; the
solver steps its NumPy loop instead.

GIL: the compute loops run WITHOUT the GIL — not via explicit
``Py_BEGIN_ALLOW_THREADS`` in the C source (``_comoment.c`` has no
Python API at all), but because ``ctypes.CDLL`` releases the GIL around
every foreign call by construction.  The parallel fold layer
(:mod:`repro.kernels.parallel`) relies on this: shards calling into the
library on different threads genuinely overlap.  Instances are NOT
thread-safe (``_sz``/``_gd``/``_gx`` scratch is per-instance); the
parallel layer builds one instance per thread.  ``fold_apply`` uses only
call-local state, so disjoint ``[lo, hi)`` windows are safe concurrently.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.base import CoMomentKernel, center_raw_sums

_SOURCE = Path(__file__).with_name("_comoment.c")
_STENCIL_SOURCE = Path(__file__).with_name("_stencil.c")

#: flag tiers, strongest first; the first tier that compiles wins
_FLAG_TIERS = (
    ["-O3", "-march=native", "-mprefer-vector-width=512"],
    ["-O3", "-march=native"],
    ["-O3"],
    ["-O2"],
)

_lib: Optional[ctypes.CDLL] = None
_lib_error: Optional[str] = None


_fallback_dir: Optional[Path] = None


def _cache_dir() -> Path:
    global _fallback_dir
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    try:
        path = Path(base) / "repro-kernels"
        path.mkdir(parents=True, exist_ok=True)
        return path
    except OSError:
        # never CDLL a predictable name from a shared world-writable tmp
        # dir: fall back to a private per-process directory instead
        if _fallback_dir is None:
            _fallback_dir = Path(tempfile.mkdtemp(prefix="repro-kernels-"))
        return _fallback_dir


def _compilers():
    cc = os.environ.get("CC")
    if cc:
        yield cc
    yield "cc"
    yield "gcc"
    yield "clang"


def _cpu_id() -> str:
    """Host CPU identity for the cache key (model + ISA feature flags).

    ``-march=native`` binaries are ISA-specific; on clusters with a
    shared home directory the cache must distinguish e.g. AVX-512 from
    AVX2-only nodes.  ``platform.machine()`` alone cannot, so fold in
    the cpuinfo model/flags lines where available.
    """
    ident = [platform.machine(), platform.processor()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("model name", "flags")):
                    ident.append(line.strip())
                    if len(ident) >= 4:
                        break
    except OSError:
        pass
    return "|".join(ident)


@functools.lru_cache(maxsize=None)
def _compiler_id(cc: str) -> Optional[str]:
    """Version line of ``cc`` (None when the compiler is missing)."""
    try:
        proc = subprocess.run(
            [cc, "--version"], capture_output=True, timeout=15
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode(errors="replace").splitlines()[0] if proc.stdout else cc


def _build(path: Path, extra: Sequence[str] = ()) -> ctypes.CDLL:
    """Load ``path`` built with the first flag tier that compiles, + ``extra``."""
    source = path.read_text()
    stem = path.stem.lstrip("_")
    for cc in _compilers():
        # the cache key covers compiler version and host CPU: -march=native
        # binaries must never be reused across heterogeneous nodes sharing
        # a home directory, nor survive a compiler upgrade
        cc_id = _compiler_id(cc)
        if cc_id is None:
            continue
        for tier in _FLAG_TIERS:
            flags = [*tier, *extra]
            key = hashlib.sha256(
                "\0".join(
                    [source, cc, cc_id, *flags, sys.platform, _cpu_id()]
                ).encode()
            ).hexdigest()[:16]
            target = _cache_dir() / f"{stem}_{key}.so"
            if not target.exists():
                # built beside the cache: the rename never crosses filesystems
                with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
                    obj = Path(tmp) / f"{stem}.so"
                    cmd = [cc, *flags, "-shared", "-fPIC", "-o", str(obj),
                           str(path)]
                    try:
                        proc = subprocess.run(
                            cmd, capture_output=True, timeout=120
                        )
                    except (OSError, subprocess.TimeoutExpired):
                        break  # compiler missing/hung: try the next one
                    if proc.returncode != 0:
                        continue  # flags rejected: try the next tier
                    os.replace(obj, target)  # atomic, concurrent-safe
            try:
                return ctypes.CDLL(str(target))
            except OSError:
                continue
    raise RuntimeError(f"no working C compiler for {path.name}")


def _load() -> ctypes.CDLL:
    global _lib, _lib_error
    if _lib is not None:
        return _lib
    if _lib_error is not None:
        raise RuntimeError(_lib_error)
    try:
        lib = _build(_SOURCE)
        lib.fold_block.restype = ctypes.c_int
        lib.fold_block.argtypes = [
            ctypes.c_void_p,  # const double *const *slabs
            ctypes.c_ssize_t,  # nb
            ctypes.c_ssize_t,  # m
            ctypes.c_ssize_t,  # row stride
            ctypes.c_ssize_t,  # lo
            ctypes.c_ssize_t,  # W
            ctypes.c_void_p,  # sz out
            ctypes.c_void_p,  # gd out
            ctypes.c_void_p,  # gx out
        ]
        lib.fold_apply.restype = ctypes.c_int
        lib.fold_apply.argtypes = [
            ctypes.c_void_p,  # const double *const *slabs
            ctypes.c_ssize_t,  # nb
            ctypes.c_ssize_t,  # m
            ctypes.c_ssize_t,  # row stride
            ctypes.c_ssize_t,  # lo
            ctypes.c_ssize_t,  # W
            ctypes.c_ssize_t,  # na
            ctypes.c_ssize_t,  # state row stride
            ctypes.c_void_p,  # mean state
            ctypes.c_void_p,  # m2 state
            ctypes.c_void_p,  # cxy state
        ]
        _lib = lib
        return lib
    except Exception as exc:  # noqa: BLE001 - availability probe
        _lib_error = f"cext kernel unavailable: {exc}"
        raise RuntimeError(_lib_error) from exc


def available() -> bool:
    """True when the shared library is (or can be) built and loaded."""
    try:
        _load()
        return True
    except RuntimeError:
        return False


@functools.lru_cache(maxsize=None)
def stencil_library() -> Optional[ctypes.CDLL]:
    """The solver's substep loop (``_stencil.c``), or None without a compiler."""
    try:
        lib = _build(_STENCIL_SOURCE, ["-ffp-contract=off"])
    except (RuntimeError, OSError):  # no compiler, or an unwritable cache
        return None
    ssize, ptr, real = ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double
    lib.stencil_advance.restype = real
    # c, r, n, cc, npairs, offs, weights, cin, m, upper band, lower band,
    # upper_off, lower_off, stable_dt, dt, t
    lib.stencil_advance.argtypes = [ptr, ptr, ssize, ptr, ssize, ptr, ptr, ptr,
                                    ssize, ptr, ptr, real, real, real, real, real]
    return lib


class CExtKernel(CoMomentKernel):
    name = "cext"

    #: largest p the C kernel's stack tiles support
    MAX_NPARAMS = 64

    def __init__(self, nparams: int, batch_size: int, block_cells: int):
        super().__init__(nparams, batch_size, block_cells)
        if nparams > self.MAX_NPARAMS:
            raise RuntimeError(
                f"cext kernel supports at most p={self.MAX_NPARAMS}"
            )
        self._lib = _load()
        m, blk = self.nstreams, self.block_cells
        # flat output scratch, re-sliced tight per window width
        self._sz = np.empty(m * blk)
        self._gd = np.empty(m * blk)
        self._gx = np.empty(2 * self.nparams * blk)

    def fold_batch(
        self, slabs: Sequence[np.ndarray], lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        nb = len(slabs)
        m = self.nstreams
        p = self.nparams
        w = hi - lo
        stride = slabs[0].shape[1]
        ptrs = (ctypes.c_void_p * nb)(
            *[s.ctypes.data for s in slabs]
        )
        sz = self._sz[: m * w].reshape(m, w)
        gd = self._gd[: m * w].reshape(m, w)
        gx = self._gx[: 2 * p * w].reshape(2, p, w)
        rc = self._lib.fold_block(
            ctypes.cast(ptrs, ctypes.c_void_p), nb, m, stride, lo, w,
            sz.ctypes.data, gd.ctypes.data, gx.ctypes.data,
        )
        if rc != 0:  # pragma: no cover - guarded by MAX_NPARAMS
            raise RuntimeError(f"cext fold_block failed (rc={rc})")
        return center_raw_sums(sz, gd, gx, nb, p)

    def fold_into(self, slabs, lo, hi, mean, m2, cxy, na) -> bool:
        """Fused full fold: contraction + centering + Pebay combination
        in one pass over the slabs, written straight into the state."""
        nb = len(slabs)
        stride = slabs[0].shape[1]
        sstride = mean.shape[1]
        ptrs = (ctypes.c_void_p * nb)(
            *[s.ctypes.data for s in slabs]
        )
        rc = self._lib.fold_apply(
            ctypes.cast(ptrs, ctypes.c_void_p), nb, self.nstreams, stride,
            lo, hi - lo, na, sstride,
            mean.ctypes.data, m2.ctypes.data, cxy.ctypes.data,
        )
        if rc != 0:  # pragma: no cover - guarded by MAX_NPARAMS
            raise RuntimeError(f"cext fold_apply failed (rc={rc})")
        return True
